"""Triangle-mesh shape priors, ray casting that records every hit, and
evaluation of surface coordinates (face + barycentric weights), all on arrays.

A surface coordinate addresses a point on the canonical topology, so the same
coordinate names the same body point on every posed copy of a mesh.

Every ray is cast from the origin of the mesh's frame: a camera casts its
pixel rays on the mesh posed in its own frame. One kernel, `batch_all_hits`,
casts arrays of rays; `batch_first_hits` only reshapes its result. Its
contract:

- Candidates are conservative. Face vertices and ray directions are
  projected centrally onto the plane z = 1, the casting camera's normalized
  image plane, and a face is tested only against the rays whose projection
  falls in its projected bounding box, padded far past the barycentric
  slack. The boxes are binned on a uniform grid whose cell area is
  FACES_PER_CELL times the boxes' union area per face; each box spans
  several cells and is listed in each. A ray is box-tested against the
  faces listed in its own cell. A face with a vertex at or behind the plane z = 0 is tested
  against every ray; a ray with z <= 0 only against such faces. The result
  is that of testing every (ray, face) pair.
- All per-face data of a cast (face split, boxes, grid and the
  Moller-Trumbore coefficient rows) depend on the mesh only. They are built
  on the mesh's first cast and kept for its life, so a cast costs time in
  proportion to its rays and candidate pairs.
- The test is Moller-Trumbore (Moller & Trumbore, JGT 1997) with inclusive
  barycentric bounds (BARY_TOL), keeping hits deeper than EPS_MIN. From
  the origin, its determinant and the numerators of u and v are dot
  products of the ray direction with three per-face vectors, edge
  functions as in Pineda (SIGGRAPH 1988), read from nine coefficient rows.
- Depth is in units of the given direction vectors, which need not be unit.
- Hits of one ray that follow each other within DEPTH_TIE in depth (a ray
  through a shared edge or vertex) collapse to the smallest face index.
- At most `max_hits` hits per ray are kept, nearest first; the first hit is
  `max_hits=1`.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import InvalidCoordinateError

# hits closer than this are treated as self-intersections of a re-cast ray
EPS_MIN = 1e-9
# depth ties within this collapse to the smallest face index (shared edges)
DEPTH_TIE = 1e-12
# inclusive barycentric slack so shared-edge hits register in both triangles
BARY_TOL = 1e-10
# pad of a projected face box, in box extents per unit vertex-depth ratio;
# the barycentric slack needs at most 2 * BARY_TOL
BOX_PAD = 1e-8
# vertices closer than this to the plane z = 0, relative to the mesh's
# extent about the origin, count as on it
PLANE_TOL = 1e-12
# cell area of the grid the projected face boxes are binned on, as a multiple
# of the boxes' union area per face; a box spans several cells, so a cell
# lists several faces
FACES_PER_CELL = 1
# rays cast at once; bounds the candidate pairs a cast holds in memory
CAST_BLOCK = 4096


class TriangleMesh:
    """Immutable triangle mesh with each face's corner coordinates, and the
    cast table built on its first cast (`_cast_table`).

    A read-only int64 (F, 3) `faces` array is adopted as it is, so
    transformed copies share one topology; anything else is copied."""

    def __init__(self, vertices, faces):
        v = np.array(vertices, dtype=np.float64).reshape(-1, 3)
        f = read_only(faces, np.int64)
        if not np.isfinite(v).all():
            raise ValueError("vertices must be finite")
        if f.ndim != 2 or f.shape[1] != 3:
            raise ValueError("faces must be (F, 3)")
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise ValueError("face index out of range")
        self.vertices = v
        self.faces = f
        # (F, 3, 3) corner coordinates per face, gathered once: evaluating
        # surface coordinates then takes one row per point
        self.corners = v[f]
        v0, v1, v2 = self.corners.transpose(1, 0, 2)
        areas = 0.5 * np.linalg.norm(np.cross(v1 - v0, v2 - v0), axis=1)
        if f.size and areas.min() <= 1e-12:
            raise ValueError(f"degenerate face (area {areas.min():.3g})")
        v.flags.writeable = self.corners.flags.writeable = False

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    def transformed(self, rotation=None, translation=None) -> "TriangleMesh":
        """Rigidly transformed copy; topology shared."""
        v = self.vertices
        if rotation is not None:
            v = v @ np.asarray(rotation, dtype=np.float64).T
        if translation is not None:
            v = v + np.asarray(translation, dtype=np.float64)
        return TriangleMesh(v, self.faces)

    @cached_property
    def _cast_table(self) -> "_CastTable":
        """Per-face data of casts from the origin; the mesh's arrays are
        read-only, so the table stays valid for the mesh's life."""
        return _CastTable(self)


def read_only(a, dtype) -> np.ndarray:
    """`a` itself when it is a read-only array of `dtype`, else a read-only copy."""
    if isinstance(a, np.ndarray) and a.dtype == dtype and not a.flags.writeable:
        return a
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


def surface_points(mesh: TriangleMesh, faces: np.ndarray, barys: np.ndarray) -> np.ndarray:
    """Points of (N,) face indices and (N, 3) barycentric weights on `mesh`."""
    faces = np.asarray(faces, dtype=np.int64)
    if faces.size and (faces.min() < 0 or faces.max() >= mesh.num_faces):
        raise InvalidCoordinateError("face index out of range")
    tris = np.take(mesh.corners, faces, axis=0)  # (N, 3, 3)
    return np.einsum("nk,nkj->nj", np.asarray(barys, dtype=np.float64), tris)


def batch_all_hits(mesh: TriangleMesh, directions, max_hits: int | None = None):
    """Hits of many rays from the origin, nearest first, at most `max_hits`
    per ray.

    directions: (N, 3). Returns (ray (K,), depth (K,), face (K,), bary (K, 3))
    over the K hits kept, ordered by ray index, then depth. There is no
    single-ray variant: one ray is a batch of one. Rays are cast in blocks
    of CAST_BLOCK, which bounds the memory of a cast's candidate pairs; a
    ray's hits do not depend on the other rays, so the blocks' results are
    concatenated as they are.
    """
    directions = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    blocks = []
    if mesh.num_faces:
        for start in range(0, len(directions), CAST_BLOCK):
            ray, t, face, bary = _cast_block(mesh._cast_table,
                                             directions[start:start + CAST_BLOCK], max_hits)
            blocks.append((ray + start, t, face, bary))
    if not blocks:
        return (np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64),
                np.empty((0, 3)))
    return tuple(np.concatenate(part) for part in zip(*blocks))


def _cast_block(table: "_CastTable", directions, max_hits):
    """`batch_all_hits` on one block of rays, on its mesh's cast `table`."""
    ray, face = _candidate_pairs(table, directions)
    t, u, v, valid = _moller_trumbore(table, directions, ray, face)
    # valid hits by ray, then depth; hits of equal depth may come in any order
    hit = np.flatnonzero(valid)
    hit = hit[np.argsort(t[hit])]
    hit = hit[np.argsort(ray[hit], kind="stable")]
    ray, depth, hit_face = ray[hit], t[hit], face[hit]
    # tie groups; a ray meets a face at most once, so the group's smallest
    # face names its one survivor, whatever order the sort left the group in
    new_group = np.ones(len(ray), dtype=bool)
    new_group[1:] = (ray[1:] != ray[:-1]) | (depth[1:] - depth[:-1] > DEPTH_TIE)
    starts = np.flatnonzero(new_group)
    smallest = np.minimum.reduceat(hit_face, starts)
    keep = hit_face == np.repeat(smallest, np.diff(np.r_[starts, len(ray)]))
    hit, ray = hit[keep], ray[keep]
    if max_hits is not None:
        keep = run_ranks(ray) < max_hits
        hit, ray = hit[keep], ray[keep]
    t, u, v = t[hit], u[hit], v[hit]
    face = face[hit].astype(np.int64)  # the table's indices are int32
    bary = np.clip(np.column_stack([1.0 - u - v, u, v]), 0.0, None)
    # column sums in the order of a row sum, without its per-row overhead
    bary /= (bary[:, 0] + bary[:, 1] + bary[:, 2])[:, None]
    return ray, t, face, bary


class _CastTable:
    """Per-face data of casts from the origin on one mesh (see the module
    contract): the ahead/straddle face split about the plane z = 0, the
    padded boxes of the ahead faces projected onto z = 1 on a uniform grid,
    and the Moller-Trumbore rows: `coef` (9, F), whose row 3j + k holds
    component j of the vector that gives -det (k = 0) or the numerator of u
    (1) or v (2), and the depth numerators `t_num` (F,). Index arrays are
    int32 to keep tables small."""

    def __init__(self, mesh: TriangleMesh):
        vert = mesh.vertices
        on_plane = vert[:, 2] <= PLANE_TOL * np.abs(vert).max()
        corners = mesh.faces.T  # (3, F)
        behind = on_plane[corners[0]] | on_plane[corners[1]] | on_plane[corners[2]]
        self.straddle = np.flatnonzero(behind).astype(np.int32)
        self.ahead = np.flatnonzero(~behind).astype(np.int32)
        if len(self.ahead):
            self._bin_boxes(vert, np.where(on_plane, 1.0, vert[:, 2]), corners[:, self.ahead])

        v0, v1, v2 = mesh.corners.transpose(1, 2, 0)  # (3, F) each
        e1, e2, tvec = v1 - v0, v2 - v0, -v0
        normal, u_row, v_row = (a[[1, 2, 0]] * b[[2, 0, 1]] - a[[2, 0, 1]] * b[[1, 2, 0]]
                                for a, b in ((e1, e2), (e2, tvec), (tvec, e1)))  # a x b
        self.coef = np.stack([normal, u_row, v_row], axis=1).reshape(9, -1)
        self.t_num = v_row[0] * e2[0] + v_row[1] * e2[1] + v_row[2] * e2[2]

    def _bin_boxes(self, vert, z, corners):
        """Padded projected boxes of the ahead faces (corner indices
        `corners`, (3, faces); vertex depths `z`, positive on their corners)
        and their grid, a CSR list of cell -> faces."""
        (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = (
            c[corners] for c in (vert[:, 0] / z, vert[:, 1] / z, z))
        lo = np.stack([np.minimum(np.minimum(x0, x1), x2), np.minimum(np.minimum(y0, y1), y2)])
        hi = np.stack([np.maximum(np.maximum(x0, x1), x2), np.maximum(np.maximum(y0, y1), y2)])
        # central projection scales a barycentric slack by at most the ratio
        # of the face's vertex depths; the last term covers rounding
        extent = hi - lo
        reach = np.maximum(np.abs(lo), np.abs(hi))
        pad = (BOX_PAD * np.maximum(extent[0], extent[1])
               * np.maximum(np.maximum(z0, z1), z2) / np.minimum(np.minimum(z0, z1), z2)
               + 1e-9 * np.maximum(reach[0], reach[1]))
        lo -= pad
        hi += pad
        self.box = np.concatenate([lo, hi])  # (4, faces): x and y lows, then highs

        faces = lo.shape[1]
        self.q0, self.q1 = lo.min(axis=1), hi.max(axis=1)  # the boxes' union
        span = self.q1 - self.q0
        # near-square cells of FACES_PER_CELL times the union area per face
        cell = np.sqrt(span[0] * span[1] * FACES_PER_CELL / faces)
        n = np.clip(np.ceil(span / cell), 1, faces) if cell > 0.0 else np.ones(2)
        self.n = n = n.astype(np.int64)
        self.size = np.maximum(span, 1e-300) / n
        # cell range of each box; rounding is monotone, so a ray inside a box
        # falls in a cell inside its range
        c0 = self._cell(lo.T).T
        c1 = self._cell(hi.T).T
        rows = c1[1] - c0[1] + 1
        row_face = np.repeat(np.arange(faces), rows)  # one entry per (face, cell row)
        width = (c1[0] - c0[0] + 1)[row_face]
        cells = (np.repeat(concat_ranges(c0[1], rows) * n[0], width)
                 + concat_ranges(c0[0, row_face], width))
        # a counting sort by cell: numpy sorts integers of at most 16 bits
        # stably by radix; the order within a cell does not matter
        order = np.argsort(cells.astype(np.min_scalar_type(n[0] * n[1])), kind="stable")
        self.cell_faces = np.repeat(row_face, width)[order].astype(np.int32)
        per_cell = np.bincount(cells, minlength=n[0] * n[1])
        self.cell_start = np.r_[0, np.cumsum(per_cell)].astype(np.int32)

    def _cell(self, q):
        """(N, 2) grid cell (x, y) of projected points `q` (N, 2)."""
        return np.clip(np.floor((q - self.q0) / self.size), 0, self.n - 1).astype(np.int64)


def _moller_trumbore(table: _CastTable, dirs, ray, face):
    """(t, u, v, hit-mask) of rays `dirs` from the origin on the (ray, face)
    pairs, from the faces' coefficient rows (see the module contract)."""
    dx, dy, dz = (d[ray] for d in dirs.T)
    m = table.coef
    neg_det, u, v = (dx * m[k][face] + dy * m[3 + k][face] + dz * m[6 + k][face]
                     for k in range(3))
    ok = np.abs(neg_det) > 1e-14
    inv = np.divide(-1.0, neg_det, out=np.zeros_like(neg_det), where=ok)  # 1 / det
    u *= inv
    v *= inv
    t = table.t_num[face] * inv
    valid = ok & (u >= -BARY_TOL) & (v >= -BARY_TOL) & (u + v <= 1.0 + BARY_TOL) & (t > EPS_MIN)
    return t, u, v, valid


def _candidate_pairs(table: _CastTable, dirs):
    """(ray, face) index pairs that may intersect, for rays `dirs` from the
    origin."""
    ray_parts, face_parts = [], []

    # rays into z > 0 against the ahead faces listed in their cell
    front = np.flatnonzero(dirs[:, 2] > 0.0)
    if len(table.ahead) and len(front):
        q = dirs[front, :2] / dirs[front, 2:]  # (rays, 2)
        inside = ((q[:, 0] >= table.q0[0]) & (q[:, 0] <= table.q1[0])
                  & (q[:, 1] >= table.q0[1]) & (q[:, 1] <= table.q1[1]))
        front, q = front[inside], q[inside]
        cx, cy = table._cell(q).T
        cell = cy * table.n[0] + cx
        first = table.cell_start[cell]
        count = table.cell_start[cell + 1] - first
        box = table.cell_faces[concat_ranges(first, count)]
        qx, qy = np.repeat(q[:, 0], count), np.repeat(q[:, 1], count)
        lox, loy, hix, hiy = (np.take(b, box) for b in table.box)
        inbox = (qx >= lox) & (qx <= hix) & (qy >= loy) & (qy <= hiy)
        ray_parts.append(np.repeat(front, count)[inbox])
        face_parts.append(table.ahead[box[inbox]])

    # faces at or behind the plane z = 0 against every ray
    straddle = table.straddle
    if len(straddle) or not ray_parts:
        ray_parts.append(np.repeat(np.arange(len(dirs)), len(straddle)))
        face_parts.append(np.tile(straddle, len(dirs)))
    return tuple(p[0] if len(p) == 1 else np.concatenate(p) for p in (ray_parts, face_parts))


def run_ranks(keys) -> np.ndarray:
    """Position of each entry of sorted keys within its run of equal keys."""
    return np.arange(len(keys)) - np.searchsorted(keys, keys)


def concat_ranges(starts, counts):
    """Concatenation of the integer ranges [starts[i], starts[i] + counts[i])."""
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(ends[-1] if len(ends) else 0)


def batch_first_hits(mesh: TriangleMesh, directions: np.ndarray):
    """First hit of many rays from the origin.

    directions: (N, 3); depths are in units of the given direction vectors.
    Returns (depth (N,), face (N,), bary (N, 3), hit-mask (N,)), with depth
    inf, face -1 and bary 0 on a miss.
    """
    n = len(np.asarray(directions).reshape(-1, 3))
    ray, t, f, b = batch_all_hits(mesh, directions, max_hits=1)
    depth = np.full(n, np.inf)
    face = np.full(n, -1, dtype=np.int64)
    bary = np.zeros((n, 3))
    depth[ray], face[ray], bary[ray] = t, f, b
    return depth, face, bary, face >= 0
