"""Triangle-mesh shape priors, ray casting that records every hit, and
surface-coordinate (face + barycentric) addressing.

Coordinates address points on the canonical topology, so the same coordinate
names the same body point on every posed copy of a mesh.

Every cast goes through one kernel, `cast_rays`, with this contract:

- Candidates are conservative. Rays are cast one origin group at a time.
  Face vertices and ray directions are projected centrally onto the plane
  normal to the rays' mean direction, and a face is tested only against the
  rays whose projection falls in its projected bounding box, padded far past
  the barycentric slack. A face with a vertex at or behind the origin's plane
  is tested against every ray; a ray pointing away from that plane only
  against such faces. The result is that of testing every (ray, face) pair.
- The test is Moller-Trumbore (Moller & Trumbore, JGT 1997) with inclusive
  barycentric bounds (BARY_TOL), keeping hits deeper than EPS_MIN.
- Depth is in units of the given direction vectors, which need not be unit.
- Hits of one ray that follow each other within DEPTH_TIE in depth (a ray
  through a shared edge or vertex) collapse to the smallest face index.
- At most `max_hits` hits per ray are kept, nearest first; the first hit is
  `max_hits=1`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidCoordinateError, ParseError
from .geometry import Ray

# hits closer than this are treated as self-intersections of a re-cast ray
EPS_MIN = 1e-9
# depth ties within this collapse to the smallest face index (shared edges)
DEPTH_TIE = 1e-12
# inclusive barycentric slack so shared-edge hits register in both triangles
BARY_TOL = 1e-10
# pad of a projected face box, in box extents per unit vertex-depth ratio;
# the barycentric slack needs at most 2 * BARY_TOL
BOX_PAD = 1e-8
# vertices closer than this to the origin's plane, relative to the mesh's
# extent about the origin, count as on it
PLANE_TOL = 1e-12
# rays per cell of the grid the projected rays are binned on
RAYS_PER_CELL = 2


@dataclass(frozen=True)
class SurfaceCoordinate:
    """Address of a surface point: face index + barycentric weights."""

    face: int
    bary: tuple[float, float, float]

    def __post_init__(self):
        # plain floats: extraction builds one coordinate per correspondence
        try:
            b = tuple(float(w) for w in self.bary)
        except (TypeError, ValueError) as exc:
            raise InvalidCoordinateError(f"bad barycentric weights {self.bary}") from exc
        if len(b) != 3 or not (min(b) >= -1e-9 and abs(b[0] + b[1] + b[2] - 1.0) <= 1e-9):
            raise InvalidCoordinateError(f"bad barycentric weights {self.bary}")
        object.__setattr__(self, "face", int(self.face))
        object.__setattr__(self, "bary", b)


@dataclass(frozen=True)
class SurfaceHit:
    """One ray-mesh intersection: depth along the ray, address, 3D point."""

    depth: float
    coord: SurfaceCoordinate
    point: np.ndarray


class TriangleMesh:
    """Immutable triangle mesh with the per-face vectors ray casting uses."""

    def __init__(self, vertices, faces):
        v = np.array(vertices, dtype=np.float64).reshape(-1, 3)
        f = np.array(faces, dtype=np.int64).reshape(-1, 3)
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise ValueError("face index out of range")
        self.vertices = v
        self.faces = f
        self._v0 = v[f[:, 0]]
        self._e1 = v[f[:, 1]] - self._v0
        self._e2 = v[f[:, 2]] - self._v0
        areas = 0.5 * np.linalg.norm(np.cross(self._e1, self._e2), axis=1)
        if f.size and areas.min() <= 1e-12:
            raise ValueError(f"degenerate face (area {areas.min():.3g})")
        self.face_areas = areas
        for a in (self.vertices, self.faces, self._v0, self._e1, self._e2, areas):
            a.flags.writeable = False

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    def transformed(self, rotation=None, translation=None, scale=1.0) -> "TriangleMesh":
        """Rigidly (plus isotropic scale) transformed copy; topology shared."""
        v = self.vertices * scale
        if rotation is not None:
            v = v @ np.asarray(rotation, dtype=np.float64).T
        if translation is not None:
            v = v + np.asarray(translation, dtype=np.float64)
        return TriangleMesh(v, self.faces)


def surface_point(mesh: TriangleMesh, c: SurfaceCoordinate) -> np.ndarray:
    """Barycentric evaluation of a surface coordinate on this mesh."""
    if not 0 <= c.face < mesh.num_faces:
        raise InvalidCoordinateError(f"face {c.face} out of range")
    tri = mesh.vertices[mesh.faces[c.face]]
    return np.asarray(c.bary) @ tri


def surface_points(mesh: TriangleMesh, faces: np.ndarray, barys: np.ndarray) -> np.ndarray:
    """Vectorized surface_point for (N,) face indices and (N, 3) weights."""
    faces = np.asarray(faces, dtype=np.int64)
    if faces.size and (faces.min() < 0 or faces.max() >= mesh.num_faces):
        raise InvalidCoordinateError("face index out of range")
    tris = mesh.vertices[mesh.faces[faces]]  # (N, 3, 3)
    return np.einsum("nk,nkj->nj", np.asarray(barys, dtype=np.float64), tris)


def surface_distance(mesh: TriangleMesh, a: SurfaceCoordinate, b: SurfaceCoordinate) -> float:
    """Euclidean distance between two surface coordinates evaluated on mesh."""
    return float(np.linalg.norm(surface_point(mesh, a) - surface_point(mesh, b)))


def cast_rays(mesh: TriangleMesh, origins, directions, max_hits: int | None = None):
    """Hits of many rays, nearest first, at most `max_hits` per ray.

    origins, directions: (N, 3). Returns (ray (K,), depth (K,), face (K,),
    bary (K, 3)) over the K hits kept, ordered by ray index, then depth.
    """
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    directions = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    if len(origins) == 0 or mesh.num_faces == 0:
        groups = []
    elif np.all(origins == origins[0]):
        groups = [(origins[0], np.arange(len(origins)))]
    else:
        uniq, group = np.unique(origins, axis=0, return_inverse=True)
        group = group.ravel()
        groups = [(o, np.flatnonzero(group == g)) for g, o in enumerate(uniq)]
    parts = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
              np.empty(0), np.empty(0), np.empty(0))]
    for origin, rows in groups:
        ray, face = _candidate_pairs(mesh, origin, directions[rows])
        t, u, v, valid = _moller_trumbore(mesh, origin, directions[rows], ray, face)
        parts.append((rows[ray[valid]], face[valid], t[valid], u[valid], v[valid]))
    ray, face, t, u, v = (np.concatenate(p) for p in zip(*parts))

    order = np.lexsort((face, t, ray))
    ray, face, t, u, v = ray[order], face[order], t[order], u[order], v[order]
    # tie groups; a ray meets a face at most once, so the group's smallest
    # face names its one survivor
    new_group = np.ones(len(ray), dtype=bool)
    new_group[1:] = (ray[1:] != ray[:-1]) | (t[1:] - t[:-1] > DEPTH_TIE)
    starts = np.flatnonzero(new_group)
    if len(starts):
        smallest = np.minimum.reduceat(face, starts)
        keep = face == np.repeat(smallest, np.diff(np.r_[starts, len(ray)]))
        ray, face, t, u, v = ray[keep], face[keep], t[keep], u[keep], v[keep]
    if max_hits is not None and len(ray):
        first = np.flatnonzero(np.r_[True, ray[1:] != ray[:-1]])
        rank = np.arange(len(ray)) - np.repeat(first, np.diff(np.r_[first, len(ray)]))
        keep = rank < max_hits
        ray, face, t, u, v = ray[keep], face[keep], t[keep], u[keep], v[keep]
    bary = np.clip(np.column_stack([1.0 - u - v, u, v]), 0.0, None)
    bary /= bary.sum(axis=1, keepdims=True)
    return ray, t, face, bary


def _moller_trumbore(mesh: TriangleMesh, origin, dirs, ray, face):
    """(t, u, v, hit-mask) of rays `dirs` from `origin` on the (ray, face) pairs.

    With one origin the triple products factor into per-face vectors, so the
    determinant and the numerators of u and v are dot products of the ray
    direction with a per-face (3, 3) table.
    """
    tvec = origin - mesh._v0
    qvec = np.cross(tvec, mesh._e1)
    table = np.stack([np.cross(mesh._e1, mesh._e2), np.cross(mesh._e2, tvec), qvec], axis=2)
    dots = (dirs[ray][:, None, :] @ table[face])[:, 0]  # -det, u and v numerators
    det = -dots[:, 0]
    ok = np.abs(det) > 1e-14
    inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    u = dots[:, 1] * inv
    v = dots[:, 2] * inv
    t = np.einsum("fj,fj->f", qvec, mesh._e2)[face] * inv
    valid = ok & (u >= -BARY_TOL) & (v >= -BARY_TOL) & (u + v <= 1.0 + BARY_TOL) & (t > EPS_MIN)
    return t, u, v, valid


def _candidate_pairs(mesh: TriangleMesh, origin, dirs):
    """(ray, face) index pairs that may intersect, for rays from one origin."""
    lengths = np.linalg.norm(dirs, axis=1, keepdims=True)
    axis = (dirs / np.where(lengths > 0.0, lengths, 1.0)).sum(axis=0)
    if not np.linalg.norm(axis) > 0.0:
        axis = np.array([0.0, 0.0, 1.0])
    axis /= np.linalg.norm(axis)
    side = np.cross(np.eye(3)[np.argmin(np.abs(axis))], axis)
    side /= np.linalg.norm(side)
    frame = np.stack([side, np.cross(axis, side), axis])  # rows: plane x, y, normal

    vert = (mesh.vertices - origin) @ frame.T
    on_plane = vert[:, 2] <= PLANE_TOL * np.abs(vert).max()
    corners = mesh.faces.T  # (3, F)
    behind = on_plane[corners[0]] | on_plane[corners[1]] | on_plane[corners[2]]
    local = dirs @ frame.T
    ray_parts, face_parts = [], []

    # rays into the far half-space against faces wholly in it
    ahead = np.flatnonzero(~behind)
    front = np.flatnonzero(local[:, 2] > 0.0)
    if len(ahead) and len(front):
        z = np.where(on_plane, 1.0, vert[:, 2])
        # (3, faces) corner values of the projected x and y and of the depth
        cx, cy, cz = (c[corners[:, ahead]] for c in (vert[:, 0] / z, vert[:, 1] / z, z))
        lo = np.stack([cx.min(axis=0), cy.min(axis=0)])  # (2, faces)
        hi = np.stack([cx.max(axis=0), cy.max(axis=0)])
        # central projection scales a barycentric slack by at most the ratio
        # of the face's vertex depths; the last term covers rounding
        pad = (BOX_PAD * (hi - lo).max(axis=0) * cz.max(axis=0) / cz.min(axis=0)
               + 1e-9 * np.maximum(np.abs(lo), np.abs(hi)).max(axis=0))
        lo -= pad
        hi += pad
        q = local[front, :2].T / local[front, 2]  # (2, rays)
        inside = np.all((q >= lo.min(axis=1, keepdims=True))
                        & (q <= hi.max(axis=1, keepdims=True)), axis=0)
        front, q = front[inside], q[:, inside]
    if len(ahead) and len(front):
        n = max(1, int(np.sqrt(len(front) / RAYS_PER_CELL)))  # n x n grid
        q0 = q.min(axis=1, keepdims=True)
        size = np.maximum(q.max(axis=1, keepdims=True) - q0, 1e-300) / n
        ix, iy = np.minimum(((q - q0) / size).astype(np.int64), n - 1)
        by_cell = np.argsort(iy * n + ix, kind="stable")
        cell_start = np.searchsorted((iy * n + ix)[by_cell], np.arange(n * n + 1))
        # cell range of each box; rounding is monotone, so a ray inside a box
        # falls in a cell inside its range
        c0 = np.clip(np.floor((lo - q0) / size), 0, n - 1).astype(np.int64)
        c1 = np.clip(np.floor((hi - q0) / size), -1, n - 1).astype(np.int64)
        rows = np.maximum(c1[1] - c0[1] + 1, 0) * (c1[0] >= c0[0])
        box = np.repeat(np.arange(len(ahead)), rows)
        row = _ranges(c0[1, rows > 0], rows[rows > 0])
        # the cells of one box row hold a contiguous run of the sorted rays
        first = cell_start[row * n + c0[0, box]]
        count = cell_start[row * n + c1[0, box] + 1] - first
        box = np.repeat(box, count)
        pos = by_cell[_ranges(first, count)]
        qx, qy = q[0, pos], q[1, pos]
        inbox = (qx >= lo[0, box]) & (qx <= hi[0, box]) & (qy >= lo[1, box]) & (qy <= hi[1, box])
        ray_parts.append(front[pos[inbox]])
        face_parts.append(ahead[box[inbox]])

    # faces at or behind the origin's plane against every ray
    straddle = np.flatnonzero(behind)
    ray_parts.append(np.repeat(np.arange(len(dirs)), len(straddle)))
    face_parts.append(np.tile(straddle, len(dirs)))
    return np.concatenate(ray_parts), np.concatenate(face_parts)


def _ranges(starts, counts):
    """Concatenation of the integer ranges [starts[i], starts[i] + counts[i])."""
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(ends[-1] if len(ends) else 0)


def ray_mesh_all_hits(mesh: TriangleMesh, ray: Ray) -> list[SurfaceHit]:
    """Every intersection of a ray with the mesh, ascending in depth.

    A miss returns an empty list.
    """
    _, depth, face, bary = cast_rays(mesh, ray.origin[None], ray.direction[None])
    return [
        SurfaceHit(float(t), SurfaceCoordinate(int(f), tuple(b)), ray.point_at(float(t)))
        for t, f, b in zip(depth, face, bary)
    ]


def first_hit(mesh: TriangleMesh, ray: Ray) -> SurfaceHit | None:
    """Nearest intersection, or None on a miss."""
    hits = ray_mesh_all_hits(mesh, ray)
    return hits[0] if hits else None


def batch_first_hits(mesh: TriangleMesh, origins: np.ndarray, directions: np.ndarray):
    """First hit of many rays.

    origins, directions: (N, 3); depths are in units of the given direction
    vectors. Returns (depth (N,), face (N,), bary (N, 3), hit-mask (N,)), with
    depth inf, face -1 and bary 0 on a miss.
    """
    n = len(np.asarray(directions).reshape(-1, 3))
    ray, t, f, b = cast_rays(mesh, origins, directions, max_hits=1)
    depth = np.full(n, np.inf)
    face = np.full(n, -1, dtype=np.int64)
    bary = np.zeros((n, 3))
    depth[ray], face[ray], bary[ray] = t, f, b
    return depth, face, bary, face >= 0


def batch_all_hits(mesh: TriangleMesh, origins: np.ndarray, directions: np.ndarray,
                   max_hits: int | None = None):
    """All hits of many rays, per ray ascending in depth.

    Returns a list of (depths (k,), faces (k,), barys (k, 3)) per ray, with k
    capped at max_hits.
    """
    n = len(np.asarray(directions).reshape(-1, 3))
    ray, depth, face, bary = cast_rays(mesh, origins, directions, max_hits=max_hits)
    bounds = np.searchsorted(ray, np.arange(n + 1))
    return [(depth[a:b], face[a:b], bary[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def load_mesh_text(path) -> TriangleMesh:
    """Read the `v x y z` / `f i j k` exchange format (1-based indices).

    Lines of any other type are ignored; malformed v/f lines raise ParseError.
    """
    verts, faces = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                if len(parts) != 4:
                    raise ParseError("vertex line needs 3 coordinates", path, ln)
                try:
                    verts.append([float(x) for x in parts[1:]])
                except ValueError as exc:
                    raise ParseError(str(exc), path, ln) from exc
            elif parts[0] == "f":
                if len(parts) != 4:
                    raise ParseError("face line needs 3 indices", path, ln)
                try:
                    faces.append([int(x) - 1 for x in parts[1:]])
                except ValueError as exc:
                    raise ParseError(str(exc), path, ln) from exc
    return TriangleMesh(np.array(verts, dtype=np.float64), np.array(faces, dtype=np.int64))


def save_mesh_text(mesh: TriangleMesh, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in mesh.vertices:
            fh.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")
