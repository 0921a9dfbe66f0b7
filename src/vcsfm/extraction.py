"""Virtual-correspondence extraction from posed shape priors and dense
pixel-to-surface maps.

A pixel pair across two images is emitted whenever a ray cast through one
image's prior surface pierces a point that the other image observes in its
surface map. Matching runs on surface coordinates of the shared canonical
topology; no appearance is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import InvalidCoordinateError, TopologyMismatchError
from .geometry import (CameraIntrinsics, Pixel, Ray, SE3Pose, closest_approach, in_image,
                       is_count, pixel_records, ray_through_pixel, read_only)
from .mesh import TriangleMesh, batch_all_hits, concat_ranges, run_ranks, surface_points

MAX_HITS_PER_RAY = 4  # surface points taken along each cast ray, nearest first
TOLERANCE_FLOOR = 0.01  # smallest match tolerance suggest_surface_tolerance returns
TOLERANCE_FACTOR = 1.6  # its tolerance as a multiple of the median footprint
JOIN_CELLS_MAX = 1 << 20  # cells per axis of the radius join's grid: keys fit int64
# (dx, dy) of the nine cell columns around a cell
_COLUMNS = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)])


@dataclass(frozen=True, eq=False)
class DenseSurfaceMap:
    """Surface coordinates of the mapped pixels of a (height, width) image,
    the dense 2D-3D association over the pixels the subject covers.

    Only the mapped entries are stored, in three aligned arrays: `index`
    (N,), the flat row-major pixel indices, strictly ascending and inside
    the image; `faces` (N,), non-negative face indices; and `barys` (N, 3),
    barycentric weights, each at least -1e-9 and summing to 1 within 1e-9
    (InvalidCoordinateError). Unmapped pixels hold nothing, so a map's
    memory grows with its entries, not with the image. Immutable: a
    read-only array of its dtype (int64, int64, float64) is adopted
    as it is, anything else is copied.
    """

    width: int
    height: int
    index: np.ndarray
    faces: np.ndarray
    barys: np.ndarray

    def __post_init__(self):
        width, height = self.width, self.height
        if not (is_count(width) and is_count(height)):
            raise ValueError("width and height must be positive integers")
        index = read_only(self.index, np.int64)
        faces = read_only(self.faces, np.int64)
        barys = read_only(self.barys, np.float64)
        if index.ndim != 1 or faces.shape != index.shape or barys.shape != index.shape + (3,):
            raise ValueError("index and faces must be (N,) and barys (N, 3)")
        if len(index):
            if not (index[0] >= 0 and index[-1] < width * height
                    and np.all(index[1:] > index[:-1])):
                raise ValueError("index must ascend strictly inside the image")
            if faces.min() < 0:
                raise ValueError("face indices must be >= 0")
            total = barys[:, 0] + barys[:, 1] + barys[:, 2]
            if not (barys.min() >= -1e-9 and np.abs(total - 1.0).max() <= 1e-9):
                raise InvalidCoordinateError("mapped pixels need barycentric weights "
                                             ">= 0 that sum to 1")
        for name, value in (("width", int(width)), ("height", int(height)),
                            ("index", index), ("faces", faces), ("barys", barys)):
            object.__setattr__(self, name, value)

    def mapped_pixels(self, stride: int = 1) -> np.ndarray:
        """(N, 2) integer (u, v) of mapped pixels in row-major order, only
        those with both coordinates multiples of `stride` (an int >= 1, not a
        bool; ValueError otherwise)."""
        if not is_count(stride):
            raise ValueError("stride must be an int >= 1")
        v, u = np.divmod(self.index, self.width)
        on_grid = (u % stride == 0) & (v % stride == 0)
        return np.column_stack([u[on_grid], v[on_grid]])


@dataclass(frozen=True)
class ShapePrior:
    """One subject's prior in one image: posed mesh + its surface map."""

    person_id: int
    mesh: TriangleMesh
    surface_map: DenseSurfaceMap

    def __post_init__(self):
        f = self.surface_map.faces
        if f.size and f.max() >= self.mesh.num_faces:
            raise ValueError("surface map references faces beyond the mesh")


@dataclass(frozen=True)
class ImageRecord:
    """Everything known about one image: calibration plus its shape priors,
    kept as a tuple.

    Prior meshes live in this image's camera frame.
    """

    image_id: str
    intrinsics: CameraIntrinsics
    priors: tuple[ShapePrior, ...]

    def __post_init__(self):
        object.__setattr__(self, "priors", tuple(self.priors))
        if not self.priors:
            raise ValueError("record needs at least one shape prior")
        dims = {(p.surface_map.width, p.surface_map.height) for p in self.priors}
        if len(dims) != 1:
            raise ValueError("surface maps of one record must share dimensions")
        ids = [p.person_id for p in self.priors]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate person_id within a record")

    def prior_for(self, person_id: int) -> ShapePrior:
        """Prior of one person; KeyError if the record has none."""
        for p in self.priors:
            if p.person_id == person_id:
                return p
        raise KeyError(f"image {self.image_id!r} has no prior of person {person_id}")

    def posed_mesh(self, person_id: int) -> TriangleMesh:
        """Prior mesh of one person, in the camera frame."""
        return self.prior_for(person_id).mesh


class VirtualCorrespondence(NamedTuple):
    """Pixel pair whose camera rays meet on the hallucinated surface: a
    (pixel_a, pixel_b, hit_rank, person_id) tuple, so equality compares the
    four fields as a tuple does.

    hit_rank is the index of the intersecting surface point along the casting
    ray (0 = also visible in the casting image). The point's surface
    coordinate is the observer's map entry at its pixel.
    """

    pixel_a: Pixel
    pixel_b: Pixel
    hit_rank: int
    person_id: int = 0


@dataclass(frozen=True)
class ExtractionParams:
    """Casting grid and match tolerance of the extraction pass: pixels on
    every `stride`-th row and column cast (an int >= 1, not a bool), and a
    hit matches an observer entry at most `surface_tolerance` (finite, > 0)
    from it."""

    stride: int = 4
    surface_tolerance: float = 0.01

    def __post_init__(self):
        if not (is_count(self.stride) and 0.0 < self.surface_tolerance < np.inf):
            raise ValueError("stride must be an int >= 1 and tolerance positive and finite")


def suggest_surface_tolerance(records) -> float:
    """Match tolerance scaled to the maps' surface footprint per pixel.

    A dense map quantizes the surface at roughly depth/focal units per pixel;
    matching needs a tolerance above that, so take TOLERANCE_FACTOR x the
    median footprint across all priors (but never below TOLERANCE_FLOOR).
    """
    footprints = []
    for rec in records:
        f = 0.5 * (rec.intrinsics.fx + rec.intrinsics.fy)
        for prior in rec.priors:
            dsm = prior.surface_map
            if len(dsm.faces) == 0:
                continue
            depth = float(np.median(surface_points(prior.mesh, dsm.faces, dsm.barys)[:, 2]))
            if depth > 0.0:
                footprints.append(depth / f)
    if not footprints:
        return TOLERANCE_FLOOR
    return max(TOLERANCE_FLOOR, TOLERANCE_FACTOR * float(np.median(footprints)))


def _pairs_within(points, queries, radius: float):
    """Every (query, point) pair at most `radius` (finite, >= 0) apart,
    inclusive: sqrt(d2) <= radius, rounded as a scan would round it.
    Returns (query, point, d2), grouped by ascending query.

    The points are hashed on a grid of cubes a hair wider than `radius`, so
    a pair within it is at most one cell apart per axis. Two empty cells pad
    the points' cells on every side: a query in the inner pad cell may have
    points in reach, one farther out has none and is dropped. Keys run x-,
    y-, then z-major, so each of a query's nine (x, y) columns of three
    cells is one run of the sorted point keys, found by one binary search
    in the occupied cells; the queries are sorted first so that the
    searches run in order.
    """
    if not 0.0 <= radius < np.inf:
        raise ValueError("radius must be finite and >= 0")
    # (3, N) rows: reductions and gathers run several times faster on them
    pt = np.asarray(points, dtype=np.float64).reshape(-1, 3).T.copy()
    qt = np.asarray(queries, dtype=np.float64).reshape(-1, 3).T.copy()
    if pt.shape[1] == 0 or qt.shape[1] == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
    lo, hi = pt.min(axis=1), pt.max(axis=1)
    # any side will do when all points coincide and the radius is zero
    side = max(radius * (1.0 + 1e-6), float((hi - lo).max()) / JOIN_CELLS_MAX) or 1.0
    origin = (lo - 2.0 * side)[:, None]
    n = np.floor((hi[:, None] - origin) / side).astype(np.int64) + 3
    place = np.array([n[1] * n[2], n[2], [1]])  # key = place . cell

    # points fill cells [2, n - 3]; the clip only undoes rounding at lo
    pcell = np.clip(np.floor((pt - origin) / side), 2, n - 3).astype(np.int64)
    pkey = (pcell * place).sum(axis=0)
    order = np.argsort(pkey)
    pkey = pkey[order]
    qcell = np.clip(np.floor((qt - origin) / side), -1, n)
    valid = np.flatnonzero(((qcell >= 1) & (qcell <= n - 2)).all(axis=0))
    qkey = (qcell[:, valid].astype(np.int64) * place).sum(axis=0)
    qorder = np.argsort(qkey)
    qkey = qkey[qorder]

    # occupied cells and their first points, closed by sentinels
    head = np.flatnonzero(np.r_[True, pkey[1:] != pkey[:-1]])
    cells = np.r_[pkey[head], [np.iinfo(np.int64).max] * 3]
    head = np.r_[head, [len(pkey)] * 4]
    # column (x + dx, y + dy, z - 1 .. z + 1): up to three cells from `low`
    low = qkey + (_COLUMNS @ place[:2, 0] - 1)[:, None]  # (9, queries)
    i = np.searchsorted(cells[:-3], low)
    high = low + 2
    end = i + (cells[i] <= high) + (cells[i + 1] <= high) + (cells[i + 2] <= high)
    rank = np.empty_like(qorder)  # back from key order to query order
    rank[qorder] = np.arange(len(qorder))
    first = head[i][:, rank].T
    count = head[end][:, rank].T - first
    point = order[concat_ranges(first.ravel(), count.ravel())]
    query = np.repeat(valid, count.sum(axis=1))
    dx, dy, dz = (p[point] - q[query] for p, q in zip(pt, qt))
    d2 = dx * dx + dy * dy + dz * dz
    keep = np.sqrt(d2) <= radius
    return query[keep], point[keep], d2[keep]


def _nearest(key, other, d2, size: int) -> np.ndarray:
    """Per key in range(size): its nearest `other` over the (key, other, d2)
    pairs, the smallest index among ties (int64 max for a key without pairs)."""
    best = np.full(size, np.inf)
    np.minimum.at(best, key, d2)
    tied = d2 == best[key]
    nearest = np.full(size, np.iinfo(np.int64).max)
    np.minimum.at(nearest, key[tied], other[tied])
    return nearest


def _mutual_nearest(points, queries, radius: float):
    """(query, point) index pairs within `radius` of each other, inclusive,
    where each is the other's nearest; the smallest index wins a tie on
    either side. Ordered by ascending query.

    A point's nearest query is no farther than a query it is nearest to,
    so within `radius`, and the one radius join holds both directions.
    """
    query, point, d2 = _pairs_within(points, queries, radius)
    mutual = ((_nearest(query, point, d2, len(queries))[query] == point)
              & (_nearest(point, query, d2, len(points))[point] == query))
    return query[mutual], point[mutual]


def _check_shared_topology(mesh_a: TriangleMesh, mesh_b: TriangleMesh):
    if len(mesh_a.vertices) != len(mesh_b.vertices) or not np.array_equal(
        mesh_a.faces, mesh_b.faces
    ):
        raise TopologyMismatchError("prior meshes do not share canonical topology")


def _cast_one_direction(mesh_c: TriangleMesh, k_c: CameraIntrinsics,
                        dsm_c: DenseSurfaceMap, dsm_o: DenseSurfaceMap,
                        params: ExtractionParams):
    """Matches found by casting rays through the casting prior (`mesh_c`,
    camera `k_c`, map `dsm_c`) and matching in the observer's map `dsm_o`.

    Every mapped pixel of `dsm_c` on the `stride` grid casts its
    unnormalized pixel ray (z = 1) through `mesh_c`; only the hits' faces and
    barycentric weights are read, never their depths. The observer's entries
    are placed on `mesh_c` too, so distances are canonical-topology
    distances. A hit matches the entry nearest to it when that entry lies
    within `surface_tolerance` (distance <= tolerance) and the hit is in
    turn the entry's nearest hit; the smallest index wins a tie on either
    side (`_mutual_nearest`). Matches whose entry lies behind the casting
    camera or projects outside its frame are dropped.

    Returns `cast_uv` (n, 2), the entry re-viewed in the casting image;
    `obs_uv` (n, 2), the entry's integer pixel; and `rank` (n,), the hit's
    index along its ray. Rows run in row-major order of the casting pixel
    and ascending rank.
    """
    pix = dsm_c.mapped_pixels(params.stride)  # row-major
    ray, _, hit_face, hit_bary = batch_all_hits(mesh_c, k_c.pixel_rays(pix),
                                                max_hits=MAX_HITS_PER_RAY)
    hit_pos = surface_points(mesh_c, hit_face, hit_bary)
    entry_pos = surface_points(mesh_c, dsm_o.faces, dsm_o.barys)
    m, e = _mutual_nearest(entry_pos, hit_pos, params.surface_tolerance)

    # re-view the matched entry, already in the casting camera's frame
    y = entry_pos[e]
    front = y[:, 2] > 0.0
    m, e, y = m[front], e[front], y[front]
    uv = k_c.project(y)
    inside = in_image(uv, dsm_c.width, dsm_c.height)
    obs_v, obs_u = np.divmod(dsm_o.index[e[inside]], dsm_o.width)
    return uv[inside], np.column_stack([obs_u, obs_v]), run_ranks(ray)[m[inside]]


def extract_vcs(a: ImageRecord, b: ImageRecord, params: ExtractionParams | None = None
                ) -> list[VirtualCorrespondence]:
    """Virtual correspondences between two records (both cast directions).

    A hit on the casting prior pairs with an observer-map entry when the two
    are mutual nearest neighbours and lie within `surface_tolerance` of each
    other, inclusive (see `_cast_one_direction`). Output is deterministic:
    for each shared person in ascending id, a-cast VCs first, then b-cast,
    each in row-major order of the sampled casting pixel and ascending hit
    rank. Of equal (pixel_a, pixel_b, rank) rows of one person only the
    first is kept.
    """
    params = params or ExtractionParams()
    shared = sorted(
        {p.person_id for p in a.priors} & {p.person_id for p in b.priors}
    )
    vcs = []
    for person_id in shared:
        pa, pb = a.prior_for(person_id), b.prior_for(person_id)
        _check_shared_topology(pa.mesh, pb.mesh)
        a_cast, b_obs, a_rank = _cast_one_direction(pa.mesh, a.intrinsics, pa.surface_map,
                                                    pb.surface_map, params)
        b_cast, a_obs, b_rank = _cast_one_direction(pb.mesh, b.intrinsics, pb.surface_map,
                                                    pa.surface_map, params)
        # (ua, va, ub, vb) per row, then rank
        rows = np.vstack([np.column_stack([a_cast, b_obs]), np.column_stack([a_obs, b_cast])])
        rank = np.concatenate([a_rank, b_rank])
        keep = _first_of_equal_rows(rows, rank)
        vcs += map(tuple.__new__, repeat(VirtualCorrespondence),
                   zip(pixel_records(rows[keep, :2]), pixel_records(rows[keep, 2:]),
                       rank[keep].tolist(), repeat(person_id)))
    return vcs


def _first_of_equal_rows(rows, rank) -> np.ndarray:
    """Indices of the rows to keep, ascending: of equal (rows, rank) entries
    only the first.

    Rows of one cast direction are distinct, since each holds a different
    observer entry. The observer's pixel is whole, so an a-cast row can
    equal a b-cast row only when all four coordinates are whole; only those
    rows are compared.
    """
    whole = np.flatnonzero((rows == np.floor(rows)).all(axis=1))
    _, first = np.unique(np.column_stack([rows[whole], rank[whole]]), axis=0,
                         return_index=True)
    return np.delete(np.arange(len(rows)), np.setdiff1d(whole, whole[first]))


def vc_ray_gap(vc: VirtualCorrespondence, pose_a: SE3Pose, pose_b: SE3Pose,
               k_a: CameraIntrinsics, k_b: CameraIntrinsics) -> float:
    """Closest approach of the VC's two viewing half-lines (d >= 0 on both)."""
    ray_a = ray_through_pixel(pose_a, k_a, vc.pixel_a)
    ray_b = ray_through_pixel(pose_b, k_b, vc.pixel_b)
    return ray_gap(ray_a, ray_b)


def ray_gap(ray_a: Ray, ray_b: Ray) -> float:
    """Minimum distance between two half-lines.

    When the closest points o_a + s u1 and o_b + t u2 of the two lines lie on
    both half-lines (s, t >= 0), it is the lines' distance
    (`closest_approach`); otherwise one parameter is clamped to 0.
    """
    u1, u2 = ray_a.direction, ray_b.direction
    w = ray_a.origin - ray_b.origin
    s, t, gap = (float(a[0]) for a in closest_approach(w[None], u1[None], u2[None]))
    t0 = max(0.0, float(u2 @ w))  # best t when s is clamped to 0
    s0 = max(0.0, -float(u1 @ w))  # best s when t is clamped to 0
    clamped = float(min(np.linalg.norm(w - t0 * u2), np.linalg.norm(w + s0 * u1)))
    return min(gap, clamped) if s >= 0.0 and t >= 0.0 else clamped  # NaN fails the test
