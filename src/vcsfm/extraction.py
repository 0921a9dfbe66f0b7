"""Virtual-correspondence extraction from posed shape priors and dense
pixel-to-surface maps.

A pixel pair across two images is emitted whenever a ray cast through one
image's prior surface pierces a point that the other image observes in its
surface map. Matching runs on surface coordinates of the shared canonical
topology; no appearance is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidCoordinateError, TopologyMismatchError
from .geometry import CameraIntrinsics, Pixel, Ray, SE3Pose, ray_through_pixel
from .mesh import (
    TriangleMesh,
    batch_all_hits,
    concat_ranges,
    read_only,
    run_ranks,
    surface_points,
)

MAX_HITS_PER_RAY = 4  # surface points taken along each cast ray, nearest first
TOLERANCE_FLOOR = 0.01  # smallest match tolerance suggest_surface_tolerance returns
TOLERANCE_FACTOR = 1.6  # its tolerance as a multiple of the median footprint
JOIN_CELLS_MAX = 1 << 20  # cells per axis of the radius join's grid: keys fit int64
# (dx, dy) of the nine cell columns around a cell
_COLUMNS = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)])


class DenseSurfaceMap:
    """Surface coordinates of the mapped pixels of a (height, width) image,
    the dense 2D-3D association over the pixels the subject covers.

    Only the mapped entries are stored, in three aligned arrays: the flat
    row-major pixel `index` (N,), strictly ascending and inside the image;
    `faces` (N,), non-negative face indices; and `barys` (N, 3), barycentric
    weights, each at least -1e-9 and summing to 1 within 1e-9
    (InvalidCoordinateError). Unmapped pixels hold nothing, so a map's
    memory grows with its entries, not with the image. Immutable: a
    read-only array of its dtype (int64, int64, float64) is adopted
    as it is, anything else is copied.
    """

    def __init__(self, width: int, height: int, index, faces, barys):
        index = read_only(index, np.int64)
        faces = read_only(faces, np.int64)
        barys = read_only(barys, np.float64)
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
        self.width, self.height = int(width), int(height)
        self._index = index
        self.faces = faces
        self.barys = barys

    def mapped_index(self) -> np.ndarray:
        """Flat row-major indices of the mapped pixels, ascending; read-only."""
        return self._index

    def mapped_pixels(self, stride: int = 1) -> np.ndarray:
        """(N, 2) integer (u, v) of mapped pixels in row-major order, only
        those with both coordinates multiples of `stride`."""
        v, u = np.divmod(self._index, self.width)
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
    """Everything known about one image: calibration plus its shape priors.

    Prior meshes live in this image's camera frame.
    """

    image_id: str
    intrinsics: CameraIntrinsics
    priors: tuple[ShapePrior, ...]

    def __post_init__(self):
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


@dataclass(frozen=True)
class VirtualCorrespondence:
    """Pixel pair whose camera rays meet on the hallucinated surface.

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
    every `stride`-th row and column cast, and a hit matches an observer
    entry at most `surface_tolerance` (finite, > 0) from it."""

    stride: int = 4
    surface_tolerance: float = 0.01

    def __post_init__(self):
        if not (self.stride >= 1 and 0.0 < self.surface_tolerance < np.inf):
            raise ValueError("stride must be >= 1 and tolerance positive and finite")


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
            # only depth is needed: the z column of surface_points, summed in the
            # same order so the median is bit for bit the same
            z = np.take(prior.mesh.corners[:, :, 2], dsm.faces, axis=0)
            depth = float(np.median((dsm.barys * z).sum(axis=1)))
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


def _nearest_of_groups(query, entry, d2):
    """Per group of `_pairs_within`'s output: the query, its nearest entry
    (the smallest index among ties) and their squared distance."""
    if len(query) == 0:
        return query, entry, d2
    starts = np.flatnonzero(np.r_[True, query[1:] != query[:-1]])
    best = np.minimum.reduceat(d2, starts)
    ties = d2 == np.repeat(best, np.diff(np.r_[starts, len(d2)]))
    nearest = np.minimum.reduceat(np.where(ties, entry, np.iinfo(np.int64).max), starts)
    return query[starts], nearest, best


def _mutual_nearest(points, queries, radius: float):
    """(query, point) index pairs within `radius` of each other, inclusive,
    where each is the other's nearest; the smallest index wins a tie on
    either side. Ordered by ascending query.

    A point's nearest query is no farther than a query it is nearest to,
    so within `radius`, and the one radius join holds both directions.
    """
    query, point, d2 = _pairs_within(points, queries, radius)
    q, p, _ = _nearest_of_groups(query, point, d2)
    point_d2 = np.full(len(points), np.inf)
    np.minimum.at(point_d2, point, d2)
    tied = d2 == point_d2[point]
    point_query = np.full(len(points), len(queries), dtype=np.int64)
    np.minimum.at(point_query, point[tied], query[tied])
    mutual = point_query[p] == q
    return q[mutual], p[mutual]


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
    uv = k_c.denormalize(y[:, :2] / y[:, 2:])
    inside = ((uv[:, 0] >= 0.0) & (uv[:, 0] <= dsm_c.width - 1)
              & (uv[:, 1] >= 0.0) & (uv[:, 1] <= dsm_c.height - 1))
    return uv[inside], dsm_o.mapped_pixels()[e[inside]], run_ranks(ray)[m[inside]]


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
        # (ua, va, ub, vb, rank); dict keys keep the first of equal rows
        rows = np.vstack([np.column_stack([a_cast, b_obs, a_rank]),
                          np.column_stack([a_obs, b_cast, b_rank])])
        vcs += [
            VirtualCorrespondence(Pixel(ua, va), Pixel(ub, vb), int(rank), person_id)
            for ua, va, ub, vb, rank in dict.fromkeys(map(tuple, rows.tolist()))
        ]
    return vcs


def vc_ray_gap(vc: VirtualCorrespondence, pose_a: SE3Pose, pose_b: SE3Pose,
               k_a: CameraIntrinsics, k_b: CameraIntrinsics) -> float:
    """Closest approach of the VC's two viewing half-lines (d >= 0 on both)."""
    ray_a = ray_through_pixel(pose_a, k_a, vc.pixel_a)
    ray_b = ray_through_pixel(pose_b, k_b, vc.pixel_b)
    return ray_gap(ray_a, ray_b)


def ray_gap(ray_a: Ray, ray_b: Ray) -> float:
    """Minimum distance between two half-lines."""
    u1, u2 = ray_a.direction, ray_b.direction
    w = ray_a.origin - ray_b.origin
    b = float(u1 @ u2)
    d = float(u1 @ w)
    e = float(u2 @ w)
    normal = np.cross(u1, u2)
    denom = float(normal @ normal)  # 1 - b^2, without its cancellation
    gaps = []
    if denom > 1e-12:
        s = (b * e - d) / denom
        t = (e - b * d) / denom
        if s >= 0.0 and t >= 0.0:
            # distance of the lines along their common normal; forming the two
            # closest points instead cancels when the rays are nearly opposed
            gaps.append(abs(float(w @ normal)) / np.sqrt(denom))
    t0 = max(0.0, e)  # best t when s is clamped to 0
    gaps.append(np.linalg.norm(w - t0 * u2))
    s0 = max(0.0, -d)  # best s when t is clamped to 0
    gaps.append(np.linalg.norm(w + s0 * u1))
    return float(min(gaps))
