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

    def prior_for(self, person_id: int) -> ShapePrior | None:
        for p in self.priors:
            if p.person_id == person_id:
                return p
        return None

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
    """Casting grid, match tolerance and per-pixel cap of the extraction pass."""

    stride: int = 4
    surface_tolerance: float = 0.01
    max_per_pixel: int = 4

    def __post_init__(self):
        if self.stride < 1 or self.surface_tolerance <= 0.0:
            raise ValueError("stride must be >= 1 and tolerance positive")
        if self.max_per_pixel < 1:
            raise ValueError("max_per_pixel must be >= 1")


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


class SurfaceIndex:
    """A dense surface map's entries as points on a mesh, for nearest-entry
    lookup within a tolerance (a reduction of the radius join
    `_pairs_within`)."""

    def __init__(self, dsm: DenseSurfaceMap, mesh: TriangleMesh):
        self.pixels = dsm.mapped_pixels()
        self.positions = surface_points(mesh, dsm.faces, dsm.barys)

    def __len__(self) -> int:
        return len(self.pixels)

    def nearest(self, positions: np.ndarray, tolerance: float):
        """Nearest entry within `tolerance` (inclusive) of each query position,
        the smallest index among equally near ones.

        Returns (distances, indices), with inf and len(self) where no entry
        is that close.
        """
        positions = np.atleast_2d(positions)
        query, entry, d2 = _pairs_within(self.positions, positions, tolerance)
        query, entry, d2 = _nearest_of_groups(query, entry, d2)
        dist = np.full(len(positions), np.inf)
        idx = np.full(len(positions), len(self), dtype=np.int64)
        dist[query], idx[query] = np.sqrt(d2), entry
        return dist, idx


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


def _cast_one_direction(cast: ImageRecord, obs: ImageRecord, person_id: int,
                        params: ExtractionParams):
    """VCs found by casting rays from `cast` and matching in `obs`.

    Every mapped pixel of `cast` on the `stride` grid casts its unnormalized
    pixel ray (z = 1) through its prior; only the hits' faces and barycentric
    weights are read, never their depths. A hit matches the observer-map
    entry nearest to it when that entry lies within `surface_tolerance`
    (distance <= tolerance) and the hit is in turn the entry's nearest hit;
    the smallest index wins a tie on either side (`_mutual_nearest`). Each
    casting pixel keeps its first `max_per_pixel` matches in rank order; of
    those, matches whose point lies behind the casting camera or projects
    outside its frame are dropped.

    Returns rows (cast_uv, obs_uv, rank) of plain Python values, in
    row-major order of the casting pixel and ascending hit rank; the caller
    orients them into (pixel_a, pixel_b) order.
    """
    mesh_c = cast.posed_mesh(person_id)
    dsm_c = cast.prior_for(person_id).surface_map

    pix = dsm_c.mapped_pixels(params.stride)  # row-major
    if len(pix) == 0:
        return []
    dirs = cast.intrinsics.pixel_rays(pix)
    ray, _, hit_face, hit_bary = batch_all_hits(mesh_c, dirs, max_hits=MAX_HITS_PER_RAY)
    rank = run_ranks(ray)
    # evaluate positions from the coordinate address so they match the
    # observer-entry positions computed on the same (casting) mesh
    hit_pos = surface_points(mesh_c, hit_face, hit_bary)

    # positions of the observer's entries, evaluated on the casting mesh so
    # distances are canonical-topology distances
    index_o = SurfaceIndex(obs.prior_for(person_id).surface_map, mesh_c)
    m, e = _mutual_nearest(index_o.positions, hit_pos, params.surface_tolerance)

    # cap VCs per casting pixel, lowest ranks first (m is ray- then rank-ordered)
    capped = run_ranks(ray[m]) < params.max_per_pixel
    m, e = m[capped], e[capped]

    # re-view the matched canonical point on the casting image's own prior
    y = index_o.positions[e]  # already in the casting camera frame
    front = y[:, 2] > 0.0
    m, e, y = m[front], e[front], y[front]
    uv = cast.intrinsics.denormalize(y[:, :2] / y[:, 2:])
    inside = ((uv[:, 0] >= 0.0) & (uv[:, 0] <= dsm_c.width - 1)
              & (uv[:, 1] >= 0.0) & (uv[:, 1] <= dsm_c.height - 1))
    m, e, uv = m[inside], e[inside], uv[inside]
    return list(zip(uv.tolist(), index_o.pixels[e].tolist(), rank[m].tolist()))


def extract_vcs(a: ImageRecord, b: ImageRecord, params: ExtractionParams | None = None
                ) -> list[VirtualCorrespondence]:
    """Virtual correspondences between two records (both cast directions).

    A hit on the casting prior pairs with an observer-map entry when the two
    are mutual nearest neighbours and lie within `surface_tolerance` of each
    other, inclusive (see `_cast_one_direction`). Output is deterministic:
    for each shared person in ascending id, a-cast VCs first, then b-cast,
    each in row-major order of the sampled casting pixel and ascending hit
    rank; exact duplicates are dropped.
    """
    params = params or ExtractionParams()
    shared = sorted(
        {p.person_id for p in a.priors} & {p.person_id for p in b.priors}
    )
    vcs = []
    seen = set()
    for person_id in shared:
        _check_shared_topology(
            a.prior_for(person_id).mesh, b.prior_for(person_id).mesh
        )
        for cast, obs, forward in ((a, b, True), (b, a, False)):
            for cast_uv, obs_uv, rank in _cast_one_direction(
                cast, obs, person_id, params
            ):
                pa, pb = Pixel(*cast_uv), Pixel(*obs_uv)
                if not forward:
                    pa, pb = pb, pa
                key = (pa.u, pa.v, pb.u, pb.v, rank, person_id)
                if key in seen:
                    continue
                seen.add(key)
                vcs.append(
                    VirtualCorrespondence(
                        pixel_a=pa, pixel_b=pb, hit_rank=rank, person_id=person_id
                    )
                )
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
