"""Virtual-correspondence extraction from posed shape priors and dense
pixel-to-surface maps.

A pixel pair across two images is emitted whenever a ray cast through one
image's prior surface pierces a point that the other image observes in its
surface map. Matching runs on surface coordinates of the shared canonical
topology; no appearance is involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidCoordinateError, TopologyMismatchError
from .geometry import CameraIntrinsics, Pixel, Ray, SE3Pose, ray_through_pixel
from .mesh import TriangleMesh, batch_all_hits, surface_points


class DenseSurfaceMap:
    """Per-pixel optional surface coordinate (the dense 2D-3D association).

    Stored as a face-index image (-1 marks unmapped pixels) plus barycentric
    weights. Immutable after construction. The weights of every mapped pixel
    must be at least -1e-9 and sum to 1 within 1e-9 (InvalidCoordinateError);
    those of unmapped pixels are not read.
    """

    def __init__(self, faces: np.ndarray, barys: np.ndarray):
        faces = np.array(faces, dtype=np.int64)
        barys = np.array(barys, dtype=np.float64)
        if faces.ndim != 2 or barys.shape != faces.shape + (3,):
            raise ValueError("faces must be (H, W) and barys (H, W, 3)")
        # a flat gather and column sums take half the time of a 2-D mask
        w = barys.reshape(-1, 3)[np.flatnonzero(faces.ravel() >= 0)]
        total = w[:, 0] + w[:, 1] + w[:, 2]
        if len(w) and not (w.min() >= -1e-9 and np.abs(total - 1.0).max() <= 1e-9):
            raise InvalidCoordinateError("mapped pixels need barycentric weights "
                                         ">= 0 that sum to 1")
        self.faces = faces
        self.barys = barys
        self.height, self.width = faces.shape
        for a in (self.faces, self.barys):
            a.flags.writeable = False

    @staticmethod
    def empty(width: int, height: int) -> "DenseSurfaceMap":
        return DenseSurfaceMap(
            np.full((height, width), -1, dtype=np.int64), np.zeros((height, width, 3))
        )

    @property
    def num_mapped(self) -> int:
        return int(np.count_nonzero(self.faces >= 0))

    def mapped_index(self) -> np.ndarray:
        """Flat row-major indices of the mapped pixels, ascending."""
        return np.flatnonzero(self.faces >= 0)

    def mapped_pixels(self, stride: int = 1) -> np.ndarray:
        """(N, 2) integer (u, v) of mapped pixels in row-major order, only
        those with both coordinates multiples of `stride`."""
        grid = self.faces[::stride, ::stride]
        # a 1-D scan and a divmod are cheaper than a 2-D np.nonzero
        v, u = np.divmod(np.flatnonzero(grid >= 0), grid.shape[1])
        return np.column_stack([u, v]) * stride


@dataclass(frozen=True)
class ShapePrior:
    """One subject's prior in one image: posed mesh + its surface map."""

    person_id: int
    mesh: TriangleMesh
    surface_map: DenseSurfaceMap

    def __post_init__(self):
        f = self.surface_map.faces
        bad = f[f >= 0]
        if bad.size and bad.max() >= self.mesh.num_faces:
            raise ValueError("surface map references faces beyond the mesh")


def _identity_pose():
    return SE3Pose.identity()


@dataclass(frozen=True)
class ImageRecord:
    """Everything known about one image: calibration plus its shape priors.

    Prior meshes live in this image's camera frame (prior_pose is the
    camera-from-prior transform and defaults to identity accordingly).
    """

    image_id: str
    intrinsics: CameraIntrinsics
    priors: tuple[ShapePrior, ...]
    prior_pose: SE3Pose = field(default_factory=_identity_pose)

    def __post_init__(self):
        if not self.priors:
            raise ValueError("record needs at least one shape prior")
        dims = {(p.surface_map.width, p.surface_map.height) for p in self.priors}
        if len(dims) != 1:
            raise ValueError("surface maps of one record must share dimensions")
        ids = [p.person_id for p in self.priors]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate person_id within a record")

    @property
    def surface_map(self) -> DenseSurfaceMap:
        return self.priors[0].surface_map

    @property
    def prior_mesh(self) -> TriangleMesh:
        return self.priors[0].mesh

    def prior_for(self, person_id: int) -> ShapePrior | None:
        for p in self.priors:
            if p.person_id == person_id:
                return p
        return None

    def posed_mesh(self, person_id: int) -> TriangleMesh:
        """Prior mesh in the camera frame (applies prior_pose if non-trivial)."""
        prior = self.prior_for(person_id)
        if (
            np.array_equal(self.prior_pose.rotation, np.eye(3))
            and not self.prior_pose.translation.any()
        ):
            return prior.mesh
        return prior.mesh.transformed(
            rotation=self.prior_pose.rotation, translation=self.prior_pose.translation
        )


@dataclass(frozen=True)
class VirtualCorrespondence:
    """Pixel pair whose camera rays meet on the hallucinated surface.

    hit_rank is the index of the intersecting surface point along the casting
    ray (0 = also visible in the casting image); hit_depth is its camera-frame
    depth on the casting side; source names the image that cast the ray. The
    point's surface coordinate is the observer's map entry at its pixel.
    """

    pixel_a: Pixel
    pixel_b: Pixel
    hit_rank: int
    source: str
    person_id: int = 0
    hit_depth: float = 0.0


@dataclass(frozen=True)
class ExtractionParams:
    """Knobs of the extraction pass."""

    stride: int = 4
    surface_tolerance: float = 0.01
    max_hits_per_ray: int = 4
    max_per_pixel: int = 4

    def __post_init__(self):
        if self.stride < 1 or self.surface_tolerance <= 0.0:
            raise ValueError("stride must be >= 1 and tolerance positive")


def suggest_surface_tolerance(records, floor: float = 0.01, factor: float = 1.6) -> float:
    """Match tolerance scaled to the maps' surface footprint per pixel.

    A dense map quantizes the surface at roughly depth/focal units per pixel;
    matching needs a tolerance above that, so take factor x the median
    footprint across all priors (but never below the configured floor).
    """
    footprints = []
    for rec in records:
        f = 0.5 * (rec.intrinsics.fx + rec.intrinsics.fy)
        for prior in rec.priors:
            dsm = prior.surface_map
            flat = dsm.mapped_index()
            if len(flat) == 0:
                continue
            mesh_cam = rec.posed_mesh(prior.person_id)
            # only depth is needed: the z column of surface_points, summed in the
            # same order so the median is bit for bit the same
            z = np.take(mesh_cam.corners[:, :, 2], dsm.faces.ravel()[flat], axis=0)
            depth = float(np.median((dsm.barys.reshape(-1, 3)[flat] * z).sum(axis=1)))
            if depth > 0.0:
                footprints.append(depth / f)
    if not footprints:
        return floor
    return max(floor, factor * float(np.median(footprints)))


class SurfaceIndex:
    """A dense surface map's entries as points on a mesh, for nearest-entry
    lookup.

    Extraction builds one per cast direction and queries it with a few
    thousand hits, so the build is what costs: the entries are gathered
    through the map's flat index, and the KD-tree splits at sliding
    midpoints (Maneewongvatana & Mount, 1999), which builds in about half
    the time of median splits and answers the same exact queries.
    """

    def __init__(self, dsm: DenseSurfaceMap, mesh: TriangleMesh):
        flat = dsm.mapped_index()
        v, u = np.divmod(flat, dsm.width)
        self.pixels = np.column_stack([u, v])
        self.positions = surface_points(mesh, dsm.faces.ravel()[flat],
                                        dsm.barys.reshape(-1, 3)[flat])
        self._tree = cKDTree(self.positions, balanced_tree=False, compact_nodes=False)

    def __len__(self) -> int:
        return len(self.pixels)

    def nearest(self, positions: np.ndarray, tolerance: float):
        """Nearest entry within `tolerance` (inclusive) of each query position.

        Returns (distances, indices), with inf and len(self) where no entry
        is that close.
        """
        # the tree's bound is strict: one ulp above keeps distance == tolerance
        dist, idx = self._tree.query(
            np.atleast_2d(positions), distance_upper_bound=np.nextafter(tolerance, np.inf)
        )
        far = dist > tolerance
        dist[far], idx[far] = np.inf, len(self)
        return dist, idx


def _check_shared_topology(mesh_a: TriangleMesh, mesh_b: TriangleMesh):
    if len(mesh_a.vertices) != len(mesh_b.vertices) or not np.array_equal(
        mesh_a.faces, mesh_b.faces
    ):
        raise TopologyMismatchError("prior meshes do not share canonical topology")


def _cast_one_direction(cast: ImageRecord, obs: ImageRecord, person_id: int,
                        params: ExtractionParams):
    """VCs found by casting rays from `cast` and matching in `obs`.

    Every mapped pixel of `cast` on the `stride` grid casts a ray through its
    prior. A hit matches the observer-map entry nearest to it when that entry
    lies within `surface_tolerance` (distance <= tolerance) and the hit is in
    turn the entry's nearest hit. Each casting pixel keeps its first
    `max_per_pixel` matches in rank order; of those, matches whose point lies
    behind the casting camera or projects outside its frame are dropped.

    Returns rows (cast_uv, obs_uv, rank, depth) of plain Python
    values, in row-major order of the casting pixel and ascending hit rank;
    the caller orients them into (pixel_a, pixel_b) order.
    """
    mesh_c = cast.posed_mesh(person_id)
    dsm_c = cast.prior_for(person_id).surface_map

    pix = dsm_c.mapped_pixels(params.stride)  # row-major
    if len(pix) == 0:
        return []
    dirs = np.column_stack(
        [cast.intrinsics.normalize(pix.astype(np.float64)), np.ones(len(pix))]
    )
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    ray, _, hit_face, hit_bary = batch_all_hits(
        mesh_c, np.zeros_like(dirs), dirs, max_hits=params.max_hits_per_ray
    )
    rank = np.arange(len(ray)) - np.searchsorted(ray, ray)
    # evaluate positions from the coordinate address so they match the
    # observer-entry positions computed on the same (casting) mesh
    hit_pos = surface_points(mesh_c, hit_face, hit_bary)

    # positions of the observer's entries, evaluated on the casting mesh so
    # distances are canonical-topology distances
    index_o = SurfaceIndex(obs.prior_for(person_id).surface_map, mesh_c)
    _, near = index_o.nearest(hit_pos, params.surface_tolerance)
    cand = np.flatnonzero(near < len(index_o))
    # a point's nearest neighbour does not depend on the other queries, so
    # the reverse test needs only the candidates' entries
    back_tree = cKDTree(hit_pos, balanced_tree=False, compact_nodes=False)
    _, back = back_tree.query(index_o.positions[near[cand]])
    m = cand[back == cand]

    # cap VCs per casting pixel, lowest ranks first (m is ray- then rank-ordered)
    r = ray[m]
    m = m[np.arange(len(m)) - np.searchsorted(r, r) < params.max_per_pixel]

    # re-view the matched canonical point on the casting image's own prior
    e = near[m]
    y = index_o.positions[e]  # already in the casting camera frame
    front = y[:, 2] > 0.0
    m, e, y = m[front], e[front], y[front]
    uv = cast.intrinsics.denormalize(y[:, :2] / y[:, 2:])
    inside = np.all((uv >= 0.0) & (uv <= [dsm_c.width - 1, dsm_c.height - 1]), axis=1)
    m, e, y, uv = m[inside], e[inside], y[inside], uv[inside]
    return list(zip(
        uv.tolist(),
        index_o.pixels[e].tolist(),
        rank[m].tolist(),
        # equals np.linalg.norm of each row bit for bit; norm(axis=1) does not
        np.sqrt(np.vecdot(y, y)).tolist(),
    ))


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
        for source, cast, obs, forward in ((a, a, b, True), (b, b, a, False)):
            for cast_uv, obs_uv, rank, depth in _cast_one_direction(
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
                        pixel_a=pa,
                        pixel_b=pb,
                        hit_rank=rank,
                        source=source.image_id,
                        person_id=person_id,
                        hit_depth=depth,
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
