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

from .errors import TopologyMismatchError
from .geometry import CameraIntrinsics, Pixel, Ray, SE3Pose, ray_through_pixel
from .mesh import SurfaceCoordinate, TriangleMesh, batch_all_hits, surface_points


class DenseSurfaceMap:
    """Per-pixel optional surface coordinate (the dense 2D-3D association).

    Stored as a face-index image (-1 marks unmapped pixels) plus barycentric
    weights. Immutable after construction.
    """

    def __init__(self, faces: np.ndarray, barys: np.ndarray):
        faces = np.array(faces, dtype=np.int64)
        barys = np.array(barys, dtype=np.float64)
        if faces.ndim != 2 or barys.shape != faces.shape + (3,):
            raise ValueError("faces must be (H, W) and barys (H, W, 3)")
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

    def mapped_pixels(self) -> np.ndarray:
        """(N, 2) integer (u, v) of mapped pixels in row-major order."""
        v, u = np.nonzero(self.faces >= 0)
        return np.column_stack([u, v])

    def entry_at(self, u, v) -> SurfaceCoordinate | None:
        """Entry at the nearest grid pixel, None when out of bounds/unmapped."""
        ui, vi = int(round(float(u))), int(round(float(v)))
        if not (0 <= ui < self.width and 0 <= vi < self.height):
            return None
        f = self.faces[vi, ui]
        if f < 0:
            return None
        b = self.barys[vi, ui]
        return SurfaceCoordinate(int(f), (b[0], b[1], b[2]))


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

    hit_coord addresses the intersecting surface point on the canonical
    topology; hit_rank is its index along the casting ray (0 = also visible in
    the casting image); hit_depth is its camera-frame depth on the casting
    side; source names the image that cast the ray.
    """

    pixel_a: Pixel
    pixel_b: Pixel
    hit_coord: SurfaceCoordinate
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
            pix = prior.surface_map.mapped_pixels()
            if len(pix) == 0:
                continue
            mesh_cam = rec.posed_mesh(prior.person_id)
            pos = surface_points(
                mesh_cam,
                prior.surface_map.faces[pix[:, 1], pix[:, 0]],
                prior.surface_map.barys[pix[:, 1], pix[:, 0]],
            )
            depth = float(np.median(pos[:, 2]))
            if depth > 0.0:
                footprints.append(depth / f)
    if not footprints:
        return floor
    return max(floor, factor * float(np.median(footprints)))


class SurfaceIndex:
    """Inverse lookup from a surface coordinate to observing map pixels."""

    def __init__(self, dsm: DenseSurfaceMap, mesh: TriangleMesh):
        self.mesh = mesh
        self.pixels = dsm.mapped_pixels()
        if len(self.pixels):
            u, v = self.pixels[:, 0], self.pixels[:, 1]
            self.faces = dsm.faces[v, u]
            self.barys = dsm.barys[v, u]
            self.positions = surface_points(mesh, self.faces, self.barys)
            self._tree = cKDTree(self.positions)
        else:
            self.faces = np.empty(0, dtype=np.int64)
            self.barys = np.empty((0, 3))
            self.positions = np.empty((0, 3))
            self._tree = None

    def __len__(self) -> int:
        return len(self.pixels)

    def query(self, coord: SurfaceCoordinate, tolerance: float) -> list[tuple[int, int]]:
        """All (u, v) map pixels whose entry lies within tolerance of coord."""
        if self._tree is None:
            return []
        pos = surface_points(self.mesh, [coord.face], [coord.bary])[0]
        idx = sorted(self._tree.query_ball_point(pos, tolerance))
        return [tuple(p) for p in self.pixels[idx]]

    def nearest(self, positions: np.ndarray):
        """Vectorized nearest entry per query position: (distances, indices)."""
        if self._tree is None:
            n = len(np.atleast_2d(positions))
            return np.full(n, np.inf), np.full(n, -1, dtype=np.int64)
        return self._tree.query(np.atleast_2d(positions))


def build_surface_index(dsm: DenseSurfaceMap, mesh: TriangleMesh) -> SurfaceIndex:
    """Queryable coordinate -> pixels index over a dense surface map."""
    return SurfaceIndex(dsm, mesh)


def _check_shared_topology(mesh_a: TriangleMesh, mesh_b: TriangleMesh):
    if len(mesh_a.vertices) != len(mesh_b.vertices) or not np.array_equal(
        mesh_a.faces, mesh_b.faces
    ):
        raise TopologyMismatchError("prior meshes do not share canonical topology")


def _cast_one_direction(cast: ImageRecord, obs: ImageRecord, person_id: int,
                        params: ExtractionParams):
    """VCs found by casting rays from `cast` and matching in `obs`.

    Returns tuples (sort_key, cast_pixel, obs_pixel, coord, rank, depth); the
    caller orients them into (pixel_a, pixel_b) order.
    """
    prior_c = cast.prior_for(person_id)
    prior_o = obs.prior_for(person_id)
    mesh_c = cast.posed_mesh(person_id)
    dsm_c, dsm_o = prior_c.surface_map, prior_o.surface_map

    pix = dsm_c.mapped_pixels()
    if len(pix) == 0:
        return []
    keep = (pix[:, 0] % params.stride == 0) & (pix[:, 1] % params.stride == 0)
    pix = pix[keep]
    if len(pix) == 0:
        return []
    # row-major over the sampled grid
    pix = pix[np.lexsort((pix[:, 0], pix[:, 1]))]

    dirs = np.column_stack(
        [cast.intrinsics.normalize(pix.astype(np.float64)), np.ones(len(pix))]
    )
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    hits = batch_all_hits(mesh_c, np.zeros_like(dirs), dirs, max_hits=params.max_hits_per_ray)

    hit_pixel, hit_rank = [], []
    for (depths, _, _), p in zip(hits, pix):
        for r in range(len(depths)):
            hit_pixel.append(p)
            hit_rank.append(r)
    if not hit_pixel:
        return []
    all_faces = np.concatenate([h[1] for h in hits])
    all_barys = np.concatenate([h[2] for h in hits])
    # evaluate positions from the coordinate address so they match the
    # observer-entry positions computed on the same (casting) mesh
    hit_pos = surface_points(mesh_c, all_faces, all_barys)
    hit_pixel = np.array(hit_pixel)
    hit_rank = np.array(hit_rank)

    # positions of the observer's entries, evaluated on the casting mesh so
    # distances are canonical-topology distances
    index_o = SurfaceIndex(dsm_o, mesh_c)
    if len(index_o) == 0:
        return []
    d_to_obs, nearest_obs = index_o.nearest(hit_pos)
    tree_hits = cKDTree(hit_pos)
    _, nearest_hit = tree_hits.query(index_o.positions)

    mutual = (d_to_obs <= params.surface_tolerance) & (
        nearest_hit[nearest_obs] == np.arange(len(hit_pos))
    )

    # cap VCs per casting pixel, lowest ranks first (hits are rank-ordered)
    per_pixel = {}
    selected = []
    for m in np.nonzero(mutual)[0]:
        key = (int(hit_pixel[m][0]), int(hit_pixel[m][1]))
        if per_pixel.get(key, 0) >= params.max_per_pixel:
            continue
        per_pixel[key] = per_pixel.get(key, 0) + 1
        selected.append(m)

    out = []
    w_c, h_c = dsm_c.width, dsm_c.height
    for m in selected:
        e = nearest_obs[m]
        coord = SurfaceCoordinate(
            int(index_o.faces[e]), tuple(np.asarray(index_o.barys[e], dtype=np.float64))
        )
        # re-view the matched canonical point on the casting image's own prior
        y = index_o.positions[e]  # already in the casting camera frame
        if y[2] <= 0.0:
            continue
        uv = cast.intrinsics.denormalize(y[:2] / y[2])
        if not (0.0 <= uv[0] <= w_c - 1 and 0.0 <= uv[1] <= h_c - 1):
            continue
        sort_key = (int(hit_pixel[m][1]), int(hit_pixel[m][0]), int(hit_rank[m]))
        obs_uv = Pixel(float(index_o.pixels[e][0]), float(index_o.pixels[e][1]))
        out.append(
            (
                sort_key,
                Pixel(float(uv[0]), float(uv[1])),
                obs_uv,
                coord,
                int(hit_rank[m]),
                float(np.linalg.norm(y)),
            )
        )
    return out


def extract_vcs(a: ImageRecord, b: ImageRecord, params: ExtractionParams | None = None
                ) -> list[VirtualCorrespondence]:
    """Virtual correspondences between two records (both cast directions).

    Output is deterministic: a-cast VCs first, then b-cast, each in row-major
    order of the sampled casting pixel and ascending hit rank; exact
    duplicates are dropped.
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
            found = _cast_one_direction(cast, obs, person_id, params)
            found.sort(key=lambda item: item[0])
            for _, cast_px, obs_px, coord, rank, depth in found:
                pa, pb = (cast_px, obs_px) if forward else (obs_px, cast_px)
                key = (pa.u, pa.v, pb.u, pb.v, rank, person_id)
                if key in seen:
                    continue
                seen.add(key)
                vcs.append(
                    VirtualCorrespondence(
                        pixel_a=pa,
                        pixel_b=pb,
                        hit_coord=coord,
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
