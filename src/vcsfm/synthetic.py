"""Ground-truth scene generation for benchmarking: a built-in body proxy,
camera rings, exact surface-map rendering (the dense-association oracle),
noise injection, and a verified ground-truth correspondence oracle.

Each camera casts its pixel rays from its origin on the scene mesh posed in
its own frame: one all-hit cast gives both its surface map and the oracle's
samples, and the oracle's visibility checks cast those same camera-frame
meshes. A mesh keeps the cast table built on its first cast, so a scene
builds one table per camera and never casts the world-frame mesh. Maps are
built from the hits as entry arrays (see `DenseSurfaceMap`); no image is
allocated, and the noise injectors edit copies of those arrays."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .extraction import DenseSurfaceMap, ImageRecord, ShapePrior
from .geometry import (CameraIntrinsics, Pixel, SE3Pose, in_image, is_count, pixel_records,
                       project_points, so3_exp)
from .mesh import TriangleMesh, batch_all_hits, batch_first_hits, run_ranks

# relative position tolerance for the oracle's visibility test
_VIS_TOL = 1e-6
# the oracle samples every mapped pixel whose coordinates are multiples of this
_ORACLE_STRIDE = 4
# hits kept per ray of a render: the map takes the first, the oracle all of them
_ORACLE_HITS = 4


@dataclass(frozen=True)
class SceneConfig:
    """Layout of a synthetic capture rig around the subject."""

    camera_count: int = 2
    baseline_angles: tuple | None = None  # degrees on the ring; None = even
    elevation_range: float = 0.0  # cameras sample elevation in +/- this
    image_size: tuple = (160, 120)
    focal_length: float = 170.0
    seed: int = 0
    fill_fraction: float = 0.35  # how much of the short image side the body spans

    def __post_init__(self):
        if not is_count(self.camera_count, 2):
            raise ValueError("need an integer count of at least two cameras")
        object.__setattr__(self, "image_size", tuple(self.image_size))
        if len(self.image_size) != 2 or not all(map(is_count, self.image_size)):
            raise ValueError("image size must be two positive integers")
        if not (0.0 < self.focal_length < math.inf and 0.0 < self.fill_fraction < math.inf
                and math.isfinite(self.elevation_range)):
            raise ValueError("focal length and fill fraction must be positive and finite, "
                             "elevation range finite")
        angles = self.baseline_angles
        if angles is not None:
            if len(angles) != self.camera_count:
                raise ValueError("one baseline angle per camera required")
            if any(not 0.0 <= a < 360.0 for a in angles):
                raise ValueError("angles must lie in [0, 360)")
            object.__setattr__(self, "baseline_angles", tuple(float(a) for a in angles))

    def angles(self) -> tuple:
        if self.baseline_angles is not None:
            return self.baseline_angles
        return tuple(360.0 * k / self.camera_count for k in range(self.camera_count))


@dataclass(frozen=True)
class NoiseConfig:
    """Perturbations applied to the rendered maps and the per-image priors."""

    pixel_sigma: float = 0.0
    prior_rotation_sigma: float = 0.0  # degrees
    prior_translation_sigma: float = 0.0  # fraction of mean mesh depth
    prior_scale_sigma: float = 0.0  # fraction
    outlier_fraction: float = 0.0

    def __post_init__(self):
        vals = (
            self.pixel_sigma,
            self.prior_rotation_sigma,
            self.prior_translation_sigma,
            self.prior_scale_sigma,
            self.outlier_fraction,
        )
        # NaN fails every comparison
        if not (all(0.0 <= v < math.inf for v in vals) and self.outlier_fraction < 1.0):
            raise ValueError("noise magnitudes must be finite and >= 0, outlier fraction < 1")


class GtCorrespondence(NamedTuple):
    """Oracle pixel pair: cam_a's ray pierces `point`, cam_b observes it; a
    (cam_a, cam_b, pixel_a, pixel_b, point, rank_a) tuple.

    rank_a is the hit index along cam_a's ray; rank 0 entries are co-visible
    classic correspondences.
    """

    cam_a: int
    cam_b: int
    pixel_a: Pixel
    pixel_b: Pixel
    point: np.ndarray
    rank_a: int


@dataclass
class SyntheticScene:
    config: SceneConfig
    noise: NoiseConfig
    gt_mesh: TriangleMesh  # world frame
    gt_poses: list  # SE3Pose per camera, world-to-camera
    records: list  # ImageRecord per camera
    clean_maps: list  # DenseSurfaceMap per camera, before noise
    oracle: list = field(default_factory=list)  # GtCorrespondence entries


def _capsule(p0, p1, radius, segments=16, cap_rings=6, side_rings=4):
    """Watertight capsule between two points: (vertices, faces) arrays."""
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    axis = p1 - p0
    length = np.linalg.norm(axis)
    z = axis / length if length > 0 else np.array([0.0, 0.0, 1.0])
    any_vec = np.array([1.0, 0.0, 0.0]) if abs(z[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    x = np.cross(any_vec, z)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)

    rows = []  # (ring radius, height along axis)
    for i in range(1, cap_rings + 1):
        a = math.pi - (math.pi / 2.0) * (i / cap_rings)
        rows.append((radius * math.sin(a), radius * math.cos(a)))
    for j in range(1, side_rings + 1):
        rows.append((radius, length * j / side_rings))
    for i in range(1, cap_rings):
        a = (math.pi / 2.0) * (1.0 - i / cap_rings)
        rows.append((radius * math.sin(a), length + radius * math.cos(a)))

    verts = [p0 - radius * z]  # bottom pole
    for r, h in rows:
        for s in range(segments):
            ang = 2.0 * math.pi * s / segments
            verts.append(p0 + h * z + r * (math.cos(ang) * x + math.sin(ang) * y))
    verts.append(p1 + radius * z)  # top pole
    top = len(verts) - 1

    faces = []
    for s in range(segments):
        faces.append([0, 1 + s, 1 + (s + 1) % segments])
    for row in range(len(rows) - 1):
        b0 = 1 + row * segments
        b1 = b0 + segments
        for s in range(segments):
            s1 = (s + 1) % segments
            faces.append([b0 + s, b1 + s, b1 + s1])
            faces.append([b0 + s, b1 + s1, b0 + s1])
    last = 1 + (len(rows) - 1) * segments
    for s in range(segments):
        faces.append([last + s, top, last + (s + 1) % segments])
    return np.array(verts), np.array(faces, dtype=np.int64)


@cache
def builtin_proxy_mesh() -> TriangleMesh:
    """Closed asymmetric union of capsules: torso, head, one arm, front lobe.

    Asymmetry (single arm, +z nose marker) disambiguates opposed viewpoints;
    each component is watertight so ray-hit parity holds. Built once per
    process; the mesh's arrays are read-only, so callers share it.
    """
    parts = [
        _capsule([0.0, -0.35, 0.0], [0.0, 0.35, 0.0], 0.22),
        _capsule([0.0, 0.62, 0.0], [0.0, 0.78, 0.0], 0.13),
        _capsule([0.28, 0.30, 0.0], [0.55, -0.15, 0.10], 0.07),
        _capsule([0.0, 0.68, 0.12], [0.0, 0.68, 0.24], 0.05),
    ]
    verts = []
    faces = []
    offset = 0
    for v, f in parts:
        verts.append(v)
        faces.append(f + offset)
        offset += len(v)
    return TriangleMesh(np.vstack(verts), np.vstack(faces))


def _look_at_pose(center, target, up=(0.0, 1.0, 0.0)) -> SE3Pose:
    center = np.asarray(center, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - center
    fwd /= np.linalg.norm(fwd)
    up = np.asarray(up, dtype=np.float64)
    right = np.cross(fwd, up)
    if np.linalg.norm(right) < 1e-9:
        right = np.cross(fwd, [1.0, 0.0, 0.0])
    right /= np.linalg.norm(right)
    down = np.cross(fwd, right)
    rot = np.stack([right, down, fwd])
    return SE3Pose(rot, -rot @ center)


def _render(mesh_cam: TriangleMesh, k: CameraIntrinsics, width: int, height: int):
    """Exact per-pixel first-hit map of a camera-frame mesh and the oracle's
    samples, from one all-hit cast.

    Only pixels inside the mesh's projected bounding rectangle are cast. The
    map's entries are the rays' nearest hits in row-major pixel order; a
    pixel whose ray misses has no entry. The samples are the hits of the
    rays through pixels whose coordinates are multiples of `_ORACLE_STRIDE`:
    (pixel (K, 2), rank (K,), camera-frame point (K, 3)), in row-major pixel
    order, nearest first. Only these are kept, not the hits of every ray.
    """
    v = mesh_cam.vertices
    if np.all(v[:, 2] > 0.0):
        uv = k.project(v)
        u_lo = max(0, int(np.floor(uv[:, 0].min())) - 1)
        u_hi = min(width - 1, int(np.ceil(uv[:, 0].max())) + 1)
        v_lo = max(0, int(np.floor(uv[:, 1].min())) - 1)
        v_hi = min(height - 1, int(np.ceil(uv[:, 1].max())) + 1)
        # a rectangle off the image casts no rays
        u_hi, v_hi = max(u_hi, u_lo - 1), max(v_hi, v_lo - 1)
    else:
        u_lo, u_hi, v_lo, v_hi = 0, width - 1, 0, height - 1
    us = np.arange(u_lo, u_hi + 1, dtype=np.float64)
    vs = np.arange(v_lo, v_hi + 1, dtype=np.float64)
    dirs = k.pixel_rays(np.stack(np.meshgrid(us, vs), axis=-1).reshape(-1, 2))
    ray, depth, face, bary = batch_all_hits(mesh_cam, dirs, max_hits=_ORACLE_HITS)
    rank = run_ranks(ray)
    row, col = np.divmod(ray, len(us))

    first = np.flatnonzero(rank == 0)
    entries = ((v_lo + row[first]) * width + (u_lo + col[first]), face[first], bary[first])
    for a in entries:
        a.flags.writeable = False  # adopted by the map, not copied

    sampled = np.flatnonzero((us[col] % _ORACLE_STRIDE == 0) & (vs[row] % _ORACLE_STRIDE == 0))
    row, col = row[sampled], col[sampled]
    samples = (np.column_stack([us[col], vs[row]]), rank[sampled],
               depth[sampled, None] * dirs[ray[sampled]])
    return DenseSurfaceMap(width, height, *entries), samples


def _jitter_map(dsm: DenseSurfaceMap, mesh_cam: TriangleMesh, k: CameraIntrinsics,
                sigma: float, rng) -> DenseSurfaceMap:
    """Displace each entry by re-casting through a jittered subpixel location.

    The map keeps its pixels; a jittered ray that misses the surface keeps
    the clean entry's face and weights.
    """
    if len(dsm.faces) == 0 or sigma == 0.0:
        return dsm
    pix = dsm.mapped_pixels()
    jitter = rng.normal(scale=sigma, size=(len(pix), 2))
    dirs = k.pixel_rays(pix + jitter)
    _, face, bary, ok = batch_first_hits(mesh_cam, dirs)
    return DenseSurfaceMap(dsm.width, dsm.height, dsm.index,
                           np.where(ok, face, dsm.faces), np.where(ok[:, None], bary, dsm.barys))


def _inject_outliers(dsm: DenseSurfaceMap, num_faces: int, fraction: float, rng
                     ) -> DenseSurfaceMap:
    """Replace a fraction of entries with uniformly random surface coordinates."""
    if len(dsm.faces) == 0 or fraction == 0.0:
        return dsm
    mask = rng.random(len(dsm.faces)) < fraction
    n = int(np.count_nonzero(mask))
    if n == 0:
        return dsm
    faces = dsm.faces.copy()
    barys = dsm.barys.copy()
    faces[mask] = rng.integers(0, num_faces, size=n)
    r1 = rng.random(n)
    r2 = rng.random(n)
    fold = r1 + r2 > 1.0  # fold the unit square onto the triangle
    r1[fold] = 1.0 - r1[fold]
    r2[fold] = 1.0 - r2[fold]
    barys[mask] = np.column_stack([1.0 - r1 - r2, r1, r2])
    return DenseSurfaceMap(dsm.width, dsm.height, dsm.index, faces, barys)


def _perturb_prior(mesh_cam: TriangleMesh, noise: NoiseConfig, rng) -> TriangleMesh:
    """Rigid + scale perturbation about the mesh centroid (imperfect prior)."""
    if (
        noise.prior_rotation_sigma == 0.0
        and noise.prior_translation_sigma == 0.0
        and noise.prior_scale_sigma == 0.0
    ):
        return mesh_cam
    centroid = mesh_cam.vertices.mean(axis=0)
    rot = so3_exp(rng.normal(scale=math.radians(noise.prior_rotation_sigma), size=3))
    mean_depth = float(np.linalg.norm(centroid))
    trans = rng.normal(scale=noise.prior_translation_sigma * mean_depth, size=3)
    scale = 1.0 + rng.normal(scale=noise.prior_scale_sigma)
    v = (mesh_cam.vertices - centroid) * scale @ rot.T + centroid + trans
    return TriangleMesh(v, mesh_cam.faces)


def generate_scene(scene: SceneConfig, noise: NoiseConfig | None = None) -> SyntheticScene:
    """Build ground-truth poses, per-image records, and the GT VC oracle.

    Cameras sit on a ring around the subject at the configured angles (plus a
    seeded elevation within the configured range). Each camera's surface map
    is the first hit of one exact all-hit cast, whose sampled hits also seed
    the oracle (see `_render`). Prior meshes are the ground-truth mesh in
    each camera frame perturbed per the noise config.
    """
    noise = noise or NoiseConfig()
    rng = np.random.default_rng(scene.seed)
    mesh = builtin_proxy_mesh()
    width, height = scene.image_size
    k = CameraIntrinsics(
        fx=scene.focal_length, fy=scene.focal_length, cx=width / 2.0, cy=height / 2.0
    )

    centroid = mesh.vertices.mean(axis=0)
    bound_radius = float(np.linalg.norm(mesh.vertices - centroid, axis=1).max())
    distance = scene.focal_length * bound_radius / (scene.fill_fraction * min(width, height))

    elevations = rng.uniform(-scene.elevation_range, scene.elevation_range,
                             size=scene.camera_count)
    poses = []
    for angle_deg, elev_deg in zip(scene.angles(), elevations):
        th = math.radians(angle_deg)
        ph = math.radians(elev_deg)
        offset = distance * np.array(
            [math.sin(th) * math.cos(ph), math.sin(ph), math.cos(th) * math.cos(ph)]
        )
        poses.append(_look_at_pose(centroid + offset, centroid))

    records = []
    clean_maps = []
    meshes_cam = []
    samples = []
    for idx, pose in enumerate(poses):
        mesh_cam = mesh.transformed(pose)
        meshes_cam.append(mesh_cam)
        clean, sampled = _render(mesh_cam, k, width, height)
        clean_maps.append(clean)
        samples.append(sampled)
        noisy = _jitter_map(clean, mesh_cam, k, noise.pixel_sigma, rng)
        noisy = _inject_outliers(noisy, mesh.num_faces, noise.outlier_fraction, rng)
        prior = _perturb_prior(mesh_cam, noise, rng)
        records.append(
            ImageRecord(
                image_id=f"cam{idx}",
                intrinsics=k,
                priors=(ShapePrior(person_id=0, mesh=prior, surface_map=noisy),),
            )
        )

    oracle = _build_oracle(meshes_cam, poses, k, width, height, samples)
    return SyntheticScene(
        config=scene,
        noise=noise,
        gt_mesh=mesh,
        gt_poses=poses,
        records=records,
        clean_maps=clean_maps,
        oracle=oracle,
    )


def _build_oracle(meshes_cam, poses, k, width, height, samples):
    """Verified cross-image pairs: every sampled hit of camera a, reprojected
    exactly into every other camera b where the hit point is b's visible
    surface.

    `samples[a]` holds camera a's sampled hits from its render (see `_render`)
    and `meshes_cam[b]` the scene mesh in camera b's frame. The visibility
    casts are first-hit casts on `meshes_cam[b]`, so they use the cast table
    of b's render.
    """
    n = len(poses)
    out = []
    for i in range(n):
        pix, ranks, points_cam = samples[i]
        points = poses[i].inverse_transform(points_cam)

        for j in range(n):
            if j == i:
                continue
            uv, depth = project_points(poses[j], k, points)
            sel = np.flatnonzero((depth > 1e-6) & in_image(uv, width, height))
            dirs_j = k.pixel_rays(uv[sel])
            p_cam_j = poses[j].transform(points[sel])
            d_first, _, _, hit_ok = batch_first_hits(meshes_cam[j], dirs_j)
            first_points = d_first[:, None] * dirs_j
            visible = hit_ok & (
                np.linalg.norm(first_points - p_cam_j, axis=1)
                <= _VIS_TOL * np.maximum(1.0, np.linalg.norm(p_cam_j, axis=1))
            )
            seen = sel[visible]
            out += map(tuple.__new__, repeat(GtCorrespondence), zip(
                repeat(i), repeat(j), pixel_records(pix[seen]), pixel_records(uv[seen]),
                map(points.__getitem__, seen.tolist()), ranks[seen].tolist()))
    return out
