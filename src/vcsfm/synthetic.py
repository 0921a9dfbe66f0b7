"""Ground-truth scene generation for benchmarking: a built-in body proxy,
camera rings, exact surface-map rendering (the dense-association oracle),
noise injection, and a verified ground-truth correspondence oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .extraction import DenseSurfaceMap, ImageRecord, ShapePrior
from .geometry import CameraIntrinsics, Pixel, SE3Pose, project_points, so3_exp
from .mesh import TriangleMesh, batch_all_hits, batch_first_hits

# relative position tolerance for the oracle's visibility test
_VIS_TOL = 1e-6


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
        if self.camera_count < 2:
            raise ValueError("need at least two cameras")
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
        if any(v < 0.0 for v in vals) or self.outlier_fraction >= 1.0:
            raise ValueError("noise magnitudes must be >= 0, outlier fraction < 1")

    @staticmethod
    def none() -> "NoiseConfig":
        return NoiseConfig()


@dataclass(frozen=True)
class GtCorrespondence:
    """Oracle pixel pair: cam_a's ray pierces `point`, cam_b observes it.

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

    def oracle_pairs(self, cam_a: int, cam_b: int) -> list:
        return [c for c in self.oracle if (c.cam_a, c.cam_b) == (cam_a, cam_b)]

    def classic_oracle_pairs(self, cam_a: int, cam_b: int) -> list:
        return [c for c in self.oracle_pairs(cam_a, cam_b) if c.rank_a == 0]


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


def render_surface_map(mesh_cam: TriangleMesh, k: CameraIntrinsics,
                       width: int, height: int) -> DenseSurfaceMap:
    """Exact per-pixel first-hit map of a camera-frame mesh.

    Only pixels inside the mesh's projected bounding rectangle are cast.
    """
    v = mesh_cam.vertices
    faces_img = np.full((height, width), -1, dtype=np.int64)
    barys_img = np.zeros((height, width, 3))
    if np.all(v[:, 2] > 0.0):
        uv = k.denormalize(v[:, :2] / v[:, 2:3])
        u_lo = max(0, int(np.floor(uv[:, 0].min())) - 1)
        u_hi = min(width - 1, int(np.ceil(uv[:, 0].max())) + 1)
        v_lo = max(0, int(np.floor(uv[:, 1].min())) - 1)
        v_hi = min(height - 1, int(np.ceil(uv[:, 1].max())) + 1)
        if u_lo > u_hi or v_lo > v_hi:
            return DenseSurfaceMap(faces_img, barys_img)
    else:
        u_lo, u_hi, v_lo, v_hi = 0, width - 1, 0, height - 1
    uu, vv = np.meshgrid(
        np.arange(u_lo, u_hi + 1, dtype=np.float64),
        np.arange(v_lo, v_hi + 1, dtype=np.float64),
    )
    xy = k.normalize(np.stack([uu.ravel(), vv.ravel()], axis=1))
    dirs = np.column_stack([xy, np.ones(len(xy))])
    _, face, bary, ok = batch_first_hits(mesh_cam, np.zeros_like(dirs), dirs)
    sub_h, sub_w = uu.shape
    faces_img[v_lo : v_hi + 1, u_lo : u_hi + 1] = np.where(ok, face, -1).reshape(sub_h, sub_w)
    barys_img[v_lo : v_hi + 1, u_lo : u_hi + 1] = bary.reshape(sub_h, sub_w, 3)
    return DenseSurfaceMap(faces_img, barys_img)


def _jitter_map(dsm: DenseSurfaceMap, mesh_cam: TriangleMesh, k: CameraIntrinsics,
                sigma: float, rng) -> DenseSurfaceMap:
    """Displace each entry by re-casting through a jittered subpixel location.

    A jittered ray that misses the surface keeps the clean entry.
    """
    pix = dsm.mapped_pixels()
    if len(pix) == 0 or sigma == 0.0:
        return dsm
    jitter = rng.normal(scale=sigma, size=(len(pix), 2))
    xy = k.normalize(pix.astype(np.float64) + jitter)
    dirs = np.column_stack([xy, np.ones(len(xy))])
    _, face, bary, ok = batch_first_hits(mesh_cam, np.zeros_like(dirs), dirs)
    faces = np.array(dsm.faces)
    barys = np.array(dsm.barys)
    u, v = pix[:, 0], pix[:, 1]
    sel = np.nonzero(ok)[0]
    faces[v[sel], u[sel]] = face[sel]
    barys[v[sel], u[sel]] = bary[sel]
    return DenseSurfaceMap(faces, barys)


def _inject_outliers(dsm: DenseSurfaceMap, num_faces: int, fraction: float, rng
                     ) -> DenseSurfaceMap:
    """Replace a fraction of entries with uniformly random surface coordinates."""
    pix = dsm.mapped_pixels()
    if len(pix) == 0 or fraction == 0.0:
        return dsm
    mask = rng.random(len(pix)) < fraction
    n = int(np.count_nonzero(mask))
    if n == 0:
        return dsm
    faces = np.array(dsm.faces)
    barys = np.array(dsm.barys)
    rand_faces = rng.integers(0, num_faces, size=n)
    r1 = rng.random(n)
    r2 = rng.random(n)
    fold = r1 + r2 > 1.0  # fold the unit square onto the triangle
    r1[fold] = 1.0 - r1[fold]
    r2[fold] = 1.0 - r2[fold]
    u, v = pix[mask, 0], pix[mask, 1]
    faces[v, u] = rand_faces
    barys[v, u] = np.column_stack([1.0 - r1 - r2, r1, r2])
    return DenseSurfaceMap(faces, barys)


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


def generate_scene(scene: SceneConfig, noise: NoiseConfig | None = None,
                   oracle_stride: int = 4) -> SyntheticScene:
    """Build ground-truth poses, per-image records, and the GT VC oracle.

    Cameras sit on a ring around the subject at the configured angles (plus a
    seeded elevation within the configured range), surface maps are rendered
    by exact first-hit ray casting, prior meshes are the ground-truth mesh in
    each camera frame perturbed per the noise config.
    """
    noise = noise or NoiseConfig.none()
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
    for idx, pose in enumerate(poses):
        mesh_cam = mesh.transformed(rotation=pose.rotation, translation=pose.translation)
        clean = render_surface_map(mesh_cam, k, width, height)
        clean_maps.append(clean)
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

    oracle = _build_oracle(mesh, poses, k, clean_maps, oracle_stride)
    return SyntheticScene(
        config=scene,
        noise=noise,
        gt_mesh=mesh,
        gt_poses=poses,
        records=records,
        clean_maps=clean_maps,
        oracle=oracle,
    )


def _build_oracle(mesh, poses, k, clean_maps, stride):
    """Verified cross-image pairs: sampled pixels of a, all ray hits, exact
    reprojections into every b where the hit point is the visible surface."""
    n = len(poses)
    width, height = clean_maps[0].width, clean_maps[0].height
    meshes_cam = [
        mesh.transformed(rotation=p.rotation, translation=p.translation) for p in poses
    ]
    out = []
    for i in range(n):
        pix = clean_maps[i].mapped_pixels(stride)  # row-major
        if len(pix) == 0:
            continue
        xy = k.normalize(pix.astype(np.float64))
        dirs_cam = np.column_stack([xy, np.ones(len(xy))])
        dirs_cam /= np.linalg.norm(dirs_cam, axis=1, keepdims=True)
        dirs_world = dirs_cam @ poses[i].rotation  # R^T per row
        origin = -poses[i].rotation.T @ poses[i].translation
        ray, depths, _, _ = batch_all_hits(
            mesh, np.tile(origin, (len(pix), 1)), dirs_world, max_hits=4
        )
        if len(ray) == 0:
            continue
        points = origin + depths[:, None] * dirs_world[ray]
        ray_pix = pix[ray].astype(np.float64).tolist()
        ranks = (np.arange(len(ray)) - np.searchsorted(ray, ray)).tolist()

        for j in range(n):
            if j == i:
                continue
            uv, depth = project_points(poses[j], k, points)
            ok = (
                (depth > 1e-6)
                & (uv[:, 0] >= 0.0)
                & (uv[:, 0] <= width - 1)
                & (uv[:, 1] >= 0.0)
                & (uv[:, 1] <= height - 1)
            )
            if not ok.any():
                continue
            sel = np.nonzero(ok)[0]
            xyj = k.normalize(uv[sel])
            dirs_j = np.column_stack([xyj, np.ones(len(sel))])
            p_cam_j = poses[j].transform(points[sel])
            d_first, _, _, hit_ok = batch_first_hits(
                meshes_cam[j], np.zeros_like(dirs_j), dirs_j
            )
            first_points = d_first[:, None] * dirs_j
            visible = hit_ok & (
                np.linalg.norm(first_points - p_cam_j, axis=1)
                <= _VIS_TOL * np.maximum(1.0, np.linalg.norm(p_cam_j, axis=1))
            )
            seen = sel[visible]
            out.extend(
                GtCorrespondence(
                    cam_a=i,
                    cam_b=j,
                    pixel_a=Pixel(*ray_pix[s]),
                    pixel_b=Pixel(u, v),
                    point=points[s],
                    rank_a=ranks[s],
                )
                for s, (u, v) in zip(seen.tolist(), uv[seen].tolist())
            )
    return out
