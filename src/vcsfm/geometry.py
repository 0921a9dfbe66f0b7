"""Camera models, rigid transforms, rays, projection, and epipolar algebra.

Conventions: poses are world-to-camera (x_cam = R @ x_world + t), image
coordinates are continuous pixels, epipolar operations run on normalized
(K-free) coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotEssentialError, ZeroTranslationError

ROTATION_TOL = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def skew(v) -> np.ndarray:
    """Cross-product matrix [v]_x such that skew(v) @ u == cross(v, u)."""
    x, y, z = np.asarray(v, dtype=np.float64)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def so3_exp(w) -> np.ndarray:
    """Rodrigues exponential of a rotation vector."""
    w = np.asarray(w, dtype=np.float64)
    theta = np.linalg.norm(w)
    K = skew(w)
    if theta < 1e-9:
        # 2nd-order series keeps orthogonality to ~1e-18 near zero
        return np.eye(3) + K + 0.5 * (K @ K)
    return (
        np.eye(3)
        + (math.sin(theta) / theta) * K
        + ((1.0 - math.cos(theta)) / theta**2) * (K @ K)
    )


def so3_log(R) -> np.ndarray:
    """Rotation vector of R (inverse of so3_exp), angle in [0, pi]."""
    R = np.asarray(R, dtype=np.float64)
    cos = max(-1.0, min(1.0, (np.trace(R) - 1.0) * 0.5))
    theta = math.acos(cos)
    if theta < 1e-9:
        return np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]]) * 0.5
    if theta > math.pi - 1e-6:
        # near pi the antisymmetric part is ill-conditioned; use the symmetric part
        A = (R + np.eye(3)) * 0.5
        axis = np.sqrt(np.maximum(np.diagonal(A), 0.0))
        k = int(np.argmax(axis))
        axis = A[:, k] / max(axis[k], 1e-12)
        axis = axis / np.linalg.norm(axis)
        # fix the sign using the off-diagonal antisymmetric residue
        w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
        if np.dot(w, axis) < 0.0:
            axis = -axis
        return axis * theta
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return w * (theta / (2.0 * math.sin(theta)))


def so3_left_jacobian(w) -> np.ndarray:
    """Left Jacobian J_l of SO(3): exp((w + d)^) ~ exp((J_l d)^) exp(w^)."""
    w = np.asarray(w, dtype=np.float64)
    theta = np.linalg.norm(w)
    K = skew(w)
    if theta < 1e-6:
        return np.eye(3) + 0.5 * K + (K @ K) / 6.0
    return (
        np.eye(3)
        + ((1.0 - math.cos(theta)) / theta**2) * K
        + ((theta - math.sin(theta)) / theta**3) * (K @ K)
    )


@dataclass(frozen=True)
class Pixel:
    """Continuous image coordinates in pixels."""

    u: float
    v: float

    def __post_init__(self):
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "v", float(self.v))
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError("pixel coordinates must be finite")


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole calibration: focal lengths, principal point, optional skew (pixels)."""

    fx: float
    fy: float
    cx: float
    cy: float
    skew: float = 0.0

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy", "skew"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.fx > 0.0 and self.fy > 0.0):
            raise ValueError("focal lengths must be positive")

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, self.skew, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    def normalize(self, pixels: np.ndarray) -> np.ndarray:
        """Map pixel coordinates (..., 2) to normalized image coordinates."""
        p = np.asarray(pixels, dtype=np.float64)
        y = (p[..., 1] - self.cy) / self.fy
        x = (p[..., 0] - self.cx - self.skew * y) / self.fx
        return np.stack([x, y], axis=-1)

    def denormalize(self, xy: np.ndarray) -> np.ndarray:
        """Inverse of normalize."""
        xy = np.asarray(xy, dtype=np.float64)
        u = self.fx * xy[..., 0] + self.skew * xy[..., 1] + self.cx
        v = self.fy * xy[..., 1] + self.cy
        return np.stack([u, v], axis=-1)


def _identity_rotation():
    return _readonly(np.eye(3))


def _zero_translation():
    return _readonly(np.zeros(3))


@dataclass(frozen=True)
class SE3Pose:
    """World-to-camera rigid transform (x_cam = rotation @ x_world + translation)."""

    rotation: np.ndarray = field(default_factory=_identity_rotation)
    translation: np.ndarray = field(default_factory=_zero_translation)

    def __post_init__(self):
        R = np.array(self.rotation, dtype=np.float64)
        t = np.array(self.translation, dtype=np.float64).reshape(3)
        if R.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if np.linalg.norm(R.T @ R - np.eye(3)) > ROTATION_TOL:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > ROTATION_TOL:
            raise ValueError("rotation must have det +1")
        object.__setattr__(self, "rotation", _readonly(R))
        object.__setattr__(self, "translation", _readonly(t))

    @staticmethod
    def identity() -> "SE3Pose":
        return SE3Pose()

    @staticmethod
    def from_rotvec(w, t) -> "SE3Pose":
        return SE3Pose(so3_exp(w), t)

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply to world points (..., 3), returning camera-frame points."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation

    def inverse_transform(self, points: np.ndarray) -> np.ndarray:
        """Map camera-frame points back to the world frame."""
        p = np.asarray(points, dtype=np.float64)
        return (p - self.translation) @ self.rotation

    def inverse(self) -> "SE3Pose":
        return SE3Pose(self.rotation.T, -self.rotation.T @ self.translation)

    def compose(self, other: "SE3Pose") -> "SE3Pose":
        """self after other: returns the pose mapping world -> self(other(x))."""
        return SE3Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )


def relative_pose(pose_a: SE3Pose, pose_b: SE3Pose) -> SE3Pose:
    """Pose of camera b expressed in camera a's frame (x_b = R x_a + t)."""
    return pose_b.compose(pose_a.inverse())


@dataclass(frozen=True)
class Ray:
    """Half-line in the world frame with unit direction."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        o = np.array(self.origin, dtype=np.float64).reshape(3)
        d = np.array(self.direction, dtype=np.float64).reshape(3)
        n = np.linalg.norm(d)
        if abs(n - 1.0) > 1e-12:
            if n == 0.0:
                raise ValueError("ray direction must be nonzero")
            d = d / n
        object.__setattr__(self, "origin", _readonly(o))
        object.__setattr__(self, "direction", _readonly(d))

    def point_at(self, d: float) -> np.ndarray:
        return self.origin + d * self.direction


def camera_center(pose: SE3Pose) -> np.ndarray:
    """Camera origin in world coordinates, -R^T t."""
    return -pose.rotation.T @ pose.translation


def project_points(pose: SE3Pose, k: CameraIntrinsics, points: np.ndarray):
    """Project world points (..., 3); returns (pixels (..., 2), depths (...))."""
    pc = pose.transform(points)
    z = pc[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        x = pc[..., 0] / z
        y = pc[..., 1] / z
    return k.denormalize(np.stack([x, y], axis=-1)), z


def ray_through_pixel(pose: SE3Pose, k: CameraIntrinsics, p: Pixel) -> Ray:
    """World-frame viewing ray from the camera center through pixel p."""
    xy = k.normalize(np.array([p.u, p.v]))
    dir_cam = np.array([xy[0], xy[1], 1.0])
    dir_world = pose.rotation.T @ dir_cam
    return Ray(camera_center(pose), dir_world / np.linalg.norm(dir_world))


def essential_from_pose(rel: SE3Pose) -> np.ndarray:
    """Essential matrix [t]_x R of a relative pose; x2^T E x1 = 0 holds."""
    t = rel.translation
    if np.linalg.norm(t) == 0.0:
        raise ZeroTranslationError("essential matrix undefined for zero baseline")
    return skew(t) @ rel.rotation


def sampson_errors(e: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Vectorized first-order geometric (Sampson) error for normalized pairs.

    x1, x2: (N, 2) normalized coordinates. Returns (N,) errors; entries whose
    denominator vanishes come back as +inf.
    """
    e = np.asarray(e, dtype=np.float64)
    x1h = np.column_stack([np.atleast_2d(x1), np.ones(len(np.atleast_2d(x1)))])
    x2h = np.column_stack([np.atleast_2d(x2), np.ones(len(np.atleast_2d(x2)))])
    ex1 = x1h @ e.T
    etx2 = x2h @ e
    num = np.sum(x2h * ex1, axis=1) ** 2
    den = ex1[:, 0] ** 2 + ex1[:, 1] ** 2 + etx2[:, 0] ** 2 + etx2[:, 1] ** 2
    out = np.full(len(den), np.inf)
    ok = den >= 1e-18
    out[ok] = num[ok] / den[ok]
    return out


def decompose_essential(e: np.ndarray) -> list[SE3Pose]:
    """The four (R, t-hat) candidates of an essential matrix.

    Raises NotEssentialError when the singular values are not close to
    (sigma, sigma, 0): sigma2/sigma1 < 0.9 or sigma3/sigma1 > 0.1.
    """
    e = np.asarray(e, dtype=np.float64)
    u, s, vt = np.linalg.svd(e)
    if s[0] <= 0.0 or s[1] / s[0] < 0.9 or s[2] / s[0] > 0.1:
        raise NotEssentialError(f"singular values {s} not of the form (s, s, 0)")
    if np.linalg.det(u) < 0.0:
        u = -u
    if np.linalg.det(vt) < 0.0:
        vt = -vt
    w = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    r1 = u @ w @ vt
    r2 = u @ w.T @ vt
    t = u[:, 2]
    return [
        SE3Pose(r1, t),
        SE3Pose(r1, -t),
        SE3Pose(r2, t),
        SE3Pose(r2, -t),
    ]


def rotation_angle_deg(r_a: np.ndarray, r_b: np.ndarray) -> float:
    """Geodesic angle between two rotations in degrees.

    Uses atan2(2 sin, 2 cos) of the relative rotation, which keeps full
    precision near 0 and pi (the arccos form loses ~8 digits near 0).
    """
    r = np.asarray(r_a) @ np.asarray(r_b).T
    w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    return math.degrees(math.atan2(np.linalg.norm(w), np.trace(r) - 1.0))


def angle_between_deg(a, b) -> float:
    """Angle between two nonzero vectors in degrees (atan2 form, precise
    near 0 and pi)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return math.degrees(
        math.atan2(np.linalg.norm(np.cross(a, b)), float(np.dot(a, b)))
    )
