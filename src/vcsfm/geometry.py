"""Camera models, rigid transforms, rays, projection, and epipolar algebra.

Conventions: poses are world-to-camera (x_cam = R @ x_world + t), image
coordinates are continuous pixels, epipolar operations run on normalized
(K-free) coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import NotEssentialError, ZeroTranslationError

ROTATION_TOL = 1e-9
_PARALLEL = np.finfo(np.float64).eps ** 2  # |u1 x u2|^2 of lines parallel to rounding


def read_only(a, dtype) -> np.ndarray:
    """`a` itself when it is a read-only array of `dtype`, else a read-only copy.
    ValueError if the cast to `dtype` changes a value, such as a fractional,
    infinite or NaN entry cast to an int."""
    if isinstance(a, np.ndarray) and a.dtype == dtype and not a.flags.writeable:
        return a
    given = np.asarray(a)
    if given.dtype == dtype:
        a = given.copy()
    else:
        with np.errstate(invalid="ignore"):  # a changed value raises below instead
            a = given.astype(dtype)
        if not np.array_equal(a, given, equal_nan=True):
            raise ValueError(f"casting {given.dtype} to {a.dtype} would change a value")
    a.flags.writeable = False
    return a


def is_count(value, least: int = 1) -> bool:
    """Whether `value` is an int (or numpy integer) >= `least`, and not a bool."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= least)


def image_points(xy) -> np.ndarray:
    """xy as an (n, 2) float64 array, n >= 0; ValueError for any other shape."""
    xy = np.asarray(xy, dtype=np.float64)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"image points must be an (n, 2) array, not {xy.shape}")
    return xy


def homogeneous(xy) -> np.ndarray:
    """Rows (x, y, 1) of the points xy (n, 2): an (n, 3) array."""
    xy = image_points(xy)
    out = np.ones((len(xy), 3))
    out[:, :2] = xy
    return out


def cross(a, b) -> np.ndarray:
    """a x b over the last axis of a and b, broadcast over the others: the
    products and differences of `np.cross` (c0 = a1 b2 - a2 b1 and so on),
    so the same bits, without most of its per-call cost."""
    a, b = np.asarray(a), np.asarray(b)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c0 = a1 * b2 - a2 * b1
    out = np.empty(np.shape(c0) + (3,), c0.dtype)
    out[..., 0] = c0
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


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


class _PixelFields(NamedTuple):
    u: float
    v: float


class Pixel(_PixelFields):
    """Continuous image coordinates in pixels: a (u, v) tuple of floats.

    The constructor converts both coordinates to float and rejects a
    non-finite one (ValueError); `_make` and `_replace` skip both. Equality
    and hashing are those of the tuple, so Pixel(1, 2) == (1.0, 2.0).
    """

    __slots__ = ()

    def __new__(cls, u, v):
        u, v = float(u), float(v)
        if not (math.isfinite(u) and math.isfinite(v)):
            raise ValueError("pixel coordinates must be finite")
        return tuple.__new__(cls, (u, v))


def pixel_records(uv) -> list:
    """One `Pixel` per row of uv (n, 2), after one check that every
    coordinate is finite (ValueError); tuple.__new__ then skips the
    constructor's per-record check."""
    uv = image_points(uv)
    if not np.isfinite(uv).all():
        raise ValueError("pixel coordinates must be finite")
    return list(map(tuple.__new__, repeat(Pixel), zip(*uv.T.tolist())))


def in_image(uv, width: int, height: int) -> np.ndarray:
    """Per pixel of uv (n, 2): whether 0 <= u <= width - 1 and
    0 <= v <= height - 1 (False for NaN)."""
    uv = np.asarray(uv, dtype=np.float64)
    return ((uv >= 0.0) & (uv <= [width - 1, height - 1])).all(axis=1)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole calibration without skew (Hartley & Zisserman, 2nd ed., 6.1):
    focal lengths fx, fy and principal point cx, cy, in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if not (self.fx > 0.0 and self.fy > 0.0):
            raise ValueError("focal lengths must be positive")

    def normalize(self, pixels: np.ndarray) -> np.ndarray:
        """Map pixel coordinates (..., 2) to normalized image coordinates."""
        p = np.asarray(pixels, dtype=np.float64)
        x = (p[..., 0] - self.cx) / self.fx
        y = (p[..., 1] - self.cy) / self.fy
        return np.stack([x, y], axis=-1)

    def pixel_rays(self, pixels: np.ndarray) -> np.ndarray:
        """Camera-frame ray directions (n, 3) through pixels (n, 2): each
        pixel's normalized image coordinates with a third coordinate 1."""
        return homogeneous(self.normalize(pixels))

    def project(self, points_cam: np.ndarray) -> np.ndarray:
        """Pixels (..., 2) of camera-frame points (..., 3), the inverse of pixel_rays."""
        p = np.asarray(points_cam, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            xy = p[..., :2] / p[..., 2:]
        return self.denormalize(xy)

    def denormalize(self, xy: np.ndarray) -> np.ndarray:
        """Inverse of normalize."""
        xy = np.asarray(xy, dtype=np.float64)
        u = self.fx * xy[..., 0] + self.cx
        v = self.fy * xy[..., 1] + self.cy
        return np.stack([u, v], axis=-1)


@dataclass(frozen=True)
class SE3Pose:
    """World-to-camera rigid transform (x_cam = rotation @ x_world + translation).
    Immutable: read-only float64 inputs are adopted, anything else copied."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = read_only(self.rotation, np.float64)
        t = read_only(self.translation, np.float64).reshape(3)
        if R.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if not np.isfinite(R).all():  # NaN would pass both checks below
            raise ValueError("rotation must be finite")
        if np.linalg.norm(R.T @ R - np.eye(3)) > ROTATION_TOL:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > ROTATION_TOL:
            raise ValueError("rotation must have det +1")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "SE3Pose":
        return SE3Pose(np.eye(3), np.zeros(3))

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
    """Half-line in the world frame with unit direction; immutable, as SE3Pose."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        o = read_only(self.origin, np.float64).reshape(3)
        d = read_only(self.direction, np.float64).reshape(3)
        if not (np.isfinite(o).all() and np.isfinite(d).all()):
            raise ValueError("ray origin and direction must be finite")
        n = np.linalg.norm(d)
        if abs(n - 1.0) > 1e-12:
            if n == 0.0:
                raise ValueError("ray direction must be nonzero")
            d = read_only(d / n, np.float64)
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "direction", d)


def closest_approach(w, u1, u2):
    """Per row of the (n, 3) arrays w = o_a - o_b and unit u1, u2: the
    parameters s, t of the closest points o_a + s u1, o_b + t u2 of the two
    lines, and the lines' distance, all solved against the common normal
    n = u1 x u2 taken as u1 x (u2 +- u1), which keeps its relative precision
    for nearly opposed or equal directions. NaN where |n|^2 <= eps^2."""
    flip = np.einsum("ni,ni->n", u1, u2) < 0.0
    normal = cross(u1, u2 + np.where(flip[:, None], u1, -u1))
    denom = np.einsum("ni,ni->n", normal, normal)
    denom[denom <= _PARALLEL] = np.nan
    m = cross(w, normal)  # (u2 x w) . n = u2 . (w x n), and so for u1
    s = np.einsum("ni,ni->n", u2, m) / denom
    t = np.einsum("ni,ni->n", u1, m) / denom
    return s, t, np.abs(np.einsum("ni,ni->n", w, normal)) / np.sqrt(denom)


def camera_center(pose: SE3Pose) -> np.ndarray:
    """Camera origin in world coordinates, -R^T t."""
    return -pose.rotation.T @ pose.translation


def project_points(pose: SE3Pose, k: CameraIntrinsics, points: np.ndarray):
    """Project world points (..., 3); returns (pixels (..., 2), depths (...))."""
    pc = pose.transform(points)
    return k.project(pc), pc[..., 2]


def ray_through_pixel(pose: SE3Pose, k: CameraIntrinsics, p: Pixel) -> Ray:
    """World-frame viewing ray from the camera center through pixel p."""
    dir_world = pose.rotation.T @ k.pixel_rays([(p.u, p.v)])[0]
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
    x1h = homogeneous(x1)
    x2h = homogeneous(x2)
    ex1 = x1h @ e.T
    etx2 = x2h @ e
    num = np.sum(x2h * ex1, axis=1) ** 2
    den = ex1[:, 0] ** 2 + ex1[:, 1] ** 2 + etx2[:, 0] ** 2 + etx2[:, 1] ** 2
    out = np.full(len(den), np.inf)
    ok = den >= 1e-18
    out[ok] = num[ok] / den[ok]
    return out


def decompose_essential(e: np.ndarray) -> list[SE3Pose]:
    """The four (R, t-hat) candidates of an essential matrix: ValueError
    unless e is a finite (3, 3) array, NotEssentialError when its singular
    values are not near (s, s, 0): s2/s1 < 0.9 or s3/s1 > 0.1.
    """
    e = np.asarray(e, dtype=np.float64)
    if e.shape != (3, 3) or not np.isfinite(e).all():
        raise ValueError("e must be a finite (3, 3) array")
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
        math.atan2(np.linalg.norm(cross(a, b)), float(np.dot(a, b)))
    )
