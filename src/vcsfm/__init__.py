"""Structure from motion for barely-overlapping views.

Pixel pairs whose camera rays intersect in 3D ("virtual correspondences") are
extracted from per-image shape priors and refined with a generalized bundle
adjustment over point tuples, so poses can be recovered even when no scene
point is co-visible.
"""

from . import errors
from .geometry import (
    CameraIntrinsics,
    Pixel,
    Ray,
    SE3Pose,
    camera_center,
    decompose_essential,
    essential_from_pose,
    ray_through_pixel,
    relative_pose,
)
from .mesh import TriangleMesh

__version__ = "0.1.0"

__all__ = [
    "CameraIntrinsics",
    "Pixel",
    "Ray",
    "SE3Pose",
    "camera_center",
    "decompose_essential",
    "errors",
    "essential_from_pose",
    "ray_through_pixel",
    "relative_pose",
    "TriangleMesh",
]
