"""Pose-accuracy metrics: per-pair angular errors and the normalized area
under the cumulative error curve."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError
from .geometry import SE3Pose, angle_between_deg, rotation_angle_deg

FAILURE_ERROR_DEG = 180.0
MIN_BASELINE = 1e-9


@dataclass(frozen=True)
class PairPoseError:
    """Angular errors of one relative pose against ground truth (degrees)."""

    rotation_deg: float
    translation_deg: float
    combined_deg: float
    translation_defined: bool = True


def pose_error(est: SE3Pose, gt: SE3Pose) -> PairPoseError:
    """max of rotation angle and translation-direction angle, in degrees.

    Translation is compared by direction only (recoverable only up to scale).
    When either baseline is below MIN_BASELINE the translation part is
    undefined and the combined error falls back to the rotation error alone,
    flagged via translation_defined=False.
    """
    rot = rotation_angle_deg(est.rotation, gt.rotation)
    n_est = float(np.linalg.norm(est.translation))
    n_gt = float(np.linalg.norm(gt.translation))
    if n_est < MIN_BASELINE or n_gt < MIN_BASELINE:
        return PairPoseError(rot, math.nan, rot, translation_defined=False)
    trans = angle_between_deg(est.translation, gt.translation)
    # np.maximum propagates NaN, where max(rot, nan) would return rot
    return PairPoseError(rot, trans, float(np.maximum(rot, trans)))


def auc(errors, threshold: float) -> float:
    """Normalized area under the cumulative-recall-vs-error curve on [0, thr].

    Exact integral of the step function: each error e contributes
    max(0, 1 - e / thr) / n. All errors must be non-negative (NaN is
    rejected).
    """
    e = np.asarray(list(errors), dtype=np.float64)
    if e.size == 0:
        raise EmptyInputError("auc of an empty error list")
    if not 0.0 < threshold < math.inf:
        raise ValueError("threshold must be positive and finite")
    if not np.all(e >= 0.0):  # NaN fails this test, where it passes e < 0
        raise ValueError("errors must be non-negative and not NaN")
    # normalize each term before the mean: every term is then at most 1, so
    # the rounded mean is too (dividing the mean by thr can give 1 + ulp)
    return float(np.mean(np.clip(1.0 - e / threshold, 0.0, None)))
