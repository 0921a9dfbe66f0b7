"""Pose-accuracy metrics: per-pair angular errors and the normalized area
under the cumulative error curve."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInputError
from .geometry import SE3Pose, angle_between_deg, relative_pose, rotation_angle_deg

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
    return PairPoseError(rot, trans, max(rot, trans))


def auc(errors, threshold: float) -> float:
    """Normalized area under the cumulative-recall-vs-error curve on [0, thr].

    Exact integral of the step function: each error e contributes
    max(0, 1 - e / thr) / n. All errors must be non-negative.
    """
    e = np.asarray(list(errors), dtype=np.float64)
    if e.size == 0:
        raise EmptyInputError("auc of an empty error list")
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    if np.any(e < 0.0):
        raise ValueError("errors must be non-negative")
    # normalize each term before the mean: every term is then at most 1, so
    # the rounded mean is too (dividing the mean by thr can give 1 + ulp)
    return float(np.mean(np.clip(1.0 - e / threshold, 0.0, None)))


@dataclass
class PoseErrorReport:
    """Per-pair errors of an estimated pose set plus AUC at fixed thresholds."""

    pairs: list = field(default_factory=list)  # (id_a, id_b)
    rotation_deg: list = field(default_factory=list)
    translation_deg: list = field(default_factory=list)
    combined_deg: list = field(default_factory=list)
    auc_at: dict = field(default_factory=dict)

    @property
    def max_combined_deg(self) -> float:
        return float(np.max(self.combined_deg))


def evaluate_pose_set(est: dict, gt: dict, thresholds=(15.0, 30.0, 45.0)) -> PoseErrorReport:
    """Compare absolute pose dictionaries (id -> SE3Pose) over all id pairs.

    Relative poses are compared, so a global rigid offset between the two
    sets does not matter. Images missing from `est` score the failure error
    (180 degrees) against every partner.
    """
    ids = sorted(gt.keys())
    if len(ids) < 2:
        raise EmptyInputError("need at least two ground-truth poses")
    report = PoseErrorReport()
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            report.pairs.append((a, b))
            if a not in est or b not in est:
                report.rotation_deg.append(FAILURE_ERROR_DEG)
                report.translation_deg.append(FAILURE_ERROR_DEG)
                report.combined_deg.append(FAILURE_ERROR_DEG)
                continue
            err = pose_error(
                relative_pose(est[a], est[b]), relative_pose(gt[a], gt[b])
            )
            report.rotation_deg.append(err.rotation_deg)
            report.translation_deg.append(err.translation_deg)
            report.combined_deg.append(err.combined_deg)
    for thr in thresholds:
        report.auc_at[float(thr)] = auc(report.combined_deg, thr)
    return report
