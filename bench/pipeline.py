"""Two-view reconstruction glue driven by the benchmark.

One image pair is one operation: extract virtual correspondences, run
five-point RANSAC, scale its unit baseline by the prior meshes' rigid
alignment, lift the inliers into tracks, refine them with tuple bundle
adjustment and score the result against ground truth. Only public functions
of `vcsfm` are called; the ground truth is used for scoring and for the
correctness checks, never by the reconstruction itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vcsfm.ba import BaCamera, BaConfig, BaProblem, lift_vcs_to_tracks, solve_ba
from vcsfm.errors import VcsfmError
from vcsfm.extraction import (
    ExtractionParams,
    extract_vcs,
    suggest_surface_tolerance,
    vc_ray_gap,
)
from vcsfm.geometry import SE3Pose, ray_through_pixel, relative_pose
from vcsfm.metrics import FAILURE_ERROR_DEG, pose_error
from vcsfm.relative_pose import RansacParams, ransac_essential

ORTHONORMAL_TOL = 1e-6
ORACLE_GAP_TOL = 1e-9


class CheckFailed(Exception):
    """A correctness invariant of the pipeline's output does not hold."""


@dataclass
class PairResult:
    """Outcome of one pair; fields of steps a failed pair never reached stay None."""

    error_deg: float  # final (post-BA) combined pose error, 180 on failure
    failed: bool
    ransac_pose: SE3Pose | None = None  # unit baseline
    ransac_error_deg: float | None = None
    tolerance: float | None = None
    vcs: list | None = None
    inlier_mask: np.ndarray | None = None
    ransac_iterations: int | None = None
    tracks: int | None = None
    lift_dropped: int | None = None
    ba_iterations: int | None = None
    ba_initial: float | None = None
    ba_final: float | None = None
    pose: SE3Pose | None = None


def kabsch(src: np.ndarray, dst: np.ndarray) -> SE3Pose:
    """Rigid transform (R, t) minimizing |R src + t - dst| over paired rows."""
    cs, cd = src.mean(axis=0), dst.mean(axis=0)
    u, _, vt = np.linalg.svd((dst - cd).T @ (src - cs))
    d = np.sign(np.linalg.det(u @ vt))
    rot = u @ np.diag([1.0, 1.0, d]) @ vt
    return SE3Pose(rot, cd - rot @ cs)


def prior_baseline(record_a, record_b, person_id: int = 0) -> float:
    """Metric baseline from the records alone.

    Both prior meshes share one topology, so aligning a's camera-frame mesh
    onto b's gives the a-to-b camera transform up to prior noise; its
    translation norm is the baseline.
    """
    va = record_a.posed_mesh(person_id).vertices
    vb = record_b.posed_mesh(person_id).vertices
    return float(np.linalg.norm(kabsch(va, vb).translation))


def gt_relative(scene) -> SE3Pose:
    return relative_pose(scene.gt_poses[0], scene.gt_poses[1])


def check_oracle(scene) -> None:
    """Every oracle pair's viewing rays meet at its point under ground truth.

    Measured as the point's distance to each ray: the closed-form gap of two
    rays (`extraction.ray_gap`) cancels catastrophically when the rays are
    nearly anti-parallel, as on the line joining two opposed cameras.
    """
    k = scene.records[0].intrinsics
    for c in scene.oracle:
        for cam, pixel in ((c.cam_a, c.pixel_a), (c.cam_b, c.pixel_b)):
            ray = ray_through_pixel(scene.gt_poses[cam], k, pixel)
            offset = c.point - ray.origin
            gap = float(np.linalg.norm(np.cross(offset, ray.direction)))
            if not (gap < ORACLE_GAP_TOL and offset @ ray.direction > 0.0):
                raise CheckFailed(f"oracle point is {gap:.3g} off the ray of camera {cam} "
                                  f"through {pixel}")


def check_pose(pose: SE3Pose, what: str) -> None:
    rot, t = pose.rotation, pose.translation
    if not (np.all(np.isfinite(rot)) and np.all(np.isfinite(t))):
        raise CheckFailed(f"{what} pose is not finite")
    if (np.abs(rot.T @ rot - np.eye(3)).max() > ORTHONORMAL_TOL
            or abs(np.linalg.det(rot) - 1.0) > ORTHONORMAL_TOL):
        raise CheckFailed(f"{what} rotation is not orthonormal")


def check_pair(result: PairResult) -> None:
    """Invariants of a pair's outputs, as far as its pipeline got."""
    if result.ransac_pose is not None:
        check_pose(result.ransac_pose, "RANSAC")
    if result.failed:
        return
    check_pose(result.pose, "final")
    if not result.ba_final <= result.ba_initial:
        raise CheckFailed(
            f"BA objective rose from {result.ba_initial:.6g} to {result.ba_final:.6g}")
    inliers = int(np.count_nonzero(result.inlier_mask))
    if result.tracks + result.lift_dropped != inliers:
        raise CheckFailed(
            f"{result.tracks} tracks + {result.lift_dropped} dropped != {inliers} inliers"
        )


def run_pair(scene, ransac_seed: int, span) -> PairResult:
    """Reconstruct camera 1 relative to camera 0 of a two-camera scene.

    `span(name)` is a context manager placed around each call into a layer.
    A `VcsfmError` from any step fails the pair, scored at 180 degrees.
    """
    rec_a, rec_b = scene.records
    k_a, k_b = rec_a.intrinsics, rec_b.intrinsics
    gt = gt_relative(scene)
    out = PairResult(FAILURE_ERROR_DEG, failed=True)
    try:
        with span("extraction.tolerance"):
            out.tolerance = suggest_surface_tolerance(scene.records)
        with span("extraction.extract_vcs"):
            out.vcs = extract_vcs(rec_a, rec_b, ExtractionParams(surface_tolerance=out.tolerance))
        pix_a = np.array([[vc.pixel_a.u, vc.pixel_a.v] for vc in out.vcs]).reshape(-1, 2)
        pix_b = np.array([[vc.pixel_b.u, vc.pixel_b.v] for vc in out.vcs]).reshape(-1, 2)
        with span("relative_pose.ransac"):
            est = ransac_essential(
                k_a.normalize(pix_a), k_b.normalize(pix_b), RansacParams(seed=ransac_seed)
            )
        out.ransac_pose, out.inlier_mask = est.pose, est.inlier_mask
        out.ransac_iterations = est.iterations
        out.ransac_error_deg = pose_error(est.pose, gt).combined_deg
        with span("bench.prior_baseline"):
            baseline = prior_baseline(rec_a, rec_b)
        pose_a = SE3Pose.identity()
        pose_b = SE3Pose(est.pose.rotation, est.pose.translation * baseline)
        inliers = [vc for vc, keep in zip(out.vcs, est.inlier_mask) if keep]
        with span("ba.lift"):
            tracks, x2s, out.lift_dropped = lift_vcs_to_tracks(
                inliers, rec_a, rec_b, pose_a, pose_b, 0, 1
            )
        out.tracks = len(tracks)
        problem = BaProblem(
            [BaCamera(pose_a, k_a, fixed=True), BaCamera(pose_b, k_b)],
            tracks, mode="soft", soft_x2=x2s,
        )
        with span("ba.solve"):
            sol = solve_ba(problem, BaConfig())
    except VcsfmError:
        return out
    rep = sol.report
    out.ba_iterations = rep.iterations
    out.ba_initial, out.ba_final = rep.initial_objective, rep.final_objective
    out.pose = relative_pose(sol.poses[0], sol.poses[1])
    out.error_deg = pose_error(out.pose, gt).combined_deg
    out.failed = False
    return out


def vc_precision_counts(scene, vcs, tolerance: float) -> tuple[int, int]:
    """(VCs whose rays pass within `tolerance` under ground truth, all VCs)."""
    k = scene.records[0].intrinsics
    p0, p1 = scene.gt_poses
    good = sum(vc_ray_gap(vc, p0, p1, k, k) < tolerance for vc in vcs)
    return int(good), len(vcs)
