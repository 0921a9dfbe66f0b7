import dataclasses
import warnings

import numpy as np
import pytest

import vcsfm.ba
from conftest import looking_at_origin_pose
from oracles import classic_ba_oracle
from vcsfm.ba import (
    BaCamera,
    BaConfig,
    BaProblem,
    VcTrack,
    ba_gradient,
    ba_objective,
    lift_vcs_to_tracks,
    solve_ba,
    x2_from_reparam,
)
from vcsfm.extraction import (
    ExtractionParams,
    VirtualCorrespondence,
    extract_vcs,
    suggest_surface_tolerance,
)
from vcsfm.geometry import (
    CameraIntrinsics,
    Pixel,
    SE3Pose,
    camera_center,
    project_points,
    relative_pose,
    so3_exp,
)
from vcsfm.metrics import pose_error
from vcsfm.synthetic import SceneConfig, generate_scene

KS = (
    CameraIntrinsics(300.0, 290.0, 160.0, 120.0, skew=0.5),
    CameraIntrinsics(280.0, 285.0, 150.0, 125.0),
    CameraIntrinsics(320.0, 310.0, 165.0, 118.0, skew=-0.3),
)
CENTERS = ((0.0, 0.0, -4.0), (2.8, 0.3, -2.8), (-2.8, -0.2, -2.8))


def _pixel(poses, cam, point, rng, sigma=0.5):
    uv, _ = project_points(poses[cam], KS[cam], np.asarray(point))
    return Pixel(*(uv + rng.normal(scale=sigma, size=2)))


def _tuple_problem(mode, rng, behind=True):
    """Three cameras around the origin, camera 0 fixed; four virtual and two
    classic tracks with noisy observations, and (if behind) one virtual track
    whose X1 lies behind camera 0."""
    poses = [looking_at_origin_pose(c) for c in CENTERS]
    centers = [camera_center(p) for p in poses]
    tracks, soft_x2 = [], []
    for i, (ca, cb) in enumerate([(0, 1), (1, 2), (2, 0), (0, 2), (1, 0), (2, 1)]):
        x1 = rng.uniform(-0.5, 0.5, 3)
        kind = "classic" if i >= 4 else "virtual"
        a, b = (0.0, 0.0) if kind == "classic" else rng.uniform(0.05, 0.3, 2)
        x2 = x2_from_reparam(x1, a, b, centers[ca], centers[cb])
        tracks.append(VcTrack(x1, a, b, ca, cb, _pixel(poses, ca, x1, rng),
                              _pixel(poses, cb, x2, rng), kind))
        soft_x2.append(None if kind == "classic" else x2 + rng.normal(scale=0.01, size=3))
    if behind:
        x1 = np.array([0.1, 0.1, -5.0])  # depth -1 in camera 0
        x2 = x2_from_reparam(x1, 0.1, 0.1, centers[0], centers[2])
        tracks.append(VcTrack(x1, 0.1, 0.1, 0, 2, Pixel(150.0, 110.0), _pixel(poses, 2, x2, rng)))
        soft_x2.append(x2 + 0.01)
    cams = [BaCamera(p, k, fixed=(i == 0)) for i, (p, k) in enumerate(zip(poses, KS))]
    return BaProblem(cams, tracks, mode, soft_x2=soft_x2 if mode == "soft" else None)


def _perturbed(problem, w=(0.01, -0.02, 0.015), dt=(0.02, -0.01, 0.03)):
    """The problem with camera 2's pose moved off its starting point."""
    cams = list(problem.cameras)
    pose = cams[2].pose
    cams[2] = dataclasses.replace(
        cams[2], pose=SE3Pose(so3_exp(w) @ pose.rotation, pose.translation + np.asarray(dt))
    )
    return dataclasses.replace(problem, cameras=cams)


@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_gradient_matches_finite_differences(mode):
    problem = _tuple_problem(mode, np.random.default_rng(3))
    x = problem.pack_params(vcsfm.ba._Layout(problem))
    x[0:3] = [0.03, -0.02, 0.05]  # camera 1 away from its chart origin
    x[6:9] = [-0.04, 0.01, 0.02]  # camera 2
    pc = problem.cameras[0].pose.transform(problem.tracks[-1].x1)
    assert pc[2] < vcsfm.ba.Z_MIN  # the behind-camera penalty is active
    assert all(tr.a > 0.0 and tr.b > 0.0 for tr in problem.tracks if tr.kind == "virtual")

    def f(v):
        return ba_objective(problem, v)

    # five-point stencil: the 1e6-scale penalty leaves too little precision
    # for central differences at a step small enough for O(h^2) truncation
    h = 3e-4
    fd = np.array([
        (f(x - 2 * h * e) - 8 * f(x - h * e) + 8 * f(x + h * e) - f(x + 2 * h * e)) / (12 * h)
        for e in np.eye(len(x))
    ])
    np.testing.assert_allclose(ba_gradient(problem, x), fd, rtol=1e-5)


def test_recentred_gradient_equals_fresh_gradient(monkeypatch):
    problem = _perturbed(_tuple_problem("soft", np.random.default_rng(4), behind=False))
    real = vcsfm.ba.minimize_lbfgs
    rotation = {1: problem.cameras[1].pose.rotation, 2: problem.cameras[2].pose.rotation}
    offset = {1: 0, 2: 6}
    checked = []

    def spy(fun, grad, x0, *, post_accept, **kwargs):
        def checked_post_accept(x, g):
            x_new, g_new = post_accept(x, g)
            cams = list(problem.cameras)
            for ci, off in offset.items():
                w = x[off : off + 3]
                if np.any(w != 0.0):
                    rotation[ci] = so3_exp(w) @ rotation[ci]
                cams[ci] = dataclasses.replace(
                    cams[ci], pose=SE3Pose(rotation[ci], x_new[off + 3 : off + 6]))
            recentred = dataclasses.replace(problem, cameras=cams)
            assert np.array_equal(g_new, ba_gradient(recentred, x_new))
            assert not np.any(x_new[0:3]) and not np.any(x_new[6:9])
            checked.append(bool(np.any(x[0:3] != 0.0)))
            return x_new, g_new
        return real(fun, grad, x0, post_accept=checked_post_accept, **kwargs)

    monkeypatch.setattr(vcsfm.ba, "minimize_lbfgs", spy)
    solve_ba(problem, BaConfig(max_iterations=30))
    assert len(checked) == 30 and all(checked)


def test_solve_ba_evaluates_gradient_once_per_iteration(monkeypatch):
    problem = _perturbed(_tuple_problem("soft", np.random.default_rng(5), behind=False))
    real = vcsfm.ba.minimize_lbfgs
    calls = []

    def spy(fun, grad, x0, **kwargs):
        def counted(x):
            calls.append(1)
            return grad(x)
        return real(fun, counted, x0, **kwargs)

    monkeypatch.setattr(vcsfm.ba, "minimize_lbfgs", spy)
    sol = solve_ba(problem, BaConfig(max_iterations=40))
    assert sol.report.iterations == 40
    assert len(calls) == 1 + sol.report.iterations


def test_classic_ba_matches_least_squares_oracle():
    rng = np.random.default_rng(0)
    poses = [looking_at_origin_pose(c) for c in CENTERS]
    points = rng.uniform(-1.0, 1.0, size=(30, 3))
    tracks, observations = [], []
    for i, x in enumerate(points):
        ca, cb = [(0, 2), (1, 2), (0, 1)][i % 3]
        pa, pb = _pixel(poses, ca, x, rng), _pixel(poses, cb, x, rng)
        tracks.append(VcTrack(x, 0.0, 0.0, ca, cb, pa, pb, kind="classic"))
        observations += [(ca, i, np.array([pa.u, pa.v])), (cb, i, np.array([pb.u, pb.v]))]
    # cameras 0 and 1 fixed, as in the oracle: no scale gauge is projected
    cams = [BaCamera(p, k, fixed=(i < 2)) for i, (p, k) in enumerate(zip(poses, KS))]
    problem = _perturbed(BaProblem(cams, tracks, mode="hard"))
    start = [(c.pose.rotation, c.pose.translation) for c in problem.cameras]
    ref = classic_ba_oracle(start, KS, [True, True, False], points, observations)
    # L-BFGS converges slowly on BA (about 460 iterations here), hence the cap
    sol = solve_ba(problem, BaConfig(max_iterations=5000))
    assert sol.report.status != "max_iterations"
    assert sol.report.final_objective == pytest.approx(ref, rel=1e-6)


def test_lift_counts_missed_ray_as_dropped_without_warnings():
    scene = generate_scene(SceneConfig(camera_count=2, baseline_angles=(0.0, 150.0),
                                       image_size=(96, 72), focal_length=110.0))
    a, b = scene.records
    params = ExtractionParams(surface_tolerance=suggest_surface_tolerance(scene.records))
    vcs = extract_vcs(a, b, params)[:5]
    assert vcs
    # a background pixel on the principal column: its ray misses the prior,
    # and its direction has an exact zero component
    cx = int(a.intrinsics.cx)
    row = next(v for v in range(a.surface_map.height) if a.surface_map.faces[v, cx] < 0)
    miss = VirtualCorrespondence(
        pixel_a=Pixel(float(cx), float(row)), pixel_b=vcs[0].pixel_b,
        hit_coord=vcs[0].hit_coord, hit_rank=0, source=a.image_id,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracks, x2s, dropped = lift_vcs_to_tracks(
            vcs + [miss], a, b, scene.gt_poses[0], scene.gt_poses[1], 0, 1
        )
    assert dropped == 1
    assert len(tracks) == len(x2s) == len(vcs)


@pytest.mark.parametrize("angle", [90.0, 150.0, 180.0])
@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_ground_truth_is_a_fixed_point(mode, angle):
    scene = generate_scene(SceneConfig(camera_count=2, baseline_angles=(0.0, angle),
                                       image_size=(160, 120), focal_length=170.0))
    a, b = scene.records
    params = ExtractionParams(surface_tolerance=suggest_surface_tolerance(scene.records))
    gt = relative_pose(scene.gt_poses[0], scene.gt_poses[1])
    pose_a = SE3Pose.identity()
    tracks, x2s, _ = lift_vcs_to_tracks(extract_vcs(a, b, params), a, b, pose_a, gt, 0, 1)
    assert len(tracks) > 50
    # many exact tuples need a < 0: the thickness parameters are unbounded
    assert any(tr.a < 0.0 for tr in tracks)
    problem = BaProblem(
        [BaCamera(pose_a, a.intrinsics, fixed=True), BaCamera(gt, b.intrinsics)],
        tracks, mode, soft_x2=x2s if mode == "soft" else None,
    )
    x = problem.pack_params(vcsfm.ba._Layout(problem))
    assert ba_objective(problem, x) < 1e-20
    assert np.abs(ba_gradient(problem, x)).max() < 1e-8
    sol = solve_ba(problem)
    assert pose_error(relative_pose(*sol.poses), gt).combined_deg < 1e-9
