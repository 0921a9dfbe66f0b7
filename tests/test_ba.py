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
    VcTracks,
    ba_gradient,
    ba_objective,
    fit_thickness,
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
    return uv + rng.normal(scale=sigma, size=2)


def _tuple_problem(mode, rng, behind=True):
    """Three cameras around the origin, camera 0 fixed; four virtual and two
    classic tracks with noisy observations, and (if behind) one virtual track
    whose X1 lies behind camera 0."""
    poses = [looking_at_origin_pose(c) for c in CENTERS]
    centers = [camera_center(p) for p in poses]
    rows = []  # x1, a, b, cam_a, cam_b, obs_a, obs_b, classic, soft X2
    for i, (ca, cb) in enumerate([(0, 1), (1, 2), (2, 0), (0, 2), (1, 0), (2, 1)]):
        x1 = rng.uniform(-0.5, 0.5, 3)
        classic = i >= 4
        a, b = (0.0, 0.0) if classic else rng.uniform(0.05, 0.3, 2)
        x2 = x2_from_reparam(x1, a, b, centers[ca], centers[cb])
        obs = _pixel(poses, ca, x1, rng), _pixel(poses, cb, x2, rng)
        soft = np.full(3, np.nan) if classic else x2 + rng.normal(scale=0.01, size=3)
        rows.append((x1, a, b, ca, cb, *obs, classic, soft))
    if behind:
        x1 = np.array([0.1, 0.1, -5.0])  # depth -1 in camera 0
        x2 = x2_from_reparam(x1, 0.1, 0.1, centers[0], centers[2])
        rows.append((x1, 0.1, 0.1, 0, 2, (150.0, 110.0), _pixel(poses, 2, x2, rng), False,
                     x2 + 0.01))
    *columns, soft_x2 = map(np.array, zip(*rows))
    cams = [BaCamera(p, k, fixed=(i == 0)) for i, (p, k) in enumerate(zip(poses, KS))]
    return BaProblem(cams, VcTracks(*columns), mode, soft_x2=soft_x2 if mode == "soft" else None)


def _perturbed(problem, w=(0.01, -0.02, 0.015), dt=(0.02, -0.01, 0.03)):
    """The problem with camera 2's pose moved off its starting point."""
    cams = list(problem.cameras)
    pose = cams[2].pose
    cams[2] = dataclasses.replace(
        cams[2], pose=SE3Pose(so3_exp(w) @ pose.rotation, pose.translation + np.asarray(dt))
    )
    return dataclasses.replace(problem, cameras=cams)


def _set_row(column, row, value):
    out = np.array(column, dtype=float)
    out[row] = value
    return out


TRACK_REJECTIONS = {
    "classic-a": (lambda t: {"a": np.where(t.classic, 0.1, t.a)}, "freeze a = b = 0"),
    "classic-b": (lambda t: {"b": np.where(t.classic, -0.1, t.b)}, "freeze a = b = 0"),
    "same-camera": (lambda t: {"cam_b": _set_row(t.cam_b, 1, t.cam_a[1])}, "distinct cameras"),
    "obs-a-nan": (lambda t: {"obs_a": _set_row(t.obs_a, 2, np.nan)}, "finite"),
    "obs-b-inf": (lambda t: {"obs_b": _set_row(t.obs_b, 0, np.inf)}, "finite"),
    "a-rows": (lambda t: {"a": t.a[:-1]}, "^a has shape"),
    "cam-a-rows": (lambda t: {"cam_a": np.append(t.cam_a, 0)}, "^cam_a has shape"),
    "classic-rows": (lambda t: {"classic": t.classic[1:]}, "^classic has shape"),
    "obs-b-width": (lambda t: {"obs_b": t.obs_b[:, :1]}, "^obs_b has shape"),
    "x1-width": (lambda t: {"x1": t.x1[:, :2]}, "^x1 has shape"),
}


@pytest.mark.parametrize("name", sorted(TRACK_REJECTIONS))
def test_tracks_reject_invalid_rows(name):
    tracks = _tuple_problem("soft", np.random.default_rng(6)).tracks
    change, message = TRACK_REJECTIONS[name]
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(tracks, **change(tracks))


PROBLEM_REJECTIONS = {
    "mode": (lambda p: {"mode": "medium"}, "unknown mode"),
    "no-fixed-camera": (
        lambda p: {"cameras": [dataclasses.replace(c, fixed=False) for c in p.cameras]},
        "fixed camera"),
    "camera-past-end": (
        lambda p: {"tracks": dataclasses.replace(p.tracks, cam_b=_set_row(p.tracks.cam_b, 0, 3))},
        "unknown camera"),
    "negative-camera": (
        lambda p: {"tracks": dataclasses.replace(p.tracks, cam_a=_set_row(p.tracks.cam_a, 3, -1))},
        "unknown camera"),
    "soft-x2-missing": (lambda p: {"soft_x2": None}, "explicit X2"),
    "soft-x2-rows": (lambda p: {"soft_x2": p.soft_x2[:-1]}, "explicit X2"),
    "soft-x2-nan": (lambda p: {"soft_x2": _set_row(p.soft_x2, 1, np.nan)}, "finite X2"),
}


@pytest.mark.parametrize("name", sorted(PROBLEM_REJECTIONS))
def test_problem_rejects_invalid_setup(name):
    problem = _tuple_problem("soft", np.random.default_rng(6))
    # the classic rows' X2 are NaN, which soft mode accepts
    assert np.isnan(problem.soft_x2[problem.tracks.classic]).all()
    change, message = PROBLEM_REJECTIONS[name]
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(problem, **change(problem))


@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_gradient_matches_finite_differences(mode):
    problem = _tuple_problem(mode, np.random.default_rng(3))
    x = problem.pack_params(vcsfm.ba._Layout(problem))
    x[0:3] = [0.03, -0.02, 0.05]  # camera 1 away from its chart origin
    x[6:9] = [-0.04, 0.01, 0.02]  # camera 2
    tracks = problem.tracks
    pc = problem.cameras[0].pose.transform(tracks.x1[-1])
    assert pc[2] < vcsfm.ba.Z_MIN  # the behind-camera penalty is active
    virtual = ~tracks.classic
    assert np.all(tracks.a[virtual] > 0.0) and np.all(tracks.b[virtual] > 0.0)

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
    cam_a, cam_b = np.array([(0, 2), (1, 2), (0, 1)] * 10).T
    obs_a, obs_b, observations = [], [], []
    for i, (x, ca, cb) in enumerate(zip(points, cam_a, cam_b)):
        pa, pb = _pixel(poses, ca, x, rng), _pixel(poses, cb, x, rng)
        obs_a.append(pa)
        obs_b.append(pb)
        observations += [(ca, i, pa), (cb, i, pb)]
    n = len(points)
    tracks = VcTracks(points, np.zeros(n), np.zeros(n), cam_a, cam_b, obs_a, obs_b,
                      classic=np.ones(n, dtype=bool))
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
        hit_rank=0, source=a.image_id,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracks, x2s, dropped = lift_vcs_to_tracks(
            vcs + [miss], a, b, scene.gt_poses[0], scene.gt_poses[1], 0, 1
        )
    assert dropped == 1
    assert len(tracks) == len(x2s) == len(vcs)


def test_lift_with_every_ray_missing_returns_no_tracks():
    scene = generate_scene(SceneConfig(camera_count=2, baseline_angles=(0.0, 150.0),
                                       image_size=(96, 72), focal_length=110.0))
    a, b = scene.records
    poses = scene.gt_poses
    tracks, x2, dropped = lift_vcs_to_tracks([], a, b, *poses, 0, 1)
    assert (len(tracks), x2.shape, dropped) == (0, (0, 3), 0)
    # the image corners lie off the body in both maps
    assert a.surface_map.faces[0, 0] < 0 and b.surface_map.faces[-1, -1] < 0
    misses = [
        VirtualCorrespondence(
            pixel_a=Pixel(0.0, float(v)), pixel_b=Pixel(95.0, 71.0),
            hit_rank=0, source=a.image_id,
        )
        for v in (0, 1, 2)
    ]
    tracks, x2, dropped = lift_vcs_to_tracks(misses, a, b, *poses, 0, 1)
    assert (len(tracks), x2.shape, dropped) == (0, (0, 3), 3)


def test_fit_thickness_matches_per_row_lstsq():
    rng = np.random.default_rng(3)
    o1, o2 = np.array([0.5, -1.0, 2.0]), np.array([1.5, 1.0, 5.0])
    x1 = rng.normal(size=(40, 3)) + [0.0, 0.0, 4.0]
    x2 = rng.normal(size=(40, 3)) + [0.0, 0.0, 4.0]
    # X1 - o1 = 2 (o2 - o1), exactly: a rank-one basis
    x1[7] = [2.5, 3.0, 8.0]
    x2[7] = x1[7] + 0.5 * (o2 - o1)

    def per_row(x1, x2, o1, o2):
        return [np.linalg.lstsq(np.column_stack([p - o1, o2 - o1]), q - p, rcond=None)[0]
                for p, q in zip(x1, x2)]

    got = fit_thickness(x1, x2, o1, o2)
    np.testing.assert_allclose(got, per_row(x1, x2, o1, o2), rtol=0.0, atol=1e-12)
    # minimum norm along 2a + b = 0.5
    np.testing.assert_allclose(got[7], [0.2, 0.1], rtol=0.0, atol=1e-12)
    # singular values 1 and 8e-16: rank two under lstsq's cutoff (3 eps)
    thin = [np.array([[1.0, 0.0, 0.0]]), np.array([[1.5, 2e-16, 0.0]]),
            np.zeros(3), np.array([0.0, 8e-16, 0.0])]
    np.testing.assert_array_equal(fit_thickness(*thin), per_row(*thin))
    np.testing.assert_array_equal(fit_thickness(*thin), [[0.5, 0.25]])
    assert fit_thickness(np.empty((0, 3)), np.empty((0, 3)), o1, o2).shape == (0, 2)


def _ground_truth_problem(mode, angle, start_rotation=(0.0, 0.0, 0.0)):
    """Two-camera problem lifted from extracted VCs at a start pose: the
    truth with its rotation turned by the rotation vector start_rotation."""
    scene = generate_scene(SceneConfig(camera_count=2, baseline_angles=(0.0, angle),
                                       image_size=(160, 120), focal_length=170.0))
    a, b = scene.records
    params = ExtractionParams(surface_tolerance=suggest_surface_tolerance(scene.records))
    gt = relative_pose(scene.gt_poses[0], scene.gt_poses[1])
    start = SE3Pose(so3_exp(np.asarray(start_rotation)) @ gt.rotation, gt.translation)
    pose_a = SE3Pose.identity()
    tracks, x2s, _ = lift_vcs_to_tracks(extract_vcs(a, b, params), a, b, pose_a, start, 0, 1)
    problem = BaProblem(
        [BaCamera(pose_a, a.intrinsics, fixed=True), BaCamera(start, b.intrinsics)],
        tracks, mode, soft_x2=x2s if mode == "soft" else None,
    )
    return problem, gt


@pytest.mark.parametrize("angle", [90.0, 150.0, 180.0])
@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_ground_truth_is_a_fixed_point(mode, angle):
    problem, gt = _ground_truth_problem(mode, angle)
    assert len(problem.tracks) > 50
    # many exact tuples need a < 0: the thickness parameters are unbounded
    assert np.any(problem.tracks.a < 0.0)
    x = problem.pack_params(vcsfm.ba._Layout(problem))
    assert ba_objective(problem, x) < 1e-20
    assert np.abs(ba_gradient(problem, x)).max() < 1e-8
    sol = solve_ba(problem)
    assert pose_error(relative_pose(*sol.poses), gt).combined_deg < 1e-9


def _count_objective_calls(monkeypatch):
    real = vcsfm.ba.minimize_lbfgs
    calls = []

    def spy(fun, grad, x0, **kwargs):
        def counted(x):
            calls.append(1)
            return fun(x)
        return real(counted, grad, x0, **kwargs)

    monkeypatch.setattr(vcsfm.ba, "minimize_lbfgs", spy)
    return calls


@pytest.mark.parametrize("angle", [90.0, 150.0, 180.0])
def test_near_exact_start_costs_few_objective_evaluations(monkeypatch, angle):
    # a start 1e-10 rad off the truth, where the gradient is above its
    # tolerance: the first steepest-descent step overshoots by orders of
    # magnitude, and halving it took 23-24 evaluations per solve. The step
    # that is then accepted is below step_tolerance, so BA stops there, as it
    # did with halving: this checks the cost and that the pose does not move
    # away from the truth, not refinement (see the next test)
    problem, gt = _ground_truth_problem("soft", angle, start_rotation=(1e-10, 0.0, 0.0))
    start_error = pose_error(relative_pose(problem.cameras[0].pose, problem.cameras[1].pose),
                             gt).combined_deg
    calls = _count_objective_calls(monkeypatch)
    sol = solve_ba(problem)
    assert sol.report.iterations >= 1 and sol.report.status == "converged_step"
    assert len(calls) <= 5
    assert sol.report.final_objective <= sol.report.initial_objective
    # to within the 1e-11-degree resolution of pose_error at this size
    assert pose_error(relative_pose(*sol.poses), gt).combined_deg < start_error + 1e-10


@pytest.mark.parametrize("angle, level", [(90.0, 1e-12), (150.0, 5e-9), (180.0, 3e-8)])
def test_start_off_the_truth_is_refined_to_its_usual_level(angle, level):
    # 1e-6 rad off the truth, start objective 6e-8 to 9e-8. At 90 degrees BA
    # converges (to 1.2e-13); at 150 and 180 it runs to the 300-iteration cap
    # (at 1.0e-9 to 1.5e-9 and 0.9e-8 to 1.0e-8). Each level is 3-10 times
    # those. An L-BFGS direction that the scale-gauge projection turned
    # uphill once stopped the 90-degree run after 8 iterations at 7.0e-8.
    axis = np.array([1.0, -2.0, 2.0]) / 3.0
    problem, _ = _ground_truth_problem("soft", angle, start_rotation=1e-6 * axis)
    sol = solve_ba(problem)
    assert sol.report.initial_objective > 5e-8
    assert sol.report.final_objective < level
