import dataclasses
import warnings

import numpy as np
import pytest

import vcsfm.ba
from conftest import entry_index, looking_at_origin_pose
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
    ImageRecord,
    ShapePrior,
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
    rotation_angle_deg,
    so3_exp,
)
from vcsfm.metrics import pose_error
from vcsfm.optim import minimize_lbfgs
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
    "x1-nan": (lambda t: {"x1": _set_row(t.x1, 1, [np.nan, 0.0, 4.0])}, "finite"),
    "a-inf": (lambda t: {"a": _set_row(t.a, 0, np.inf)}, "finite"),
    "b-nan": (lambda t: {"b": _set_row(t.b, 2, np.nan)}, "finite"),
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


@pytest.mark.parametrize("cap", [0, -5, 2.5, 2.0, True, None])
def test_ba_config_rejects_an_iteration_cap_that_is_not_a_count(cap):
    # -5 solved nothing and reported max_iterations; 2.5 failed inside range
    with pytest.raises(ValueError, match="max_iterations"):
        BaConfig(max_iterations=cap)
    assert BaConfig(max_iterations=np.int64(1)).max_iterations == 1


@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_gradient_matches_finite_differences(mode):
    problem = _tuple_problem(mode, np.random.default_rng(3))
    lay = problem._layout
    assert lay.gauge_cam == 1
    cam1, cam2 = lay.cam_offset[1], lay.cam_offset[2]
    x0 = problem.pack_params()
    x0[cam1 : cam1 + 3] = [0.03, -0.02, 0.05]  # camera 1 rotation off its chart origin
    x0[cam2 : cam2 + 3] = [-0.04, 0.01, 0.02]  # camera 2
    tracks = problem.tracks
    pc = problem.cameras[0].pose.transform(tracks.x1[-1])
    assert pc[2] < vcsfm.ba.Z_MIN  # the behind-camera penalty is active
    virtual = ~tracks.classic
    assert np.all(tracks.a[virtual] > 0.0) and np.all(tracks.b[virtual] > 0.0)
    # the classic tracks' (a, b) and NaN soft X2 go to the zero slot, past the end
    g0 = ba_gradient(problem, x0)
    assert len(x0) == len(g0) == lay.size and np.isfinite([x0, g0]).all()

    def f(v):
        return ba_objective(problem, v)

    # camera 1's translation is the scale gauge's chart: check its gradient
    # at the chart origin and away from it, where J_l of the chart enters
    for phi in ([0.0, 0.0], [0.05, -0.03]):
        x = x0.copy()
        x[cam1 + 3 : cam1 + 5] = phi
        # five-point stencil: the 1e6-scale penalty leaves too little precision
        # for central differences at a step small enough for O(h^2) truncation
        h = 3e-4
        fd = np.array([
            (f(x - 2 * h * e) - 8 * f(x - h * e) + 8 * f(x + h * e) - f(x + 2 * h * e)) / (12 * h)
            for e in np.eye(len(x))
        ])
        np.testing.assert_allclose(ba_gradient(problem, x), fd, rtol=1e-5)


def test_scale_gauge_holds_at_every_evaluated_point(monkeypatch):
    problem = _perturbed(_tuple_problem("soft", np.random.default_rng(5), behind=False))
    lay = problem._layout
    start = problem.cameras[lay.gauge_cam].pose.translation
    real = vcsfm.ba.minimize_lbfgs
    seen = []

    def spy(fun, grad, x0, **kwargs):
        def tracked(of):
            def call(x):
                seen.append(problem.apply_params(x)[lay.gauge_cam].pose.translation)
                return of(x)
            return call
        return real(tracked(fun), tracked(grad), x0, **kwargs)

    monkeypatch.setattr(vcsfm.ba, "minimize_lbfgs", spy)
    sol = solve_ba(problem, BaConfig(max_iterations=40))
    seen.append(sol.cameras[lay.gauge_cam].pose.translation)
    norms = np.linalg.norm(seen, axis=1)
    np.testing.assert_allclose(norms, np.linalg.norm(start), rtol=1e-12, atol=0.0)
    # the gauge camera's translation does turn on its sphere
    cosines = np.asarray(seen) @ start / norms**2
    assert cosines.min() < 1.0 - 1e-6


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


def _solve_with_separate_passes(problem, config):
    """(x, cameras, report) of minimize_lbfgs on separate objective and
    gradient evaluations, each with a forward pass of its own."""
    x, report = minimize_lbfgs(
        lambda x: ba_objective(problem, x),
        lambda x: ba_gradient(problem, x),
        problem.pack_params(), max_iterations=config.max_iterations,
    )
    return x, problem.apply_params(x), report


def _solve_ba_with_x(monkeypatch, problem, config, grad_input=lambda x: x):
    """(x, cameras, report) of solve_ba, whose gradient gets grad_input(x)
    for each array x minimize_lbfgs passes it."""
    real = vcsfm.ba.minimize_lbfgs
    final = []

    def spy(fun, grad, x0, **kwargs):
        x, report = real(fun, lambda x: grad(grad_input(x)), x0, **kwargs)
        final.append(x)
        return x, report

    monkeypatch.setattr(vcsfm.ba, "minimize_lbfgs", spy)
    sol = solve_ba(problem, config)
    monkeypatch.setattr(vcsfm.ba, "minimize_lbfgs", real)
    return final[0], sol.cameras, sol.report


def _assert_bit_equal(got, want):
    (x, cams, report), (want_x, want_cams, want_report) = got, want
    assert x.tobytes() == want_x.tobytes()
    for cam, want_cam in zip(cams, want_cams, strict=True):
        assert cam.pose.rotation.tobytes() == want_cam.pose.rotation.tobytes()
        assert cam.pose.translation.tobytes() == want_cam.pose.translation.tobytes()
    assert (report.status, report.iterations) == (want_report.status, want_report.iterations)
    assert [f.hex() for f in report.objective_trace] == [
        f.hex() for f in want_report.objective_trace]


BIT_IDENTITY_PROBLEMS = {
    # three cameras with camera 0 fixed, so fixed and free camera rows mix
    # in both terms and both center chains
    "tuple-soft": lambda: (_perturbed(_tuple_problem("soft", np.random.default_rng(5))),
                           BaConfig()),
    "tuple-hard": lambda: (_perturbed(_tuple_problem("hard", np.random.default_rng(5))),
                           BaConfig()),
    # a lifted two-camera pair whose camera a is fixed
    "ground-truth": lambda: (
        _ground_truth_problem("soft", 150.0, start_rotation=(2e-3, -1e-3, 1e-3))[0],
        BaConfig(max_iterations=60)),
}


@pytest.mark.parametrize("name", sorted(BIT_IDENTITY_PROBLEMS))
def test_solve_ba_reuse_matches_separate_passes_bit_for_bit(monkeypatch, name):
    problem, config = BIT_IDENTITY_PROBLEMS[name]()
    want = _solve_with_separate_passes(problem, config)
    assert want[2].iterations > 5
    _assert_bit_equal(_solve_ba_with_x(monkeypatch, problem, config), want)


def _count_forward_passes(monkeypatch):
    passes = []

    class Counted(vcsfm.ba._Forward):
        def __init__(self, *args):
            passes.append(1)
            super().__init__(*args)

    monkeypatch.setattr(vcsfm.ba, "_Forward", Counted)
    return passes


def test_solve_ba_runs_one_forward_pass_per_objective_evaluation(monkeypatch):
    problem = _perturbed(_tuple_problem("soft", np.random.default_rng(5), behind=False))
    passes = _count_forward_passes(monkeypatch)
    calls = _count_objective_calls(monkeypatch)
    sol = solve_ba(problem, BaConfig(max_iterations=40))
    assert sol.report.iterations == 40
    # every gradient reuses the forward pass of the objective call before it
    assert len(passes) == len(calls) > 41


def test_gradient_on_another_array_runs_its_own_forward_pass(monkeypatch):
    problem = _perturbed(_tuple_problem("soft", np.random.default_rng(5)))
    config = BaConfig(max_iterations=40)
    want = _solve_ba_with_x(monkeypatch, problem, config)
    passes = _count_forward_passes(monkeypatch)
    calls = _count_objective_calls(monkeypatch)
    got = _solve_ba_with_x(monkeypatch, problem, config, grad_input=np.copy)
    _assert_bit_equal(got, want)
    # an equal copy is not the array the objective saw: no forward state is
    # reused, so each objective call and each of the 1 + 40 gradient calls
    # runs a forward pass
    assert got[2].iterations == 40
    assert len(passes) == len(calls) + 41


def test_problem_copies_a_writable_soft_x2():
    problem = _perturbed(_tuple_problem("soft", np.random.default_rng(5)))
    config = BaConfig(max_iterations=40)
    x2 = np.array(problem.soft_x2)
    own = BaProblem(problem.cameras, problem.tracks, "soft", soft_x2=x2)
    x2[0] = np.nan  # after the finiteness check
    assert np.isfinite(own.soft_x2[0]).all() and not own.soft_x2.flags.writeable
    got, want = solve_ba(own, config).report, solve_ba(problem, config).report
    assert np.isfinite(got.objective_trace).all()
    assert [f.hex() for f in got.objective_trace] == [f.hex() for f in want.objective_trace]


@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_problem_without_tracks_solves_to_its_start(mode):
    # the pipeline builds this problem when the lift drops every inlier;
    # camera 1 carries the scale gauge
    poses = [looking_at_origin_pose(c) for c in CENTERS[:2]]
    cams = [BaCamera(poses[0], KS[0], fixed=True), BaCamera(poses[1], KS[1])]
    tracks = VcTracks(*(np.zeros((0, *row)) for _, row in vcsfm.ba._TRACK_COLUMNS.values()))
    problem = BaProblem(cams, tracks, mode, soft_x2=np.zeros((0, 3)) if mode == "soft" else None)
    assert problem._layout.gauge_cam == 1
    x = problem.pack_params()
    assert ba_objective(problem, x) == 0.0 and not ba_gradient(problem, x).any()
    sol = solve_ba(problem)
    assert (sol.report.status, sol.report.iterations) == ("converged_gradient", 0)
    assert sol.report.objective_trace == [0.0]
    for got, want in zip(sol.poses, poses):
        assert np.array_equal(got.rotation, want.rotation)
        assert np.array_equal(got.translation, want.translation)


def test_problem_keeps_the_cameras_and_track_columns_its_layout_read():
    # the layout is built once, from the cameras' flags and intrinsics and
    # the tracks' camera and classic columns
    problem = _tuple_problem("soft", np.random.default_rng(6))
    assert isinstance(problem.cameras, tuple)
    with pytest.raises(ValueError, match="read-only"):
        problem.tracks.cam_b[0] = 0


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
    # cameras 0 and 1 fixed, as in the oracle: no camera carries the scale gauge
    cams = [BaCamera(p, k, fixed=(i < 2)) for i, (p, k) in enumerate(zip(poses, KS))]
    problem = _perturbed(BaProblem(cams, tracks, mode="hard"))
    start = [(c.pose.rotation, c.pose.translation) for c in problem.cameras]
    ref, ref_poses = classic_ba_oracle(start, KS, [True, True, False], points, observations)
    # L-BFGS converges slowly on BA (about 460 iterations here), hence the cap
    sol = solve_ba(problem, BaConfig(max_iterations=5000))
    assert sol.report.status != "max_iterations"
    assert sol.report.final_objective == pytest.approx(ref, rel=1e-6)
    # the solve turns camera 2 by about 2 degrees: its tangent vector is
    # folded into the stored rotation once, at the end
    ref_rot, ref_t = ref_poses[2]
    pose = sol.cameras[2].pose
    assert rotation_angle_deg(start[2][0], pose.rotation) > 1.0
    assert rotation_angle_deg(ref_rot, pose.rotation) < 1e-4
    np.testing.assert_allclose(pose.translation, ref_t, rtol=0.0, atol=1e-5)


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
    dsm = a.priors[0].surface_map
    row = next(v for v in range(dsm.height) if entry_index(dsm, (cx, v)) < 0)
    miss = VirtualCorrespondence(
        pixel_a=Pixel(float(cx), float(row)), pixel_b=vcs[0].pixel_b,
        hit_rank=0,
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
    assert (entry_index(a.priors[0].surface_map, (0, 0)) < 0
            and entry_index(b.priors[0].surface_map, (95, 71)) < 0)
    misses = [
        VirtualCorrespondence(
            pixel_a=Pixel(0.0, float(v)), pixel_b=Pixel(95.0, 71.0),
            hit_rank=0,
        )
        for v in (0, 1, 2)
    ]
    tracks, x2, dropped = lift_vcs_to_tracks(misses, a, b, *poses, 0, 1)
    assert (len(tracks), x2.shape, dropped) == (0, (0, 3), 3)


def test_lift_routes_each_vc_to_its_own_person():
    scene = generate_scene(SceneConfig(camera_count=2, baseline_angles=(0.0, 150.0),
                                       image_size=(96, 72), focal_length=110.0))
    a, b = scene.records
    poses = scene.gt_poses
    vcs = extract_vcs(a, b, ExtractionParams(
        surface_tolerance=suggest_surface_tolerance(scene.records)))[:40]
    # person 1 shares person 0's prior in a; in b it stands far off, where
    # every ray misses it
    (pa,), (pb,) = a.priors, b.priors
    a_two = ImageRecord(a.image_id, a.intrinsics, (pa, ShapePrior(1, pa.mesh, pa.surface_map)))
    far = pb.mesh.transformed(SE3Pose(np.eye(3), [100.0, 0.0, 0.0]))
    b_two = ImageRecord(b.image_id, b.intrinsics, (pb, ShapePrior(1, far, pb.surface_map)))
    mixed = [vc._replace(person_id=i % 2) for i, vc in enumerate(vcs)]
    got = lift_vcs_to_tracks(mixed, a_two, b_two, *poses, 0, 1)
    want = lift_vcs_to_tracks(vcs[::2], a, b, *poses, 0, 1)
    assert got[2] == len(vcs) // 2 and want[2] == 0
    for name in ("x1", "a", "b", "cam_a", "cam_b", "obs_a", "obs_b", "classic"):
        g, w = getattr(got[0], name), getattr(want[0], name)
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert np.array_equal(got[1], want[1])
    # no VC: empty columns of the usual shapes and types
    tracks, x2, dropped = lift_vcs_to_tracks([], a_two, b_two, *poses, 0, 1)
    assert (tracks.obs_a.shape, tracks.obs_a.dtype, x2.shape, dropped) == (
        (0, 2), np.float64, (0, 3), 0)


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


def test_fit_thickness_matches_lstsq_to_relative_precision():
    # rows at scales from 1e-3 to 1e3 about centres off the origin, X2 in
    # and out of the plane of X1 and the centres, and rows with X1 - o1 an
    # exact multiple of the baseline
    rng = np.random.default_rng(8)
    o1, o2 = np.array([3.0, -2.0, 1.0]), np.array([3.5, -1.0, 0.5])
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(400, 1))
    x1 = o1 + scale * rng.normal(size=(400, 3))
    x2 = x1 + scale * rng.normal(size=(400, 3))
    a, b = rng.normal(size=(2, 200, 1))
    x2[::2] = x1[::2] + a * (x1[::2] - o1) + b * (o2 - o1)
    x1[::25] = o1 + rng.choice([-2.0, 0.5, 1.0, 4.0], size=(16, 1)) * (o2 - o1)  # exact
    got = fit_thickness(x1, x2, o1, o2)
    for row, p, q in zip(got, x1, x2):
        want = np.linalg.lstsq(np.column_stack([p - o1, o2 - o1]), q - p, rcond=None)[0]
        assert np.linalg.norm(row - want) <= 1e-12 * np.linalg.norm(want)


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
    x = problem.pack_params()
    assert ba_objective(problem, x) < 1e-20
    assert np.abs(ba_gradient(problem, x)).max() < 1e-8
    sol = solve_ba(problem)
    assert sol.cameras[0] is problem.cameras[0]  # the fixed camera, untouched
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
    # that is then accepted is below the step tolerance, so BA stops there, as it
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
    # those. The scale gauge is a chart (problem._layout), so no constraint can
    # turn an L-BFGS direction uphill and stop a run early.
    axis = np.array([1.0, -2.0, 2.0]) / 3.0
    problem, _ = _ground_truth_problem("soft", angle, start_rotation=1e-6 * axis)
    sol = solve_ba(problem)
    assert sol.report.initial_objective > 5e-8
    assert sol.report.final_objective < level


@pytest.mark.xfail(strict=True, reason="soft mode has a near-zero minimum at every pose")
def test_collapsing_x2_onto_camera_b_does_not_beat_the_truth():
    # with a = -1 and b = 1, X2r = o_b whatever the pose, and an explicit X2
    # a hair along camera b's ray through obs_b reprojects onto obs_b: the
    # consistency penalty is lam * eps^2 per track and camera b's terms
    # vanish, so a pose 10 degrees off scores below the truth
    rng = np.random.default_rng(7)
    poses = [looking_at_origin_pose(c) for c in CENTERS[:2]]
    o_a, o_b = (camera_center(p) for p in poses)
    n = 20
    x1 = rng.uniform(-0.5, 0.5, (n, 3))
    a, b = rng.uniform(0.05, 0.3, (2, n))
    x2 = x2_from_reparam(x1, a[:, None], b[:, None], o_a, o_b)
    obs_a = np.array([_pixel(poses, 0, p, rng) for p in x1])  # 0.5 px noise
    obs_b = np.array([_pixel(poses, 1, p, rng) for p in x2])
    tracks = VcTracks(x1, a, b, np.zeros(n), np.ones(n), obs_a, obs_b, np.zeros(n, dtype=bool))
    cams = [BaCamera(poses[0], KS[0], fixed=True), BaCamera(poses[1], KS[1])]
    truth = BaProblem(cams, tracks, "soft", soft_x2=x2)
    at_truth = ba_objective(truth, truth.pack_params())
    assert at_truth > 1.0

    turned = SE3Pose(so3_exp(np.radians(10.0) * np.array([0.0, 1.0, 0.0])) @ poses[1].rotation,
                     poses[1].translation)
    off = dataclasses.replace(truth, cameras=[cams[0], BaCamera(turned, KS[1])])
    lay = off._layout
    x = off.pack_params()
    x[lay.ab_idx] = np.array([[-1.0], [1.0]])
    rays = KS[1].pixel_rays(obs_b) @ turned.rotation  # world frame, R^T per row
    x[lay.x2_idx] = camera_center(turned) + 1e-5 * rays
    assert ba_objective(off, x) >= at_truth
