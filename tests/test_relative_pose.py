import math

import numpy as np
import pytest

from conftest import random_pose
from oracles import five_point_pencil_oracle, relative_pose
from vcsfm.errors import (
    AmbiguousCheiralityError,
    DegenerateSampleError,
    InsufficientCorrespondencesError,
)
from vcsfm.geometry import (
    SE3Pose,
    decompose_essential,
    essential_from_pose,
    rotation_angle_deg,
    so3_exp,
)
from vcsfm.relative_pose import (
    _MONOMIALS,
    RansacParams,
    _constraint_matrix,
    cheirality_votes,
    five_point,
    ransac_essential,
    recover_pose,
    trace_constraint_residual,
)


def covisible_pose(rng, max_angle=0.7, t_scale=0.5):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    rel = SE3Pose(so3_exp(axis * rng.uniform(0.05, max_angle)), rng.normal(size=3) * t_scale)
    if np.linalg.norm(rel.translation) < 1e-2:
        return covisible_pose(rng, max_angle, t_scale)
    return rel


def make_pairs(rng, rel, n, half_width=None, depth=(2.0, 6.0)):
    """n pairs from points at `depth` in front of camera 1: x, y uniform in
    [-1, 1], or within +-half_width of the optical axis in normalized
    coordinates when half_width is given."""
    x1, x2 = [], []
    tries = 0
    while len(x1) < n:
        tries += 1
        assert tries < 100 * n + 100
        if half_width is None:
            x = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(*depth)])
        else:
            d = rng.uniform(*depth)
            x = np.array([*(rng.uniform(-half_width, half_width, size=2) * d), d])
        xc = rel.transform(x)
        if xc[2] <= 0.1:
            continue
        x1.append(x[:2] / x[2])
        x2.append(xc[:2] / xc[2])
    return np.array(x1), np.array(x2)


def unit_essential(rel):
    e = essential_from_pose(rel)
    return e / np.linalg.norm(e)


def e_distance(a, b):
    return min(np.linalg.norm(a - b), np.linalg.norm(a + b))


# ------------------------------------------------------------- five point


def test_five_point_recovers_ground_truth_many(rng):
    recovered = 0
    for _ in range(300):
        rel = covisible_pose(rng)
        x1, x2 = make_pairs(rng, rel, 5)
        cands = five_point(x1, x2)
        e_gt = unit_essential(rel)
        if any(e_distance(c, e_gt) < 1e-6 for c in cands):
            recovered += 1
    assert recovered == 300


@pytest.mark.parametrize(
    "seed, half_width, depth",
    [(11, 0.05, (2.0, 6.0)), (12, None, (20.0, 60.0))],
    ids=["narrow-field", "far-depth"],
)
def test_five_point_recovers_ground_truth_clustered_roots(seed, half_width, depth):
    # a narrow field of view or distant points bunch the real solutions
    # together, which is where the eigenvectors are least well separated
    gen = np.random.default_rng(seed)
    for _ in range(200):
        rel = covisible_pose(gen)
        x1, x2 = make_pairs(gen, rel, 5, half_width=half_width, depth=depth)
        e_gt = unit_essential(rel)
        assert min(e_distance(c, e_gt) for c in five_point(x1, x2)) < 1e-6


def test_five_point_recovers_solution_far_out_in_its_chart():
    # a far-depth sample whose true E sits at nullspace coordinates of about
    # (-1.2e4, 2.8e3, -3.7e4) in the chart E = x B0 + y B1 + z B2 + B3
    x1 = np.array([
        [-0.019934880891943476, -0.03140047218126563],
        [0.0005679508777702095, 0.010196573149385225],
        [0.018231893070360782, 0.01324030270257835],
        [0.004053012931295644, 0.02913735858882724],
        [0.011869992137366501, 0.017940256921257784],
    ])
    x2 = np.array([
        [0.21159085165967534, -0.3652441099337123],
        [0.2324144549773955, -0.32400589360781856],
        [0.25183454739017697, -0.32042111759056796],
        [0.23518570965393823, -0.29710423684396375],
        [0.24447676007682156, -0.31351501589849695],
    ])
    rel = SE3Pose(
        so3_exp([0.3254661888267479, 0.21890370666680362, 0.008945927116893723]),
        np.array([1.1095477119134015e-04, 3.5368578775047366e-01, 2.6447565433898972e-02]),
    )
    e_gt = unit_essential(rel)
    assert min(e_distance(c, e_gt) for c in five_point(x1, x2)) < 1e-6


def _best_distance(candidates, e_gt):
    return min((e_distance(c, e_gt) for c in candidates), default=np.inf)


def test_five_point_keeps_a_root_that_the_plain_action_matrix_loses(monkeypatch):
    # draw 6859 of this narrow, far stream: B^-1 A, the unturned pencil's
    # action matrix, loses the true E (best distance 0.73), while scipy's QZ
    # and the turned pencil both keep it
    gen = np.random.default_rng(12345)
    for _ in range(6860):
        rel = covisible_pose(gen)
        x1, x2 = make_pairs(gen, rel, 5, half_width=0.05, depth=(20.0, 60.0))
    e_gt = unit_essential(rel)
    assert _best_distance(five_point_pencil_oracle(x1, x2), e_gt) < 1e-7
    assert _best_distance(five_point(x1, x2), e_gt) < 1e-7
    monkeypatch.setattr(relative_pose, "_TURN", (1.0, 0.0))  # no turn: solve(B, A)
    assert _best_distance(five_point(x1, x2), e_gt) > 0.5


@pytest.mark.parametrize(
    "half_width, depth",
    [(None, (2.0, 6.0)), (0.05, (2.0, 6.0)), (None, (20.0, 60.0)), (0.05, (20.0, 60.0))],
    ids=["normal", "narrow", "far", "narrow+far"],
)
def test_five_point_recovers_the_truth_wherever_scipy_qz_does(half_width, depth):
    gen = np.random.default_rng(2206)
    oracle_found = 0
    for _ in range(400):
        rel = covisible_pose(gen)
        x1, x2 = make_pairs(gen, rel, 5, half_width=half_width, depth=depth)
        e_gt = unit_essential(rel)
        if _best_distance(five_point_pencil_oracle(x1, x2), e_gt) < 1e-6:
            oracle_found += 1
            assert _best_distance(five_point(x1, x2), e_gt) < 1e-6
    assert oracle_found >= 396


def test_constraint_matrix_matches_direct_evaluation(rng):
    basis = rng.normal(size=(4, 9))
    m = _constraint_matrix(basis)
    exps = np.array(_MONOMIALS)
    for _ in range(20):
        x, y, z = rng.normal(size=3)
        e = (basis.T @ [x, y, z, 1.0]).reshape(3, 3)
        eet = e @ e.T
        direct = np.concatenate([[np.linalg.det(e)], (2.0 * eet @ e - np.trace(eet) * e).ravel()])
        monomials = x ** exps[:, 0] * y ** exps[:, 1] * z ** exps[:, 2]
        np.testing.assert_allclose(m @ monomials, direct, rtol=1e-10, atol=1e-10)


def test_five_point_candidates_satisfy_postconditions(rng):
    rel = covisible_pose(rng)
    x1, x2 = make_pairs(rng, rel, 5)
    cands = five_point(x1, x2)
    assert 1 <= len(cands) <= 10
    for e in cands:
        assert abs(np.linalg.norm(e) - 1.0) < 1e-12
        assert abs(np.linalg.det(e)) < 1e-8
        assert trace_constraint_residual(e) < 1e-7
        residual = np.einsum("ni,ij,nj->n", np.column_stack([x2, np.ones(5)]), e,
                             np.column_stack([x1, np.ones(5)]))
        assert np.abs(residual).max() < 1e-8  # |x2^T E x1|


def test_five_point_rejects_degenerate_sample():
    p = np.array([[0.1, 0.2]] * 5)
    with pytest.raises(DegenerateSampleError):
        five_point(p, p + 0.05)


def test_five_point_needs_exactly_five():
    with pytest.raises(ValueError):
        five_point(np.zeros((4, 2)), np.zeros((4, 2)))


# ------------------------------------------------------------- recover pose


def test_recover_pose_construct_and_recover(rng):
    for _ in range(50):
        rel = covisible_pose(rng)
        x1, x2 = make_pairs(rng, rel, 30)
        pose = recover_pose(unit_essential(rel), x1, x2)
        t_hat = rel.translation / np.linalg.norm(rel.translation)
        assert rotation_angle_deg(pose.rotation, rel.rotation) < 1e-6
        assert np.linalg.norm(pose.translation - t_hat) < 1e-6


def test_cheirality_vote_sees_four_candidates(rng):
    rel = covisible_pose(rng)
    x1, x2 = make_pairs(rng, rel, 20)
    poses, votes = cheirality_votes(unit_essential(rel), x1, x2)
    assert len(poses) == 4
    assert len(votes) == 4
    assert max(votes) == 20


def test_recover_pose_mirrored_scene_flagged_or_flipped(rng):
    # every pair generated from points behind both cameras
    rel = covisible_pose(rng)
    x1, x2 = [], []
    while len(x1) < 30:
        x = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), -rng.uniform(2.0, 6.0)])
        xc = rel.transform(x)
        if xc[2] >= -0.1:
            continue
        x1.append(x[:2] / x[2])
        x2.append(xc[:2] / xc[2])
    x1, x2 = np.array(x1), np.array(x2)
    t_hat = rel.translation / np.linalg.norm(rel.translation)
    try:
        pose = recover_pose(unit_essential(rel), x1, x2)
    except AmbiguousCheiralityError:
        return
    # documented flip: the rotation matches but the baseline sign flips,
    # or the twisted-pair candidate wins; either way it is a decomposition
    # of the ground-truth essential matrix
    cands = decompose_essential(unit_essential(rel))
    assert any(
        rotation_angle_deg(pose.rotation, c.rotation) < 1e-9
        and np.linalg.norm(pose.translation - c.translation) < 1e-9
        for c in cands
    )
    same = (
        rotation_angle_deg(pose.rotation, rel.rotation) < 1e-6
        and np.linalg.norm(pose.translation - t_hat) < 1e-6
    )
    assert not same, "mirrored scene must not pick the front configuration"


# ------------------------------------------------------------- ransac


def test_ransac_all_inliers_exact(rng):
    rel = covisible_pose(rng)
    x1, x2 = make_pairs(rng, rel, 100)
    est = ransac_essential(x1, x2, RansacParams(seed=0))
    assert np.count_nonzero(est.inlier_mask) == 100
    assert rotation_angle_deg(est.pose.rotation, rel.rotation) < math.degrees(1e-6)
    t_hat = rel.translation / np.linalg.norm(rel.translation)
    assert np.linalg.norm(est.pose.translation - t_hat) < 1e-6
    assert abs(np.linalg.norm(est.pose.translation) - 1.0) < 1e-12
    # the essential of the pose is the ground truth's
    assert e_distance(unit_essential(est.pose), unit_essential(rel)) < 1e-9


def test_ransac_with_outliers(rng):
    rel = covisible_pose(rng)
    x1, x2 = make_pairs(rng, rel, 60)
    out1 = rng.uniform(-0.6, 0.6, size=(40, 2))
    out2 = rng.uniform(-0.6, 0.6, size=(40, 2))
    x1 = np.vstack([x1, out1])
    x2 = np.vstack([x2, out2])
    est = ransac_essential(x1, x2, RansacParams(inlier_threshold=1e-6, seed=1))
    assert est.inlier_mask[:60].all(), "every true inlier recovered"
    assert est.inlier_mask[60:].sum() <= 1, "at most one false inlier"
    assert rotation_angle_deg(est.pose.rotation, rel.rotation) < 0.01


def test_ransac_median_rotation_error_over_seeds(rng):
    errors = []
    for seed in range(20):
        gen = np.random.default_rng(1000 + seed)
        rel = covisible_pose(gen)
        x1, x2 = make_pairs(gen, rel, 60)
        out1 = gen.uniform(-0.6, 0.6, size=(40, 2))
        out2 = gen.uniform(-0.6, 0.6, size=(40, 2))
        est = ransac_essential(
            np.vstack([x1, out1]), np.vstack([x2, out2]),
            RansacParams(inlier_threshold=1e-6, seed=seed),
        )
        errors.append(rotation_angle_deg(est.pose.rotation, rel.rotation))
    assert float(np.median(errors)) < 0.1


def test_ransac_insufficient_pairs():
    with pytest.raises(InsufficientCorrespondencesError):
        ransac_essential(np.zeros((4, 2)), np.zeros((4, 2)))


def test_ransac_deterministic(rng):
    rel = covisible_pose(rng)
    x1, x2 = make_pairs(rng, rel, 50)
    a = ransac_essential(x1, x2, RansacParams(seed=7))
    b = ransac_essential(x1, x2, RansacParams(seed=7))
    assert np.array_equal(a.inlier_mask, b.inlier_mask)
    assert np.array_equal(a.pose.rotation, b.pose.rotation)
    assert np.array_equal(a.pose.translation, b.pose.translation)
    assert a.iterations == b.iterations


def test_ransac_scale_invariance(rng):
    rel = covisible_pose(rng)
    x1, x2 = make_pairs(rng, rel, 50)
    est1 = ransac_essential(x1, x2, RansacParams(seed=3))
    # scaling every translation magnitude in the scene leaves the
    # normalized projections, hence the whole estimate, untouched
    scaled = SE3Pose(rel.rotation, rel.translation * 11.0)
    # the same world points scaled by 11 project to identical pixels
    est2 = ransac_essential(x1, x2, RansacParams(seed=3))
    assert np.allclose(est1.pose.rotation, est2.pose.rotation, atol=1e-9)
    assert np.allclose(est1.pose.translation, est2.pose.translation, atol=1e-9)
    t1 = rel.translation / np.linalg.norm(rel.translation)
    t2 = scaled.translation / np.linalg.norm(scaled.translation)
    assert np.allclose(t1, t2, atol=1e-15)


def test_ransac_params_reject_a_threshold_that_is_not_positive():
    # NaN passes a test for threshold <= 0, and every hypothesis then
    # scores 0 against it
    for threshold in (0.0, -1e-4, np.nan):
        with pytest.raises(ValueError):
            RansacParams(inlier_threshold=threshold)


def test_ransac_adaptive_early_stop(rng):
    rel = covisible_pose(rng)
    x1, x2 = make_pairs(rng, rel, 80)
    est = ransac_essential(x1, x2, RansacParams(seed=0))
    assert est.iterations <= 5  # perfect data stops almost immediately
