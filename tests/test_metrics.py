import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_pose, random_rotation
from oracles import auc_trapezoid_oracle, pose_error_quaternion_oracle
from vcsfm.errors import EmptyInputError
from vcsfm.geometry import SE3Pose, so3_exp
from vcsfm.metrics import auc, pose_error


def test_pose_error_zero_for_identical():
    pose = SE3Pose(so3_exp([0.1, 0.2, -0.1]), [1.0, 0.0, 0.5])
    err = pose_error(pose, pose)
    assert err.combined_deg == pytest.approx(0.0, abs=1e-9)
    assert err.translation_defined


def test_pose_error_pure_rotation_offset():
    gt = SE3Pose(np.eye(3), [1.0, 0.0, 0.0])
    est = SE3Pose(so3_exp([0.0, 0.0, math.radians(10.0)]), [1.0, 0.0, 0.0])
    err = pose_error(est, gt)
    assert err.rotation_deg == pytest.approx(10.0, abs=1e-9)
    assert err.translation_deg == pytest.approx(0.0, abs=1e-9)
    assert err.combined_deg == pytest.approx(10.0, abs=1e-9)


def test_pose_error_translation_scale_free():
    gt = SE3Pose(np.eye(3), [1.0, 0.0, 0.0])
    est = SE3Pose(np.eye(3), [7.5, 0.0, 0.0])
    assert pose_error(est, gt).combined_deg == pytest.approx(0.0, abs=1e-9)


def test_pose_error_matches_quaternion_oracle(rng):
    for _ in range(50):
        gt = random_pose(rng)
        est = random_pose(rng)
        got = pose_error(est, gt).combined_deg
        want = pose_error_quaternion_oracle(
            est.rotation, est.translation, gt.rotation, gt.translation
        )
        assert got == pytest.approx(want, abs=1e-9)


def test_pose_error_undefined_translation_flag():
    gt = SE3Pose(np.eye(3), np.zeros(3))
    est = SE3Pose(so3_exp([0.0, 0.0, 0.05]), [1.0, 0.0, 0.0])
    err = pose_error(est, gt)
    assert not err.translation_defined
    assert err.combined_deg == pytest.approx(math.degrees(0.05), abs=1e-9)


def test_pose_error_propagates_nan_translation():
    gt = SE3Pose(np.eye(3), [1.0, 0.0, 0.0])
    # max(rot, nan) is rot, so a NaN estimate would score as perfect
    err = pose_error(SE3Pose(np.eye(3), [np.nan, 0.0, 0.0]), gt)
    assert err.translation_defined
    assert math.isnan(err.translation_deg) and math.isnan(err.combined_deg)
    err = pose_error(SE3Pose(so3_exp([0.0, 0.0, 0.1]), [1.0, np.nan, 0.0]), gt)
    assert err.rotation_deg == pytest.approx(math.degrees(0.1), abs=1e-9)
    assert math.isnan(err.combined_deg)


def test_pose_error_invariant_to_common_rigid_transform(rng):
    for _ in range(20):
        a, b, g = random_pose(rng), random_pose(rng), random_pose(rng)
        from vcsfm.geometry import relative_pose

        base = pose_error(relative_pose(a, b), relative_pose(a, b)).combined_deg
        moved = pose_error(
            relative_pose(a.compose(g), b.compose(g)),
            relative_pose(a, b),
        ).combined_deg
        assert moved == pytest.approx(base, abs=1e-7)


def test_auc_all_zero_errors():
    assert auc([0.0, 0.0, 0.0], 15.0) == 1.0


def test_auc_all_beyond_threshold():
    assert auc([50.0, 90.0, 180.0], 30.0) == 0.0


def test_auc_tabulated_example_matches_trapezoid_oracle():
    errors = [5.0, 15.0, 25.0]
    want = auc_trapezoid_oracle(errors, 30.0)
    got = auc(errors, 30.0)
    assert got == pytest.approx(want, abs=1e-9)
    assert got == pytest.approx(0.5, abs=1e-12)  # (25 + 15 + 5) / (3 * 30)


def test_auc_matches_oracle_random_lists(rng):
    for _ in range(50):
        errors = rng.uniform(0.0, 60.0, size=rng.integers(1, 40))
        thr = rng.uniform(5.0, 45.0)
        assert auc(errors, thr) == pytest.approx(
            auc_trapezoid_oracle(errors, thr), abs=1e-9
        )


def test_auc_monotone_in_threshold_1000_lists():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        errors = rng.uniform(0.0, 90.0, size=rng.integers(1, 25))
        a15, a30, a45 = auc(errors, 15.0), auc(errors, 30.0), auc(errors, 45.0)
        assert a15 <= a30 + 1e-12
        assert a30 <= a45 + 1e-12


@given(st.lists(st.floats(0.0, 180.0), min_size=1, max_size=30), st.floats(1.0, 90.0))
@settings(max_examples=100, deadline=None)
def test_auc_bounds_and_monotonicity(errors, thr):
    v = auc(errors, thr)
    assert 0.0 <= v <= 1.0
    assert v <= auc(errors, thr * 1.5) + 1e-12


def test_auc_empty_raises():
    with pytest.raises(EmptyInputError):
        auc([], 30.0)


def test_auc_rejects_nan_and_negative_errors():
    # NaN passes a test for e < 0 and would make the area NaN
    for errors in ([np.nan, 0.0], [0.0, np.nan], [5.0, -1.0]):
        with pytest.raises(ValueError, match="non-negative"):
            auc(errors, 30.0)


def test_auc_rejects_a_threshold_that_is_not_positive():
    # NaN passes a test for threshold <= 0 and would make the area NaN; an
    # infinite threshold gives every error full credit
    for threshold in (0.0, -30.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="threshold"):
            auc([1.0, 2.0], threshold)
