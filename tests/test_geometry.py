import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_intrinsics, random_pose, random_rotation
from vcsfm.errors import NotEssentialError, ZeroTranslationError
from vcsfm.geometry import (
    CameraIntrinsics,
    Pixel,
    Ray,
    SE3Pose,
    camera_center,
    decompose_essential,
    essential_from_pose,
    project_points,
    ray_through_pixel,
    relative_pose,
    sampson_errors,
    skew,
    so3_exp,
    so3_left_jacobian,
    so3_log,
)
from oracles import sampson_geometric_oracle

K100 = CameraIntrinsics(fx=100.0, fy=100.0, cx=320.0, cy=240.0)


def project(pose, k, x):
    """Pixel of one world point in front of the camera."""
    uv, depth = project_points(pose, k, np.asarray(x, dtype=np.float64))
    assert depth > 0.0
    return Pixel(*uv)


def test_project_optical_axis_hits_principal_point():
    uv, depth = project_points(SE3Pose.identity(), K100, np.array([[0.0, 0.0, 2.0]]))
    assert uv[0] == pytest.approx([320.0, 240.0], abs=1e-12)
    assert depth[0] == 2.0


def test_project_lateral_offset():
    uv, depth = project_points(SE3Pose.identity(), K100, np.array([[2.0, 0.0, 2.0]]))
    assert uv[0] == pytest.approx([420.0, 240.0], abs=1e-12)
    assert depth[0] == 2.0


def test_project_rejects_nonpositive_depth():
    # points at or behind the camera come back with their depth, which is
    # how callers reject them; projecting them raises nothing
    with np.errstate(all="raise"):
        _, depth = project_points(SE3Pose.identity(), K100,
                                  np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    assert depth.tolist() == [-1.0, 0.0, 1.0]


def test_project_ray_roundtrip_reproduces_point(rng):
    for _ in range(200):
        pose = random_pose(rng)
        k = random_intrinsics(rng)
        x_cam = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 10)])
        x_world = pose.inverse_transform(x_cam)
        pix = project(pose, k, x_world)
        ray = ray_through_pixel(pose, k, pix)
        depth = np.linalg.norm(x_world - ray.origin)
        assert np.linalg.norm(ray.point_at(depth) - x_world) < 1e-9


def test_principal_ray_is_forward_axis():
    k = CameraIntrinsics(fx=90.0, fy=110.0, cx=17.0, cy=23.0)
    ray = ray_through_pixel(SE3Pose.identity(), k, Pixel(17.0, 23.0))
    assert np.allclose(ray.origin, 0.0, atol=1e-12)
    assert np.allclose(ray.direction, [0.0, 0.0, 1.0], atol=1e-12)


def test_pinhole_unit_focal_ray_direction():
    k = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
    ray = ray_through_pixel(SE3Pose.identity(), k, Pixel(1.0, 0.0))
    expected = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
    assert np.allclose(ray.direction, expected, atol=1e-12)


def test_ray_projection_consistency_many_depths(rng):
    for _ in range(50):
        pose = random_pose(rng)
        k = random_intrinsics(rng)
        pix = Pixel(rng.uniform(0, 640), rng.uniform(0, 480))
        ray = ray_through_pixel(pose, k, pix)
        assert np.allclose(ray.origin, camera_center(pose), atol=1e-12)
        for d in (0.1, 1.0, 10.0):
            back = project(pose, k, ray.point_at(d))
            assert abs(back.u - pix.u) < 1e-9
            assert abs(back.v - pix.v) < 1e-9


def test_camera_center_identity_and_translation():
    assert np.allclose(camera_center(SE3Pose.identity()), 0.0)
    pose = SE3Pose(np.eye(3), [1.0, 2.0, 3.0])
    assert np.allclose(camera_center(pose), [-1.0, -2.0, -3.0])


def test_camera_center_forward_axis(rng):
    for _ in range(20):
        pose = random_pose(rng)
        k = random_intrinsics(rng)
        forward = pose.rotation[2]  # camera +z in world coordinates
        pix = project(pose, k, camera_center(pose) + 1e-4 * forward)
        assert abs(pix.u - k.cx) < 1e-6
        assert abs(pix.v - k.cy) < 1e-6


def test_essential_pure_translation_is_cross_matrix():
    e = essential_from_pose(SE3Pose(np.eye(3), [0.0, 0.0, 1.0]))
    assert np.allclose(e, [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def test_essential_rank_and_spectrum(rng):
    for _ in range(50):
        rel = random_pose(rng)
        e = essential_from_pose(rel)
        s = np.linalg.svd(e, compute_uv=False)
        assert abs(np.linalg.det(e)) < 1e-10 * max(1.0, s[0] ** 3)
        assert s[2] < 1e-10 * s[0]
        assert abs(s[0] - s[1]) < 1e-9 * s[0]


def test_essential_zero_translation_raises():
    with pytest.raises(ZeroTranslationError):
        essential_from_pose(SE3Pose(np.eye(3), np.zeros(3)))


def _covisible_rel_pose(rng):
    """Random relative pose with a bounded rotation so the z in [2, 6]
    sample box stays visible in both cameras."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return SE3Pose(so3_exp(axis * rng.uniform(0.05, 0.6)), rng.normal(size=3) * 0.5)


def _synthetic_pairs(rng, rel, n):
    """Normalized pairs of world points seen by identity camera and `rel`."""
    x1, x2 = [], []
    attempts = 0
    while len(x1) < n:
        attempts += 1
        assert attempts < 100 * n + 100, "pose rejects too many sample points"
        x = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(2.0, 6.0)])
        xc = rel.transform(x)
        if xc[2] <= 0.1:
            continue
        x1.append(x[:2] / x[2])
        x2.append(xc[:2] / xc[2])
    return np.array(x1), np.array(x2)


def test_epipolar_identity_on_synthetic_correspondences(rng):
    for _ in range(20):
        rel = _covisible_rel_pose(rng)
        e = essential_from_pose(rel)
        x1, x2 = _synthetic_pairs(rng, rel, 30)
        x1h = np.column_stack([x1, np.ones(len(x1))])
        x2h = np.column_stack([x2, np.ones(len(x2))])
        residual = np.abs(np.einsum("ni,ij,nj->n", x2h, e, x1h))
        assert residual.max() < 1e-12 * max(1.0, np.abs(e).max())


def test_sampson_zero_on_exact_correspondence(rng):
    rel = _covisible_rel_pose(rng)
    e = essential_from_pose(rel)
    x1, x2 = _synthetic_pairs(rng, rel, 10)
    assert sampson_errors(e, x1, x2).max() < 1e-15


def test_sampson_matches_geometric_correction(rng):
    # displace x2 along the epipolar-line normal; the first-order (Sampson)
    # error must match the true minimal squared correction found numerically
    delta = 1e-3
    for _ in range(5):
        rel = _covisible_rel_pose(rng)
        e = essential_from_pose(rel)
        x1, x2 = _synthetic_pairs(rng, rel, 1)
        line = e @ np.append(x1[0], 1.0)
        normal = line[:2] / np.linalg.norm(line[:2])
        x2p = x2[0] + delta * normal
        (err,) = sampson_errors(e, x1, x2p[None])
        oracle = sampson_geometric_oracle(e, x1[0], x2p)
        assert err == pytest.approx(oracle, rel=1e-3)
        assert 0.0 < err <= delta**2 * (1.0 + 1e-9)


@given(st.floats(min_value=-1e3, max_value=1e3).filter(lambda s: abs(s) > 1e-6))
@settings(max_examples=50, deadline=None)
def test_sampson_scale_invariance(scale):
    rng = np.random.default_rng(7)
    rel = _covisible_rel_pose(rng)
    e = essential_from_pose(rel)
    x1, x2 = _synthetic_pairs(rng, rel, 1)
    x2p = x2[0] + np.array([1e-3, -2e-3])
    assert sampson_errors(e, x1, x2p[None])[0] == pytest.approx(
        sampson_errors(scale * e, x1, x2p[None])[0], rel=1e-9
    )


def test_sampson_degenerate_denominator():
    # E maps both test points to zero lines: x1 at the right epipole (0,0,1)
    # it is reported as inf, next to a finite error in the same batch
    e = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    err = sampson_errors(e, [[0.0, 0.0], [0.1, 0.0]], [[0.0, 0.0], [0.0, 0.1]])
    assert err[0] == np.inf and np.isfinite(err[1])


def test_sampson_errors_vectorized_matches_scalar(rng):
    rel = _covisible_rel_pose(rng)
    e = essential_from_pose(rel)
    x1, x2 = _synthetic_pairs(rng, rel, 20)
    x2 = x2 + rng.normal(scale=1e-3, size=x2.shape)
    vec = sampson_errors(e, x1, x2)
    for i in range(len(x1)):
        # each row alone, and the textbook formula on that row
        assert vec[i] == pytest.approx(sampson_errors(e, x1[i : i + 1], x2[i : i + 1])[0],
                                       rel=1e-12)
        p1, p2 = np.append(x1[i], 1.0), np.append(x2[i], 1.0)
        l2, l1 = e @ p1, e.T @ p2
        want = (p2 @ e @ p1) ** 2 / (l2[0] ** 2 + l2[1] ** 2 + l1[0] ** 2 + l1[1] ** 2)
        assert vec[i] == pytest.approx(want, rel=1e-12)


def test_decompose_recovers_generating_pose(rng):
    recovered = 0
    for _ in range(1000):
        rel = random_pose(rng)
        if np.linalg.norm(rel.translation) < 1e-3:
            continue
        e = essential_from_pose(rel)
        t_hat = rel.translation / np.linalg.norm(rel.translation)
        for cand in decompose_essential(e):
            if (
                np.linalg.norm(cand.rotation - rel.rotation) < 1e-8
                and np.linalg.norm(cand.translation - t_hat) < 1e-8
            ):
                recovered += 1
                break
    assert recovered == 1000


def test_decompose_candidates_are_valid(rng):
    rel = random_pose(rng)
    cands = decompose_essential(essential_from_pose(rel))
    assert len(cands) == 4
    for c in cands:
        assert abs(np.linalg.norm(c.translation) - 1.0) < 1e-12
        assert np.linalg.norm(c.rotation.T @ c.rotation - np.eye(3)) < 1e-9
        assert np.linalg.det(c.rotation) > 0.0


def test_decompose_sign_invariance(rng):
    rel = random_pose(rng)
    e = essential_from_pose(rel)

    def as_set(cands):
        return {
            (tuple(np.round(c.rotation.ravel(), 9)), tuple(np.round(c.translation, 9)))
            for c in cands
        }

    assert as_set(decompose_essential(e)) == as_set(decompose_essential(-e))


def test_decompose_rejects_non_essential():
    with pytest.raises(NotEssentialError):
        decompose_essential(np.diag([1.0, 0.5, 0.0]))
    with pytest.raises(NotEssentialError):
        decompose_essential(np.eye(3))


@given(
    st.tuples(
        st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)
    )
)
@settings(max_examples=200, deadline=None)
def test_so3_exp_produces_valid_rotations(w):
    r = so3_exp(np.array(w))
    assert np.linalg.norm(r.T @ r - np.eye(3)) < 1e-9
    assert abs(np.linalg.det(r) - 1.0) < 1e-9


def test_so3_log_inverts_exp(rng):
    for _ in range(100):
        w = rng.normal(size=3)
        w *= rng.uniform(0.0, math.pi * 0.999) / np.linalg.norm(w)
        assert np.allclose(so3_log(so3_exp(w)), w, atol=1e-8)


def test_so3_left_jacobian_first_order(rng):
    # exp((w + d)^) ~ exp((J_l d)^) exp(w^) up to O(|d|^2)
    for _ in range(20):
        w = rng.normal(size=3)
        d = rng.normal(size=3) * 1e-6
        lhs = so3_exp(w + d)
        rhs = so3_exp(so3_left_jacobian(w) @ d) @ so3_exp(w)
        assert np.linalg.norm(lhs - rhs) < 1e-10


def test_pose_validation_rejects_bad_rotation():
    with pytest.raises(ValueError):
        SE3Pose(np.eye(3) * 1.1, np.zeros(3))
    with pytest.raises(ValueError):
        SE3Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


def test_pose_compose_inverse(rng):
    a, b = random_pose(rng), random_pose(rng)
    rel = relative_pose(a, b)
    x = rng.normal(size=3)
    assert np.allclose(rel.transform(a.transform(x)), b.transform(x), atol=1e-12)
    ident = a.compose(a.inverse())
    assert np.allclose(ident.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(ident.translation, 0.0, atol=1e-12)


def test_ray_normalizes_direction():
    r = Ray(np.zeros(3), [0.0, 0.0, 5.0])
    assert np.allclose(r.direction, [0.0, 0.0, 1.0])
    assert abs(np.linalg.norm(r.direction) - 1.0) < 1e-12


def test_skew_matches_cross(rng):
    a, b = rng.normal(size=3), rng.normal(size=3)
    assert np.allclose(skew(a) @ b, np.cross(a, b))
