import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from conftest import random_intrinsics, random_pose, random_rotation
from vcsfm.errors import NotEssentialError, ZeroTranslationError
from vcsfm.geometry import (
    CameraIntrinsics,
    Pixel,
    Ray,
    SE3Pose,
    camera_center,
    closest_approach,
    decompose_essential,
    essential_from_pose,
    homogeneous,
    in_image,
    pixel_records,
    project_points,
    ray_through_pixel,
    relative_pose,
    sampson_errors,
    skew,
    so3_exp,
    so3_left_jacobian,
)
from oracles import sampson_geometric_oracle

K100 = CameraIntrinsics(fx=100.0, fy=100.0, cx=320.0, cy=240.0)


def project(pose, k, x):
    """Pixel of one world point in front of the camera."""
    uv, depth = project_points(pose, k, np.asarray(x, dtype=np.float64))
    assert depth > 0.0
    return Pixel(*uv)


def test_pixel_is_a_tuple_of_floats_and_rejects_non_finite():
    for u, v in ((3, 4), (np.float64(2.5), np.int64(-1)), (True, 0.25)):
        pix = Pixel(u, v)
        assert type(pix.u) is float and type(pix.v) is float
        assert pix == (float(u), float(v)) and hash(pix) == hash((float(u), float(v)))
        assert isinstance(pix, tuple) and pix == Pixel(*pix)
    for bad in (np.nan, np.inf, -np.inf, float("nan")):
        for args in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError):
                Pixel(*args)
    with pytest.raises(AttributeError):
        Pixel(1.0, 2.0).u = 3.0


def test_pixel_records_are_pixels_built_after_one_finiteness_check():
    uv = [[3, 4], [2.5, -1.0], [0.0, 0.25]]
    got = pixel_records(uv)
    assert got == [Pixel(u, v) for u, v in uv] and pixel_records(np.empty((0, 2))) == []
    for pix in got:
        assert type(pix) is Pixel and type(pix.u) is float and type(pix.v) is float
    for bad in (np.nan, np.inf, -np.inf):
        for row in ([bad, 0.0], [0.0, bad]):
            with pytest.raises(ValueError, match="finite"):
                pixel_records([[1.0, 2.0], row])


def _lstsq_approach(w, u1, u2):
    """Per row, the least-squares s, t of s u1 - t u2 = -w and its residual's norm."""
    rows = []
    for wi, a, b in zip(w, u1, u2):
        (s, t), *_ = np.linalg.lstsq(np.column_stack([a, -b]), -wi, rcond=None)
        rows.append((s, t, np.linalg.norm(wi + s * a - t * b)))
    return np.array(rows).T


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def test_closest_approach_matches_least_squares(rng):
    u1, u2 = _unit(rng.normal(size=(2, 200, 3)))
    w = 3.0 * rng.normal(size=(200, 3))
    for got, want in zip(closest_approach(w, u1, u2), _lstsq_approach(w, u1, u2)):
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("angle", [1e-2, 1e-3, 1e-5, 1e-7, 1e-9])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_closest_approach_of_nearly_parallel_lines(angle, sign, rng):
    # lines `angle` rad from parallel (sign 1) or anti-parallel (sign -1)
    # that meet at parameters s, t of size 0.5-2: the input's rounding moves
    # s and t by about eps / angle, and the form (b e - d) / (1 - b^2)
    # misses by eps / angle^2
    n = 50
    u1 = _unit(rng.normal(size=(n, 3)))
    turn = _unit(np.cross(u1, rng.normal(size=(n, 3))))
    u2 = sign * (np.cos(angle) * u1 + np.sin(angle) * turn)
    s, t = rng.uniform(0.5, 2.0, size=(2, n)) * rng.choice([-1.0, 1.0], size=(2, n))
    w = t[:, None] * u2 - s[:, None] * u1
    got_s, got_t, gap = closest_approach(w, u1, u2)
    want_s, want_t, _ = _lstsq_approach(w, u1, u2)
    np.testing.assert_allclose(got_s, want_s, rtol=0.0, atol=1e-14 / angle)
    np.testing.assert_allclose(got_t, want_t, rtol=0.0, atol=1e-14 / angle)
    assert gap.max() <= 1e-14


def test_closest_approach_of_parallel_lines_is_nan(rng):
    u1 = _unit(rng.normal(size=(4, 3)))
    u2 = np.vstack([u1[:2], -u1[2:]])
    for value in closest_approach(rng.normal(size=(4, 3)), u1, u2):
        assert np.isnan(value).all()


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
        assert np.linalg.norm(ray.origin + depth * ray.direction - x_world) < 1e-9


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
            back = project(pose, k, ray.origin + d * ray.direction)
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


def test_epipolar_helpers_take_only_n_by_2_points(rng):
    rel = _covisible_rel_pose(rng)
    e = essential_from_pose(rel)
    x1, x2 = _synthetic_pairs(rng, rel, 40)
    # 40 homogeneous rows hold 120 numbers: 60 pairs if read as pairs
    h1, h2 = homogeneous(x1), homogeneous(x2)
    for bad in (h1, x1.ravel(), x1[None]):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            homogeneous(bad)
    for pairs in ((h1, h2), (h1, x2), (x1, h2)):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            sampson_errors(e, *pairs)
    assert homogeneous(np.empty((0, 2))).shape == (0, 3)
    assert sampson_errors(e, np.empty((0, 2)), np.empty((0, 2))).shape == (0,)


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


@pytest.mark.parametrize("e", [
    np.diag([1.0, 1.0, np.nan]), np.diag([1.0, np.inf, 0.0]), np.eye(2), np.ones(9),
])
def test_decompose_rejects_a_malformed_matrix(e):
    # NaN and inf failed inside the SVD, (2, 2) with an IndexError and (9,)
    # with a LinAlgError
    with pytest.raises(ValueError, match="finite"):
        decompose_essential(e)


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


def test_so3_exp_matches_scipy_rotvec(rng):
    # |w| below the series cut-off of 1e-9, generic angles, and angles near pi
    for lo, hi in ((0.0, 1e-9), (1e-3, 3.0), (math.pi - 1e-6, math.pi)):
        for _ in range(100):
            w = rng.normal(size=3)
            w *= rng.uniform(lo, hi) / np.linalg.norm(w)
            assert np.allclose(so3_exp(w), Rotation.from_rotvec(w).as_matrix(), rtol=0.0,
                               atol=1e-12)


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


def test_pose_validation_rejects_non_finite_rotation():
    for bad in (np.nan, np.inf):
        r = np.eye(3)
        r[0, 0] = bad  # NaN compares False, so it would pass both rotation checks
        with pytest.raises(ValueError, match="finite"):
            SE3Pose(r, np.zeros(3))


def test_intrinsics_reject_non_finite_values():
    good = dict(fx=100.0, fy=100.0, cx=320.0, cy=240.0, skew=0.0)
    for name in good:
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                CameraIntrinsics(**{**good, name: bad})


def test_pose_and_ray_hold_read_only_copies_of_their_inputs(rng):
    r, t = random_rotation(rng), rng.normal(size=3)
    pose = SE3Pose(r, t)
    ray = Ray(t, [0.0, 0.0, 2.0])
    for got, given_ in ((pose.rotation, r), (pose.translation, t), (ray.origin, t)):
        assert np.array_equal(got, given_) and not np.shares_memory(got, given_)
        assert not got.flags.writeable
    assert not ray.direction.flags.writeable and ray.direction.tolist() == [0.0, 0.0, 1.0]
    r[0, 0] = t[0] = np.nan  # the caller's arrays stay writeable and apart
    assert np.isfinite(pose.rotation).all() and np.isfinite(ray.origin).all()


def test_pose_and_ray_adopt_read_only_float64_inputs(rng):
    r, t = random_rotation(rng), rng.normal(size=3)
    r.flags.writeable = t.flags.writeable = False
    pose, ray = SE3Pose(r, t), Ray(t, t / np.linalg.norm(t))
    for got, given_ in ((pose.rotation, r), (pose.translation, t), (ray.origin, t)):
        assert np.shares_memory(got, given_) and not got.flags.writeable
    assert not SE3Pose(r, t.astype(np.float32)).translation.flags.writeable


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


def test_ray_rejects_non_finite_origin_or_direction():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            Ray([0.0, bad, 0.0], [0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            Ray(np.zeros(3), [bad, 0.0, 1.0])
    with pytest.raises(ValueError, match="nonzero"):
        Ray(np.zeros(3), np.zeros(3))


def test_skew_matches_cross(rng):
    a, b = rng.normal(size=3), rng.normal(size=3)
    assert np.allclose(skew(a) @ b, np.cross(a, b))


def test_in_image_holds_the_border_pixels_and_nothing_one_ulp_past_them():
    w, h = 8, 5
    below, past_u, past_v = np.nextafter(0.0, -1.0), np.nextafter(w - 1, w), np.nextafter(h - 1, h)
    inside = [(0.0, 0.0), (w - 1, h - 1), (0.0, h - 1), (w - 1, 0.0), (-0.0, 2.5)]
    outside = [(below, 0.0), (0.0, below), (past_u, 0.0), (0.0, past_v), (past_u, past_v),
               (np.nan, 1.0), (1.0, np.inf)]
    assert in_image(inside, w, h).tolist() == [True] * len(inside)
    assert in_image(outside, w, h).tolist() == [False] * len(outside)
    assert in_image(np.empty((0, 2)), w, h).shape == (0,)
