import numpy as np
import pytest

from conftest import cube_mesh, icosphere_mesh, unit_square_mesh
from oracles import collapsed_hits_oracle, ray_triangle_hits_oracle
from vcsfm.errors import InvalidCoordinateError
from vcsfm.mesh import (
    DEPTH_TIE,
    TriangleMesh,
    batch_all_hits,
    batch_first_hits,
    cast_rays,
    surface_points,
)


def one_ray(mesh, origin, direction):
    """(depth, face, bary) of every hit of one ray, nearest first."""
    ray, depth, face, bary = cast_rays(mesh, [origin], [direction])
    assert np.all(ray == 0)
    return depth, face, bary


def ray_runs(ray, n):
    """Slices of the hits of each of n rays in a ray-ordered hit array."""
    bounds = np.searchsorted(ray, np.arange(n + 1))
    assert bounds[-1] == len(ray)  # every hit names a ray, in ray order
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def test_square_single_hit_depth_one():
    mesh = unit_square_mesh()
    origin, direction = np.array([0.5, 0.25, -1.0]), np.array([0.0, 0.0, 1.0])
    depth, face, bary = one_ray(mesh, origin, direction)
    assert len(depth) == 1
    assert depth[0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(origin + depth[0] * direction, [0.5, 0.25, 0.0], atol=1e-12)
    assert np.allclose(surface_points(mesh, face, bary), [[0.5, 0.25, 0.0]], atol=1e-12)


def test_square_ray_pointing_away_misses():
    depth, face, bary = one_ray(unit_square_mesh(), [0.5, 0.25, -1.0], [0.0, 0.0, -1.0])
    assert depth.shape == face.shape == (0,) and bary.shape == (0, 3)


def test_cube_interior_ray_two_hits_vs_oracle():
    mesh = cube_mesh()
    origin, direction = np.array([0.1, -0.2, -5.0]), np.array([0.0, 0.0, 1.0])
    depth, face, bary = one_ray(mesh, origin, direction)
    assert len(depth) == 2
    assert depth[0] < depth[1]
    points = surface_points(mesh, face, bary)
    assert points[0, 2] == pytest.approx(-0.5, abs=1e-12)
    assert points[1, 2] == pytest.approx(0.5, abs=1e-12)
    oracle = ray_triangle_hits_oracle(mesh.vertices, mesh.faces, origin, direction)
    assert len(oracle) == 2
    for d, (t, _, _) in zip(depth, oracle):
        assert d == pytest.approx(t, abs=1e-12)


def test_first_hit_is_head_of_all_hits():
    mesh = cube_mesh()
    origin, direction = [0.1, -0.2, -5.0], [0.0, 0.0, 1.0]
    depth, face, bary, ok = batch_first_hits(
        mesh, [origin, [0.0, 0.0, -5.0]], [direction, [0.0, 0.0, -1.0]]
    )
    all_depth, all_face, all_bary = one_ray(mesh, origin, direction)
    assert ok.tolist() == [True, False]
    assert (depth[0], face[0]) == (all_depth[0], all_face[0])
    assert np.array_equal(bary[0], all_bary[0])
    assert (depth[1], face[1]) == (np.inf, -1) and not bary[1].any()
    depth, _, _, _ = batch_first_hits(unit_square_mesh(), [[0.5, 0.25, -1.0]], [[0, 0, 1]])
    assert depth[0] == 1.0


def test_surface_point_vertices_and_centroid():
    mesh = unit_square_mesh()
    points = surface_points(mesh, [0, 0], [[1.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3]])
    assert np.allclose(points[0], [0, 0, 0])
    assert np.allclose(points[1], mesh.vertices[mesh.faces[0]].mean(axis=0), atol=1e-12)


def test_surface_point_roundtrip_from_hits(rng):
    mesh = icosphere_mesh(2)
    origins = rng.normal(size=(50, 3))
    origins = origins / np.linalg.norm(origins, axis=1, keepdims=True) * 3.0
    dirs = -origins / 3.0
    ray, depth, face, bary = cast_rays(mesh, origins, dirs)
    assert len(ray) == 2 * len(origins)  # through the centre of the sphere
    points = origins[ray] + depth[:, None] * dirs[ray]
    assert np.abs(surface_points(mesh, face, bary) - points).max() < 1e-9


def test_surface_point_invalid_face():
    for face in (5, -1):
        with pytest.raises(InvalidCoordinateError):
            surface_points(unit_square_mesh(), [face], [[1.0, 0.0, 0.0]])


def test_surface_distance_basics():
    mesh = unit_square_mesh()
    # two corners of face 0: (0,0,0) and (1,0,0), one unit edge apart
    a, b = surface_points(mesh, [0, 0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.linalg.norm(a - a) == 0.0
    assert np.linalg.norm(a - b) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(a - b) == np.linalg.norm(b - a)


def test_surface_points_vectorized(rng):
    mesh = icosphere_mesh(1)
    faces = rng.integers(0, mesh.num_faces, size=20)
    b = rng.random((20, 3))
    b /= b.sum(axis=1, keepdims=True)
    batch = surface_points(mesh, faces, b)
    for i in range(20):
        single = sum(w * mesh.vertices[k] for w, k in zip(b[i], mesh.faces[faces[i]]))
        assert np.allclose(batch[i], single, atol=1e-12)
    # the corner table holds each face's vertices, so the gathered triangles
    # and with them the points are those of a direct vertex gather, bit for bit
    assert np.array_equal(mesh.corners, mesh.vertices[mesh.faces])
    assert np.array_equal(
        batch, np.einsum("nk,nkj->nj", b, mesh.vertices[mesh.faces[faces]])
    )


@pytest.mark.parametrize("maker", [cube_mesh, lambda: icosphere_mesh(2)])
def test_watertight_hit_parity(maker, rng):
    mesh = maker()
    origins = rng.normal(size=(100, 3))
    origins = origins / np.linalg.norm(origins, axis=1, keepdims=True) * 4.0
    dirs = rng.normal(size=(100, 3)) * 0.3 - origins
    ray, _, _, _ = cast_rays(mesh, origins, dirs)
    counts = np.bincount(ray, minlength=len(dirs))
    assert np.all(counts % 2 == 0) and counts.any()


def test_hit_ordering_strictly_increasing(rng):
    mesh = icosphere_mesh(2)
    origins = rng.normal(size=(50, 3))
    origins = origins / np.linalg.norm(origins, axis=1, keepdims=True) * 4.0
    dirs = rng.normal(size=(50, 3)) * 0.2 - origins
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    ray, depth, _, _ = cast_rays(mesh, origins, dirs)
    for run in ray_runs(ray, len(dirs)):
        assert np.all(np.diff(depth[run]) > 1e-12)


def test_shared_edge_grazing_single_hit_smallest_face():
    mesh = unit_square_mesh()
    # the diagonal (0,0)-(1,1) is shared by faces 0 and 1
    depth, face, _ = one_ray(mesh, [0.5, 0.5, -2.0], [0.0, 0.0, 1.0])
    assert len(depth) == 1
    assert face[0] == 0
    assert collapsed_hits_oracle(mesh.vertices, mesh.faces, [0.5, 0.5, -2.0], [0.0, 0.0, 1.0],
                                 DEPTH_TIE)[0][1] == 0


def test_kernel_matches_oracle_on_large_mesh(rng):
    mesh = icosphere_mesh(3)  # 1280 faces
    origins = rng.normal(size=(100, 3))
    origins = origins / np.linalg.norm(origins, axis=1, keepdims=True) * 3.0
    dirs = rng.normal(size=(100, 3)) * 0.4 - origins
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    ray, depth, face, bary = cast_rays(mesh, origins, dirs)
    for i, run in enumerate(ray_runs(ray, len(dirs))):
        oracle = ray_triangle_hits_oracle(mesh.vertices, mesh.faces, origins[i], dirs[i])
        assert len(depth[run]) == len(oracle)
        for t, f, b, (t_want, f_want, b_want) in zip(depth[run], face[run], bary[run], oracle):
            assert abs(t - t_want) < 1e-9
            assert f == f_want
            assert np.allclose(b, b_want, atol=1e-9)


def test_batch_first_hits_matches_single(rng):
    mesh = icosphere_mesh(2)
    origins = rng.normal(size=(40, 3))
    origins = origins / np.linalg.norm(origins, axis=1, keepdims=True) * 3.0
    dirs = rng.normal(size=(40, 3)) * 0.3 - origins
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs[-5:] *= -1.0  # away from the sphere
    depth, face, bary, ok = batch_first_hits(mesh, origins, dirs)
    assert ok.any() and not ok.all()
    for i in range(40):
        want = collapsed_hits_oracle(mesh.vertices, mesh.faces, origins[i], dirs[i], DEPTH_TIE, 1)
        if not want:
            assert not ok[i] and (depth[i], face[i]) == (np.inf, -1)
        else:
            assert ok[i]
            assert depth[i] == pytest.approx(want[0][0], abs=1e-9)
            assert face[i] == want[0][1]
            assert np.allclose(bary[i], want[0][2], atol=1e-9)


def test_batch_all_hits_matches_single(rng):
    mesh = cube_mesh()
    origins = np.tile([[0.0, 0.0, -4.0]], (9, 1)) + rng.normal(size=(9, 3)) * 0.1
    dirs = np.tile([[0.0, 0.0, 1.0]], (9, 1))
    ray, _, _, _ = batch_all_hits(mesh, origins, dirs)
    assert np.all(np.diff(ray) >= 0)
    assert assert_matches_oracle(mesh, origins, dirs) == 2 * len(dirs)


def test_batch_all_hits_respects_cap():
    mesh = cube_mesh()
    inner = cube_mesh(side=0.5)
    both = TriangleMesh(
        np.vstack([mesh.vertices, inner.vertices]),
        np.vstack([mesh.faces, inner.faces + len(mesh.vertices)]),
    )
    ray, depth, face, bary = batch_all_hits(
        both, [[0.05, 0.04, -4.0]], [[0.0, 0.0, 1.0]], max_hits=3
    )
    assert list(ray) == [0, 0, 0] and len(depth) == len(face) == len(bary) == 3
    assert np.all(np.diff(depth) > 0.0)


def test_batch_all_hits_equals_cast_rays(rng):
    mesh = merged(cube_mesh(), icosphere_mesh(2))
    origins = np.tile([[0.0, 0.0, -4.0]], (50, 1))
    dirs = rng.normal(size=(50, 3)) * 0.15 + [0.0, 0.0, 1.0]
    for cap in (None, 1, 3):
        got = batch_all_hits(mesh, origins, dirs, max_hits=cap)
        want = cast_rays(mesh, origins, dirs, max_hits=cap)
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def merged(*meshes):
    verts, faces, base = [], [], 0
    for m in meshes:
        verts.append(m.vertices)
        faces.append(m.faces + base)
        base += len(m.vertices)
    return TriangleMesh(np.vstack(verts), np.vstack(faces))


def assert_matches_oracle(mesh, origins, dirs, max_hits=None):
    origins = np.broadcast_to(origins, np.shape(dirs))
    ray, depth, face, bary = batch_all_hits(mesh, origins, dirs, max_hits=max_hits)
    n_hits = 0
    for run, o, d in zip(ray_runs(ray, len(dirs)), origins, dirs):
        depths, faces, barys = depth[run], face[run], bary[run]
        want = collapsed_hits_oracle(mesh.vertices, mesh.faces, o, d, DEPTH_TIE, max_hits)
        assert len(depths) == len(want)
        for j, (t, f, b) in enumerate(want):
            assert depths[j] == pytest.approx(t, abs=1e-9)
            assert faces[j] == f
            assert np.allclose(barys[j], b, atol=1e-9)
        n_hits += len(want)
    return n_hits


def test_kernel_shared_origin_outside_vs_oracle(rng):
    mesh = icosphere_mesh(2)
    origin = np.array([0.4, -0.3, 3.0])
    dirs = rng.normal(size=(300, 3)) * 0.6 - origin  # some miss the sphere
    assert assert_matches_oracle(mesh, origin, dirs) > 200


def test_kernel_origin_inside_closed_mesh_vs_oracle(rng):
    # every face straddles some plane through the origin; rays go everywhere
    mesh = merged(icosphere_mesh(2), cube_mesh(side=4.0))
    origin = np.array([0.1, 0.2, -0.15])
    dirs = rng.normal(size=(200, 3)) + [0.0, 0.0, 0.5]
    assert assert_matches_oracle(mesh, origin, dirs) == 2 * len(dirs)


def test_kernel_backward_and_sideways_rays_vs_oracle(rng):
    # most rays look down -z at a sphere; a few look backwards at a cube
    # behind the origin, sideways at one beside it, and far off-axis at one
    # ahead but well outside the sphere's projection
    mesh = merged(
        icosphere_mesh(2),
        cube_mesh(center=(0.0, 0.0, 8.0)),
        cube_mesh(center=(5.0, 0.0, 4.0)),
        cube_mesh(center=(0.0, 12.0, 1.0)),
    )
    origin = np.array([0.0, 0.0, 4.0])
    forward = rng.normal(size=(150, 3)) * 0.4 - origin
    backward = rng.normal(size=(10, 3)) * 0.1 + [0.0, 0.0, 4.0]
    sideways = rng.normal(size=(10, 3)) * 0.1 + [1.0, 0.0, 0.0]
    off_axis = [0.0, 12.0, -3.0] + rng.normal(size=(10, 3)) * 0.1
    dirs = np.vstack([forward, backward, sideways, off_axis])
    assert assert_matches_oracle(mesh, origin, dirs) > 150 + 60


def test_kernel_shared_edge_tie_keeps_smallest_face():
    mesh = unit_square_mesh()
    origin = np.array([0.2, 0.7, -2.0])
    on_diagonal = np.array([[a, a, 0.0] for a in (0.1, 0.35, 0.5, 0.9)]) - origin
    off_diagonal = np.array([[0.7, 0.2, 0.0], [0.2, 0.7, 0.0]]) - origin
    ray, _, face, _ = cast_rays(mesh, np.broadcast_to(origin, (6, 3)),
                                np.vstack([on_diagonal, off_diagonal]))
    assert list(ray) == [0, 1, 2, 3, 4, 5]
    assert list(face) == [0, 0, 0, 0, 0, 1]
    assert_matches_oracle(mesh, origin, on_diagonal)
    # just outside the border, but within the barycentric slack
    rim = np.array([[0.5, -5e-11, 0.0], [1.0 + 5e-11, 0.3, 0.0], [-5e-11, 1.0 + 5e-11, 0.0]])
    assert assert_matches_oracle(mesh, origin, rim - origin) == 3


def test_kernel_depth_tie_prefers_smallest_face_over_nearest():
    # face 1 lies 5e-13 nearer than face 0: within DEPTH_TIE, so face 0 wins
    tri = np.array([[-1.0, -1.0, 0.0], [2.0, -1.0, 0.0], [-1.0, 2.0, 0.0]])
    mesh = TriangleMesh(np.vstack([tri + [0.0, 0.0, 5e-13], tri]), [[0, 1, 2], [3, 4, 5]])
    depth, face, _, ok = batch_first_hits(mesh, [[0.1, 0.2, -2.0]], [[0.0, 0.0, 1.0]])
    assert ok[0] and face[0] == 0
    assert depth[0] == pytest.approx(2.0 + 5e-13, abs=1e-15)


def test_kernel_max_hits_cap_vs_oracle(rng):
    mesh = merged(cube_mesh(), cube_mesh(side=0.5), cube_mesh(side=0.25))
    origin = np.array([0.02, 0.03, -4.0])
    dirs = rng.normal(size=(40, 3)) * 0.01 + [0.0, 0.0, 1.0]
    for cap in (1, 2, 5):
        assert assert_matches_oracle(mesh, origin, dirs, max_hits=cap) == cap * len(dirs)
    depth, face, bary, ok = batch_first_hits(mesh, np.broadcast_to(origin, dirs.shape), dirs)
    ray, first_depth, first_face, first_bary = batch_all_hits(
        mesh, np.broadcast_to(origin, dirs.shape), dirs, max_hits=1
    )
    assert ok.all()
    assert np.array_equal(ray, np.arange(len(dirs)))
    assert np.array_equal(depth, first_depth)
    assert np.array_equal(face, first_face)
    assert np.array_equal(bary, first_bary)


def test_kernel_zero_rays_and_distinct_origins(rng):
    mesh = icosphere_mesh(2)
    ray, depth, face, bary = cast_rays(mesh, np.empty((0, 3)), np.empty((0, 3)))
    assert len(ray) == len(depth) == len(face) == len(bary) == 0
    ray, depth, face, bary = batch_all_hits(mesh, np.empty((0, 3)), np.empty((0, 3)))
    assert ray.shape == depth.shape == face.shape == (0,) and bary.shape == (0, 3)
    depth, face, bary, ok = batch_first_hits(mesh, np.empty((0, 3)), np.empty((0, 3)))
    assert depth.shape == face.shape == ok.shape == (0,) and bary.shape == (0, 3)
    origins = rng.normal(size=(60, 3))
    origins = origins / np.linalg.norm(origins, axis=1, keepdims=True) * 3.0
    origins[30:] = origins[0]  # half the rays share one origin
    dirs = rng.normal(size=(60, 3)) * 0.5 - origins
    assert assert_matches_oracle(mesh, origins, dirs) > 40


def test_mesh_validation():
    with pytest.raises(ValueError):
        TriangleMesh([[0, 0, 0], [1, 0, 0]], [[0, 1, 2]])
    with pytest.raises(ValueError):  # zero-area face
        TriangleMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])
