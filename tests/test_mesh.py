import numpy as np
import pytest

from conftest import cube_mesh, icosphere_mesh, unit_square_mesh
from oracles import collapsed_hits_oracle, ray_triangle_hits_oracle
from vcsfm.errors import InvalidCoordinateError, ParseError
from vcsfm.geometry import Ray
from vcsfm.mesh import (
    DEPTH_TIE,
    SurfaceCoordinate,
    TriangleMesh,
    batch_all_hits,
    batch_first_hits,
    cast_rays,
    first_hit,
    load_mesh_text,
    ray_mesh_all_hits,
    save_mesh_text,
    surface_distance,
    surface_point,
    surface_points,
)


def test_square_single_hit_depth_one():
    mesh = unit_square_mesh()
    hits = ray_mesh_all_hits(mesh, Ray([0.5, 0.25, -1.0], [0.0, 0.0, 1.0]))
    assert len(hits) == 1
    assert hits[0].depth == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(hits[0].point, [0.5, 0.25, 0.0], atol=1e-12)


def test_square_ray_pointing_away_misses():
    mesh = unit_square_mesh()
    assert ray_mesh_all_hits(mesh, Ray([0.5, 0.25, -1.0], [0.0, 0.0, -1.0])) == []


def test_cube_interior_ray_two_hits_vs_oracle():
    mesh = cube_mesh()
    ray = Ray([0.1, -0.2, -5.0], [0.0, 0.0, 1.0])
    hits = ray_mesh_all_hits(mesh, ray)
    assert len(hits) == 2
    assert hits[0].depth < hits[1].depth
    assert hits[0].point[2] == pytest.approx(-0.5, abs=1e-12)
    assert hits[1].point[2] == pytest.approx(0.5, abs=1e-12)
    oracle = ray_triangle_hits_oracle(mesh.vertices, mesh.faces, ray.origin, ray.direction)
    assert len(oracle) == 2
    for h, (t, _, _) in zip(hits, oracle):
        assert h.depth == pytest.approx(t, abs=1e-12)


def test_first_hit_is_head_of_all_hits():
    mesh = cube_mesh()
    ray = Ray([0.1, -0.2, -5.0], [0.0, 0.0, 1.0])
    fh = first_hit(mesh, ray)
    assert fh.depth == ray_mesh_all_hits(mesh, ray)[0].depth
    assert first_hit(mesh, Ray([0.0, 0.0, -5.0], [0.0, 0.0, -1.0])) is None
    assert first_hit(unit_square_mesh(), Ray([0.5, 0.25, -1.0], [0, 0, 1])).depth == 1.0


def test_surface_point_vertices_and_centroid():
    mesh = unit_square_mesh()
    assert np.allclose(surface_point(mesh, SurfaceCoordinate(0, (1.0, 0.0, 0.0))), [0, 0, 0])
    c = surface_point(mesh, SurfaceCoordinate(0, (1 / 3, 1 / 3, 1 / 3)))
    assert np.allclose(c, mesh.vertices[mesh.faces[0]].mean(axis=0), atol=1e-12)


def test_surface_point_roundtrip_from_hits(rng):
    mesh = icosphere_mesh(2)
    for _ in range(50):
        origin = rng.normal(size=3)
        origin = origin / np.linalg.norm(origin) * 3.0
        ray = Ray(origin, -origin)
        for hit in ray_mesh_all_hits(mesh, ray):
            assert np.linalg.norm(surface_point(mesh, hit.coord) - hit.point) < 1e-9
            assert np.linalg.norm(ray.point_at(hit.depth) - hit.point) < 1e-9


def test_surface_point_invalid_face():
    with pytest.raises(InvalidCoordinateError):
        surface_point(unit_square_mesh(), SurfaceCoordinate(5, (1.0, 0.0, 0.0)))


def test_surface_coordinate_validation():
    with pytest.raises(InvalidCoordinateError):
        SurfaceCoordinate(0, (0.5, 0.5, 0.5))
    with pytest.raises(InvalidCoordinateError):
        SurfaceCoordinate(0, (-0.2, 0.6, 0.6))
    for bad in ((0.5, 0.5), (0.2, 0.3, 0.5, 0.0), (float("nan"), 0.5, 0.5), (0.5, "x", 0.5), 1.0):
        with pytest.raises(InvalidCoordinateError):
            SurfaceCoordinate(0, bad)
    c = SurfaceCoordinate(np.int64(2), np.array([0.25, 0.25, 0.5]))
    assert (c.face, c.bary) == (2, (0.25, 0.25, 0.5)) and type(c.bary[0]) is float


def test_surface_distance_basics():
    mesh = unit_square_mesh()
    a = SurfaceCoordinate(0, (1.0, 0.0, 0.0))
    b = SurfaceCoordinate(0, (0.0, 1.0, 0.0))  # vertex (1,0,0): unit edge
    assert surface_distance(mesh, a, a) == 0.0
    assert surface_distance(mesh, a, b) == pytest.approx(1.0, abs=1e-12)
    assert surface_distance(mesh, a, b) == surface_distance(mesh, b, a)


def test_surface_points_vectorized(rng):
    mesh = icosphere_mesh(1)
    faces = rng.integers(0, mesh.num_faces, size=20)
    b = rng.random((20, 3))
    b /= b.sum(axis=1, keepdims=True)
    batch = surface_points(mesh, faces, b)
    for i in range(20):
        single = surface_point(mesh, SurfaceCoordinate(faces[i], tuple(b[i])))
        assert np.allclose(batch[i], single, atol=1e-12)


@pytest.mark.parametrize("maker", [cube_mesh, lambda: icosphere_mesh(2)])
def test_watertight_hit_parity(maker, rng):
    mesh = maker()
    for _ in range(100):
        origin = rng.normal(size=3)
        origin = origin / np.linalg.norm(origin) * 4.0
        target = rng.normal(size=3) * 0.3
        ray = Ray(origin, target - origin)
        assert len(ray_mesh_all_hits(mesh, ray)) % 2 == 0


def test_hit_ordering_strictly_increasing(rng):
    mesh = icosphere_mesh(2)
    for _ in range(50):
        origin = rng.normal(size=3)
        origin = origin / np.linalg.norm(origin) * 4.0
        ray = Ray(origin, rng.normal(size=3) * 0.2 - origin)
        depths = [h.depth for h in ray_mesh_all_hits(mesh, ray)]
        assert all(b - a > 1e-12 for a, b in zip(depths, depths[1:]))


def test_shared_edge_grazing_single_hit_smallest_face():
    mesh = unit_square_mesh()
    # the diagonal (0,0)-(1,1) is shared by faces 0 and 1
    hits = ray_mesh_all_hits(mesh, Ray([0.5, 0.5, -2.0], [0.0, 0.0, 1.0]))
    assert len(hits) == 1
    assert hits[0].coord.face == 0


def test_kernel_matches_oracle_on_large_mesh(rng):
    mesh = icosphere_mesh(3)  # 1280 faces
    for _ in range(100):
        origin = rng.normal(size=3)
        origin = origin / np.linalg.norm(origin) * 3.0
        ray = Ray(origin, rng.normal(size=3) * 0.4 - origin)
        hits = ray_mesh_all_hits(mesh, ray)
        oracle = ray_triangle_hits_oracle(mesh.vertices, mesh.faces, ray.origin, ray.direction)
        assert len(hits) == len(oracle)
        for h, (t, f, b) in zip(hits, oracle):
            assert abs(h.depth - t) < 1e-9
            assert h.coord.face == f
            assert np.allclose(h.coord.bary, b, atol=1e-9)


def test_batch_first_hits_matches_single(rng):
    mesh = icosphere_mesh(2)
    origins = rng.normal(size=(40, 3))
    origins = origins / np.linalg.norm(origins, axis=1, keepdims=True) * 3.0
    dirs = rng.normal(size=(40, 3)) * 0.3 - origins
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    depth, face, bary, ok = batch_first_hits(mesh, origins, dirs)
    for i in range(40):
        single = first_hit(mesh, Ray(origins[i], dirs[i]))
        if single is None:
            assert not ok[i]
        else:
            assert ok[i]
            assert depth[i] == pytest.approx(single.depth, abs=1e-9)
            assert face[i] == single.coord.face


def test_batch_all_hits_matches_single(rng):
    mesh = cube_mesh()
    origins = np.tile([[0.0, 0.0, -4.0]], (9, 1)) + rng.normal(size=(9, 3)) * 0.1
    dirs = np.tile([[0.0, 0.0, 1.0]], (9, 1))
    per_ray = batch_all_hits(mesh, origins, dirs)
    for i, (depths, faces, barys) in enumerate(per_ray):
        singles = ray_mesh_all_hits(mesh, Ray(origins[i], dirs[i]))
        assert len(depths) == len(singles)
        for j, h in enumerate(singles):
            assert depths[j] == pytest.approx(h.depth, abs=1e-12)
            assert faces[j] == h.coord.face
            assert np.allclose(barys[j], h.coord.bary, atol=1e-9)


def test_batch_all_hits_respects_cap():
    mesh = cube_mesh()
    inner = cube_mesh(side=0.5)
    both = TriangleMesh(
        np.vstack([mesh.vertices, inner.vertices]),
        np.vstack([mesh.faces, inner.faces + len(mesh.vertices)]),
    )
    (hits,) = batch_all_hits(both, [[0.05, 0.04, -4.0]], [[0.0, 0.0, 1.0]], max_hits=3)
    assert len(hits[0]) == 3


def merged(*meshes):
    verts, faces, base = [], [], 0
    for m in meshes:
        verts.append(m.vertices)
        faces.append(m.faces + base)
        base += len(m.vertices)
    return TriangleMesh(np.vstack(verts), np.vstack(faces))


def assert_matches_oracle(mesh, origins, dirs, max_hits=None):
    origins = np.broadcast_to(origins, np.shape(dirs))
    per_ray = batch_all_hits(mesh, origins, dirs, max_hits=max_hits)
    assert len(per_ray) == len(dirs)
    n_hits = 0
    for o, d, (depths, faces, barys) in zip(origins, dirs, per_ray):
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
    first = batch_all_hits(mesh, np.broadcast_to(origin, dirs.shape), dirs, max_hits=1)
    assert ok.all()
    assert np.array_equal(depth, [h[0][0] for h in first])
    assert np.array_equal(face, [h[1][0] for h in first])


def test_kernel_zero_rays_and_distinct_origins(rng):
    mesh = icosphere_mesh(2)
    ray, depth, face, bary = cast_rays(mesh, np.empty((0, 3)), np.empty((0, 3)))
    assert len(ray) == len(depth) == len(face) == len(bary) == 0
    assert batch_all_hits(mesh, np.empty((0, 3)), np.empty((0, 3))) == []
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


def test_mesh_text_roundtrip(tmp_path):
    mesh = icosphere_mesh(1)
    path = tmp_path / "sphere.mesh"
    save_mesh_text(mesh, path)
    back = load_mesh_text(path)
    assert np.array_equal(back.faces, mesh.faces)
    assert np.allclose(back.vertices, mesh.vertices, atol=0.0)


def test_mesh_loader_ignores_other_lines(tmp_path):
    path = tmp_path / "noisy.mesh"
    path.write_text(
        "# comment\nv 0 0 0\nvn 0 0 1\nv 1 0 0\nv 0 1 0\nusemtl foo\nf 1 2 3\n"
    )
    mesh = load_mesh_text(path)
    assert mesh.num_faces == 1
    assert len(mesh.vertices) == 3


def test_mesh_loader_rejects_malformed(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("v 0 0\n")
    with pytest.raises(ParseError):
        load_mesh_text(path)
    path.write_text("v 0 0 zero\n")
    with pytest.raises(ParseError):
        load_mesh_text(path)
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n")
    with pytest.raises(ParseError):
        load_mesh_text(path)
