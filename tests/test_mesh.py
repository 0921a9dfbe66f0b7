import numpy as np
import pytest

import vcsfm.mesh
from conftest import cube_mesh, icosphere_mesh, random_pose, seen_from, unit_square_mesh
from oracles import collapsed_hits_oracle, ray_triangle_hits_oracle
from vcsfm.ba import lift_vcs_to_tracks
from vcsfm.errors import InvalidCoordinateError
from vcsfm.extraction import ExtractionParams, extract_vcs, suggest_surface_tolerance
from vcsfm.geometry import SE3Pose
from vcsfm.mesh import DEPTH_TIE, TriangleMesh, batch_all_hits, batch_first_hits, surface_points
from vcsfm.synthetic import NoiseConfig, SceneConfig, generate_scene


def one_ray(mesh, origin, direction):
    """(depth, face, bary) of every hit of one ray, nearest first."""
    ray, depth, face, bary = batch_all_hits(seen_from(mesh, origin), [direction])
    assert np.all(ray == 0)
    return depth, face, bary


def bundles(rng, count, radius, rays, spread):
    """`count` origins at `radius` from the centre, each with `rays` ray
    directions aimed at the centre plus normal noise of scale `spread`."""
    origins = rng.normal(size=(count, 3))
    for origin in origins / np.linalg.norm(origins, axis=1, keepdims=True) * radius:
        yield origin, rng.normal(size=(rays, 3)) * spread - origin


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
        seen_from(mesh, origin), [direction, [0.0, 0.0, -1.0]]
    )
    all_depth, all_face, all_bary = one_ray(mesh, origin, direction)
    assert ok.tolist() == [True, False]
    assert (depth[0], face[0]) == (all_depth[0], all_face[0])
    assert np.array_equal(bary[0], all_bary[0])
    assert (depth[1], face[1]) == (np.inf, -1) and not bary[1].any()
    square = seen_from(unit_square_mesh(), [0.5, 0.25, -1.0])
    depth, _, _, _ = batch_first_hits(square, [[0, 0, 1]])
    assert depth[0] == 1.0


def test_surface_point_vertices_and_centroid():
    mesh = unit_square_mesh()
    points = surface_points(mesh, [0, 0], [[1.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3]])
    assert np.allclose(points[0], [0, 0, 0])
    assert np.allclose(points[1], mesh.vertices[mesh.faces[0]].mean(axis=0), atol=1e-12)


def test_surface_point_roundtrip_from_hits(rng):
    mesh = icosphere_mesh(2)
    for origin, dirs in bundles(rng, 5, 3.0, 10, 0.1):
        ray, depth, face, bary = batch_all_hits(seen_from(mesh, origin), dirs)
        assert len(ray) == 2 * len(dirs)  # through the inside of the sphere
        points = origin + depth[:, None] * dirs[ray]
        # the surface coordinates of hits on the moved copy name the same points
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
    # the points are those of a direct vertex gather, bit for bit
    assert np.array_equal(
        batch, np.einsum("nk,nkj->nj", b, mesh.vertices[mesh.faces[faces]])
    )


@pytest.mark.parametrize("maker", [cube_mesh, lambda: icosphere_mesh(2)])
def test_watertight_hit_parity(maker, rng):
    mesh = maker()
    hits = 0
    for origin, dirs in bundles(rng, 4, 4.0, 25, 0.3):
        ray, _, _, _ = batch_all_hits(seen_from(mesh, origin), dirs)
        counts = np.bincount(ray, minlength=len(dirs))
        assert np.all(counts % 2 == 0)
        hits += len(ray)
    assert hits


def test_hit_ordering_strictly_increasing(rng):
    mesh = icosphere_mesh(2)
    for origin, dirs in bundles(rng, 5, 4.0, 10, 0.2):
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        ray, depth, _, _ = batch_all_hits(seen_from(mesh, origin), dirs)
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
    for origin, dirs in bundles(rng, 4, 3.0, 25, 0.4):
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        ray, depth, face, bary = batch_all_hits(seen_from(mesh, origin), dirs)
        for i, run in enumerate(ray_runs(ray, len(dirs))):
            oracle = ray_triangle_hits_oracle(mesh.vertices, mesh.faces, origin, dirs[i])
            assert len(depth[run]) == len(oracle)
            for t, f, b, (t_want, f_want, b_want) in zip(depth[run], face[run], bary[run],
                                                         oracle):
                assert abs(t - t_want) < 1e-9
                assert f == f_want
                assert np.allclose(b, b_want, atol=1e-9)


def test_batch_first_hits_matches_single(rng):
    mesh = icosphere_mesh(2)
    for origin, dirs in bundles(rng, 4, 3.0, 10, 0.3):
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        dirs[-2:] *= -1.0  # away from the sphere
        depth, face, bary, ok = batch_first_hits(seen_from(mesh, origin), dirs)
        assert ok.any() and not ok.all()
        for i in range(len(dirs)):
            want = collapsed_hits_oracle(mesh.vertices, mesh.faces, origin, dirs[i], DEPTH_TIE, 1)
            if not want:
                assert not ok[i] and (depth[i], face[i]) == (np.inf, -1)
            else:
                assert ok[i]
                assert depth[i] == pytest.approx(want[0][0], abs=1e-9)
                assert face[i] == want[0][1]
                assert np.allclose(bary[i], want[0][2], atol=1e-9)


def test_batch_all_hits_matches_single(rng):
    mesh = cube_mesh()
    for origin in [0.0, 0.0, -4.0] + rng.normal(size=(3, 3)) * 0.1:
        dirs = [0.0, 0.0, 1.0] + rng.normal(size=(3, 3)) * 0.01
        ray, _, _, _ = batch_all_hits(seen_from(mesh, origin), dirs)
        assert np.all(np.diff(ray) >= 0)
        assert assert_matches_oracle(mesh, origin, dirs) == 2 * len(dirs)


def test_batch_all_hits_respects_cap():
    mesh = cube_mesh()
    inner = cube_mesh(side=0.5)
    both = TriangleMesh(
        np.vstack([mesh.vertices, inner.vertices]),
        np.vstack([mesh.faces, inner.faces + len(mesh.vertices)]),
    )
    ray, depth, face, bary = batch_all_hits(
        seen_from(both, [0.05, 0.04, -4.0]), [[0.0, 0.0, 1.0]], max_hits=3
    )
    assert list(ray) == [0, 0, 0] and len(depth) == len(face) == len(bary) == 3
    assert np.all(np.diff(depth) > 0.0)


def merged(*meshes):
    verts, faces, base = [], [], 0
    for m in meshes:
        verts.append(m.vertices)
        faces.append(m.faces + base)
        base += len(m.vertices)
    return TriangleMesh(np.vstack(verts), np.vstack(faces))


def assert_matches_oracle(mesh, origin, dirs, max_hits=None):
    """Check a cast of rays `dirs` from `origin` against the oracle on `mesh`
    as given; returns the number of hits."""
    ray, depth, face, bary = batch_all_hits(seen_from(mesh, origin), dirs, max_hits=max_hits)
    n_hits = 0
    for run, d in zip(ray_runs(ray, len(dirs)), dirs):
        depths, faces, barys = depth[run], face[run], bary[run]
        want = collapsed_hits_oracle(mesh.vertices, mesh.faces, origin, d, DEPTH_TIE, max_hits)
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
    ray, _, face, _ = batch_all_hits(seen_from(mesh, origin),
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
    depth, face, _, ok = batch_first_hits(seen_from(mesh, [0.1, 0.2, -2.0]), [[0.0, 0.0, 1.0]])
    assert ok[0] and face[0] == 0
    assert depth[0] == pytest.approx(2.0 + 5e-13, abs=1e-15)


def test_kernel_max_hits_cap_vs_oracle(rng):
    mesh = merged(cube_mesh(), cube_mesh(side=0.5), cube_mesh(side=0.25))
    origin = np.array([0.02, 0.03, -4.0])
    dirs = rng.normal(size=(40, 3)) * 0.01 + [0.0, 0.0, 1.0]
    for cap in (1, 2, 5):
        assert assert_matches_oracle(mesh, origin, dirs, max_hits=cap) == cap * len(dirs)
    seen = seen_from(mesh, origin)
    depth, face, bary, ok = batch_first_hits(seen, dirs)
    ray, first_depth, first_face, first_bary = batch_all_hits(seen, dirs, max_hits=1)
    assert ok.all()
    assert np.array_equal(ray, np.arange(len(dirs)))
    assert np.array_equal(depth, first_depth)
    assert np.array_equal(face, first_face)
    assert np.array_equal(bary, first_bary)


def test_kernel_zero_rays_and_distinct_origins(rng):
    mesh = icosphere_mesh(2)
    ray, depth, face, bary = batch_all_hits(mesh, np.empty((0, 3)))
    assert ray.shape == depth.shape == face.shape == (0,) and bary.shape == (0, 3)
    assert ray.dtype == face.dtype == np.int64
    depth, face, bary, ok = batch_first_hits(mesh, np.empty((0, 3)))
    assert depth.shape == face.shape == ok.shape == (0,) and bary.shape == (0, 3)
    hits = sum(assert_matches_oracle(mesh, origin, dirs)
               for origin, dirs in bundles(rng, 2, 3.0, 30, 0.5))
    assert hits > 40


def test_mesh_validation():
    with pytest.raises(ValueError):
        TriangleMesh([[0, 0, 0], [1, 0, 0]], [[0, 1, 2]])
    with pytest.raises(ValueError):  # zero-area face
        TriangleMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])
    for bad in (np.nan, np.inf, -np.inf):  # a NaN area passes the area check
        with pytest.raises(ValueError, match="finite"):
            TriangleMesh([[0, 0, 0], [1, 0, 0], [0, bad, 0]], [[0, 1, 2]])
    # a reshape read these 6 x 2 entries as 4 vertices
    with pytest.raises(ValueError, match=r"\(V, 3\)"):
        TriangleMesh([[0, 0], [0, 1], [0, 0], [0, 1], [0, 0], [0, 0]], [[0, 1, 2]])
    with pytest.raises(ValueError):  # an int cast read face [0, 1, 2]
        TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2.5]])
    TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0.0, 1.0, 2.0]])


def test_transformed_moves_vertices_by_the_pose_and_shares_faces(rng):
    mesh = icosphere_mesh(1)
    pose = random_pose(rng)
    moved = mesh.transformed(pose)
    want = TriangleMesh(pose.transform(mesh.vertices), mesh.faces)
    assert np.array_equal(moved.vertices, want.vertices)
    faces = np.arange(mesh.num_faces)
    barys = rng.dirichlet(np.ones(3), size=mesh.num_faces)
    assert np.array_equal(surface_points(moved, faces, barys), surface_points(want, faces, barys))
    assert moved.faces is mesh.faces


def test_mesh_adopts_read_only_faces_and_copies_writeable_ones():
    mesh = cube_mesh()
    moved = mesh.transformed(SE3Pose(np.diag([1.0, -1.0, -1.0]), [0.0, 0.0, 5.0]))
    assert moved.faces is mesh.faces and not mesh.faces.flags.writeable
    faces = np.array(mesh.faces)
    copied = TriangleMesh(mesh.vertices, faces)
    assert copied.faces is not faces and not copied.faces.flags.writeable
    faces[:] = faces[:, ::-1]
    assert np.array_equal(copied.faces, mesh.faces)
    # a read-only array of another dtype is copied to int64
    narrow = mesh.faces.astype(np.int32)
    narrow.flags.writeable = False
    assert TriangleMesh(mesh.vertices, narrow).faces.dtype == np.int64
    with pytest.raises(ValueError):
        TriangleMesh(mesh.vertices, mesh.faces.ravel())


def test_mesh_builds_one_cast_table_for_its_first_and_all_hit_casts(monkeypatch, rng):
    builds = []
    table = vcsfm.mesh._CastTable
    monkeypatch.setattr(vcsfm.mesh, "_CastTable", lambda m: builds.append(m) or table(m))
    mesh = seen_from(merged(icosphere_mesh(2), cube_mesh(center=(0.0, 0.0, 3.0))),
                     [0.3, -0.2, -4.0])
    dirs = rng.normal(size=(80, 3)) * 0.6 + [-0.3, 0.2, 4.0]
    batch_all_hits(mesh, np.empty((0, 3)))
    assert builds == [] and "_cast_table" not in mesh.__dict__  # built on a first cast
    got = [batch_first_hits(mesh, dirs), batch_all_hits(mesh, dirs, max_hits=3),
           batch_all_hits(mesh, dirs)]
    assert len(builds) == 1 and builds[0] is mesh
    assert len(got[1][0]) > len(dirs)
    fresh = TriangleMesh(mesh.vertices, mesh.faces)
    want = [batch_first_hits(fresh, dirs), batch_all_hits(fresh, dirs, max_hits=3),
            batch_all_hits(fresh, dirs)]
    assert len(builds) == 2 and builds[1] is fresh
    for got_cast, want_cast in zip(got, want):
        for g, w in zip(got_cast, want_cast):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def test_scene_extraction_and_lift_casts_build_no_straddling_faces(monkeypatch):
    # each of these casts is a camera's pixel rays on a mesh posed in front of
    # it, so no face reaches the plane z = 0 and every cast takes the grid path
    tables = []
    table = vcsfm.mesh._CastTable
    monkeypatch.setattr(vcsfm.mesh, "_CastTable", lambda m: tables.append(table(m)) or tables[-1])
    noise = NoiseConfig(pixel_sigma=0.5, outlier_fraction=0.6, prior_rotation_sigma=1.0,
                        prior_translation_sigma=0.01)
    for angle, seed in ((30.0, 1), (180.0, 2)):
        scene = generate_scene(SceneConfig(baseline_angles=(0.0, angle), elevation_range=10.0,
                                           seed=seed), noise)
        a, b = scene.records
        vcs = extract_vcs(a, b, ExtractionParams(
            surface_tolerance=suggest_surface_tolerance(scene.records)))
        tracks, _, _ = lift_vcs_to_tracks(vcs, a, b, *scene.gt_poses, 0, 1)
        assert len(tracks.x1) > 50
    assert len(tables) == 8  # per scene: two camera-frame meshes and two priors
    assert all(len(t.straddle) == 0 and len(t.ahead) for t in tables)


def test_kernel_far_off_axis_backward_and_in_plane_rays_vs_oracle(rng):
    # casts project onto the plane z = 1, the axis +z. Cubes sit 60-89 degrees
    # off it on both sides and one lies behind the origin; a triangle ahead
    # lies in a plane through the origin.
    origin = np.zeros(3)
    axis = np.array([0.0, 0.0, 1.0])
    sphere = icosphere_mesh(2).transformed(SE3Pose(np.eye(3), (0.0, 0.0, 5.0)))
    cubes = [cube_mesh(side=0.5, center=(s * 3.0 * np.sin(th), 0.0, 3.0 * np.cos(th)))
             for th in np.radians([60.0, 75.0, 89.0]) for s in (-1.0, 1.0)]
    in_plane = TriangleMesh([[-0.5, 0.0, 8.0], [0.5, 0.0, 8.0], [0.0, 0.0, 9.0]], [[0, 1, 2]])
    mesh = merged(sphere, *cubes, cube_mesh(center=(0.0, 0.0, -3.0)), in_plane)
    # the sphere lies ahead of the plane z = 0, the cube behind it straddles
    behind = sphere.num_faces + sum(c.num_faces for c in cubes) + np.arange(12)
    assert np.isin(np.arange(sphere.num_faces), mesh._cast_table.ahead).all()
    assert np.isin(behind, mesh._cast_table.straddle).all()

    off_axis = np.vstack([c.vertices.mean(axis=0) + rng.normal(size=(10, 3)) * 0.1
                          for c in cubes])
    angles = np.degrees(np.arccos(off_axis @ axis / np.linalg.norm(off_axis, axis=1)))
    assert angles.min() < 62.0 and angles.max() > 88.0
    backward = [0.0, 0.0, -3.0] + rng.normal(size=(10, 3)) * 0.2
    # rays in the triangle's plane graze it edge-on and hit the sphere behind it
    grazing = np.column_stack([rng.uniform(-0.06, 0.06, 10), np.zeros(10), np.ones(10)])
    forward = [0.0, 0.0, 5.0] + rng.normal(size=(20, 3)) * 0.5
    dirs = np.vstack([off_axis, backward, grazing, forward])
    assert assert_matches_oracle(mesh, origin, dirs) > 2 * len(dirs) - 20
    # a mesh about the origin: its faces with a vertex at or below z = 0 meet
    # every ray, and the rays with z <= 0 meet only those
    assert assert_matches_oracle(cube_mesh(), np.zeros(3), rng.normal(size=(50, 3))) == 50


def test_casts_in_blocks_of_seven_match_one_block(monkeypatch, rng):
    # a sphere ahead of the origin and a cube whose faces straddle the plane
    # z = 0; rays at the sphere, wide of it (misses) and backward at the cube
    mesh = merged(icosphere_mesh(2).transformed(SE3Pose(np.eye(3), (0.0, 0.0, 5.0))),
                  cube_mesh(center=(0.0, 0.0, -3.0)))
    dirs = np.vstack([[0.0, 0.0, 5.0] + rng.normal(size=(200, 3)) * 0.8,
                      [0.0, 0.0, 1.0] + rng.normal(size=(50, 3)) * 3.0,
                      [0.0, 0.0, -3.0] + rng.normal(size=(50, 3)) * 0.1])
    assert len(mesh._cast_table.straddle)
    casts = [lambda: batch_all_hits(mesh, dirs), lambda: batch_all_hits(mesh, dirs, max_hits=2),
             lambda: batch_first_hits(mesh, dirs)]
    want = [cast() for cast in casts]
    _, _, _, ok = want[2]
    assert ok[:200].sum() > 100 and not ok.all() and ok[250:].all()
    monkeypatch.setattr(vcsfm.mesh, "CAST_BLOCK", 7)
    for cast, want_cast in zip(casts, want):
        for g, w in zip(cast(), want_cast):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def test_kernel_matches_oracle_on_a_scene_camera(rng):
    # one clean-160 camera's render rectangle: every pixel on the body's
    # silhouette, where rays graze it, and a sample of the rest, with the
    # render's cap of 4 hits
    scene = generate_scene(SceneConfig(baseline_angles=(0.0, 90.0), elevation_range=10.0,
                                       image_size=(160, 120), focal_length=170.0, seed=1))
    pose, k, dsm = scene.gt_poses[0], scene.records[0].intrinsics, scene.clean_maps[0]
    mesh = scene.gt_mesh.transformed(pose)
    uv = k.denormalize(mesh.vertices[:, :2] / mesh.vertices[:, 2:])
    (u_lo, v_lo), (u_hi, v_hi) = np.floor(uv.min(axis=0)) - 1, np.ceil(uv.max(axis=0)) + 1
    assert 0 <= u_lo and u_hi < dsm.width and 0 <= v_lo and v_hi < dsm.height
    mapped = np.zeros(dsm.height * dsm.width, dtype=bool)
    mapped[dsm.index] = True
    mapped = mapped.reshape(dsm.height, dsm.width)
    ring = np.pad(mapped, 1, mode="edge")
    silhouette = ((ring[:-2, 1:-1] != mapped) | (ring[2:, 1:-1] != mapped)
                  | (ring[1:-1, :-2] != mapped) | (ring[1:-1, 2:] != mapped))
    v, u = np.nonzero(silhouette)
    inside = (u_lo <= u) & (u <= u_hi) & (v_lo <= v) & (v <= v_hi)
    rest = np.column_stack([rng.integers(u_lo, u_hi + 1, 150), rng.integers(v_lo, v_hi + 1, 150)])
    pixels = np.vstack([np.column_stack([u, v])[inside], rest]).astype(np.float64)
    assert inside.all() and len(pixels) >= 300
    dirs = k.pixel_rays(pixels)
    assert assert_matches_oracle(mesh, np.zeros(3), dirs, max_hits=4) > 300
    _, _, _, ok = batch_first_hits(mesh, dirs)
    assert 0.2 < ok.mean() < 0.9
