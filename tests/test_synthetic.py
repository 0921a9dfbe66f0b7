import numpy as np
import pytest

import vcsfm.mesh
import vcsfm.synthetic
from conftest import entry_index, seen_from
from oracles import collapsed_hits_oracle, world_frame_oracle
from vcsfm.extraction import ray_gap
from vcsfm.geometry import Pixel, project_points, ray_through_pixel, SE3Pose
from vcsfm.mesh import DEPTH_TIE, RayGrid, batch_all_hits, batch_first_hits, surface_points
from vcsfm.synthetic import (
    GtCorrespondence,
    NoiseConfig,
    SceneConfig,
    builtin_proxy_mesh,
    generate_scene,
)

SMALL = dict(image_size=(96, 72), focal_length=110.0)


def test_proxy_mesh_is_closed_and_sized(rng):
    mesh = builtin_proxy_mesh()
    assert 1000 < mesh.num_faces < 3500
    origins = rng.normal(size=(4, 3))
    hits = 0
    for origin in origins / np.linalg.norm(origins, axis=1, keepdims=True) * 4.0:
        dirs = rng.normal(size=(15, 3)) * 0.3 - origin
        ray, _, _, _ = batch_all_hits(seen_from(mesh, origin), dirs)
        assert np.all(np.bincount(ray, minlength=len(dirs)) % 2 == 0)
        hits += len(ray)
    assert hits


def test_proxy_mesh_is_asymmetric():
    mesh = builtin_proxy_mesh()
    v = mesh.vertices
    # single arm on +x, front lobe on +z: reflections change the shape
    assert v[:, 0].max() > 0.4 and v[:, 0].min() > -0.4
    assert v[:, 2].max() > 0.15


def test_scene_opposed_pair_oracle_nonempty_and_exact():
    scene = generate_scene(
        SceneConfig(camera_count=2, baseline_angles=(0.0, 180.0), **SMALL)
    )
    assert len(scene.oracle) > 0
    k = scene.records[0].intrinsics
    for c in scene.oracle:
        ray_a = ray_through_pixel(scene.gt_poses[c.cam_a], k, c.pixel_a)
        ray_b = ray_through_pixel(scene.gt_poses[c.cam_b], k, c.pixel_b)
        assert ray_gap(ray_a, ray_b) < 1e-9


def test_oracle_records_are_typed_tuples_equal_to_constructed_ones():
    scene = generate_scene(SceneConfig(camera_count=3, **SMALL))
    assert scene.oracle
    for c in scene.oracle:
        assert type(c) is GtCorrespondence and type(c.pixel_a) is Pixel
        assert all(type(x) is float for x in (*c.pixel_a, *c.pixel_b))
        assert all(type(x) is int for x in (c.cam_a, c.cam_b, c.rank_a))
        assert c.point.shape == (3,) and c.point.dtype == np.float64
        assert c == GtCorrespondence(c.cam_a, c.cam_b, Pixel(*c.pixel_a), Pixel(*c.pixel_b),
                                     c.point, c.rank_a)


def test_scene_opposed_pair_has_no_classic_matches():
    scene = generate_scene(
        SceneConfig(camera_count=2, baseline_angles=(0.0, 180.0), **SMALL)
    )
    pairs = [c for c in scene.oracle if (c.cam_a, c.cam_b) == (0, 1)]
    assert len(pairs) > 0
    assert not any(c.rank_a == 0 for c in pairs)


def test_scene_narrow_baseline_has_classic_matches():
    scene = generate_scene(
        SceneConfig(camera_count=2, baseline_angles=(0.0, 20.0), **SMALL)
    )
    assert sum((c.cam_a, c.cam_b, c.rank_a) == (0, 1, 0) for c in scene.oracle) > 10


def test_rendered_map_is_self_consistent():
    scene = generate_scene(SceneConfig(camera_count=2, **SMALL))
    rec = scene.records[0]
    mesh_cam = scene.gt_mesh.transformed(scene.gt_poses[0])
    dsm = scene.clean_maps[0]
    pix = dsm.mapped_pixels()[::7]
    e = entry_index(dsm, pix)
    pos = surface_points(mesh_cam, dsm.faces[e], dsm.barys[e])
    uv, depth = project_points(SE3Pose.identity(), rec.intrinsics, pos)
    assert np.all(depth > 0)
    assert np.abs(uv - pix).max() < 1e-6


def test_proxy_mesh_is_built_once():
    assert builtin_proxy_mesh() is builtin_proxy_mesh()
    assert not builtin_proxy_mesh().vertices.flags.writeable


def assert_scenes_equal(a, b):
    for ra, rb in zip(a.records, b.records, strict=True):
        ma, mb = ra.priors[0].surface_map, rb.priors[0].surface_map
        assert np.array_equal(ma.index, mb.index)
        assert np.array_equal(ma.faces, mb.faces)
        assert np.array_equal(ma.barys, mb.barys)
        assert np.array_equal(ra.priors[0].mesh.vertices, rb.priors[0].mesh.vertices)
    for pa, pb in zip(a.gt_poses, b.gt_poses, strict=True):
        assert np.array_equal(pa.rotation, pb.rotation)
        assert np.array_equal(pa.translation, pb.translation)
    for ca, cb in zip(a.oracle, b.oracle, strict=True):
        assert (ca.cam_a, ca.cam_b, ca.pixel_a, ca.pixel_b, ca.rank_a) == (
            cb.cam_a, cb.cam_b, cb.pixel_a, cb.pixel_b, cb.rank_a)
        assert np.array_equal(ca.point, cb.point)


def test_scene_from_shared_proxy_mesh_equals_scene_from_fresh_mesh(monkeypatch):
    cfg = SceneConfig(camera_count=2, baseline_angles=(0.0, 150.0), seed=5, **SMALL)
    noise = NoiseConfig(pixel_sigma=0.5, prior_rotation_sigma=1.0, outlier_fraction=0.1)
    shared = generate_scene(cfg, noise)
    assert shared.gt_mesh is builtin_proxy_mesh()
    monkeypatch.setattr(vcsfm.synthetic, "builtin_proxy_mesh", builtin_proxy_mesh.__wrapped__)
    fresh = generate_scene(cfg, noise)
    assert fresh.gt_mesh is not shared.gt_mesh
    assert_scenes_equal(shared, fresh)


@pytest.mark.parametrize("camera_count", [2, 3])
def test_scene_builds_one_cast_table_per_camera(monkeypatch, camera_count):
    built = []
    table = vcsfm.mesh._CastTable

    def counted(mesh):
        built.append(mesh)
        return table(mesh)

    monkeypatch.setattr(vcsfm.mesh, "_CastTable", counted)
    monkeypatch.setattr(vcsfm.synthetic, "builtin_proxy_mesh", builtin_proxy_mesh.__wrapped__)
    cfg = SceneConfig(camera_count=camera_count, elevation_range=10.0, seed=4, **SMALL)
    scene = generate_scene(cfg, NoiseConfig(pixel_sigma=0.5))
    assert len(scene.oracle) > 0
    assert len(built) == len({id(m) for m in built}) == camera_count
    assert "_cast_table" not in scene.gt_mesh.__dict__  # the world-frame mesh is never cast


@pytest.mark.parametrize("cfg, noise", [
    *((SceneConfig(baseline_angles=(0.0, a), **SMALL), NoiseConfig()) for a in (30.0, 90.0, 180.0)),
    (SceneConfig(camera_count=3, elevation_range=10.0, seed=42, **SMALL),
     NoiseConfig(pixel_sigma=0.5, prior_rotation_sigma=1.0, outlier_fraction=0.1)),
], ids=["30", "90", "180", "3-cam-noisy"])
def test_oracle_matches_world_frame_oracle(cfg, noise):
    scene = generate_scene(cfg, noise)
    want = world_frame_oracle(scene)
    assert len(scene.oracle) == len(want) > 0
    for got, ref in zip(scene.oracle, want):
        assert (got.cam_a, got.cam_b, got.pixel_a, got.rank_a) == (
            ref.cam_a, ref.cam_b, ref.pixel_a, ref.rank_a)
        assert np.abs(got.point - ref.point).max() <= 1e-12
        assert max(abs(got.pixel_b.u - ref.pixel_b.u), abs(got.pixel_b.v - ref.pixel_b.v)) <= 1e-9


def test_scene_determinism_byte_identical():
    cfg = SceneConfig(camera_count=3, elevation_range=10.0, seed=42, **SMALL)
    noise = NoiseConfig(pixel_sigma=0.5, prior_rotation_sigma=1.0, outlier_fraction=0.1)
    assert_scenes_equal(generate_scene(cfg, noise), generate_scene(cfg, noise))


def test_pixel_jitter_displacement_statistics():
    cfg = SceneConfig(camera_count=2, seed=3, **SMALL)
    clean = generate_scene(cfg, NoiseConfig())
    noisy = generate_scene(cfg, NoiseConfig(pixel_sigma=1.0))
    mesh_cam = clean.gt_mesh.transformed(clean.gt_poses[0])
    dsm_c = clean.clean_maps[0]
    dsm_n = noisy.records[0].priors[0].surface_map
    pix = dsm_c.mapped_pixels()
    ec, en = entry_index(dsm_c, pix), entry_index(dsm_n, pix)
    assert np.all(en >= 0)  # jitter keeps every mapped pixel
    pc = surface_points(mesh_cam, dsm_c.faces[ec], dsm_c.barys[ec])
    pn = surface_points(mesh_cam, dsm_n.faces[en], dsm_n.barys[en])
    disp = pn - pc
    moved = np.linalg.norm(disp, axis=1) > 0
    assert moved.mean() > 0.5  # most entries displaced
    n = len(disp)
    sigma = disp.std(axis=0)
    assert np.all(np.abs(disp.mean(axis=0)) < 3.0 * sigma / np.sqrt(n) + 1e-12)


def test_outlier_injection_fraction():
    cfg = SceneConfig(camera_count=2, seed=5, **SMALL)
    clean = generate_scene(cfg, NoiseConfig())
    noisy = generate_scene(cfg, NoiseConfig(outlier_fraction=0.3))
    dsm_c = clean.clean_maps[0]
    dsm_n = noisy.records[0].priors[0].surface_map
    pix = dsm_c.mapped_pixels()
    en = entry_index(dsm_n, pix)
    assert np.all(en >= 0)  # outliers keep every mapped pixel
    changed = dsm_n.faces[en] != dsm_c.faces[entry_index(dsm_c, pix)]
    # a random face coincides with the original rarely; 0.3 +- sampling noise
    assert 0.2 < changed.mean() < 0.4


def test_outlier_injection_that_draws_no_outlier_keeps_the_map_and_the_stream():
    dsm = generate_scene(SceneConfig(camera_count=2, seed=5, **SMALL)).clean_maps[0]
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    out = vcsfm.synthetic._inject_outliers(dsm, 100, 1e-12, rng)
    ref.random(len(dsm.faces))  # the mask's draws, and nothing after them
    assert rng.bit_generator.state == ref.bit_generator.state
    for got, want in ((out.index, dsm.index), (out.faces, dsm.faces), (out.barys, dsm.barys)):
        assert np.array_equal(got, want)


def test_look_at_pose_looking_along_its_up_vector_is_a_rotation():
    # from above, forward is -up, so right is forward x the x axis, +z
    pose = vcsfm.synthetic._look_at_pose([0.0, 5.0, 0.0], [0.0, 0.0, 0.0])
    assert np.allclose(pose.rotation @ pose.rotation.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(pose.rotation) == pytest.approx(1.0)
    assert np.allclose(pose.transform([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
                       [[0.0, 0.0, 5.0], [1.0, 0.0, 5.0], [0.0, -1.0, 5.0]], atol=1e-12)


def test_prior_perturbation_applied():
    cfg = SceneConfig(camera_count=2, seed=6, **SMALL)
    clean = generate_scene(cfg, NoiseConfig())
    noisy = generate_scene(cfg, NoiseConfig(prior_rotation_sigma=2.0,
                                            prior_translation_sigma=0.02,
                                            prior_scale_sigma=0.02))
    for rc, rn, pose in zip(clean.records, noisy.records, clean.gt_poses):
        assert not np.allclose(rc.priors[0].mesh.vertices, rn.priors[0].mesh.vertices)
        # still roughly in place: perturbation is a few percent
        delta = np.linalg.norm(rc.priors[0].mesh.vertices - rn.priors[0].mesh.vertices, axis=1)
        assert delta.max() < 0.5


def test_render_prescreen_matches_full_frame():
    scene = generate_scene(SceneConfig(camera_count=2, **SMALL))
    mesh_cam = scene.gt_mesh.transformed(scene.gt_poses[0])
    k = scene.records[0].intrinsics
    dsm = scene.clean_maps[0]
    # the render casts only the mesh's bounding rectangle; casting every pixel
    # of the frame gives the same map: a missed pixel has no entry, and a hit
    # pixel's entry holds the cast's face
    pix = np.stack(np.meshgrid(np.arange(96.0), np.arange(72.0)), axis=-1).reshape(-1, 2)
    _, face, _, hit = batch_first_hits(mesh_cam, k.pixel_rays(pix))
    e = entry_index(dsm, pix)
    assert np.all(e[~hit] == -1) and np.all(e[hit] >= 0)
    assert np.array_equal(dsm.faces[e[hit]], face[hit])
    assert len(dsm.index) < 0.5 * face.size
    # spot-check pixels against the nearest of all hits of each pixel's ray
    pix = dsm.mapped_pixels()[::17]
    dirs = np.column_stack([k.normalize(pix.astype(float)), np.ones(len(pix))])
    ray, _, face, _ = batch_all_hits(mesh_cam, dirs)
    first = np.searchsorted(ray, np.arange(len(pix)))
    assert np.array_equal(ray[first], np.arange(len(pix)))
    assert np.array_equal(face[first], dsm.faces[entry_index(dsm, pix)])


def test_render_casts_the_pixel_rays_of_its_rectangle_as_a_grid(monkeypatch):
    cast = []

    def recorded(mesh, rays, max_hits=None):
        cast.append((mesh, rays))
        return batch_all_hits(mesh, rays, max_hits)

    monkeypatch.setattr(vcsfm.synthetic, "batch_all_hits", recorded)
    scene = generate_scene(SceneConfig(camera_count=2, elevation_range=10.0, seed=3, **SMALL))
    k = scene.records[0].intrinsics
    # and the full frame of a mesh that reaches behind the camera
    near = scene.gt_mesh.transformed(SE3Pose(np.eye(3), (0.0, 0.0, 0.1)))
    assert near.vertices[:, 2].min() < 0.0
    vcsfm.synthetic._render(near, k, 96, 72)
    assert len(cast) == 3
    for mesh, grid in cast:
        assert isinstance(grid, RayGrid)
        if mesh is near:
            (u_lo, v_lo), (u_hi, v_hi) = (0, 0), (95, 71)
        else:
            uv = k.project(mesh.vertices)
            (u_lo, v_lo), (u_hi, v_hi) = np.floor(uv.min(axis=0)) - 1, np.ceil(uv.max(axis=0)) + 1
            assert 0 < u_lo < u_hi < 95 and 0 < v_lo < v_hi < 71
        pix = np.stack(np.meshgrid(np.arange(u_lo, u_hi + 1), np.arange(v_lo, v_hi + 1)),
                       axis=-1).reshape(-1, 2)
        assert np.array_equal(grid.directions(), k.pixel_rays(pix))


def test_render_matches_per_pixel_oracle():
    scene = generate_scene(SceneConfig(camera_count=2, baseline_angles=(0.0, 120.0),
                                       image_size=(32, 24), focal_length=40.0,
                                       fill_fraction=0.8))
    for cam, pose in enumerate(scene.gt_poses):
        mesh_cam = scene.gt_mesh.transformed(pose)
        k = scene.records[cam].intrinsics
        dsm = scene.clean_maps[cam]
        assert len(dsm.index) > 150
        for v in range(24):
            for u in range(32):
                d = np.append(k.normalize(np.array([u, v], dtype=float)), 1.0)
                want = collapsed_hits_oracle(mesh_cam.vertices, mesh_cam.faces, np.zeros(3), d,
                                             DEPTH_TIE, max_hits=1)
                e = entry_index(dsm, (u, v))
                if not want:
                    assert e == -1
                    continue
                _, face, bary = want[0]
                assert e >= 0 and dsm.faces[e] == face
                assert np.allclose(dsm.barys[e], bary, atol=1e-9)


def test_scene_config_keeps_its_image_size_as_a_tuple():
    # a list stayed open to appends after its check, and unhashable
    config = SceneConfig(image_size=[160, 120])
    assert config.image_size == (160, 120) and hash(config) == hash(SceneConfig())


def test_scene_config_validation():
    with pytest.raises(ValueError):
        SceneConfig(camera_count=1)
    with pytest.raises(ValueError):
        SceneConfig(camera_count=2, baseline_angles=(0.0,))
    with pytest.raises(ValueError):
        SceneConfig(camera_count=2, baseline_angles=(0.0, 400.0))
    for bad in ({"image_size": (0, 120)}, {"image_size": (160, -1)}, {"image_size": (160,)},
                {"image_size": (160.0, 120)}, {"image_size": (160, 120, 3)},
                {"focal_length": 0.0}, {"focal_length": -170.0}, {"focal_length": np.inf},
                {"fill_fraction": 0.0}, {"fill_fraction": -0.3}, {"fill_fraction": np.inf},
                {"elevation_range": np.nan}, {"elevation_range": np.inf},
                {"image_size": (True, 120)}, {"image_size": (160, True)}):
        with pytest.raises(ValueError):
            SceneConfig(camera_count=2, **bad)
    SceneConfig(camera_count=2, image_size=(np.int64(160), 120))
    # 2.5 and 2.0 constructed, then failed inside numpy in generate_scene
    for count in (2.5, 2.0, True, np.int64(1)):
        with pytest.raises(ValueError):
            SceneConfig(camera_count=count)
    assert SceneConfig(camera_count=np.int64(3)).angles() == (0.0, 120.0, 240.0)
    with pytest.raises(ValueError):
        NoiseConfig(outlier_fraction=1.0)
    with pytest.raises(ValueError):
        NoiseConfig(pixel_sigma=-1.0)
    # NaN passes a test for v < 0 in every field; an infinite pixel sigma
    # would leave the clean maps as they are
    for field in ("pixel_sigma", "prior_rotation_sigma", "prior_translation_sigma",
                  "prior_scale_sigma", "outlier_fraction"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                NoiseConfig(**{field: bad})
