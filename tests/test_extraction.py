import numpy as np
import pytest

from conftest import unit_square_mesh
from oracles import ray_gap_grid_oracle, vc_extraction_oracle
from vcsfm.errors import InvalidCoordinateError, TopologyMismatchError
from vcsfm.extraction import (
    DenseSurfaceMap,
    ExtractionParams,
    ImageRecord,
    ShapePrior,
    SurfaceIndex,
    VirtualCorrespondence,
    extract_vcs,
    ray_gap,
    suggest_surface_tolerance,
    vc_ray_gap,
)
from vcsfm.geometry import Pixel, Ray, SE3Pose, project_points
from vcsfm.mesh import surface_points
from vcsfm.synthetic import NoiseConfig, SceneConfig, generate_scene

SMALL = dict(image_size=(96, 72), focal_length=110.0)


@pytest.fixture(scope="module")
def opposed_scene():
    return generate_scene(SceneConfig(camera_count=2, baseline_angles=(0.0, 180.0), **SMALL))


@pytest.fixture(scope="module")
def narrow_scene():
    return generate_scene(SceneConfig(camera_count=2, baseline_angles=(0.0, 25.0), **SMALL))


@pytest.fixture(scope="module")
def cropped_scene():
    # the body runs past the frame, so some matches reproject outside it
    return generate_scene(SceneConfig(camera_count=2, baseline_angles=(0.0, 25.0),
                                      fill_fraction=1.3, **SMALL))


def scene_params(scene):
    return ExtractionParams(surface_tolerance=suggest_surface_tolerance(scene.records))


# ---------------------------------------------------------------- index


def sparse_map(rng, width, height, fraction=0.3):
    """A map with random entries and some rows and columns left empty."""
    faces = np.where(rng.random((height, width)) < fraction,
                     rng.integers(0, 2, (height, width)), -1)
    faces[1] = -1
    faces[:, [0, width // 2]] = -1
    barys = rng.dirichlet(np.ones(3), size=(height, width))
    return DenseSurfaceMap(faces, barys)


def test_mapped_pixels_match_two_dimensional_nonzero(rng):
    for dsm in (sparse_map(rng, 13, 7), sparse_map(rng, 5, 11), DenseSurfaceMap.empty(9, 4)):
        want = np.column_stack(np.nonzero(dsm.faces >= 0)[::-1])
        got = dsm.mapped_pixels()
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        v, u = np.divmod(dsm.mapped_index(), dsm.width)
        assert np.array_equal(np.column_stack([u, v]), want)
    assert DenseSurfaceMap.empty(9, 4).mapped_pixels().shape == (0, 2)


def test_strided_mapped_pixels_match_modulo_filter(rng):
    dsm = sparse_map(rng, 17, 13, fraction=0.6)
    pix = dsm.mapped_pixels()
    for stride in range(1, 6):
        want = pix[(pix[:, 0] % stride == 0) & (pix[:, 1] % stride == 0)]
        got = dsm.mapped_pixels(stride)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_dense_map_rejects_bad_weights_of_mapped_pixels():
    faces = np.full((3, 4), -1)
    faces[1, 2] = 0
    barys = np.zeros((3, 4, 3))
    barys[1, 2] = [0.2, 0.3, 0.5]
    DenseSurfaceMap(faces, barys)
    for bad in ([0.5, 0.5, 0.5], [-0.2, 0.6, 0.6], [np.nan, 0.5, 0.5], [0.0, 0.0, 0.0]):
        barys[1, 2] = bad
        with pytest.raises(InvalidCoordinateError):
            DenseSurfaceMap(faces, barys)
    barys[1, 2] = [-5e-10, 0.5, 0.5 + 5e-10]  # within the 1e-9 slack
    DenseSurfaceMap(faces, barys)


def test_dense_map_ignores_weights_of_unmapped_pixels(rng):
    faces = np.full((3, 4), -1)
    barys = rng.normal(size=(3, 4, 3)) * 5.0
    barys[2, 3] = np.nan
    assert DenseSurfaceMap(faces, barys).num_mapped == 0
    faces[0, 0] = 1
    barys[0, 0] = [1.0, 0.0, 0.0]
    assert DenseSurfaceMap(faces, barys).num_mapped == 1


def test_surface_index_gathers_entries_in_row_major_order(rng):
    dsm = sparse_map(rng, 13, 7)
    mesh = unit_square_mesh()
    idx = SurfaceIndex(dsm, mesh)
    pix = dsm.mapped_pixels()
    u, v = pix[:, 0], pix[:, 1]
    assert np.array_equal(idx.pixels, pix)
    assert np.array_equal(idx.positions, surface_points(mesh, dsm.faces[v, u], dsm.barys[v, u]))



def test_surface_index_matches_linear_scan(opposed_scene, rng):
    rec = opposed_scene.records[0]
    dsm = rec.surface_map
    mesh = rec.prior_mesh
    idx = SurfaceIndex(dsm, mesh)
    pix = dsm.mapped_pixels()
    pos_all = surface_points(mesh, dsm.faces[pix[:, 1], pix[:, 0]], dsm.barys[pix[:, 1], pix[:, 0]])
    # one query steps straight back from the deepest entry (positive depth):
    # the step is exact, so that entry sits exactly at the tolerance and no
    # other entry is as close
    back = int(pos_all[:, 2].argmax())
    at_tol = pos_all[back] + [0.0, 0.0, 0.05]
    tol = at_tol[2] - pos_all[back, 2]
    queries = pos_all[rng.integers(0, len(pix), 100)] + rng.normal(scale=0.03, size=(100, 3))
    queries = np.vstack([queries, at_tol])
    dist, got = idx.nearest(queries, tol)
    for q, d, i in zip(queries, dist, got):
        scan = np.sqrt(((pos_all - q) ** 2).sum(axis=1))
        j = int(np.argmin(scan))
        if scan[j] <= tol:
            assert (d, i) == (scan[j], j)
        else:
            assert (d, i) == (np.inf, len(idx))
    assert (dist[-1], got[-1]) == (tol, back)
    assert np.isinf(dist).any() and np.isfinite(dist[:-1]).any()
    # one ulp beyond the tolerance: the tree's squared bound can still admit
    # an entry whose rounded distance exceeds the tolerance
    for q in queries:
        sq = ((pos_all - q) ** 2).sum(axis=1)
        j = int(np.argmin(sq))
        d = np.sqrt(sq[j])
        if d * d > sq[j]:
            break
    else:
        pytest.fail("no query with a rounded-up distance")
    dist, got = idx.nearest(q, np.nextafter(d, 0.0))
    assert (dist[0], got[0]) == (np.inf, len(idx))


def test_surface_index_of_empty_map_finds_nothing():
    idx = SurfaceIndex(DenseSurfaceMap.empty(8, 8), unit_square_mesh())
    dist, got = idx.nearest(np.zeros((2, 3)), 10.0)
    assert len(idx) == 0 and np.all(dist == np.inf) and np.all(got == len(idx))


# ---------------------------------------------------------------- extraction


def test_self_extraction_reproduces_identity(opposed_scene):
    rec = opposed_scene.records[0]
    params = scene_params(opposed_scene)
    vcs = extract_vcs(rec, rec, params)
    by_pixel = {
        (round(v.pixel_a.u), round(v.pixel_a.v)): v for v in vcs if v.hit_rank == 0
    }
    pix = rec.surface_map.mapped_pixels()
    sampled = pix[(pix[:, 0] % params.stride == 0) & (pix[:, 1] % params.stride == 0)]
    assert len(sampled) > 20
    for u, v in sampled:
        vc = by_pixel.get((u, v))
        assert vc is not None, f"missing identity VC at ({u}, {v})"
        assert abs(vc.pixel_a.u - u) < 1e-6 and abs(vc.pixel_a.v - v) < 1e-6
        assert abs(vc.pixel_b.u - u) < 1e-9 and abs(vc.pixel_b.v - v) < 1e-9


def test_opposed_pair_extraction_sound(opposed_scene):
    a, b = opposed_scene.records
    vcs = extract_vcs(a, b, scene_params(opposed_scene))
    assert len(vcs) > 10
    k = a.intrinsics
    pose_a, pose_b = opposed_scene.gt_poses
    gaps = [vc_ray_gap(vc, pose_a, pose_b, k, k) for vc in vcs]
    assert max(gaps) < 1e-6


def test_opposed_pair_has_nonzero_ranks(opposed_scene):
    a, b = opposed_scene.records
    vcs = extract_vcs(a, b, scene_params(opposed_scene))
    assert any(vc.hit_rank > 0 for vc in vcs)


def test_empty_observer_map_yields_nothing(opposed_scene):
    a, b = opposed_scene.records
    empty = ImageRecord(
        image_id=b.image_id,
        intrinsics=b.intrinsics,
        priors=(
            ShapePrior(
                person_id=0,
                mesh=b.prior_mesh,
                surface_map=DenseSurfaceMap.empty(b.surface_map.width, b.surface_map.height),
            ),
        ),
    )
    assert extract_vcs(a, empty, scene_params(opposed_scene)) == []


def test_rays_that_miss_yield_nothing(opposed_scene):
    # both priors moved far to the side: no sampled ray meets either mesh
    aside = SE3Pose(np.eye(3), [100.0, 0.0, 0.0])
    a, b = (ImageRecord(r.image_id, r.intrinsics, r.priors, prior_pose=aside)
            for r in opposed_scene.records)
    assert extract_vcs(a, b, scene_params(opposed_scene)) == []


@pytest.mark.parametrize("scene, change", [
    pytest.param(scene, change, id=f"{scene}-{name}")
    for scene in ("opposed_scene", "narrow_scene")
    for name, change in (("defaults", {}), ("cap1", {"max_per_pixel": 1}), ("stride2", {"stride": 2}))
] + [pytest.param("cropped_scene", {}, id="cropped_scene-defaults")])
def test_extraction_matches_dense_oracle(scene, change, request):
    scene = request.getfixturevalue(scene)
    a, b = scene.records
    params = ExtractionParams(
        surface_tolerance=suggest_surface_tolerance(scene.records), **change
    )
    got = extract_vcs(a, b, params)
    want = vc_extraction_oracle(a, b, params)
    assert len(got) > 20
    assert got == want  # dataclass equality: every field, depths bit for bit


def test_extraction_symmetry_under_role_swap(opposed_scene):
    a, b = opposed_scene.records
    params = scene_params(opposed_scene)
    ab = extract_vcs(a, b, params)
    ba = extract_vcs(b, a, params)

    def key_set(vcs, swap):
        out = set()
        for v in vcs:
            pa, pb = (v.pixel_b, v.pixel_a) if swap else (v.pixel_a, v.pixel_b)
            out.add((pa.u, pa.v, pb.u, pb.v, v.hit_rank))
        return out

    assert key_set(ab, swap=False) == key_set(ba, swap=True)


def test_extraction_deterministic(opposed_scene):
    a, b = opposed_scene.records
    params = scene_params(opposed_scene)
    assert extract_vcs(a, b, params) == extract_vcs(a, b, params)


def test_classic_subsumption(narrow_scene):
    a, b = narrow_scene.records
    params = scene_params(narrow_scene)
    vcs = extract_vcs(a, b, params)
    rank0 = [v for v in vcs if v.hit_rank == 0]
    # the invariant's precondition is "present in both maps": keep oracle
    # pairs whose surface point has a map entry within tolerance in b too
    # (grazing silhouette points may genuinely be unresolved in b's map)
    mesh_a = a.posed_mesh(0)
    index_b = SurfaceIndex(b.surface_map, mesh_a)
    classic = []
    for c in narrow_scene.classic_oracle_pairs(0, 1):
        u, v = round(c.pixel_a.u), round(c.pixel_a.v)
        pos = surface_points(mesh_a, [a.surface_map.faces[v, u]], [a.surface_map.barys[v, u]])
        dist, _ = index_b.nearest(pos, params.surface_tolerance)
        if dist[0] <= params.surface_tolerance:
            classic.append(c)
    assert len(classic) > 10
    missing = 0
    for c in classic:
        found = any(
            abs(v.pixel_a.u - c.pixel_a.u) <= 2.0
            and abs(v.pixel_a.v - c.pixel_a.v) <= 2.0
            and abs(v.pixel_b.u - c.pixel_b.u) <= 2.0
            and abs(v.pixel_b.v - c.pixel_b.v) <= 2.0
            for v in rank0
        )
        missing += not found
    assert missing == 0, f"{missing}/{len(classic)} co-visible pairs not recovered"


def test_per_pixel_cap_respected(opposed_scene):
    a, b = opposed_scene.records
    params = ExtractionParams(
        surface_tolerance=suggest_surface_tolerance(opposed_scene.records),
        max_per_pixel=1,
    )
    vcs = extract_vcs(a, b, params)
    seen = {}
    for v in vcs:
        key = (v.source, round(v.pixel_a.u if v.source == a.image_id else v.pixel_b.u, 3),
               round(v.pixel_a.v if v.source == a.image_id else v.pixel_b.v, 3))
        seen[key] = seen.get(key, 0) + 1
    assert max(seen.values()) <= 1


def test_topology_mismatch_raises(opposed_scene):
    a, b = opposed_scene.records
    square = unit_square_mesh()
    bad = ImageRecord(
        image_id="bad",
        intrinsics=b.intrinsics,
        priors=(
            ShapePrior(
                person_id=0,
                mesh=square,
                surface_map=DenseSurfaceMap.empty(b.surface_map.width, b.surface_map.height),
            ),
        ),
    )
    with pytest.raises(TopologyMismatchError):
        extract_vcs(a, bad)


def test_multi_person_matching_restricted(opposed_scene):
    a, b = opposed_scene.records
    params = scene_params(opposed_scene)
    # person 1 exists only in record a: contributes nothing
    a_two = ImageRecord(
        image_id=a.image_id,
        intrinsics=a.intrinsics,
        priors=(
            a.priors[0],
            ShapePrior(person_id=1, mesh=a.prior_mesh, surface_map=a.surface_map),
        ),
    )
    vcs_two = extract_vcs(a_two, b, params)
    vcs_one = extract_vcs(a, b, params)
    assert vcs_two == vcs_one
    # shared person 1 doubles the correspondences (identical copies of person 0)
    b_two = ImageRecord(
        image_id=b.image_id,
        intrinsics=b.intrinsics,
        priors=(
            b.priors[0],
            ShapePrior(person_id=1, mesh=b.prior_mesh, surface_map=b.surface_map),
        ),
    )
    vcs_both = extract_vcs(a_two, b_two, params)
    assert len(vcs_both) == 2 * len(vcs_one)
    assert {v.person_id for v in vcs_both} == {0, 1}


# ---------------------------------------------------------------- ray gap


def test_ray_gap_intersecting_rays():
    p = np.array([1.0, 2.0, 3.0])
    ray_a = Ray([0.0, 0.0, 0.0], p)
    ray_b = Ray([4.0, 0.0, 0.0], p - np.array([4.0, 0.0, 0.0]))
    assert ray_gap(ray_a, ray_b) < 1e-12


def test_ray_gap_parallel_offset():
    a = Ray([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    b = Ray([0.7, 0.0, 0.0], [0.0, 0.0, 1.0])
    assert ray_gap(a, b) == pytest.approx(0.7, abs=1e-12)


def test_ray_gap_respects_halfline_clamp():
    # closest approach of the infinite lines would be behind both origins
    a = Ray([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    b = Ray([1.0, 0.0, -5.0], [0.0, 1.0, 0.0])
    assert ray_gap(a, b) == pytest.approx(np.sqrt(1.0 + 25.0), abs=1e-9)


def test_ray_gap_matches_grid_oracle(rng):
    for _ in range(25):
        o1 = rng.normal(size=3)
        o2 = rng.normal(size=3)
        d1 = rng.normal(size=3)
        d2 = rng.normal(size=3)
        d1 /= np.linalg.norm(d1)
        d2 /= np.linalg.norm(d2)
        got = ray_gap(Ray(o1, d1), Ray(o2, d2))
        want = ray_gap_grid_oracle(o1, d1, o2, d2)
        assert got <= want + 1e-9
        assert got == pytest.approx(want, abs=1e-6)


def test_ray_gap_nearly_opposed_rays():
    # two opposed cameras 6 apart whose rays meet 1e-4 off the line joining them
    oa, ob = np.array([0.0, 0.0, -3.0]), np.array([0.0, 0.0, 3.0])
    for p in ([1e-4, 0.0, 0.0], [0.0, -1e-4, 1.2], [7e-5, 7e-5, -2.0]):
        p = np.array(p)
        ray_a = Ray(oa, p - oa)
        assert ray_gap(ray_a, Ray(ob, p - ob)) < 1e-9
        for offset in (1e-3, 0.05):
            ray_b = Ray(ob + [0.0, offset, 0.0], p - ob)
            got = ray_gap(ray_a, ray_b)
            want = ray_gap_grid_oracle(ray_a.origin, ray_a.direction, ray_b.origin, ray_b.direction)
            assert got <= want + 1e-9
            assert got == pytest.approx(want, abs=1e-6)


def test_vc_ray_gap_same_world_point(rng):
    from conftest import random_intrinsics, random_pose

    tested = 0
    for _ in range(10):
        pose_a, pose_b = random_pose(rng), random_pose(rng)
        k_a, k_b = random_intrinsics(rng), random_intrinsics(rng)
        x = pose_a.inverse_transform([0.1, -0.2, rng.uniform(1.0, 4.0)])
        pa, za = project_points(pose_a, k_a, x)
        pb, zb = project_points(pose_b, k_b, x)
        if not (za > 0.0 and zb > 0.0):
            continue
        vc = VirtualCorrespondence(pixel_a=Pixel(*pa), pixel_b=Pixel(*pb), hit_rank=0, source="a")
        assert vc_ray_gap(vc, pose_a, pose_b, k_a, k_b) < 1e-9
        tested += 1
    assert tested


def test_suggest_surface_tolerance_scales(opposed_scene):
    tol = suggest_surface_tolerance(opposed_scene.records)
    # footprint = depth / focal; the scene is built so this is a few cm
    assert 0.02 < tol < 0.2
    assert suggest_surface_tolerance([]) == 0.01


def test_suggest_surface_tolerance_equals_full_surface_points(rng):
    """The depth-only median is bit for bit that of the full 3-D points."""
    base = generate_scene(SceneConfig(camera_count=2, baseline_angles=(0.0, 90.0), **SMALL),
                          NoiseConfig(pixel_sigma=0.5, outlier_fraction=0.2,
                                      prior_rotation_sigma=1.0, prior_translation_sigma=0.01))
    k = base.records[0].intrinsics
    shifted = ImageRecord("shifted", k, base.records[1].priors,
                          prior_pose=SE3Pose(np.eye(3), np.array([0.01, -0.02, 0.3])))
    for records in (base.records, [base.records[0], shifted]):
        footprints = []
        for rec in records:
            dsm = rec.surface_map
            pix = dsm.mapped_pixels()
            pos = surface_points(rec.posed_mesh(0), dsm.faces[pix[:, 1], pix[:, 0]],
                                 dsm.barys[pix[:, 1], pix[:, 0]])
            footprints.append(float(np.median(pos[:, 2])) / k.fx)
        want = max(0.01, 1.6 * float(np.median(footprints)))
        assert suggest_surface_tolerance(records) == want
