import dataclasses

import numpy as np
import pytest

import vcsfm.extraction
from conftest import entry_index, unit_square_mesh
from oracles import (
    mutual_nearest_oracle,
    pairs_within_oracle,
    ray_gap_grid_oracle,
    vc_extraction_oracle,
)
from vcsfm.errors import InvalidCoordinateError, TopologyMismatchError
from vcsfm.extraction import (
    DenseSurfaceMap,
    ExtractionParams,
    ImageRecord,
    ShapePrior,
    VirtualCorrespondence,
    _cast_one_direction,
    _first_of_equal_rows,
    _mutual_nearest,
    _pairs_within,
    extract_vcs,
    ray_gap,
    suggest_surface_tolerance,
    vc_ray_gap,
)
from vcsfm.geometry import CameraIntrinsics, Pixel, Ray, SE3Pose, project_points
from vcsfm.mesh import TriangleMesh, surface_points
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


def empty_map(width, height):
    """A map with no mapped pixel."""
    return DenseSurfaceMap(width, height, [], [], np.zeros((0, 3)))


def map_from_images(faces, barys):
    """The map of a face image (-1 where unmapped) and a weight image."""
    index = np.flatnonzero(faces >= 0)
    height, width = faces.shape
    return DenseSurfaceMap(width, height, index, faces.ravel()[index],
                           barys.reshape(-1, 3)[index])


def sparse_images(rng, width, height, fraction=0.3):
    """Face and weight images with random entries and some rows and columns
    left empty."""
    faces = np.where(rng.random((height, width)) < fraction,
                     rng.integers(0, 2, (height, width)), -1)
    faces[1] = -1
    faces[:, [0, width // 2]] = -1
    return faces, rng.dirichlet(np.ones(3), size=(height, width))


def sparse_map(rng, width, height, fraction=0.3):
    return map_from_images(*sparse_images(rng, width, height, fraction))


def test_mapped_pixels_match_two_dimensional_nonzero(rng):
    empty = np.full((4, 9), -1), np.zeros((4, 9, 3))
    for faces, barys in (sparse_images(rng, 13, 7), sparse_images(rng, 5, 11), empty):
        dsm = map_from_images(faces, barys)
        want = np.column_stack(np.nonzero(faces >= 0)[::-1])
        got = dsm.mapped_pixels()
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        v, u = np.divmod(dsm.index, dsm.width)
        assert np.array_equal(np.column_stack([u, v]), want)
    assert empty_map(9, 4).mapped_pixels().shape == (0, 2)


def test_strided_mapped_pixels_match_modulo_filter(rng):
    dsm = sparse_map(rng, 17, 13, fraction=0.6)
    pix = dsm.mapped_pixels()
    for stride in range(1, 6):
        want = pix[(pix[:, 0] % stride == 0) & (pix[:, 1] % stride == 0)]
        got = dsm.mapped_pixels(stride)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(dsm.mapped_pixels(np.int64(3)), dsm.mapped_pixels(3))


@pytest.mark.parametrize("stride", [0, -1, 2.5, 2.0, True, None])
def test_mapped_pixels_rejects_a_stride_that_is_not_an_int_of_at_least_one(stride, rng):
    with pytest.raises(ValueError):
        sparse_map(rng, 9, 7).mapped_pixels(stride)


def test_dense_map_rejects_bad_weights_of_mapped_pixels():
    index, faces = [6], [0]  # pixel (2, 1) of a 4 x 3 image
    barys = np.array([[0.2, 0.3, 0.5]])
    DenseSurfaceMap(4, 3, index, faces, barys)
    for bad in ([0.5, 0.5, 0.5], [-0.2, 0.6, 0.6], [np.nan, 0.5, 0.5], [0.0, 0.0, 0.0]):
        barys[0] = bad
        with pytest.raises(InvalidCoordinateError):
            DenseSurfaceMap(4, 3, index, faces, barys)
    barys[0] = [-5e-10, 0.5, 0.5 + 5e-10]  # within the 1e-9 slack
    DenseSurfaceMap(4, 3, index, faces, barys)


@pytest.mark.parametrize("index, faces, rows, size", [
    pytest.param([5, 3], [0, 1], 2, (4, 3), id="descending"),
    pytest.param([3, 3], [0, 1], 2, (4, 3), id="repeated"),
    pytest.param([-1, 3], [0, 1], 2, (4, 3), id="before-image"),
    pytest.param([3, 12], [0, 1], 2, (4, 3), id="past-image"),
    pytest.param([3, 5], [0, -1], 2, (4, 3), id="negative-face"),
    pytest.param([3, 5], [0], 2, (4, 3), id="faces-length"),
    pytest.param([3, 5], [0, 1], 3, (4, 3), id="barys-length"),
    # an int cast read these as index [0, 2] and face 1
    pytest.param([0.9, 2.7], [0, 1], 2, (4, 3), id="fractional-index"),
    pytest.param(np.array([3.0, np.nan]), [0, 1], 2, (4, 3), id="nan-index"),
    pytest.param([3, 5], [0, 1.5], 2, (4, 3), id="fractional-face"),
    pytest.param([[3, 5]], [[0, 1]], 2, (4, 3), id="index-not-flat"),
    # 4.7 x 3 passes a bounds check of 14.1, and index 5 reads back as (1, 1)
    pytest.param([0, 5], [0, 1], 2, (4.7, 3), id="fractional-width"),
    pytest.param([3, 5], [0, 1], 2, (4, 3.0), id="float-height"),
    pytest.param([3, 5], [0, 1], 2, (-4, -3), id="negative-size"),
    # True passes a test for an int > 0 and builds a map 1 pixel wide
    pytest.param([0, 1], [0, 1], 2, (True, 3), id="bool-width"),
    pytest.param([0, 1], [0, 1], 2, (4, True), id="bool-height"),
])
def test_dense_map_rejects_invalid_entries(index, faces, rows, size):
    barys = np.tile([0.2, 0.3, 0.5], (rows, 1))
    DenseSurfaceMap(4, 3, [3, 5], [0, 1], barys[:2])
    with pytest.raises(ValueError):
        DenseSurfaceMap(*size, index, faces, barys)


def test_dense_map_holds_its_entries_only():
    index = np.arange(10) * 30_000 + 7
    dsm = DenseSurfaceMap(640, 480, index, np.zeros(10), np.full((10, 3), 1.0 / 3.0))
    held = sum(a.nbytes for a in vars(dsm).values() if isinstance(a, np.ndarray))
    assert held < 1024
    assert np.array_equal(dsm.mapped_pixels(), np.column_stack([index % 640, index // 640]))


def test_dense_map_adopts_read_only_arrays_and_copies_writeable_ones(rng):
    index = np.flatnonzero(rng.random(30) < 0.5)
    faces = np.ones(len(index), dtype=np.int64)
    barys = rng.dirichlet(np.ones(3), size=len(index))
    # a caller's writeable arrays are copied and stay writeable
    dsm = DenseSurfaceMap(5, 6, index, faces, barys)
    assert all(a.flags.writeable for a in (index, faces, barys))
    assert not any(np.shares_memory(a, b) for a, b in
                   ((dsm.index, index), (dsm.faces, faces), (dsm.barys, barys)))
    kept = dsm.index.copy(), dsm.faces.copy(), dsm.barys.copy()
    index[:] = 0
    faces[:] = -1
    barys[:] = np.nan
    for a, b in zip((dsm.index, dsm.faces, dsm.barys), kept):
        assert np.array_equal(a, b)
    # read-only arrays of the map's dtypes are adopted as they are
    index, faces, barys = kept
    for a in kept:
        a.flags.writeable = False
    dsm = DenseSurfaceMap(5, 6, index, faces, barys)
    assert dsm.index is index and dsm.faces is faces and dsm.barys is barys
    # a read-only array of another dtype is still copied
    assert DenseSurfaceMap(5, 6, index, faces.astype(np.int32), barys).faces.dtype == np.int64
    for a in (dsm.index, dsm.faces, dsm.barys):
        assert not a.flags.writeable


def test_mesh_and_map_fields_cannot_be_reassigned():
    # a mesh whose vertices were reassigned kept the cast table of the old ones
    mesh = unit_square_mesh()
    dsm = DenseSurfaceMap(4, 3, [3, 5], [0, 1], np.full((2, 3), 1.0 / 3.0))
    for obj in (mesh, dsm):
        for field in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field.name, getattr(obj, field.name))


def test_mapped_index_is_computed_once_and_read_only(rng):
    faces, barys = sparse_images(rng, 13, 7)
    dsm = map_from_images(faces, barys)
    assert not dsm.index.flags.writeable
    assert np.array_equal(dsm.index, np.flatnonzero(faces >= 0))


def _join(points, queries, radius):
    query, point, d2 = _pairs_within(points, queries, radius)
    assert np.all(query[1:] >= query[:-1])  # grouped by ascending query
    return sorted(zip(query.tolist(), point.tolist(), d2.tolist()))


def _join_cases(rng, scene):
    """(name, points, queries, radius) of the radius join's edge cases; the
    last two are on the entries of `scene`'s first map."""
    # the points' box has a point at its low corner and one on its low x face
    cloud = np.vstack([rng.uniform(-1.0, 1.0, size=(300, 3)), [[-1.2, 0.0, 0.0], [-1.2] * 3]])
    near = cloud[rng.integers(0, 300, 200)] + rng.normal(scale=0.05, size=(200, 3))
    # queries beyond that corner and face: inside, about at and past the
    # radius, and farther out
    lo = cloud.min(axis=0)
    outside = np.array([lo - s * 0.1 / np.sqrt(3.0) for s in (0.5, 0.999, 1.001, 1.5, 30.0)]
                       + [[lo[0] - s * 0.1, 0.0, 0.0] for s in (0.999, 1.0, 1.001, 2.5)])
    # a point exactly at the radius and one an ulp past it; exact ties at
    # the radius and inside it
    exact = np.array([[0.5, 0.5, 0.75], [0.5, 0.5, np.nextafter(0.75, 1.0)],
                      [0.25, 0.5, 0.5], [0.75, 0.5, 0.5], [0.5, 0.625, 0.5], [0.5, 0.375, 0.5]])
    lattice = np.stack(np.meshgrid(*[np.arange(4.0)] * 3), axis=-1).reshape(-1, 3)
    return [
        ("cloud", cloud, near, 0.08),
        ("outside-box", cloud, outside, 0.1),
        ("exact", exact, np.array([[0.5, 0.5, 0.5]]), 0.25),
        ("lattice", lattice, lattice[::3] + 0.5, 1.0),
        ("lattice-far", lattice, lattice + 0.5, 3.0),
        ("no-points", np.empty((0, 3)), near, 0.1),
        ("no-queries", cloud, np.empty((0, 3)), 0.1),
        ("coincident", np.zeros((3, 3)), np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1e-300]]), 0.0),
        *_map_join_cases(rng, scene),
    ]


def _map_join_cases(rng, scene):
    """Radius-join cases on a real map's entries: an entry exactly at the
    radius, and one whose rounded distance exceeds a radius an ulp below it
    although its squared distance may not."""
    prior = scene.records[0].priors[0]
    entries = surface_points(prior.mesh, prior.surface_map.faces, prior.surface_map.barys)
    queries = entries[rng.integers(0, len(entries), 100)] + rng.normal(scale=0.03, size=(100, 3))
    # one query steps straight back from the deepest entry (positive depth):
    # the step is exact, so that entry sits exactly at the radius and no
    # other entry is as close
    back = int(entries[:, 2].argmax())
    at_radius = entries[back] + [0.0, 0.0, 0.05]
    radius = at_radius[2] - entries[back, 2]
    for q in queries:
        sq = ((entries - q) ** 2).sum(axis=1)
        d = np.sqrt(sq.min())
        if d * d > sq.min():
            break
    else:
        pytest.fail("no query with a rounded-up distance")
    return [
        ("map-at-radius", entries, np.vstack([queries, at_radius]), radius),
        ("map-ulp-below", entries, q[None], np.nextafter(d, 0.0)),
    ]


def test_pairs_within_matches_brute_force(opposed_scene, rng):
    cases = _join_cases(rng, opposed_scene)
    for name, points, queries, radius in cases:
        assert _join(points, queries, radius) == pairs_within_oracle(points, queries, radius), name
    # the exact case keeps the point at the radius and both ties, and drops
    # the one an ulp past it
    _, points, queries, radius = cases[2]
    assert [p for _, p, _ in _join(points, queries, radius)] == [0, 2, 3, 4, 5]
    # the map's entry at the radius is the nearest to the last query, and
    # the query an ulp past its nearest entry finds nothing
    _, points, queries, radius = cases[-2]
    _, point, d2 = _pairs_within(points, queries[-1:], radius)
    nearest = np.argmin(d2)
    assert (point[nearest], np.sqrt(d2[nearest])) == (points[:, 2].argmax(), radius)
    _, points, queries, radius = cases[-1]
    assert len(_pairs_within(points, queries, radius)[0]) == 0


def test_mutual_nearest_matches_brute_force(opposed_scene, rng):
    for name, points, queries, radius in _join_cases(rng, opposed_scene):
        query, point = _mutual_nearest(points, queries, radius)
        assert list(zip(query.tolist(), point.tolist())) == mutual_nearest_oracle(
            points, queries, radius), name
    # each query is as near to eight lattice points and takes the first,
    # 0 = (0, 0, 0) and 13 = (1, 1, 1); point 13 is as near to both queries
    # and takes the first, so the second query matches nothing
    lattice = np.stack(np.meshgrid(*[np.arange(3.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    query, point = _mutual_nearest(lattice, np.array([[0.5, 0.5, 0.5], [1.5, 1.5, 1.5]]), 1.0)
    assert (query.tolist(), point.tolist()) == ([0], [0])


def test_pairs_within_rejects_a_radius_it_cannot_grid():
    for radius in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            _pairs_within(np.zeros((1, 3)), np.zeros((1, 3)), radius)


# ---------------------------------------------------------------- extraction


def test_self_extraction_reproduces_identity(opposed_scene):
    rec = opposed_scene.records[0]
    params = scene_params(opposed_scene)
    vcs = extract_vcs(rec, rec, params)
    by_pixel = {
        (round(v.pixel_a.u), round(v.pixel_a.v)): v for v in vcs if v.hit_rank == 0
    }
    pix = rec.priors[0].surface_map.mapped_pixels()
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
    dsm_b = b.priors[0].surface_map
    empty = ImageRecord(
        image_id=b.image_id,
        intrinsics=b.intrinsics,
        priors=(
            ShapePrior(
                person_id=0,
                mesh=b.priors[0].mesh,
                surface_map=empty_map(dsm_b.width, dsm_b.height),
            ),
        ),
    )
    assert extract_vcs(a, empty, scene_params(opposed_scene)) == []


def test_missing_person_raises_a_key_error_naming_it(opposed_scene):
    rec = opposed_scene.records[0]
    for lookup in (rec.prior_for, rec.posed_mesh):
        with pytest.raises(KeyError, match="person 7"):
            lookup(7)


def test_prior_and_record_reject_parts_that_do_not_fit():
    mesh, k = unit_square_mesh(), CameraIntrinsics(10.0, 10.0, 2.0, 2.0)  # faces 0 and 1
    corner = [[1.0, 0.0, 0.0]]
    ShapePrior(0, mesh, DenseSurfaceMap(4, 4, [5], [1], corner))
    with pytest.raises(ValueError, match="beyond the mesh"):
        ShapePrior(0, mesh, DenseSurfaceMap(4, 4, [5], [2], corner))
    prior = ShapePrior(0, mesh, empty_map(4, 4))
    for priors, message in (((), "at least one shape prior"),
                            ((prior, ShapePrior(1, mesh, empty_map(4, 5))), "share dimensions"),
                            ((prior, ShapePrior(0, mesh, empty_map(4, 4))), "duplicate person_id")):
        with pytest.raises(ValueError, match=message):
            ImageRecord("a", k, priors)
    assert len(ImageRecord("a", k, (prior, ShapePrior(1, mesh, empty_map(4, 4)))).priors) == 2


def test_record_keeps_its_priors_as_a_tuple(opposed_scene):
    # a list stayed open to appends after the duplicate person_id check
    rec = opposed_scene.records[0]
    assert ImageRecord("a", rec.intrinsics, list(rec.priors)).priors == rec.priors


def test_rays_that_miss_yield_nothing(opposed_scene):
    # both priors moved far to the side: no sampled ray meets either mesh
    a, b = (
        ImageRecord(r.image_id, r.intrinsics, tuple(
            ShapePrior(p.person_id, p.mesh.transformed(SE3Pose(np.eye(3), [100.0, 0.0, 0.0])),
                       p.surface_map)
            for p in r.priors
        ))
        for r in opposed_scene.records
    )
    assert extract_vcs(a, b, scene_params(opposed_scene)) == []


@pytest.mark.parametrize("face, bary, want", [
    # (-0.01, 0, 0.013), in front of the casting camera: re-viewed at u = 31.2
    pytest.param(1, [0.5, 0.495, 0.005], [[10.0 * -0.01 / 0.013 + 32.0, 24.0, 5.0, 0.0, 0.0]],
                 id="in-front"),
    # (0.01, 0, -0.005), behind it: it would re-view at (12, 24), inside the frame
    pytest.param(0, [0.495, 0.005, 0.5], [], id="behind"),
])
def test_cast_drops_a_match_behind_the_casting_camera(face, bary, want):
    # the plane z = 0.004 - 0.9 x crosses z = 0 at x = 0.0044; the ray
    # through the principal point hits it at (0, 0, 0.004), and both
    # entries lie 0.0135 from that hit, within the tolerance
    mesh_c = TriangleMesh([[x, y, 0.004 - 0.9 * x] for x, y in
                           ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))],
                          [[0, 1, 2], [0, 2, 3]])
    k_c = CameraIntrinsics(fx=10.0, fy=10.0, cx=32.0, cy=24.0)
    dsm_c = DenseSurfaceMap(64, 48, [24 * 64 + 32], [0], [[1.0, 0.0, 0.0]])
    dsm_o = DenseSurfaceMap(64, 48, [5], [face], [bary])
    cast_uv, obs_uv, rank = _cast_one_direction(
        mesh_c, k_c, dsm_c, dsm_o, ExtractionParams(stride=1, surface_tolerance=0.02))
    got = np.column_stack([cast_uv, obs_uv, rank])
    assert got.shape == (len(want), 5) and np.allclose(got, np.reshape(want, (-1, 5)))


@pytest.mark.parametrize("scene, change", [
    pytest.param(scene, change, id=f"{scene}-{name}")
    for scene in ("opposed_scene", "narrow_scene")
    for name, change in (("defaults", {}), ("stride2", {"stride": 2}))
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
    assert got == want  # dataclass equality: pixels bit for bit, ranks and person ids


@pytest.mark.parametrize("change", [
    {"stride": 0}, {"surface_tolerance": 0.0}, {"surface_tolerance": np.nan},
    {"surface_tolerance": np.inf}, {"stride": 2.5}, {"stride": True},
], ids=["stride", "tolerance", "tolerance-nan", "tolerance-inf", "stride-float", "stride-bool"])
def test_extraction_params_reject_invalid_values(change):
    with pytest.raises(ValueError):
        ExtractionParams(**change)


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


def test_extracted_records_are_typed_tuples_equal_to_constructed_ones(opposed_scene):
    a, b = opposed_scene.records
    vcs = extract_vcs(a, b, scene_params(opposed_scene))
    assert type(vcs) is list and vcs
    for vc in vcs:
        assert type(vc) is VirtualCorrespondence
        assert type(vc.pixel_a) is Pixel and type(vc.pixel_b) is Pixel
        assert all(type(c) is float for c in (*vc.pixel_a, *vc.pixel_b))
        assert type(vc.hit_rank) is int and type(vc.person_id) is int
        assert vc == VirtualCorrespondence(Pixel(*vc.pixel_a), Pixel(*vc.pixel_b),
                                           vc.hit_rank, vc.person_id)


def fake_casts(monkeypatch, casts):
    """Make `_cast_one_direction` return `casts[0]`, then `casts[1]`, ...:
    (cast_uv, obs_uv, rank) per call."""
    calls = iter(casts)
    monkeypatch.setattr(vcsfm.extraction, "_cast_one_direction",
                        lambda *args: tuple(np.asarray(x) for x in next(calls)))


def test_row_found_in_both_directions_is_kept_once(opposed_scene, monkeypatch):
    a, b = opposed_scene.records
    # (3, 4, 7, 8) at rank 0 is found both ways; the other b-cast rows differ
    # from an a-cast row in rank or in a coordinate
    fake_casts(monkeypatch, [
        ([[3.0, 4.0], [5.5, 6.0]], [[7, 8], [9, 10]], [0, 1]),
        ([[8.0, 7.0], [7.0, 8.0], [9.0, 10.0], [7.0, 8.0]],
         [[1, 2], [3, 4], [5, 6], [3, 5]], [0, 0, 1, 1]),
    ])
    got = [(*vc.pixel_a, *vc.pixel_b, vc.hit_rank) for vc in extract_vcs(a, b)]
    assert got == [(3.0, 4.0, 7.0, 8.0, 0), (5.5, 6.0, 9.0, 10.0, 1),
                   (1.0, 2.0, 8.0, 7.0, 0), (5.0, 6.0, 9.0, 10.0, 1),
                   (3.0, 5.0, 7.0, 8.0, 1)]


def test_de_duplication_keeps_the_first_of_equal_rows(opposed_scene, monkeypatch, rng):
    a, b = opposed_scene.records
    grid = np.array([(0, 0), (1, 0), (0, 1), (1, 1)])

    def one_direction():
        # distinct observer pixels; cast pixels on a half-pixel grid
        return rng.integers(0, 3, (4, 2)) / 2.0, grid[rng.permutation(4)], rng.integers(0, 2, 4)

    dropped = 0
    for _ in range(50):
        (a_cast, b_obs, a_rank), (b_cast, a_obs, b_rank) = one_direction(), one_direction()
        fake_casts(monkeypatch, [(a_cast, b_obs, a_rank), (b_cast, a_obs, b_rank)])
        rows = np.vstack([np.column_stack([a_cast, b_obs, a_rank]),
                          np.column_stack([a_obs, b_cast, b_rank])])
        want = list(dict.fromkeys(map(tuple, rows.tolist())))
        got = [(*vc.pixel_a, *vc.pixel_b, vc.hit_rank) for vc in extract_vcs(a, b)]
        assert got == want
        dropped += len(rows) - len(want)
    assert dropped > 0


def test_de_duplication_without_two_whole_rows_keeps_every_row(rng):
    # no row, or a single row, with four whole coordinates: nothing to compare
    rows = rng.integers(0, 3, (8, 4)) + np.array([0.0, 0.5, 0.0, 0.0])
    rows[5] = rows[2]  # equal, but not whole
    rank = np.zeros(8, dtype=np.int64)
    for whole in ([], [4]):
        rows[whole, 1] = 1.0
        assert np.array_equal(_first_of_equal_rows(rows, rank), np.arange(8))


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
    dsm_a, dsm_b = a.priors[0].surface_map, b.priors[0].surface_map
    candidates = [c for c in narrow_scene.oracle if (c.cam_a, c.cam_b, c.rank_a) == (0, 1, 0)]
    e = entry_index(dsm_a, [(round(c.pixel_a.u), round(c.pixel_a.v)) for c in candidates])
    assert np.all(e >= 0)
    within, _, _ = _pairs_within(surface_points(mesh_a, dsm_b.faces, dsm_b.barys),
                                 surface_points(mesh_a, dsm_a.faces[e], dsm_a.barys[e]),
                                 params.surface_tolerance)
    classic = [candidates[i] for i in np.unique(within)]
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


def test_topology_mismatch_raises(opposed_scene):
    a, b = opposed_scene.records
    dsm_b = b.priors[0].surface_map
    square = unit_square_mesh()
    bad = ImageRecord(
        image_id="bad",
        intrinsics=b.intrinsics,
        priors=(
            ShapePrior(
                person_id=0,
                mesh=square,
                surface_map=empty_map(dsm_b.width, dsm_b.height),
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
            ShapePrior(person_id=1, mesh=a.priors[0].mesh, surface_map=a.priors[0].surface_map),
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
            ShapePrior(person_id=1, mesh=b.priors[0].mesh, surface_map=b.priors[0].surface_map),
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


@pytest.mark.parametrize("angle", [1e-2, 1e-4, 1e-6, 1e-7, 1e-8])
def test_ray_gap_of_rays_meeting_nearly_opposed_is_zero(angle, rng):
    # two cameras 5 apart look at one point from nearly opposite sides
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        u1, side = q[:, 0], q[:, 1]
        u2 = -np.cos(angle) * u1 + np.sin(angle) * side
        p = rng.normal(size=3)
        ray_a, ray_b = Ray(p - 2.5 * u1, u1), Ray(p - 2.5 * u2, u2)
        assert ray_gap(ray_a, ray_b) <= 1e-8
        assert ray_gap(ray_b, ray_a) <= 1e-8


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
        vc = VirtualCorrespondence(pixel_a=Pixel(*pa), pixel_b=Pixel(*pb), hit_rank=0)
        assert vc_ray_gap(vc, pose_a, pose_b, k_a, k_b) < 1e-9
        tested += 1
    assert tested


def test_suggest_surface_tolerance_scales(opposed_scene):
    tol = suggest_surface_tolerance(opposed_scene.records)
    # footprint = depth / focal; the scene is built so this is a few cm
    assert 0.02 < tol < 0.2
    assert suggest_surface_tolerance([]) == 0.01


def test_suggest_surface_tolerance_skips_maps_without_a_footprint():
    k = CameraIntrinsics(10.0, 10.0, 2.0, 2.0)
    mesh = unit_square_mesh()  # in the plane z = 0
    centre = DenseSurfaceMap(4, 4, [5], [0], [[1 / 3, 1 / 3, 1 / 3]])

    def record(mesh, dsm):
        return ImageRecord("a", k, (ShapePrior(0, mesh, dsm),))

    # an empty map, and a map whose median depth is not positive, add nothing
    for rec in (record(mesh, empty_map(4, 4)), record(mesh, centre)):
        assert suggest_surface_tolerance([rec, rec]) == vcsfm.extraction.TOLERANCE_FLOOR
    ahead = record(mesh.transformed(SE3Pose(np.eye(3), [0.0, 0.0, 2.0])), centre)
    # 1.6 x depth 2 / focal length 10
    assert suggest_surface_tolerance([record(mesh, empty_map(4, 4)), ahead]) == pytest.approx(0.32)


def test_suggest_surface_tolerance_equals_full_surface_points(rng):
    """The tolerance is 1.6 x the median over priors of each map's median
    surface-point depth per unit focal length."""
    base = generate_scene(SceneConfig(camera_count=2, baseline_angles=(0.0, 90.0), **SMALL),
                          NoiseConfig(pixel_sigma=0.5, outlier_fraction=0.2,
                                      prior_rotation_sigma=1.0, prior_translation_sigma=0.01))
    k = base.records[0].intrinsics
    (prior,) = base.records[1].priors
    shifted = ImageRecord("shifted", k, (
        ShapePrior(prior.person_id, prior.mesh.transformed(SE3Pose(np.eye(3), [0.01, -0.02, 0.3])),
                   prior.surface_map),
    ))
    for records in (base.records, [base.records[0], shifted]):
        footprints = []
        for rec in records:
            dsm = rec.priors[0].surface_map
            pix = dsm.mapped_pixels()
            e = entry_index(dsm, pix)
            pos = surface_points(rec.posed_mesh(0), dsm.faces[e], dsm.barys[e])
            footprints.append(float(np.median(pos[:, 2])) / k.fx)
        want = max(0.01, 1.6 * float(np.median(footprints)))
        assert suggest_surface_tolerance(records) == want
