import warnings

from vcsfm.ba import lift_vcs_to_tracks
from vcsfm.extraction import (
    ExtractionParams,
    VirtualCorrespondence,
    extract_vcs,
    suggest_surface_tolerance,
)
from vcsfm.geometry import Pixel
from vcsfm.synthetic import SceneConfig, generate_scene


def test_lift_counts_missed_ray_as_dropped_without_warnings():
    scene = generate_scene(SceneConfig(camera_count=2, baseline_angles=(0.0, 150.0),
                                       image_size=(96, 72), focal_length=110.0))
    a, b = scene.records
    params = ExtractionParams(surface_tolerance=suggest_surface_tolerance(scene.records))
    vcs = extract_vcs(a, b, params)[:5]
    assert vcs
    # a background pixel on the principal column: its ray misses the prior,
    # and its direction has an exact zero component
    cx = int(a.intrinsics.cx)
    row = next(v for v in range(a.surface_map.height) if a.surface_map.faces[v, cx] < 0)
    miss = VirtualCorrespondence(
        pixel_a=Pixel(float(cx), float(row)), pixel_b=vcs[0].pixel_b,
        hit_coord=vcs[0].hit_coord, hit_rank=0, source=a.image_id,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracks, x2s, dropped = lift_vcs_to_tracks(
            vcs + [miss], a, b, scene.gt_poses[0], scene.gt_poses[1], 0, 1
        )
    assert dropped == 1
    assert len(tracks) == len(x2s) == len(vcs)
