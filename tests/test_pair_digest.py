import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import pair_digest  # noqa: E402
from vcsfm.extraction import DenseSurfaceMap  # noqa: E402
from vcsfm.synthetic import NoiseConfig, SceneConfig, generate_scene  # noqa: E402


def test_pair_digest_is_exact_and_repeatable():
    scene = generate_scene(SceneConfig(baseline_angles=(0.0, 150.0), elevation_range=10.0,
                                       image_size=(48, 36), focal_length=51.0, seed=7))
    line = pair_digest.pair_digest(scene, 3)
    assert pair_digest.pair_digest(scene, 3) == line
    (ransac_err, err, ba_initial, ba_final, iterations, vcs, inliers, pose,
     tolerance, vc_hash, mask_hash, ransac_iterations, dropped) = line.split()
    res = pair_digest.pipeline.run_pair(scene, 3, pair_digest.run.no_span)
    assert not res.failed
    assert float.fromhex(ransac_err) == res.ransac_error_deg
    assert float.fromhex(err) == res.error_deg
    assert float.fromhex(ba_final) <= float.fromhex(ba_initial)
    assert int(iterations) == res.ba_iterations
    assert int(inliers) == np.count_nonzero(res.inlier_mask) <= int(vcs) == len(res.vcs)
    assert pose == pair_digest._sha(res.pose.rotation, res.pose.translation)
    assert float.fromhex(tolerance) == res.tolerance
    rows = pair_digest.vc_rows(res.vcs)
    assert rows.shape == (len(res.vcs), 5)
    assert [tuple(r) for r in rows] == [(*vc.pixel_a, *vc.pixel_b, vc.hit_rank) for vc in res.vcs]
    assert vc_hash == pair_digest._sha(rows)
    assert mask_hash == pair_digest._sha(res.inlier_mask.astype(bool))
    # a VC's rank and one inlier flag each show in their hash
    moved = rows.copy()
    moved[0, 4] += 1
    assert pair_digest._sha(moved) != vc_hash
    flipped = res.inlier_mask.copy()
    flipped[0] = not flipped[0]
    assert pair_digest._sha(flipped) != mask_hash
    assert int(ransac_iterations) == res.ransac_iterations >= 1
    assert int(dropped) == res.lift_dropped == int(inliers) - res.tracks


def test_scene_digest_covers_maps_and_oracle():
    cfg = SceneConfig(baseline_angles=(0.0, 150.0), image_size=(48, 36), focal_length=51.0,
                      seed=7)
    scene = generate_scene(cfg)
    line = pair_digest.scene_digest(scene)
    assert pair_digest.scene_digest(generate_scene(cfg)) == line
    fields = line.split()
    clean, maps, count, exact, floats = fields[:2], fields[2:4], fields[4], fields[5], fields[6]
    assert len(fields) == 7 and int(count) == len(scene.oracle) > 0
    assert clean == maps  # noise-free records carry the clean maps
    assert clean == pair_digest._map_hashes(scene.clean_maps)
    assert all(len(h) == 64 and int(h, 16) >= 0 for h in (*clean, exact, floats))
    # a map's exact hash covers its pixels and faces, its float hash its
    # weights alone
    dsm = scene.clean_maps[0]
    barys = dsm.barys.copy()
    barys[0, 0] = np.nextafter(barys[0, 0], np.inf)
    for changed_field, moved in ((0, (dsm.index + 1, dsm.faces, dsm.barys)),
                                 (0, (dsm.index, dsm.faces + 1, dsm.barys)),
                                 (1, (dsm.index, dsm.faces, barys))):
        scene.clean_maps[0] = DenseSurfaceMap(dsm.width, dsm.height, *moved)
        changed = pair_digest.scene_digest(scene).split()
        assert changed[changed_field] != fields[changed_field]
        assert changed[:changed_field] + changed[changed_field + 1:] == (
            fields[:changed_field] + fields[changed_field + 1:])
    scene.clean_maps[0] = dsm
    # jitter changes the records' maps and nothing else
    jittered = pair_digest.scene_digest(generate_scene(cfg, NoiseConfig(pixel_sigma=0.5)))
    assert jittered.split()[:2] + jittered.split()[4:] == clean + fields[4:]
    assert jittered.split()[2:4] != maps
    # a changed oracle rank changes the exact hash alone, a moved point or
    # pixel_b the float hash alone
    first = scene.oracle[0]
    scene.oracle[0] = first._replace(rank_a=first.rank_a + 1)
    changed = pair_digest.scene_digest(scene).split()
    assert changed[:5] + changed[6:] == fields[:5] + [floats] and changed[5] != exact
    pixel_b = first.pixel_b
    for moved in ({"point": np.nextafter(first.point, np.inf)},
                  {"pixel_b": pixel_b._replace(u=np.nextafter(pixel_b.u, np.inf))}):
        scene.oracle[0] = first._replace(**moved)
        changed = pair_digest.scene_digest(scene).split()
        assert changed[:6] == fields[:6] and changed[6] != floats
