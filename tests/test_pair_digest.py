import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import pair_digest  # noqa: E402
from vcsfm.synthetic import SceneConfig, generate_scene  # noqa: E402


def test_pair_digest_is_exact_and_repeatable():
    scene = generate_scene(SceneConfig(baseline_angles=(0.0, 150.0), elevation_range=10.0,
                                       image_size=(48, 36), focal_length=51.0, seed=7))
    line = pair_digest.pair_digest(scene, 3)
    assert pair_digest.pair_digest(scene, 3) == line
    ransac_err, err, ba_initial, ba_final, iterations, vcs, inliers, pose = line.split()
    res = pair_digest.pipeline.run_pair(scene, 3, pair_digest.run.no_span)
    assert not res.failed
    assert float.fromhex(ransac_err) == res.ransac_error_deg
    assert float.fromhex(err) == res.error_deg
    assert float.fromhex(ba_final) <= float.fromhex(ba_initial)
    assert int(iterations) == res.ba_iterations
    assert int(inliers) <= int(vcs) == len(res.vcs)
    assert len(pose) == 64 and int(pose, 16) >= 0
