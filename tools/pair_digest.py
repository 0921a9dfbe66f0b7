"""Print a bit-exact digest of every benchmark pair, to diff two checkouts.

    python3 tools/pair_digest.py > digest.txt

Builds the scenes of `clean-160`, `clean-640` and `noisy-160` for bench seeds
1-3 and runs `bench/pipeline.run_pair` on each (75 pairs, about a minute). It
prints two lines per pair:

- `scene`: for the clean maps and then for the records' maps, a SHA-256 of
  their exact part (every map's `index` and `faces`) and one of
  their float part (`barys`); then the oracle's entry count, a SHA-256 of
  its exact part (cameras, `pixel_a` and ranks) and one of its float part
  (`pixel_b` and points). A change that only moves rounding shows in the
  float fields alone;
- `pair`: the RANSAC and final pose errors and BA's initial and final
  objective as `float.hex`, BA's iteration count, the VC and RANSAC inlier
  counts, and a SHA-256 of the final pose's rotation and translation bytes;
  then the surface tolerance as `float.hex`, a SHA-256 of the VCs'
  (pixel_a, pixel_b, rank) rows, one of the RANSAC inlier mask, RANSAC's
  iteration count and the lift's drop count.

`diff` of two checkouts' outputs is empty exactly when no digested output of
any scene or pair changed by a bit.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import pipeline  # noqa: E402
import run  # noqa: E402
from vcsfm.synthetic import generate_scene  # noqa: E402

WORKLOADS = ("clean-160", "clean-640", "noisy-160")
SEEDS = (1, 2, 3)


def _hex(value) -> str:
    return "-" if value is None else float(value).hex()


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _map_hashes(maps) -> list:
    """SHA-256s of the maps' exact part (index, faces) and float part (barys)."""
    return [_sha(*(a for dsm in maps for a in (dsm.index, dsm.faces))),
            _sha(*(dsm.barys for dsm in maps))]


def scene_digest(scene) -> str:
    """One line of bit-exact set-up outputs of one scene: the clean maps, the
    records' (noisy) maps and the ground-truth oracle."""
    noisy = [p.surface_map for rec in scene.records for p in rec.priors]
    oracle = scene.oracle
    exact = np.array([(c.cam_a, c.cam_b, c.pixel_a.u, c.pixel_a.v, c.rank_a) for c in oracle],
                     dtype=np.float64)
    pixels_b = np.array([(c.pixel_b.u, c.pixel_b.v) for c in oracle], dtype=np.float64)
    points = np.array([c.point for c in oracle], dtype=np.float64)
    fields = [*_map_hashes(scene.clean_maps), *_map_hashes(noisy),
              len(oracle), _sha(exact), _sha(pixels_b, points)]
    return " ".join(str(f) for f in fields)


def vc_rows(vcs) -> np.ndarray:
    """The VCs as float64 (n, 5) rows (u_a, v_a, u_b, v_b, rank)."""
    return np.array([(*vc.pixel_a, *vc.pixel_b, vc.hit_rank) for vc in vcs],
                    dtype=np.float64).reshape(-1, 5)


def pair_digest(scene, ransac_seed: int) -> str:
    """One line of bit-exact outputs of `run_pair` on one scene."""
    res = pipeline.run_pair(scene, ransac_seed, run.no_span)
    mask = res.inlier_mask
    inliers = None if mask is None else int(np.count_nonzero(mask))
    pose = "-"
    if res.pose is not None:
        pose = _sha(res.pose.rotation, res.pose.translation)
    fields = [
        _hex(res.ransac_error_deg), _hex(res.error_deg),
        _hex(res.ba_initial), _hex(res.ba_final),
        res.ba_iterations, None if res.vcs is None else len(res.vcs), inliers, pose,
        _hex(res.tolerance), None if res.vcs is None else _sha(vc_rows(res.vcs)),
        None if mask is None else _sha(np.asarray(mask, dtype=bool)),
        res.ransac_iterations, res.lift_dropped,
    ]
    return " ".join("-" if f is None else str(f) for f in fields)


def main() -> int:
    for name in WORKLOADS:
        wl = run.WORKLOADS[name]
        for seed in SEEDS:
            configs, ransac_seeds = run.scene_configs(wl, seed)
            for i, (cfg, ransac_seed) in enumerate(zip(configs, ransac_seeds)):
                scene = generate_scene(cfg, wl.noise)
                tag = f"{name} seed={seed} pair={i}"
                print(f"{tag} scene {scene_digest(scene)}", flush=True)
                print(f"{tag} pair {pair_digest(scene, ransac_seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
