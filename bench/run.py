"""End-to-end benchmark of two-view reconstruction on synthetic scenes.

    python3 bench/run.py --workload clean-160 --seed 1 --seconds 25 --trace 0

Builds the workload's scenes from --seed (set-up, timed several times), then
reconstructs its image pairs in a closed loop with one client, in whole passes
over the pairs, until --seconds have passed. Checks the outputs, prints
one line per metric and, as the last line, a JSON object with `correct`,
`attempted`, `failed` and `metrics`: end-to-end metrics with --trace 0,
per-layer metrics of a traced run with --trace 1. See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if not (ROOT / "src" / "vcsfm").is_dir():
    sys.exit(f"error: library source not found under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from vcsfm.ba import BaConfig  # noqa: E402
from vcsfm.metrics import FAILURE_ERROR_DEG, auc  # noqa: E402
from vcsfm.synthetic import NoiseConfig, SceneConfig, generate_scene  # noqa: E402

import pipeline  # noqa: E402
from tracing import Tracer, self_times, total_times  # noqa: E402

SETUP_REPEATS = 3
BA_MAX_ITERATIONS = BaConfig().max_iterations
AUC_THRESHOLDS = (15.0, 30.0, 45.0)


@dataclass(frozen=True)
class Workload:
    angles: tuple  # camera-1 ring angle of each pair, degrees
    image_size: tuple
    focal_length: float
    noise: NoiseConfig = field(default_factory=NoiseConfig)


GRID_160 = (30.0, 90.0, 150.0, 180.0) * 3

# Why each workload exists is in README.md and BENCHMARK.json. noisy-160 is
# not in BENCHMARK.json: across seeds its timings spread about 0.24 of their
# median and auc15 0.49, too wide to gate, so it is run by hand.
WORKLOADS = {
    "clean-160": Workload(GRID_160, (160, 120), 170.0),
    "noisy-160": Workload(
        GRID_160, (160, 120), 170.0,
        NoiseConfig(pixel_sigma=0.5, outlier_fraction=0.6, prior_rotation_sigma=1.0,
                    prior_translation_sigma=0.01)),
    "clean-640": Workload((150.0,), (640, 480), 680.0),
}

# auc15 is printed on every run but reported as a per-layer metric, which
# carries no bound: on the one-pair clean-640 workload it spreads 0.23 of its
# median across seeds, close to the largest bound allowed.
END_TO_END = ["pair_s_p50", "pairs_per_s", "setup_s", "peak_rss_mb", "auc30", "auc45"]


@dataclass
class RunResult:
    metrics: dict  # name -> (value, unit, note)
    per_layer: list  # names reported with --trace 1
    attempted: int
    failed: int
    environment: dict
    tracer: Tracer | None = None


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted({tok for tok in maps.split() if "openblas" in tok and ".so" in tok}):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def process_threads():
    try:
        m = re.search(r"Threads:\s*(\d+)", Path("/proc/self/status").read_text())
    except OSError:
        return None
    return int(m.group(1)) if m else None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def scene_configs(wl: Workload, seed: int):
    """Scene configs and RANSAC seeds of a workload, all drawn from `seed`."""
    seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=(len(wl.angles), 2))
    configs = [
        SceneConfig(camera_count=2, baseline_angles=(0.0, a), elevation_range=10.0,
                    image_size=wl.image_size, focal_length=wl.focal_length, seed=int(s))
        for a, (s, _) in zip(wl.angles, seeds)
    ]
    return configs, [int(s) for _, s in seeds]


def no_span(name):
    return nullcontext()


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> RunResult:
    configs, ransac_seeds = scene_configs(wl, seed)
    tracer = Tracer() if trace else None
    install = tracer.install if tracer else nullcontext
    span = tracer.span if tracer else no_span

    # the first scene of a process pays one-off import and allocation costs
    generate_scene(SceneConfig(baseline_angles=(0.0, 90.0), image_size=(40, 30),
                               focal_length=40.0), wl.noise)
    setup_times = []
    with install():
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            scenes = []
            for cfg in configs:
                with span("synthetic.generate_scene"):
                    scenes.append(generate_scene(cfg, wl.noise))
            setup_times.append(time.perf_counter() - t0)
    setup_trace = None
    if tracer:
        setup_trace, tracer = tracer, Tracer()
        install, span = tracer.install, tracer.span

    if wl.noise == NoiseConfig():
        for sc in scenes:
            pipeline.check_oracle(sc)

    # Closed loop with one client: a pair starts when the previous one ends.
    # The loop stops only after a whole pass, so every distinct pair weighs the
    # same in the timings. pair_s_p50 is the median over distinct pairs of
    # each pair's mean time: the machine's speed can drift between passes, and a
    # median over all runs jumps between the passes' levels. With tracing every
    # pair runs untraced and then traced, so the two timings cover the same
    # work and their ratio is the tracing overhead.
    first = []  # each distinct pair's first result
    times = {False: [], True: []}
    completed = {False: 0, True: 0}
    traced_results = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    run_id = 0
    while not first or time.perf_counter() < deadline:
        for i, (scene, ransac_seed) in enumerate(zip(scenes, ransac_seeds)):
            for traced in (False, True) if tracer else (False,):
                if traced:
                    tracer.pair = run_id
                with install() if traced else nullcontext():
                    t0 = time.perf_counter()
                    with span("bench.pair") if traced else nullcontext():
                        res = pipeline.run_pair(scene, ransac_seed,
                                                span if traced else no_span)
                    times[traced].append(time.perf_counter() - t0)
                pipeline.check_pair(res)
                attempted += 1
                failed += res.failed
                completed[traced] += not res.failed
                if traced:
                    traced_results.append(res)
                if len(first) == i:
                    first.append(res)
            run_id += 1

    untraced = times[False]
    pair_means = np.reshape(untraced, (-1, len(scenes))).mean(axis=0)  # rows are passes
    errors = [r.error_deg for r in first]
    metrics = {
        "pair_s_p50": (float(np.median(pair_means)), "s",
                       f"median over {len(scenes)} distinct pairs of each one's mean "
                       f"of {len(untraced) // len(scenes)} runs"),
        "pairs_per_s": (completed[False] / sum(untraced), "1/s",
                        "at {}x{}".format(*wl.image_size)),
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {SETUP_REPEATS} set-ups of {len(scenes)} scenes"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "whole process"),
        **{f"auc{int(t)}": (auc(errors, t), "ratio", f"over {len(errors)} distinct pairs")
           for t in AUC_THRESHOLDS},
        "pair_fail_ratio": (failed / attempted, "ratio", f"{failed} of {attempted}"),
    }
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "process_threads": process_threads(),
        "pairs": len(untraced),
        "distinct_pairs": len(scenes),
        "setup_repeats": SETUP_REPEATS,
    }
    per_layer = []
    if tracer:
        layers = layer_metrics(setup_trace, tracer, scenes, first, traced_results, times,
                               completed)
        layers = {"metrics.auc15": metrics["auc15"], **layers}
        metrics.update(layers)
        per_layer = list(layers)
        tracer.spans = setup_trace.spans + tracer.spans
        env["traced_pairs"] = len(traced_results)
        env["spans"] = len(tracer.spans)
    return RunResult(metrics, per_layer, attempted, failed, env, tracer)


def layer_metrics(setup_trace, tracer, scenes, first, traced_results, times,
                  completed) -> dict:
    """Per-layer metrics: set-up layers per workload set-up, pair layers per
    traced pair, ratios over all traced pairs, medians over distinct pairs."""
    n = len(traced_results)
    tot, own, cnt = total_times(tracer.spans), self_times(tracer.spans), tracer.counts
    s_tot, s_cnt = total_times(setup_trace.spans), setup_trace.counts

    def per_setup(name, unit, source):
        return (source.get(name, 0.0) / SETUP_REPEATS, unit, "per set-up")

    def per_pair(value, unit):
        return (value / n, unit, f"per pair, {n} traced pairs")

    def p50(values, unit):
        values = list(values)
        return (statistics.median(values) if values else math.nan, unit,
                f"median of {len(values)} distinct pairs")

    done = [r for r in first if not r.failed]
    vcs = sum(len(r.vcs or ()) for r in traced_results)
    inliers = sum(int(np.count_nonzero(r.inlier_mask)) for r in traced_results
                  if r.inlier_mask is not None)
    rays = cnt.get("extraction.rays_cast", 0.0)
    good = total = 0
    for r, sc in zip(first, scenes):
        if r.vcs:
            g, t = pipeline.vc_precision_counts(sc, r.vcs, r.tolerance)
            good, total = good + g, total + t
    layer_self = {}
    for name, sec in own.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + sec
    traced_pps = completed[True] / sum(times[True])
    untraced_pps = completed[False] / sum(times[False])

    out = {
        "metrics.error_deg_p50": p50((r.error_deg for r in first), "deg"),
        "synthetic.generate_scene_s": per_setup("synthetic.generate_scene", "s", s_tot),
        "mesh.first_hits_s": per_setup("mesh.first_hits", "s", s_tot),
        "mesh.first_hit_rays": per_setup("mesh.first_hit_rays", "count", s_cnt),
        "mesh.all_hits_s": per_setup("mesh.all_hits", "s", s_tot),
        "mesh.all_hit_rays": per_setup("mesh.all_hit_rays", "count", s_cnt),
        "mesh.ray_face_tests": per_setup("mesh.ray_face_tests", "count", s_cnt),
        "extraction.tolerance_s": per_pair(tot.get("extraction.tolerance", 0.0), "s"),
        "extraction.extract_vcs_s": per_pair(tot.get("extraction.extract_vcs", 0.0), "s"),
        "extraction.rays_cast": per_pair(rays, "count"),
        "extraction.vcs": per_pair(vcs, "count"),
        "extraction.vcs_per_ray": (vcs / rays if rays else math.nan, "ratio", "VCs / rays cast"),
        "extraction.vc_precision": (good / total if total else math.nan, "ratio",
                                    f"{good} of {total} VCs meet under ground truth"),
        "relative_pose.ransac_s": per_pair(tot.get("relative_pose.ransac", 0.0), "s"),
        "relative_pose.iterations": per_pair(
            sum(r.ransac_iterations or 0 for r in traced_results), "count"),
        "relative_pose.five_point_calls": per_pair(
            cnt.get("relative_pose.five_point_calls", 0.0), "count"),
        "relative_pose.five_point_s": per_pair(tot.get("relative_pose.five_point", 0.0), "s"),
        "relative_pose.degenerate_samples": per_pair(
            cnt.get("relative_pose.degenerate_samples", 0.0), "count"),
        "relative_pose.hypotheses": per_pair(cnt.get("relative_pose.hypotheses", 0.0), "count"),
        "relative_pose.scoring_s": per_pair(tot.get("relative_pose.scoring", 0.0), "s"),
        "relative_pose.inlier_ratio": (inliers / vcs if vcs else math.nan, "ratio",
                                       "RANSAC inliers / VCs"),
        "relative_pose.error_deg_p50": p50(
            (FAILURE_ERROR_DEG if r.ransac_error_deg is None else r.ransac_error_deg
             for r in first), "deg"),
        "ba.lift_s": per_pair(tot.get("ba.lift", 0.0), "s"),
        "ba.lift_dropped": per_pair(sum(r.lift_dropped or 0 for r in traced_results), "count"),
        "ba.tracks": per_pair(sum(r.tracks or 0 for r in traced_results), "count"),
        "ba.lift_first_hits_s": per_pair(tot.get("ba.lift_first_hits", 0.0), "s"),
        "ba.solve_s": per_pair(tot.get("ba.solve", 0.0), "s"),
        "ba.iterations": per_pair(sum(r.ba_iterations or 0 for r in traced_results), "count"),
        "ba.objective_evals": per_pair(cnt.get("ba.objective_evals", 0.0), "count"),
        "ba.gradient_evals": per_pair(cnt.get("ba.gradient_evals", 0.0), "count"),
        "ba.eval_s": per_pair(tot.get("ba.objective", 0.0) + tot.get("ba.gradient", 0.0), "s"),
        "ba.max_iteration_stops": (sum(r.ba_iterations >= BA_MAX_ITERATIONS for r in done),
                                   "count", f"of {len(done)} distinct pairs"),
        "ba.objective_ratio": p50((r.ba_final / r.ba_initial for r in done), "ratio"),
        "ba.error_delta_deg_p50": p50((r.error_deg - r.ransac_error_deg for r in done), "deg"),
        "optim.lbfgs_self_s": per_pair(own.get("optim.minimize_lbfgs", 0.0), "s"),
    }
    for layer in ("bench", "extraction", "relative_pose", "ba", "optim"):
        out[f"self.{layer}_s"] = per_pair(layer_self.get(layer, 0.0), "s")
    out["self.sum_s"] = per_pair(sum(layer_self.values()), "s")
    out["trace.untraced_pair_s_mean"] = (statistics.fmean(times[False]), "s",
                                         f"mean of {len(times[False])} untraced pairs")
    out["trace.pairs_per_s"] = (traced_pps, "1/s", "traced")
    out["trace.untraced_pairs_per_s"] = (untraced_pps, "1/s", "untraced, same pairs")
    out["trace.overhead"] = (1.0 - traced_pps / untraced_pps, "ratio",
                             "1 - traced / untraced pairs_per_s")
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except pipeline.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, **result.environment}
    if result.tracer is not None:
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.csv"
        result.tracer.write_csv(path)
        env["trace_file"] = str(path.relative_to(ROOT))

    for name, (value, unit, note) in result.metrics.items():
        print(f"{args.workload:<10} {name:<34} {value:>14.6g} {unit:<6} {note}")
    print(json.dumps({"environment": env}))
    keys = result.per_layer if args.trace else END_TO_END
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": result.metrics[k][0], "unit": result.metrics[k][1]}
                    for k in keys},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
