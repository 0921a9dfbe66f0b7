"""Compare the end-to-end benchmark of another revision with this checkout.

    python3 tools/ab_bench.py REV [--workload clean-160] [--runs 10] [--seconds S]

Checks REV out into a temporary `git worktree` (removed at the end) and
runs `bench/run.py --trace 0` in it and in this checkout's working tree,
`--runs` times each, for `--seconds` (by default BENCHMARK.json's
`run_seconds`). Run i of both sides uses bench seed `--first-seed` + i,
and the side that runs first alternates from pair to pair. Prints, per
end-to-end metric of BENCHMARK.json: both medians, their ratio (this
checkout over REV) and the median of the per-pair ratios, REV's
interquartile range over its median, whether the medians differ by more
than that range, in how many pairs this checkout did better, how much
worse its median is (the relative change in the metric's bad direction)
and whether that stays within the metric's `bound`. With REV = HEAD and a
clean tree, it is an A/A run that measures the host's noise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def bench_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """Metric values of one untraced bench run in `checkout`. RuntimeError
    naming the checkout, the seed, the exit code and the run's stderr when
    the run fails."""
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if run.returncode != 0:
        raise RuntimeError(f"bench run in {checkout} with seed {seed} exited with code "
                           f"{run.returncode}:\n{run.stderr}")
    result = json.loads(run.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(base_runs: list, change_runs: list, metrics: list) -> list:
    """Per metric, the statistics of paired runs.

    base_runs and change_runs are lists of {metric: value}, paired by
    position; metrics is BENCHMARK.json's end_to_end list (name, better,
    bound). Returns one dict per metric present in both sides: base and
    change medians, ratio (change over base), pair_ratio (the median of the
    per-pair ratios, which cancels drift that both sides of a pair share),
    base_iqr (REV's interquartile range over its median), resolved (the
    medians further apart than that range), wins (pairs where the change is
    strictly better), pairs, worse (the change of the median over the base
    median, positive when it moved in the bad direction) and within_bound
    (worse at most the metric's bound; False when worse is NaN).
    """
    rows = []
    for spec in metrics:
        name = spec["name"]
        if not all(name in r for r in base_runs + change_runs):
            continue
        base = np.array([r[name] for r in base_runs], dtype=float)
        change = np.array([r[name] for r in change_runs], dtype=float)
        b50, c50 = float(np.median(base)), float(np.median(change))
        q1, q3 = np.percentile(base, [25.0, 75.0])
        lower = spec["better"] == "lower"
        better = change < base if lower else change > base
        worse = (c50 - b50 if lower else b50 - c50) / abs(b50) if b50 else float("nan")
        rows.append({
            "name": name,
            "base": b50,
            "change": c50,
            "ratio": c50 / b50 if b50 else float("nan"),
            "pair_ratio": float(np.median(change / base)) if np.all(base) else float("nan"),
            "base_iqr": float(q3 - q1) / abs(b50) if b50 else float("nan"),
            "resolved": bool(abs(c50 - b50) > q3 - q1),
            "wins": int(np.count_nonzero(better)),
            "pairs": len(base),
            "worse": worse,
            "within_bound": bool(worse <= spec["bound"]),
        })
    return rows


def format_rows(rows: list) -> str:
    lines = [f"{'metric':14s} {'base':>12s} {'change':>12s} {'ratio':>7s} {'pair':>7s} "
             f"{'base IQR':>8s} {'resolved':>8s} {'wins':>6s} {'worse':>7s} {'in bound':>8s}"]
    for r in rows:
        lines.append(f"{r['name']:14s} {r['base']:12.6g} {r['change']:12.6g} {r['ratio']:7.4f} "
                     f"{r['pair_ratio']:7.4f} {r['base_iqr']:8.4f} {str(r['resolved']):>8s} "
                     f"{r['wins']:>3d}/{r['pairs']:<2d} {r['worse']:7.4f} "
                     f"{str(r['within_bound']):>8s}")
    return "\n".join(lines)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    p.add_argument("--workload", default="clean-160")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--first-seed", type=int, default=1)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    with tempfile.TemporaryDirectory(prefix="ab-bench-") as tmp:
        base_dir = Path(tmp) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", str(base_dir), args.rev],
                       cwd=ROOT, check=True, capture_output=True)
        try:
            base_runs, change_runs = [], []
            for i in range(args.runs):
                seed = args.first_seed + i
                sides = [("base", base_dir, base_runs), ("change", ROOT, change_runs)]
                for label, checkout, runs in sides[:: 1 if i % 2 == 0 else -1]:
                    runs.append(bench_once(checkout, args.workload, seed, args.seconds))
                    print(f"seed {seed} {label}: "
                          + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
                          file=sys.stderr, flush=True)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base_dir)],
                           cwd=ROOT, check=False, capture_output=True)
    print(f"{args.workload}: {args.rev} (base) against the working tree (change), "
          f"{args.runs} alternating pairs of {args.seconds:g} s runs")
    print(format_rows(summarize(base_runs, change_runs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
