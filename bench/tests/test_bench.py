"""Tests of the benchmark's own glue: baseline estimate, span arithmetic and
the metric names each workload emits.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import pipeline  # noqa: E402
import run  # noqa: E402
from tracing import Span, self_times, total_times  # noqa: E402
from vcsfm.geometry import SE3Pose  # noqa: E402
from vcsfm.synthetic import SceneConfig, generate_scene  # noqa: E402


def test_prior_baseline_matches_ground_truth_on_clean_scene():
    scene = generate_scene(SceneConfig(baseline_angles=(0.0, 150.0), elevation_range=10.0,
                                       image_size=(48, 36), focal_length=51.0, seed=7))
    gt = np.linalg.norm(pipeline.gt_relative(scene).translation)
    assert pipeline.prior_baseline(*scene.records) == pytest.approx(gt, abs=1e-9)


def test_self_times_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: the union 1..6 is covered once
        Span("a.child", 1.5, 2.0, 1, 0),
        Span("late", 9.0, 12.0, 0, 0),  # clipped to the root's end
        Span("root", 20.0, 21.0, None, 1),
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx((10.0 - 5.0 - 1.0) + 1.0)
    assert own["a"] == pytest.approx(3.0 - 0.5)
    assert own["b"] == pytest.approx(3.0)
    assert own["a.child"] == pytest.approx(0.5)
    assert own["late"] == pytest.approx(3.0)
    assert total_times(spans)["root"] == pytest.approx(11.0)


def _completed_pair(**changes):
    fields = dict(error_deg=1.0, failed=False, ransac_pose=SE3Pose.identity(),
                  inlier_mask=np.ones(5, dtype=bool), tracks=4, lift_dropped=1,
                  ba_iterations=10, ba_initial=2.0, ba_final=1.0, pose=SE3Pose.identity())
    fields.update(changes)
    return pipeline.PairResult(**fields)


def test_check_pair_accepts_consistent_result():
    pipeline.check_pair(_completed_pair())


@pytest.mark.parametrize("changes", [
    {"ba_final": 3.0},
    {"lift_dropped": 0},
    {"pose": SE3Pose(np.eye(3), [np.nan, 0.0, 0.0])},
])
def test_check_pair_rejects_broken_invariant(changes):
    with pytest.raises(pipeline.CheckFailed):
        pipeline.check_pair(_completed_pair(**changes))


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_one_pair_smoke_run_emits_every_metric(name):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    wl = dataclasses.replace(run.WORKLOADS[name], angles=(150.0,), image_size=(48, 36),
                             focal_length=51.0)
    result = run.run(wl, seed=3, seconds=0.01, trace=True)
    names = set(result.metrics)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert set(run.END_TO_END) <= names
    assert {m["name"] for m in spec["per_layer"]} == set(result.per_layer)
    assert "pair_fail_ratio" in names
    assert result.attempted == 2 and result.failed == 0
    for value, unit, _ in result.metrics.values():
        assert isinstance(value, (int, float)) and unit
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for metric, unit in units.items():
        assert result.metrics[metric][1] == unit, metric
    for key in ("nproc", "numpy", "scipy", "blas_threads", "pairs"):
        assert key in result.environment
