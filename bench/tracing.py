"""In-memory spans around calls into the library's layers.

A span is (name, start, end, parent, pair): `parent` indexes the span that
was open when this one started, `pair` identifies the image pair the work
belongs to (None during scene set-up). Public library functions are wrapped
where the calling module binds them, so the library itself is unchanged;
`Tracer.install` patches those names and restores them on exit.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import vcsfm.ba
import vcsfm.extraction
import vcsfm.relative_pose
import vcsfm.synthetic
from vcsfm.errors import DegenerateSampleError


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pair: int | None


def self_times(spans) -> dict:
    """Seconds per span name not covered by that span's direct children.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so the self times of a tree sum to its roots' duration.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = defaultdict(float)
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.name] += (s.end - s.start) - covered
    return dict(out)


def total_times(spans) -> dict:
    """Summed duration per span name (children included)."""
    out = defaultdict(float)
    for s in spans:
        out[s.name] += s.end - s.start
    return dict(out)


class Tracer:
    """Records spans and per-boundary counts for one benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(float)
        self.pair: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.pair))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def _wrap(self, fn, name, before=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _rays(self, counter, faces_counter=None):
        def before(mesh, origins, *args, **kwargs):
            self.count(counter, len(origins))
            if faces_counter is not None:
                self.count(faces_counter, len(origins) * mesh.num_faces)
        return before

    def _lbfgs(self, fn):
        def minimize_lbfgs(fun, grad, x0, **kwargs):
            def traced_fun(x):
                self.count("ba.objective_evals")
                with self.span("ba.objective"):
                    return fun(x)

            def traced_grad(x):
                self.count("ba.gradient_evals")
                with self.span("ba.gradient"):
                    return grad(x)

            with self.span("optim.minimize_lbfgs"):
                return fn(traced_fun, traced_grad, x0, **kwargs)
        return minimize_lbfgs

    def _five_point(self, fn):
        def five_point(x1, x2):
            self.count("relative_pose.five_point_calls")
            with self.span("relative_pose.five_point"):
                try:
                    hyps = fn(x1, x2)
                except DegenerateSampleError:
                    self.count("relative_pose.degenerate_samples")
                    raise
            self.count("relative_pose.hypotheses", len(hyps))
            return hyps
        return five_point

    @contextmanager
    def install(self):
        """Wrap the library's call sites for the duration of the block."""
        patches = [
            (vcsfm.synthetic, "batch_first_hits",
             self._wrap(vcsfm.synthetic.batch_first_hits, "mesh.first_hits",
                        self._rays("mesh.first_hit_rays", "mesh.ray_face_tests"))),
            (vcsfm.synthetic, "batch_all_hits",
             self._wrap(vcsfm.synthetic.batch_all_hits, "mesh.all_hits",
                        self._rays("mesh.all_hit_rays", "mesh.ray_face_tests"))),
            (vcsfm.extraction, "batch_all_hits",
             self._wrap(vcsfm.extraction.batch_all_hits, "extraction.all_hits",
                        self._rays("extraction.rays_cast"))),
            (vcsfm.relative_pose, "five_point", self._five_point(vcsfm.relative_pose.five_point)),
            (vcsfm.relative_pose, "sampson_errors",
             self._wrap(vcsfm.relative_pose.sampson_errors, "relative_pose.scoring")),
            (vcsfm.ba, "batch_first_hits",
             self._wrap(vcsfm.ba.batch_first_hits, "ba.lift_first_hits")),
            (vcsfm.ba, "minimize_lbfgs", self._lbfgs(vcsfm.ba.minimize_lbfgs)),
        ]
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
        try:
            for mod, name, fn in patches:
                setattr(mod, name, fn)
            yield self
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start", "end", "parent", "pair"])
            for i, s in enumerate(self.spans):
                w.writerow([i, s.name, repr(s.start), repr(s.end),
                            "" if s.parent is None else s.parent,
                            "" if s.pair is None else s.pair])
