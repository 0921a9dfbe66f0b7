"""Unconstrained limited-memory quasi-Newton minimizer (L-BFGS).

Descent is monotone by construction: a step is only accepted when it lowers
the objective.

A rejected trial shrinks the step to the minimizer of the quadratic through
f(x), the slope at x and f at the trial point, clipped to [_MIN_SHRINK, 0.5]
(Nocedal & Wright, Numerical Optimization, 3.5), and halves it when that
quadratic has no minimizer or the rise of f is below _RESOLUTION * |f|,
mostly rounding error. A line search ends once its trial no longer moves x.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .geometry import is_count

_ARMIJO = 1e-4
_MAX_BACKTRACKS = 60
_MIN_SHRINK = 1e-6  # smallest factor one backtrack may shrink the step by
_RESOLUTION = float(np.sqrt(np.finfo(np.float64).eps))  # smallest trusted relative rise of f
_CURVATURE_EPS = 1e-12
_GRADIENT_TOLERANCE = 1e-9  # converged once |g|_inf is at most this
_STEP_TOLERANCE = 1e-12  # converged once a step is at most this times max(1, |x|)
_HISTORY_SIZE = 10  # (s, y) pairs the two-loop recursion keeps


@dataclass
class LbfgsReport:
    """Trace of one minimization run."""

    status: str = "max_iterations"
    iterations: int = 0
    objective_trace: list = field(default_factory=list)

    @property
    def initial_objective(self) -> float:
        return self.objective_trace[0]

    @property
    def final_objective(self) -> float:
        return self.objective_trace[-1]


def _dot(a, b) -> float:
    # einsum's own loop: BLAS's `a @ b` can stall for milliseconds waking its
    # threads between other work on vectors as long as a large BA's
    return float(np.einsum("i,i->", a, b))


def _two_loop(history, g):
    q = g.copy()
    work = np.empty_like(q)  # one buffer for every scaled s or y
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * _dot(s, q)
        alphas.append(a)
        q -= np.multiply(a, y, out=work)
    if history:
        s, y, _ = history[-1]
        q *= _dot(s, y) / _dot(y, y)
    for (s, y, rho), a in zip(history, reversed(alphas)):
        b = rho * _dot(y, q)
        q += np.multiply(a - b, s, out=work)
    return q


def minimize_lbfgs(fun, grad, x0, *, max_iterations=300):
    """Minimize fun with analytic grad from x0.

    grad runs once at x0 and once per accepted step. Returns
    (x, LbfgsReport). The run ends as converged_gradient once |g|_inf <=
    _GRADIENT_TOLERANCE, and as converged_step once an accepted step is at
    most _STEP_TOLERANCE * max(1, |x|). A steepest-descent line search that
    finds no lower f ends it too: as converged_step when the decrease its
    trials promised is below the resolution of f, else as line_search_failure.
    """
    if not is_count(max_iterations):
        raise ValueError("max_iterations must be an int >= 1")
    x = np.array(x0, dtype=np.float64)
    f = float(fun(x))
    g = np.asarray(grad(x), dtype=np.float64)
    report = LbfgsReport()
    report.objective_trace.append(f)
    history = deque(maxlen=_HISTORY_SIZE)

    for it in range(1, max_iterations + 1):
        if np.linalg.norm(g, np.inf) <= _GRADIENT_TOLERANCE:
            report.status = "converged_gradient"
            break
        d = -_two_loop(history, g)
        if _dot(g, d) >= 0.0:  # not a descent direction: restart from steepest descent
            history.clear()
            d = -g
        alpha = 1.0 if history else min(1.0, 1.0 / max(1.0, np.sqrt(_dot(g, g))))

        accepted = False
        promised = 0.0  # largest decrease a trial's first-order model predicted
        for _ in range(_MAX_BACKTRACKS):
            x_try = x + alpha * d
            if np.array_equal(x_try, x):
                break  # the step no longer moves x: no trial is left
            predicted = _dot(g, x_try - x)
            promised = max(promised, -predicted)
            f_try = float(fun(x_try))
            if f_try <= f + _ARMIJO * predicted and f_try < f:
                accepted = True
                break
            rise = f_try - f
            if _RESOLUTION * abs(f) < rise < np.inf:
                # minimizer of the quadratic through f, the slope and f_try
                alpha *= min(max(-predicted / (2.0 * (rise - predicted)), _MIN_SHRINK), 0.5)
            else:
                alpha *= 0.5
        if not accepted:
            if history:
                history.clear()  # retry along the raw gradient next iteration
                continue
            # converged when f cannot resolve the decrease the gradient
            # promises; otherwise f and grad disagree
            converged = promised <= _RESOLUTION * abs(f)
            report.status = "converged_step" if converged else "line_search_failure"
            break

        g_try = np.asarray(grad(x_try), dtype=np.float64)
        s = x_try - x
        y = g_try - g
        sy = _dot(s, y)
        if sy > _CURVATURE_EPS * np.sqrt(_dot(s, s) * _dot(y, y)):
            history.append((s, y, 1.0 / sy))
        small_step = _dot(s, s) <= _STEP_TOLERANCE**2 * max(1.0, _dot(x, x))

        x, g, f = x_try, g_try, f_try
        report.iterations = it
        report.objective_trace.append(f)
        if small_step:
            report.status = "converged_step"
            break
    return x, report
