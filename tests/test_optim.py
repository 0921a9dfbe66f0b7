import numpy as np
import pytest

from vcsfm.optim import minimize_lbfgs


def _quadratic(rng, n, log_cond):
    """SPD matrix with eigenvalues 1 .. 10**log_cond, and a right-hand side."""
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    a = q @ np.diag(np.logspace(0.0, log_cond, n)) @ q.T
    return a, rng.normal(size=n)


def test_ill_conditioned_quadratic_reaches_its_minimum(rng):
    a, b = _quadratic(rng, 8, 4.0)
    x, report = minimize_lbfgs(lambda x: 0.5 * x @ a @ x - b @ x, lambda x: a @ x - b,
                               np.zeros(8), max_iterations=500)
    assert report.status.startswith("converged")
    # a step is accepted only if f falls, so x is good to about sqrt(eps * cond)
    np.testing.assert_allclose(x, np.linalg.solve(a, b), atol=1e-6)
    assert all(f1 < f0 for f0, f1 in zip(report.objective_trace, report.objective_trace[1:]))


def test_badly_scaled_first_step_is_cut_to_size_by_interpolation(rng):
    # curvatures 1 .. 1e8 and a start near the minimum: the steepest-descent
    # first step overshoots along the stiff axes by a factor of about 1e3,
    # which halving needs ten trials to undo
    h = np.logspace(0.0, 8.0, 9)
    c = rng.normal(size=9)
    calls = []

    def fun(x):
        calls.append("f")
        e = x - c
        return 0.5 * e @ (h * e)

    def grad(x):
        calls.append("g")
        return h * (x - c)

    x, report = minimize_lbfgs(fun, grad, c + 1e-3 * rng.normal(size=9), max_iterations=50)
    first_step = calls[: calls.index("g", calls.index("g") + 1)]
    assert first_step.count("f") <= 4
    assert report.iterations >= 1
    assert all(f1 < f0 for f0, f1 in zip(report.objective_trace, report.objective_trace[1:]))


def test_flat_objective_with_a_gradient_stops_early_as_a_line_search_failure():
    # no step lowers a flat objective although its gradient promises a
    # decrease: the line search stops once the trial step no longer changes
    # x instead of running out of backtracks, and reports the disagreement
    calls = []

    def fun(x):
        calls.append(1)
        return 1.0

    x0 = np.ones(4)
    x, report = minimize_lbfgs(fun, lambda x: np.ones(4), x0)
    assert report.status == "line_search_failure"
    assert report.iterations == 0 and np.array_equal(x, x0)
    assert len(calls) < 60


def test_separable_quadratic_with_twenty_thousand_variables_reaches_its_minimum(rng):
    # a parameter vector longer than a large BA's, where the inner products
    # and norms run on vectors of this length
    h = np.logspace(0.0, 2.0, 20_000)
    c = rng.normal(size=20_000)
    x, report = minimize_lbfgs(lambda x: 0.5 * (x - c) @ (h * (x - c)), lambda x: h * (x - c),
                               np.zeros(20_000))
    assert report.status.startswith("converged")
    np.testing.assert_allclose(x, c, atol=1e-8)
    assert all(f1 < f0 for f0, f1 in zip(report.objective_trace, report.objective_trace[1:]))


@pytest.mark.parametrize("cap", [0, -5, 2.5, 2.0, True, None])
def test_iteration_cap_that_is_not_a_count_is_rejected(cap):
    # -5 returned x0 as max_iterations, 2.5 failed inside range, True ran once
    with pytest.raises(ValueError, match="max_iterations"):
        minimize_lbfgs(lambda x: x @ x, lambda x: 2.0 * x, np.ones(2), max_iterations=cap)
    x, report = minimize_lbfgs(lambda x: x @ x, lambda x: 2.0 * x, np.ones(2),
                               max_iterations=np.int64(1))
    assert report.iterations == 1
