import numpy as np
from scipy.optimize import nnls

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


def test_projected_iterates_stay_feasible_and_reach_the_bound_optimum(rng):
    # min 0.5 x'Ax - b'x over x >= 0, with a diagonal A so that projecting
    # the quasi-Newton step is a valid method
    a = np.diag(np.logspace(0.0, 2.0, 6))
    b = np.array([3.0, -2.0, 5.0, -1.0, 0.5, -4.0])
    seen = []

    def fun(x):
        seen.append(x)
        return 0.5 * x @ a @ x - b @ x

    def grad(x):
        seen.append(x)
        return a @ x - b

    x, _ = minimize_lbfgs(fun, grad, -np.ones(6), project=lambda x: np.maximum(x, 0.0))
    assert all(np.all(v >= 0.0) for v in seen)
    # the same problem as a non-negative least-squares fit, ||A^1/2 x - A^-1/2 b||
    ref, _ = nnls(np.sqrt(a), b / np.sqrt(np.diag(a)))
    np.testing.assert_allclose(x, ref, atol=1e-9)


def test_post_accept_rewrite_is_honoured_without_extra_gradient_calls(rng):
    # The point is base + scale * x. post_accept folds x into base and, from
    # the first accepted step on, doubles the scale: a change of chart whose
    # gradient is known without a new evaluation.
    a, b = _quadratic(rng, 5, 2.0)
    chart = {"base": np.zeros(5), "scale": 1.0}
    grad_calls = []
    returned = []

    def point(x):
        return chart["base"] + chart["scale"] * x

    def fun(x):
        p = point(x)
        return 0.5 * p @ a @ p - b @ p

    def grad(x):
        grad_calls.append(1)
        return chart["scale"] * (a @ point(x) - b)

    def post_accept(x, g):
        chart["base"] = point(x)
        g = g * (2.0 / chart["scale"])
        chart["scale"] = 2.0
        returned.append(g)
        return np.zeros_like(x), g

    x, report = minimize_lbfgs(fun, grad, np.zeros(5), max_iterations=200,
                               post_accept=post_accept)
    assert report.status.startswith("converged")
    assert np.all(x == 0.0)
    np.testing.assert_allclose(chart["base"], np.linalg.solve(a, b), rtol=1e-8, atol=1e-10)
    assert len(grad_calls) == 1 + report.iterations
    assert report.gradient_norms[1:] == [float(np.linalg.norm(g, np.inf)) for g in returned]
