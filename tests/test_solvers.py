from __future__ import annotations

import dataclasses
import math
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermorun import loci, model, solvers, steady
from thermorun.errors import ConvergenceError, DomainError, ValidationError
from thermorun.model import ModelParams
from thermorun.solvers import bisect_root, bracket_roots


def reference_roots(fn, grid) -> list[float]:
    """The per-index scan that ``bracket_roots`` replaced.

    Calls ``fn`` on one grid point at a time, takes exact zeros (the last
    grid point included) and bisects sign changes between neighbours.
    """
    vals = [fn(u) for u in grid]
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        elif vals[i] * vals[i + 1] < 0:
            roots.append(float(bisect_root(fn, grid[i], grid[i + 1])))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return roots


class TestBracketRoots:
    def test_interior_exact_zero_counted_once(self):
        grid = np.linspace(0.0, 1.0, 5)
        assert bracket_roots(lambda u: u - 0.5, grid) == [0.5]

    def test_zero_at_last_grid_point(self):
        grid = np.linspace(0.0, 1.0, 5)
        assert bracket_roots(lambda u: u - 1.0, grid) == [1.0]

    def test_non_finite_neighbour_skipped(self):
        # The pole at u = 0.25 flips the sign through an infinite value.
        grid = np.linspace(0.0, 1.0, 5)
        with np.errstate(divide="ignore"):
            assert bracket_roots(lambda u: 1.0 / (u - 0.25), grid) == []

    def test_several_roots_ascending(self):
        grid = np.linspace(0.0, 1.0, 12)
        roots = bracket_roots(lambda u: (u - 0.8) * (u - 0.2) * (u - 0.5), grid)
        assert roots == sorted(roots)
        assert np.allclose(roots, [0.2, 0.5, 0.8], rtol=0.0, atol=1e-15)
        assert all(isinstance(r, float) for r in roots)


def recording_scans(calls: list) -> ExitStack:
    """Route every library ``bracket_roots`` call through a recorder."""

    def spy(fn, grid):
        roots = solvers.bracket_roots(fn, grid)
        calls.append((fn, grid, roots))
        return roots

    stack = ExitStack()
    for mod in (model, steady, loci):
        stack.enter_context(mock.patch.object(mod, "bracket_roots", spy))
    return stack


# Parameter distribution of acceptance criterion 5.
criterion5_params = st.builds(
    lambda f, ell, eps, u_a, ln_sigma: ModelParams(
        f=f, ell=ell, eps=eps, u_a=u_a, sigma=math.exp(ln_sigma)),
    st.floats(0.3, 4.0), st.floats(50.0, 1500.0), st.floats(2.0, 25.0),
    st.floats(0.025, 0.055), st.floats(20.0, 32.0))


@settings(max_examples=15, deadline=None)
@given(p=criterion5_params, log_f_factor=st.floats(0.0, 3.0))
def test_library_scans_match_per_index_reference(p, log_f_factor):
    width = p.f / p.loss
    window = loci.Window((0.75 * p.u_a, 1.35 * p.u_a), (0.01 * p.f, 1e6 * p.f))
    calls: list = []
    with recording_scans(calls):
        reduced = model._reduced_roots(p)
        scanned = steady.reduced_scan(p, p.u_a, p.u_a + width * (1 + 1e-9),
                                      n=10000)
        loci._fold_roots_at_f(p, p.f * 10.0 ** log_f_factor, window)
        model._marginal_sigma_candidates(p.with_(sigma=1.0), p.u_a)
    assert len(calls) == 4
    assert reduced and reduced == calls[0][2]
    assert [pt.state.u for pt in scanned] == calls[1][2]
    for fn, grid, roots in calls:
        assert roots == reference_roots(fn, grid)


def sphere_problem(calls: list | None = None) -> solvers.ContinuationProblem:
    """F(y) = [|y|^2 - 1, y0 - y1] on R^3: a circle, traced by arclength.

    When ``calls`` is given, every Jacobian and rebase call is logged as
    (kind, y bytes).
    """

    def residual(y):
        return np.array([y @ y - 1.0, y[0] - y[1]])

    def jacobian(y):
        if calls is not None:
            calls.append(("jacobian", y.tobytes()))
        return np.array([2.0 * y, [1.0, -1.0, 0.0]])

    def rebase(y):
        calls.append(("rebase", y.tobytes()))

    return solvers.ContinuationProblem(residual, jacobian, np.ones(3),
                                       rebase if calls is not None else None)


class TestSolvePinned:
    def test_holds_pivot_and_solves_the_rest(self):
        y = solvers.solve_pinned(sphere_problem(), [0.5, 0.6, 0.3], 2, 0.0,
                                 1e-13, 30)
        assert y[2] == 0.0
        assert np.allclose(y[:2], math.sqrt(0.5), rtol=0.0, atol=1e-13)

    def test_input_left_untouched(self):
        guess = np.array([0.5, 0.6, 0.3])
        solvers.solve_pinned(sphere_problem(), guess, 2, 0.0, 1e-13, 30)
        assert guess.tolist() == [0.5, 0.6, 0.3]

    def test_no_convergence_raises(self):
        with pytest.raises(ConvergenceError):
            solvers.solve_pinned(sphere_problem(), [0.5, 0.6, 0.3], 2, 0.0,
                                 1e-13, 2)

    @pytest.mark.parametrize("error", [DomainError("u <= 0"),
                                       ValidationError("u_a", "forced"),
                                       OverflowError("math range error")])
    def test_leaving_the_domain_raises_convergence_error(self, error):
        def residual(y):
            if y[0] > 0.6:
                raise error
            return sphere_problem().residual(y)

        prob = dataclasses.replace(sphere_problem(), residual=residual)
        with pytest.raises(ConvergenceError, match="left the domain"):
            solvers.solve_pinned(prob, [0.5, 0.6, 0.3], 2, 0.0, 1e-13, 30)


def test_damped_newton_rejects_a_trial_that_raises_convergence_error():
    # x^2 = 4 from x = 1: the full step lands on 2.5, where the residual
    # fails as a shoot does; the halved step (1.75) is taken instead.
    trials = []

    def fn(x):
        trials.append(float(x[0]))
        if x[0] > 2.2:
            raise ConvergenceError("variational integration failed")
        return x * x - 4.0

    x = solvers.damped_newton(fn, [1.0], jac=lambda x: np.diag(2.0 * x),
                              tol=1e-12)
    assert trials[:3] == [1.0, 2.5, 1.75]
    assert abs(x[0] - 2.0) < 1e-12


def test_continue_curve_rebases_each_point_before_its_jacobian():
    calls: list = []
    run = solvers.continue_curve(
        sphere_problem(calls), np.array([0.0, 0.0, 1.0]),
        np.array([1.0, 1.0, 0.0]), ds0=0.05, ds_min=1e-6, ds_max=0.2,
        max_steps=12)
    rebased = [key for kind, key in calls if kind == "rebase"]
    assert rebased == [y.tobytes() for y in run.points]
    for y in run.points:
        first = calls.index(("rebase", y.tobytes()))
        assert ("jacobian", y.tobytes()) not in calls[:first]
        assert ("jacobian", y.tobytes()) in calls[first:]
    assert run.stop_reason == "max steps"
    assert len(run.residuals) == len(run.points) - 1 == 12
