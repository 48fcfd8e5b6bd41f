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


@pytest.mark.parametrize("error", [DomainError("u <= 0"),
                                   ValidationError("u_a", "forced"),
                                   OverflowError("math range error"),
                                   FloatingPointError("overflow")])
def test_damped_newton_turns_a_jacobian_error_into_convergence_error(error):
    def jac(x):
        raise error

    with pytest.raises(ConvergenceError, match="left the domain") as err:
        solvers.damped_newton(lambda x: x * x - 4.0, [1.0], jac)
    assert err.value.last_iterate.tolist() == [1.0]
    assert err.value.residual == 3.0


@pytest.mark.parametrize("n", [1, 11])
def test_newton_counts_steps(n):
    # max_iter = n: n + 1 residuals (the start and each step's) and n
    # Jacobians, none after the last residual.
    calls = []

    def residual(y):
        calls.append("residual")
        return np.array([1.0])  # no root

    def jacobian(y):
        calls.append("jacobian")
        return np.eye(1)

    with pytest.raises(ConvergenceError, match=f"no convergence in {n} "):
        solvers._newton(residual, jacobian, np.zeros(1), 1e-10, n)
    assert calls == ["residual"] + ["jacobian", "residual"] * n


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


# The continuation engine as it was before the bordered systems were built
# in place and the norm taken over Python floats, kept verbatim as the oracle.

def reference_newton(residual, jacobian, y, tol, max_iter, free=slice(None)):
    norm = np.inf
    for _ in range(max_iter):
        try:
            r = residual(y)
            norm = float(np.max(np.abs(r)))
            if not np.isfinite(norm) or norm > 1e6:
                raise ConvergenceError("Newton iteration diverged", y, norm)
            if norm < tol:
                return norm
            y[free] += np.linalg.solve(jacobian(y)[:, free], -r)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Jacobian: {exc}", y, norm) from None
        except (DomainError, ValidationError, OverflowError) as exc:
            raise ConvergenceError(f"iterate left the domain: {exc}", y,
                                   norm) from None
    raise ConvergenceError(f"no convergence in {max_iter} iterations", y, norm)


def reference_tangent(J, scales, prev):
    n = J.shape[1]
    A = np.vstack([J, prev])
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        t = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        # Fall back to SVD null space.
        _, _, vh = np.linalg.svd(J)
        t = vh[-1]
    t = t / scales
    t /= np.linalg.norm(t)
    if float(np.dot(t, prev)) < 0:
        t = -t
    return t


def reference_correct(prob, y_pred, t_hat, tol, max_iter=12):
    border = t_hat / prob.scales

    def full_res(y):
        c = float(np.dot(t_hat, (y - y_pred) / prob.scales))
        return np.append(prob.residual(y), c)

    def full_jac(y):
        return np.vstack([prob.jacobian(y), border])

    y = y_pred.copy()
    norm = reference_newton(full_res, full_jac, y, tol, max_iter)
    return y, norm


def reference_branch_problem(p: ModelParams, active: str, scales):
    """The steady branch system with a new parameter set per call."""

    def residual(y):
        x, u, value = y.tolist()
        q = dataclasses.replace(p, **{active: value})
        return np.array(model._field_scalar(q, x, u))

    def jacobian(y):
        x, u, value = y.tolist()
        q = dataclasses.replace(p, **{active: value})
        (a, b), (c, d) = model._jac_scalar(q, x, u)
        e, g = model._param_derivative_scalar(q, x, u, active)
        return np.array([[a, b, e], [c, d, g]])

    return solvers.ContinuationProblem(residual, jacobian, scales)


def branch_run(p: ModelParams, active: str, reference: bool, ds_max: float):
    """``continue_branch``'s continuation over [v / 2, 2 v] of ``active``."""
    v = getattr(p, active)
    lo, hi = 0.5 * v, 2.0 * v
    q = p.with_(**{active: lo})
    seeds = steady.reduced_scan(q, q.u_a, q.u_a + q.f / q.loss * (1 + 1e-9),
                                n=4000, param_name=active)
    if not seeds:
        return None
    y0 = np.array([seeds[0].state.x, seeds[0].state.u, lo])
    scales = np.array([1.0, max(p.f / p.loss, 1e-6), hi - lo])
    build = reference_branch_problem if reference else steady._branch_problem

    def stop(y):
        return "window boundary" if y[2] < lo or y[2] > hi else None

    with ExitStack() as stack:
        if reference:
            stack.enter_context(mock.patch.object(solvers, "_correct",
                                                  reference_correct))
            stack.enter_context(mock.patch.object(solvers, "_tangent",
                                                  reference_tangent))
        return solvers.continue_curve(
            build(p, active, scales), y0, np.array([0.0, 0.0, 1.0]), ds0=1e-3,
            ds_min=1e-6, ds_max=ds_max, max_steps=600, tol=steady.BRANCH_TOL,
            stop=stop)


class TestEngineOracle:
    # ds_max = 0.3 makes the corrector fail now and then (no convergence,
    # divergence, a trial parameter out of range), so step halving is
    # compared too.
    @settings(max_examples=80, deadline=None)
    @given(p=criterion5_params, active=st.sampled_from(model.CONTINUABLE_PARAMS),
           ds_max=st.sampled_from([1e-2, 0.3]))
    def test_branch_runs_equal_the_reference_engine(self, p, active, ds_max):
        run = branch_run(p, active, False, ds_max)
        ref = branch_run(p, active, True, ds_max)
        if ref is None:
            assert run is None
            return
        assert run.stop_reason == ref.stop_reason
        for got, want in ((run.points, ref.points), (run.tangents, ref.tangents)):
            assert len(got) == len(want)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        assert np.array(run.residuals).tobytes() == np.array(ref.residuals).tobytes()

    @pytest.mark.parametrize("newton", [solvers._newton, reference_newton])
    def test_nan_after_finite_components_diverges(self, newton):
        # Python's max skips a NaN that is not first; np.max does not.
        def residual(y):
            return np.array([1e-3, 0.5, math.nan])

        with pytest.raises(ConvergenceError, match="diverged") as err:
            newton(residual, lambda y: np.eye(3), np.zeros(3), 1e-10, 5)
        assert math.isnan(err.value.residual)

    def test_nan_in_the_bordered_residual_fails_the_corrector(self):
        prob = solvers.ContinuationProblem(
            lambda y: np.array([0.25, math.nan]), lambda y: np.eye(2, 3),
            np.ones(3))
        with pytest.raises(ConvergenceError, match="diverged"):
            solvers._correct(prob, np.zeros(3), np.array([0.0, 0.0, 1.0]),
                             1e-10)
