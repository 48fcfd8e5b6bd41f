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

from conftest import criterion5_params


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


class TestSignTestsSurviveUnderflow:
    """A sign change of two tiny values is still a sign change, though their
    product underflows to zero."""

    @settings(max_examples=60, deadline=None)
    @given(scale_exp=st.floats(0.0, 300.0),
           root=st.one_of(st.just(0.0), st.floats(-0.99, 1.99)))
    def test_scaled_linear_root_is_found(self, scale_exp, root):
        scale = 10.0 ** -scale_exp

        def fn(v):
            return scale * (np.asarray(v) - root)

        # Bisection stops at adjacent floats or where fn underflows to 0.
        tol = 2.0 * np.spacing(abs(root)) + 5e-324 / scale
        roots = bracket_roots(fn, np.linspace(-1.0, 2.0, 7))
        assert len(roots) == 1 and abs(roots[0] - root) <= tol
        assert abs(bisect_root(lambda v: float(fn(v)), -1.0, 2.0) - root) <= tol

    def test_root_at_zero_is_bisected_to_zero(self):
        assert bracket_roots(np.asarray, [-1.0, 2.0]) == [0.0]

    @pytest.mark.parametrize("lo_val, hi_val", [(1e-200, 1e-200),
                                                (-1e-200, -3e-200),
                                                (math.nan, 1.0)])
    def test_no_sign_change_raises(self, lo_val, hi_val):
        with pytest.raises(ValueError, match="no sign change"):
            bisect_root(lambda v: lo_val if v < 0.5 else hi_val, 0.0, 1.0)


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


class TestCorrect:
    # The tangent e_2 holds y[2] at the prediction's 0.3, and the sphere
    # problem then has its root at x = y = sqrt(0.455).
    tangent = np.array([0.0, 0.0, 1.0])

    def test_no_convergence_raises(self):
        # The triple root of x^3 = 0 slows Newton down to a factor 2/3 a
        # step, so 11 steps from x = 0.5 stay far above the tolerance.
        prob = solvers.ContinuationProblem(
            lambda y: np.array([y[0] ** 3, y[0] - y[1]]),
            lambda y: np.array([[3.0 * y[0] ** 2, 0.0, 0.0], [1.0, -1.0, 0.0]]),
            np.ones(3))
        with pytest.raises(ConvergenceError, match="no convergence in 11 "):
            solvers._correct(prob, np.array([0.5, 0.5, 0.3]), self.tangent,
                             1e-13)

    @pytest.mark.parametrize("error", [DomainError("u <= 0"),
                                       ValidationError("u_a", "forced"),
                                       OverflowError("math range error")])
    def test_leaving_the_domain_raises_convergence_error(self, error):
        # The first step from (0.5, 0.6) lands on x = 0.69.
        def residual(y):
            if y[0] > 0.6:
                raise error
            return sphere_problem().residual(y)

        prob = dataclasses.replace(sphere_problem(), residual=residual)
        with pytest.raises(ConvergenceError, match="left the domain"):
            solvers._correct(prob, np.array([0.5, 0.6, 0.3]), self.tangent,
                             1e-13)


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
    """The steady branch over [v / 2, 2 v] of ``active`` by pseudo-arclength
    continuation, on the library's engine or, with ``reference``, on this
    file's reference corrector and tangent."""
    v = getattr(p, active)
    lo, hi = 0.5 * v, 2.0 * v
    q = p.with_(**{active: lo})
    seeds = steady.reduced_scan(q, q.u_a, q.u_a + q.f / q.loss * (1 + 1e-9), n=4000)
    if not seeds:
        return None
    y0 = np.array([seeds[0].state.x, seeds[0].state.u, lo])
    scales = np.array([1.0, max(p.f / p.loss, 1e-6), hi - lo])
    prob = reference_branch_problem(p, active, scales)

    def stop(y):
        return "window boundary" if y[2] < lo or y[2] > hi else None

    with ExitStack() as stack:
        if reference:
            stack.enter_context(mock.patch.object(solvers, "_correct",
                                                  reference_correct))
            stack.enter_context(mock.patch.object(solvers, "_tangent",
                                                  reference_tangent))
        return solvers.continue_curve(
            prob, y0, np.array([0.0, 0.0, 1.0]), ds0=1e-3,
            ds_min=1e-6, ds_max=ds_max, max_steps=600, tol=1e-10,
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


def solve_outcome(solve, A, b):
    """The solution's bytes, or the LinAlgError's message."""
    try:
        return solve(A, b).tobytes()
    except np.linalg.LinAlgError as exc:
        return f"LinAlgError: {exc}"


def without_gufunc():
    """Take ``solvers._solve`` down its ``np.linalg.solve`` fallback."""
    return mock.patch.object(solvers, "_solve1", None)


class TestSolve:
    """``solvers._solve`` gives ``np.linalg.solve``'s bits and errors."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1),
           spread=st.integers(0, 12),
           form=st.sampled_from(["contiguous", "column view", "column copy"]))
    def test_same_bits_as_numpy(self, n, seed, spread, form):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, n + 1)) * 10.0 ** rng.integers(
            -spread, spread + 1, size=(n, n + 1))
        if form == "contiguous":
            A = M[:, :n].copy()
        elif form == "column view":
            A = M[:, 1:]
        else:  # a Jacobian without one column, copied by an index list
            pivot = int(rng.integers(n + 1))
            A = M[:, [i for i in range(n + 1) if i != pivot]]
        b = -rng.standard_normal(n)
        before = A.tobytes(), b.tobytes()
        want = solve_outcome(np.linalg.solve, A, b)
        assert solve_outcome(solvers._solve, A, b) == want
        with without_gufunc():
            assert solve_outcome(solvers._solve, A, b) == want
        assert (A.tobytes(), b.tobytes()) == before

    @pytest.mark.parametrize("case", ["repeated row", "zero column", "zeros",
                                      "nan entry", "inf entry", "-inf in b",
                                      "nan in b"])
    @pytest.mark.parametrize("n", [2, 4, 9])
    def test_singular_and_non_finite_inputs(self, case, n):
        rng = np.random.default_rng(n)
        A, b = rng.standard_normal((n, n)), rng.standard_normal(n)
        if case == "repeated row":
            # Row 0 pivots first with a power-of-two pivot, so eliminating
            # its copy leaves an exact zero row.
            A[:, 0] = rng.uniform(-1.0, 1.0, n)
            A[0, 0] = 8.0
            A[-1] = A[0]
        elif case == "zero column":
            A[:, n // 2] = 0.0
        elif case == "zeros":
            A[:] = 0.0
        elif case == "nan entry":
            A[1, 0] = math.nan
        elif case == "inf entry":
            A[0, 1] = math.inf
        elif case == "-inf in b":
            b[0] = -math.inf
        else:
            b[-1] = math.nan
        want = solve_outcome(np.linalg.solve, A, b)
        if case in ("repeated row", "zero column", "zeros"):
            assert want == "LinAlgError: Singular matrix"
        assert solve_outcome(solvers._solve, A, b) == want
        with without_gufunc():
            assert solve_outcome(solvers._solve, A, b) == want

    def test_fallback_gives_the_same_branch(self, mic):
        p = mic.model
        window = loci.default_window(p)
        runs = []
        for patch in (ExitStack(), without_gufunc()):
            with patch:
                runs.append(loci.continue_fold_locus(p, window))
        fast, slow = runs
        assert len(fast) == len(slow) > 10
        assert fast.points.tobytes() == slow.points.tobytes()
        assert fast.stop_reasons == slow.stop_reasons


class TestSingularSystems:
    def test_newton_on_a_singular_jacobian(self):
        # x^2 + 1 = 0 from x = 1: the full step lands on x = 0, where the
        # Jacobian 2x is singular.
        with pytest.raises(ConvergenceError,
                           match="singular Jacobian: Singular matrix") as err:
            solvers._newton(lambda y: y * y + 1.0, lambda y: np.diag(2.0 * y),
                            np.ones(1), 1e-12, 10)
        assert err.value.last_iterate.tolist() == [0.0]
        assert err.value.residual == 1.0

    def test_damped_newton_on_a_singular_jacobian(self):
        # The full step lowers the residual from 2 to 1, so it is taken.
        with pytest.raises(ConvergenceError,
                           match="singular Jacobian: Singular matrix") as err:
            solvers.damped_newton(lambda y: y * y + 1.0, [1.0],
                                  jac=lambda y: np.diag(2.0 * y))
        assert err.value.last_iterate.tolist() == [0.0]
        assert err.value.residual == 1.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_tangent_falls_back_to_the_null_vector(self, sign):
        # prev is a row of J, so the bordered matrix has a repeated row; its
        # null vector is (-1, -1, 1) up to length and sign.
        J = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 1.0]])
        scales = np.array([1.0, 2.0, 0.5])
        prev = sign * J[0]
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            t = solvers._tangent(J, scales, prev)
        assert svd.call_count == 1
        assert np.allclose(J @ (t * scales), 0.0, rtol=0.0, atol=1e-15)
        assert abs(math.sqrt(t.dot(t)) - 1.0) <= 1e-15
        assert float(np.dot(t, prev)) > 0.5
