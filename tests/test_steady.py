from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermorun import model, simulate, steady
from thermorun.errors import (ConvergenceError, DomainError, NotAHopfError,
                              ValidationError)
from thermorun.model import ModelParams
from thermorun.steady import (continue_branch, lyapunov_first_coeff,
                              planar_lyapunov_coefficient, reduced_scan,
                              solve_steady)


def numerical_tensors(fun, x0: np.ndarray, step: float = 1e-3,
                      scales: np.ndarray | None = None):
    """(A, B, C) derivative tensors of a planar field by central differences.

    High-order finite differences with per-coordinate steps ``step * scale``;
    pass ``scales`` when a coordinate's natural variation scale differs from
    max(1, |x0_j|), e.g. for sharply temperature-sensitive rate laws.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    if scales is None:
        scales = np.array([max(1.0, abs(x0[j])) for j in range(n)])
    h = step * np.asarray(scales, dtype=float)

    def f(dx):
        return np.asarray(fun(x0 + dx), dtype=float)

    e = np.eye(n)
    A = np.empty((n, n))
    B = np.empty((n, n, n))
    C = np.empty((n, n, n, n))
    f0 = f(np.zeros(n))
    for j in range(n):
        A[:, j] = (f(h[j] * e[j]) - f(-h[j] * e[j])) / (2 * h[j])
        B[:, j, j] = (f(h[j] * e[j]) - 2 * f0 + f(-h[j] * e[j])) / h[j] ** 2
        C[:, j, j, j] = (f(2 * h[j] * e[j]) - 2 * f(h[j] * e[j])
                         + 2 * f(-h[j] * e[j]) - f(-2 * h[j] * e[j])) / (2 * h[j] ** 3)
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            B[:, j, k] = (f(h[j] * e[j] + h[k] * e[k]) - f(h[j] * e[j] - h[k] * e[k])
                          - f(-h[j] * e[j] + h[k] * e[k])
                          + f(-h[j] * e[j] - h[k] * e[k])) / (4 * h[j] * h[k])
            # d^3 f / dx_j^2 dx_k as a centered difference of d^2/dx_j^2.
            bjj_p = (f(h[j] * e[j] + h[k] * e[k]) - 2 * f(h[k] * e[k])
                     + f(-h[j] * e[j] + h[k] * e[k])) / h[j] ** 2
            bjj_m = (f(h[j] * e[j] - h[k] * e[k]) - 2 * f(-h[k] * e[k])
                     + f(-h[j] * e[j] - h[k] * e[k])) / h[j] ** 2
            d3 = (bjj_p - bjj_m) / (2 * h[k])
            C[:, j, j, k] = C[:, j, k, j] = C[:, k, j, j] = d3
    return A, B, C


def random_params(rng) -> ModelParams:
    return ModelParams(f=float(rng.uniform(0.3, 4.0)),
                       ell=float(rng.uniform(50.0, 1500.0)),
                       eps=float(rng.uniform(2.0, 25.0)),
                       u_a=float(rng.uniform(0.025, 0.055)),
                       sigma=float(np.exp(rng.uniform(20.0, 32.0))))


class TestSolveSteady:
    def test_reaction_off(self):
        p = ModelParams(f=1.7, ell=700.0, eps=10.0, u_a=0.0379, sigma=0.0)
        pt = solve_steady(p, (0.2, 0.05))
        assert pt.state.x == pytest.approx(1.0, abs=1e-12)
        assert pt.state.u == pytest.approx(p.u_a, abs=1e-12)
        assert pt.stability == steady.STABLE

    def test_mic_operating_point(self, mic):
        p, ts = mic.model, mic.temp_scale
        pt = solve_steady(p, (0.5, p.u_a + 0.002))
        assert 300.0 <= pt.state.u * ts <= 308.0
        assert pt.residual < 1e-12

    def test_agrees_with_reduced_scan(self, rng):
        hits = 0
        for _ in range(50):
            p = random_params(rng)
            roots = reduced_scan(p, p.u_a, p.u_a + p.f / p.loss * (1 + 1e-9),
                                 n=4000)
            for r in roots:
                pt = solve_steady(p, (r.state.x + 0.01,
                                      min(r.state.u * 1.0005, r.state.u + 1e-4)))
                if abs(pt.state.u - r.state.u) < 1e-8:
                    hits += 1
            assert roots, "reduced scan should always find a steady state"
        assert hits > 0

    def test_nonconvergence_reports_last_iterate(self):
        p = ModelParams(f=1.7, ell=700.0, eps=10.0, u_a=0.0379, sigma=0.0)

        def fn(y):
            return np.array([1.0, 1.0])  # no root anywhere

        from thermorun.solvers import damped_newton
        with pytest.raises(ConvergenceError) as err:
            damped_newton(fn, np.array([0.0, 0.0]), lambda y: np.eye(2),
                          tol=1e-12, max_iter=5)
        assert err.value.residual is not None


class TestReducedScan:
    def test_reaction_off_single_root(self):
        p = ModelParams(f=1.7, ell=700.0, eps=10.0, u_a=0.0379, sigma=0.0)
        roots = reduced_scan(p, p.u_a - 0.001, p.u_a + 0.002, n=5000)
        assert len(roots) == 1
        assert roots[0].state.u == pytest.approx(p.u_a, abs=1e-12)
        assert roots[0].state.x == pytest.approx(1.0, abs=1e-12)

    def test_mic_unique_root_stable_under_resolution(self, mic):
        p = mic.model
        window = (p.u_a, p.u_a + 0.02)
        roots = reduced_scan(p, *window, n=10000)
        roots2 = reduced_scan(p, *window, n=20000)
        assert len(roots) == len(roots2) == 1
        assert abs(roots[0].state.u - roots2[0].state.u) < 1e-12

    def test_roots_have_tiny_residual(self, mic, rng):
        for _ in range(10):
            p = random_params(rng)
            for r in reduced_scan(p, p.u_a, p.u_a + p.f / p.loss * (1 + 1e-9),
                                  n=4000):
                assert r.residual < 1e-12


def branch_problem_reference(p: ModelParams, active: str, y: np.ndarray):
    """Residual and Jacobian of the steady branch system on the array kernels."""
    q = p.with_(**{active: float(y[2])})
    res = np.array(model._field_xu(q, y[0], y[1]))
    J = np.empty((2, 3))
    J[:, :2] = model._jac_xu(q, y[0], y[1])
    J[:, 2] = model.param_derivative(q, y[0], y[1], active)
    return res, J


class TestBranchProblem:
    @settings(max_examples=300, deadline=None)
    @given(f=st.floats(0.3, 4.0), ell=st.floats(50.0, 1500.0),
           eps=st.floats(2.0, 25.0), u_a=st.floats(0.025, 0.055),
           ln_sigma=st.floats(20.0, 32.0), x=st.floats(0.0, 1.0),
           u=st.floats(-0.1, 0.3), active=st.sampled_from(steady.ACTIVE_PARAMS),
           factor=st.floats(0.5, 2.0))
    def test_equals_array_kernel_reference(self, f, ell, eps, u_a, ln_sigma,
                                           x, u, active, factor):
        p = ModelParams(f=f, ell=ell, eps=eps, u_a=u_a, sigma=math.exp(ln_sigma))
        y = np.array([x, u, factor * getattr(p, active)])
        prob = steady._branch_problem(p, active, np.ones(3))
        with np.errstate(over="ignore"):        # -1/u for subnormal u
            res, J = branch_problem_reference(p, active, y)
        assert np.array_equal(prob.residual(y), res)
        assert np.array_equal(prob.jacobian(y), J)


class TestContinueBranch:
    def test_hopf_in_band_and_subcritical(self, mic, mic_branch):
        ts = mic.temp_scale
        hopfs = [sp for sp in mic_branch.specials if sp.kind == "hopf"]
        assert hopfs
        h1 = min(hopfs, key=lambda sp: sp.param_value)
        assert 288.5 <= h1.param_value * ts <= 291.5
        assert h1.criticality == "subcritical"
        assert h1.l1 is not None and h1.l1 > 0

    def test_stable_below_first_hopf(self, mic_branch, mic_h1):
        below = [pt for pt in mic_branch.points
                 if pt.param_value < mic_h1.param_value - 1e-6]
        assert below
        assert all(pt.stability == steady.STABLE for pt in below)

    def test_reaction_off_branch_is_trivial_line(self, mic_window):
        p = ModelParams(f=1.7, ell=700.0, eps=10.0, u_a=mic_window[0], sigma=0.0)
        br = continue_branch(p, "u_a", mic_window, ds0=1e-3)
        assert not br.specials
        for pt in br.points:
            assert pt.state.x == pytest.approx(1.0, abs=1e-9)
            assert pt.state.u == pytest.approx(pt.param_value, abs=1e-9)

    def test_branch_invariants(self, mic_branch):
        assert all(pt.residual < 1e-10 for pt in mic_branch.points)
        # stability labels flip exactly at special points
        flips = [i for i in range(len(mic_branch.points) - 1)
                 if mic_branch.points[i].stability
                 != mic_branch.points[i + 1].stability]
        assert sorted(flips) == sorted(sp.after_index for sp in mic_branch.specials)

    def test_hopf_test_functions(self, mic_branch):
        for sp in mic_branch.specials:
            if sp.kind == "hopf":
                assert abs(sp.trace) < 1e-8
                assert sp.det > 0
                i = sp.after_index
                a = mic_branch.points[i]
                b = mic_branch.points[i + 1]
                assert a.eigenvalues[0].real * b.eigenvalues[0].real < 0
            else:
                assert abs(sp.det) < 1e-8

    @pytest.mark.parametrize("error", [ConvergenceError("forced failure"),
                                       DomainError("u <= 0"),
                                       ValidationError("u_a", "forced")])
    def test_failed_refinement_keeps_the_branch(self, mic, mic_window,
                                                mic_branch, monkeypatch, error):
        # A special point whose refinement fails is dropped; the branch
        # itself is returned whole.  A probe residual that leaves the
        # domain fails the refinement like a Newton failure does.
        real_solve_pinned = steady.solve_pinned

        def failing(prob, *args):
            def residual(y):
                raise error

            return real_solve_pinned(
                dataclasses.replace(prob, residual=residual), *args)

        monkeypatch.setattr(steady, "solve_pinned", failing)
        br = continue_branch(mic.model, "u_a", mic_window, ds0=1e-3)
        assert br.points == mic_branch.points
        assert br.stop_reason == mic_branch.stop_reason
        assert not br.specials

    def test_continuation_matches_scan_roots(self, rng):
        # At a fixed parameter slice the branch must hit the scan roots.
        for _ in range(10):
            p = random_params(rng)
            width = p.f / p.loss
            prange = (p.u_a - 0.1 * width, p.u_a + 0.1 * width)
            try:
                br = continue_branch(p, "u_a", prange, ds0=1e-3)
            except ConvergenceError:
                continue
            target = p.u_a
            on_slice = []
            for i in range(len(br.points) - 1):
                a, b = br.points[i], br.points[i + 1]
                if (a.param_value - target) * (b.param_value - target) <= 0:
                    w = abs(a.param_value - target) / max(
                        abs(b.param_value - a.param_value), 1e-300)
                    on_slice.append(a.state.u + w * (b.state.u - a.state.u))
            roots = [r.state.u for r in
                     reduced_scan(p, p.u_a, p.u_a + width * (1 + 1e-9), n=8000)]
            for u in on_slice:
                assert min(abs(u - r) for r in roots) < 1e-6

    def test_fold_detection_on_multivalued_branch(self, mic):
        # At high flow the steady curve is S-shaped; both turning points
        # must be flagged with near-zero determinant, a sign change across,
        # and a saddle segment between them.
        from thermorun import loci as loci_mod
        p = mic.model.with_(f=10.0)
        window = loci_mod.default_window(mic.model)
        seeds = loci_mod._fold_roots_at_f(mic.model, 10.0, window)
        assert len(seeds) >= 2
        ua_vals = [float(s[2]) for s in seeds]
        br = continue_branch(p, "u_a", (min(ua_vals) - 3e-3, max(ua_vals) + 3e-3),
                             ds0=1e-3)
        folds = [sp for sp in br.specials if sp.kind == "fold"]
        assert len(folds) == 2
        for sp in folds:
            assert abs(sp.det) < 1e-8
            i = sp.after_index
            assert br.points[i].det * br.points[i + 1].det < 0
            # the independently derived fold condition pins the same u_a
            assert min(abs(sp.param_value - ua) for ua in ua_vals) < 1e-8
        assert any(pt.stability == steady.SADDLE for pt in br.points)
        flips = [i for i in range(len(br.points) - 1)
                 if br.points[i].stability != br.points[i + 1].stability]
        assert sorted(flips) == sorted(sp.after_index for sp in br.specials)

    def test_rejects_bad_range(self, mic):
        with pytest.raises(ValidationError):
            continue_branch(mic.model, "u_a", (0.04, 0.03))
        with pytest.raises(ValidationError):
            continue_branch(mic.model, "volume", (0.03, 0.04))


class TestLyapunovCoefficient:
    def test_textbook_normal_form(self):
        # x' = -y + a x (x^2+y^2), y' = x + a y (x^2+y^2): sign(l1) = sign(a).
        for a in (2.0, 0.7, -1.3, -0.1):
            def fun(s, a=a):
                r2 = s[0] ** 2 + s[1] ** 2
                return np.array([-s[1] + a * s[0] * r2, s[0] + a * s[1] * r2])

            A, B, C = numerical_tensors(fun, np.zeros(2))
            l1 = planar_lyapunov_coefficient(A, B, C, 1.0)
            assert math.copysign(1.0, l1) == math.copysign(1.0, a)
            assert l1 == pytest.approx(2.0 * a, rel=1e-4)

    def test_mic_hopf_is_subcritical(self, mic, mic_h1):
        l1 = lyapunov_first_coeff(mic.model, mic_h1)
        assert l1 > 0

    def test_analytic_matches_fd_tensors(self, mic, mic_h1):
        p = mic.model.with_(u_a=mic_h1.param_value)
        s0 = np.array([mic_h1.state.x, mic_h1.state.u])

        def fun(s):
            return np.array(model.vector_field(p, (float(s[0]), float(s[1]))))

        A, B, C = numerical_tensors(fun, s0, step=2e-3,
                                    scales=np.array([1.0, s0[1]]))
        l1_fd = planar_lyapunov_coefficient(A, B, C, math.sqrt(mic_h1.det))
        l1 = lyapunov_first_coeff(mic.model, mic_h1)
        assert l1_fd == pytest.approx(l1, rel=0.05)

    def test_not_a_hopf_rejected(self, mic, mic_branch):
        pt = mic_branch.points[0]
        fake = steady.SpecialPoint("hopf", "u_a", pt.param_value, pt.state,
                                   pt.trace, pt.det)
        with pytest.raises(NotAHopfError):
            lyapunov_first_coeff(mic.model, fake)

    def test_sign_agrees_with_simulation(self, mic, mic_h1):
        # Just past the onset, small perturbations blow up to the large
        # oscillation instead of settling onto a small one: the hard
        # (subcritical) scenario.
        ts = mic.temp_scale
        p = mic.model.with_(u_a=mic_h1.param_value + 3e-5, u_boil=math.inf)
        pt = solve_steady(p, (mic_h1.state.x, mic_h1.state.u))
        rep = simulate.settle(p, (pt.state.x + 1e-3, pt.state.u + 1e-4),
                              horizon=130.0)
        assert rep.kind == "cycle"
        assert rep.amplitude > 0.01  # far beyond any normal-form amplitude
