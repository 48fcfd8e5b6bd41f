from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from thermorun import model, simulate, steady
from thermorun.errors import ConvergenceError, NotAHopfError, ValidationError
from thermorun.model import ModelParams
from thermorun.solvers import bisect_root, damped_newton
from thermorun.steady import (continue_branch, lyapunov_first_coeff,
                              planar_lyapunov_coefficient, reduced_scan,
                              solve_steady)

from conftest import criterion5_params, reference_branch, slope


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

    @settings(max_examples=200, deadline=None)
    @given(p=criterion5_params, offset=st.floats(-1e-6, 1e-6))
    # Starts whose residual is already below STEADY_TOL, 1e-12 and 3e-12
    # of u off.
    @example(p=ModelParams(f=1.0, ell=50.0, eps=2.0, u_a=0.03125,
                           sigma=math.exp(20.0)), offset=1e-12)
    @example(p=ModelParams(f=0.5, ell=50.0, eps=5.0, u_a=0.03125,
                           sigma=math.exp(20.0)), offset=3e-12)
    def test_roots_are_fixed_points_of_solve_steady(self, p, offset):
        # Started on a root, Newton takes no step (its residual is already
        # below STEADY_TOL); started a relative offset away in u, it comes
        # back to the root's temperature.
        width = p.f / p.loss
        roots = reduced_scan(p, p.u_a, p.u_a + width * (1 + 1e-9), n=10000)
        assert roots
        for root in roots:
            x, u = root.state.x, root.state.u
            assert solve_steady(p, (x, u)) == root
            near = solve_steady(p, (x, u * (1 + offset)))
            assert abs(near.state.u - u) <= 1e-12 * u


def steady_at_temperature(p: ModelParams, active: str, u: float, guess):
    """(x, value of ``active``) of the steady state at temperature u, by
    Newton on the vector field in (x, value) with u held."""
    def at(y):
        return p.with_(**{active: float(y[1])})

    def fn(y):
        return np.array(model._field_scalar(at(y), float(y[0]), u))

    def jac(y):
        q = at(y)
        (a, _), (c, _) = model._jac_scalar(q, float(y[0]), u)
        e, g = model._param_derivative_scalar(q, float(y[0]), u, active)
        return np.array([[a, e], [c, g]])

    return damped_newton(fn, np.array(guess, dtype=float), jac, tol=1e-12)


def trace_root(p: ModelParams, active: str, a, b) -> tuple[float, float]:
    """(u, det) where the trace vanishes between branch points a and b, by
    bisection in u over pinned-temperature steady states."""
    def trace_det(u):
        w = (u - a.state.u) / (b.state.u - a.state.u)
        guess = [a.state.x + w * (b.state.x - a.state.x),
                 a.param_value + w * (b.param_value - a.param_value)]
        x, value = steady_at_temperature(p, active, u, guess)
        return model.trace_det(p.with_(**{active: value}), (x, u))

    u = bisect_root(lambda u: trace_det(u)[0], a.state.u, b.state.u)
    return u, trace_det(u)[1]


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
        # In the other parameters the state stays at (1, u_a) over the range.
        for active in ("f", "ell", "eps"):
            v = getattr(p, active)
            br = continue_branch(p, active, (0.5 * v, 2.0 * v))
            assert br.stop_reason == "window boundary" and not br.specials
            values = [pt.param_value for pt in br.points]
            assert (values[0], values[-1]) == (0.5 * v, 2.0 * v)
            assert {(pt.state.x, pt.state.u) for pt in br.points} == {(1.0, p.u_a)}
            assert all(pt.residual == 0.0 for pt in br.points)

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
        # The upper fold's segment also holds a Hopf point, at u_a 0.0362411.
        assert flips == sorted({sp.after_index for sp in br.specials})
        assert len(br.specials) == len(flips) + 1

    @settings(max_examples=150, deadline=None)
    @given(p=criterion5_params, active=st.sampled_from(steady.ACTIVE_PARAMS))
    def test_drawn_branches_report_every_special_point(self, p, active):
        # Over [v / 2, 2 v] of the parameter (u_a over default_window's
        # range): points are steady states, a det sign change between
        # neighbours holds a fold, and a trace root with det > 0, located by
        # the pinned-temperature oracle below, a Hopf point.
        v = getattr(p, active)
        prange = (0.75 * v, 1.35 * v) if active == "u_a" else (0.5 * v, 2.0 * v)
        br = continue_branch(p, active, prange)
        assert all(pt.residual < 1e-10 for pt in br.points)
        for i, (a, b) in enumerate(zip(br.points, br.points[1:])):
            here = [sp for sp in br.specials if sp.after_index == i]
            folds = [sp for sp in here if sp.kind == "fold"]
            hopfs = [sp for sp in here if sp.kind == "hopf"]
            assert len(folds) == (a.det * b.det < 0)
            assert all(abs(sp.det) < 1e-8 for sp in folds)
            if a.trace * b.trace < 0:
                u, det = trace_root(p, active, a, b)
                assert len(hopfs) == (det > 0)
                for sp in hopfs:
                    assert abs(sp.trace) <= 1e-8 and sp.det > 0
                    assert sp.state.u == pytest.approx(u, rel=1e-9)
            else:
                assert not hopfs

    def test_branch_nearly_flat_in_u(self):
        # Reaction nearly off: the start lies 1.9e-12 above u_a, where
        # adjacent floats of u are 0.3 % apart in f, so the walk crosses the
        # range a float of u at a time.
        p = ModelParams(f=0.3, ell=1068.0, eps=2.0, u_a=0.025,
                        sigma=math.exp(20.0))
        br = continue_branch(p, "f", (0.15, 0.6))
        assert br.stop_reason == "window boundary"
        values = [pt.param_value for pt in br.points]
        assert values == sorted(set(values))
        assert values[0] == pytest.approx(0.15, rel=1e-2)
        assert values[-1] == pytest.approx(0.6, rel=1e-2)
        assert all(pt.residual < 1e-10 for pt in br.points)

    def test_flow_rate_branch_turns_where_the_roots_meet(self):
        # The heat balance is a quadratic in f; here its two positive roots
        # meet at u = 0.0580215 (f = 0.438785), the highest temperature of the
        # branch, which the walk passes onto the other root.
        p = ModelParams(f=0.35, ell=31.6, eps=4.19, u_a=0.0573, sigma=7.8e5)
        br = continue_branch(p, "f", (0.35, 0.55))
        assert br.stop_reason == "window boundary"
        us = [pt.state.u for pt in br.points]
        top = int(np.argmax(us))
        assert 0 < top < len(us) - 1
        _, b, _, disc = steady._f_quadratic(p, us[top], model.rho(p, us[top]))
        assert abs(disc) <= 1e-12 * b * b
        assert us[top] == pytest.approx(0.0580215, rel=1e-6)
        assert br.points[top].param_value == pytest.approx(0.438785, rel=1e-6)
        values = [pt.param_value for pt in br.points]
        assert values == sorted(values) and values[-1] == pytest.approx(0.55)
        for pt in br.points:
            ref = solve_steady(p.with_(f=pt.param_value), (pt.state.x, pt.state.u))
            assert ref.state.u == pytest.approx(pt.state.u, rel=1e-12)
            assert ref.state.x == pytest.approx(pt.state.x, rel=1e-10)

    def test_rejects_bad_range(self, mic):
        with pytest.raises(ValidationError):
            continue_branch(mic.model, "u_a", (0.04, 0.03))
        with pytest.raises(ValidationError):
            continue_branch(mic.model, "volume", (0.03, 0.04))


def outcome(fn, *args) -> str:
    """repr of ``fn(*args)``, or the type and message of what it raises:
    floats' reprs round-trip, so equal reprs are equal bits."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


class TestWalkOracle:
    # The walk evaluates the curve, the field, the Jacobian and the next
    # step's slope from one exponential per point and builds no parameter
    # set; the reference builds a validated one per evaluation and takes
    # the slope from the array kernels.

    @settings(max_examples=120, deadline=None)
    @given(p=criterion5_params, active=st.sampled_from(steady.ACTIVE_PARAMS))
    def test_drawn_branches_equal_the_reference_bit_for_bit(self, p, active):
        # The points, the specials or the exception are the reference's.
        # Each step direction's arguments are p's parameters with the active
        # one at its value, the state and e^(-1/u), and its bits are the
        # reference slope's at that parameter set and state.
        seen, tangent = [], steady._tangent

        def spy(name, args, jet):
            seen.append((args, tangent(name, args, jet)))
            return seen[-1][1]

        v = getattr(p, active)
        prange = (0.75 * v, 1.35 * v) if active == "u_a" else (0.5 * v, 2.0 * v)
        with mock.patch.object(steady, "_tangent", spy):
            got = outcome(continue_branch, p, active, prange)
        assert got == outcome(reference_branch, p, active, prange)
        assert seen or not got.startswith("Branch(")
        k = ("f", "ell", "eps", "u_a", "sigma").index(active)
        for args, direction in seen:
            x, u, expu = args[5:]
            q = p.with_(**{active: args[k]})
            assert args[:5] == (q.f, q.ell, q.eps, q.u_a, q.sigma)
            assert repr(expu) == repr(model._expu(u))
            assert repr(direction) == repr(slope(q, x, u, active))

    @pytest.mark.parametrize("p, active, prange, raises", [
        # f through the meeting point of its quadratic's roots
        (ModelParams(f=0.35, ell=31.6, eps=4.19, u_a=0.0573, sigma=7.8e5),
         "f", (0.35, 0.55), None),
        # u a float at a time near u_a
        (ModelParams(f=0.3, ell=1068.0, eps=2.0, u_a=0.025, sigma=math.exp(20.0)),
         "f", (0.15, 0.6), None),
        # the parameter set invalid at the first point, at the end point
        (ModelParams(f=0.09665764756289588, ell=3152.0484977357596,
                     eps=5.135563448164114, u_a=0.010262122079541235,
                     sigma=438534328118.2095),
         "eps", (6.852294616389673, 8.72559685358464), "ValidationError"),
        (ModelParams(f=0.206344650662909, ell=1.3410396336244361,
                     eps=76.6921301126315, u_a=0.10830025670847837,
                     sigma=8364097740447362.0),
         "sigma", (606079716426096.0, math.inf), "ValidationError"),
        # the curve itself divides by zero
        (ModelParams(f=18.05297338477237, ell=0.0, eps=0.8478421743121324,
                     u_a=0.01914958215503102, sigma=49556.5289505221),
         "f", (18.219593134329173, 50.47494034792793), "ZeroDivisionError"),
    ])
    def test_turns_and_failures_equal_the_reference(self, p, active, prange, raises):
        got = outcome(continue_branch, p, active, prange)
        assert got == outcome(reference_branch, p, active, prange)
        assert got.startswith(raises or "Branch(")

    def test_preset_branches_equal_the_reference(self, mic):
        # Each holds a Hopf point with l1; sigma's rate is value * e^(-1/u).
        p = mic.model
        windows = {"u_a": (282.0 / mic.temp_scale, 296.0 / mic.temp_scale),
                   **{a: (0.5 * getattr(p, a), 2.0 * getattr(p, a))
                      for a in ("f", "ell", "eps")},
                   "sigma": (0.3 * p.sigma, 3.0 * p.sigma)}
        for active, prange in windows.items():
            br = continue_branch(p, active, prange)
            assert any(sp.kind == "hopf" and sp.l1 is not None for sp in br.specials)
            assert repr(br) == repr(reference_branch(p, active, prange))


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
