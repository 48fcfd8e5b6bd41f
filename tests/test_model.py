from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermorun import model
from thermorun.errors import CalibrationError, DomainError, ValidationError
from thermorun.model import ModelParams, R_GAS, State
from thermorun.solvers import bisect_root

from conftest import param_derivative

E_MIC = 64000.0


def u_of_kelvin(T: float) -> float:
    return R_GAS * T / E_MIC


class TestValidation:
    def test_dimensional_invariants_name_the_field(self):
        good = dict(V=1.0, F=0.1, c_f=100.0, Cbar=1e6, dH=-5e4, L=10.0,
                    T_a=290.0, A=1e12, E=6e4)
        for field, bad in [("V", 0.0), ("c_f", -1.0), ("dH", 1.0), ("T_a", -5.0)]:
            with pytest.raises(ValidationError) as err:
                model.DimensionalParams(**{**good, field: bad})
            assert err.value.field == field

    def test_model_params_invariants(self):
        with pytest.raises(ValidationError):
            ModelParams(f=0.0, ell=1.0, eps=1.0, u_a=0.03)
        with pytest.raises(ValidationError):
            ModelParams(f=1.0, ell=1.0, eps=1.0, u_a=0.03, u_boil=0.02)
        # sigma = 0 is the admissible reaction-off case
        ModelParams(f=1.0, ell=1.0, eps=1.0, u_a=0.03, sigma=0.0)

    def test_state_bounds(self):
        with pytest.raises(ValidationError):
            State(-0.1, 0.03)
        with pytest.raises(ValidationError):
            State(1.1, 0.03)
        with pytest.raises(ValidationError):
            State(0.5, 0.0)


class TestScaling:
    def test_ambient_scaling_292K(self):
        # 292 K at the tabulated activation energy maps to 0.0379.
        assert u_of_kelvin(292.0) == pytest.approx(0.0379, abs=1e-4)

    def test_boiling_scaling_312K(self):
        assert u_of_kelvin(312.0) == pytest.approx(0.04053, abs=3e-4)

    def test_round_trip_temperature(self):
        for T in (250.0, 292.0, 312.0, 405.0):
            u = u_of_kelvin(T)
            back = u * E_MIC / R_GAS
            assert abs(back - T) / T < 1e-9

    def test_eps_from_tabulated_thermochemistry(self):
        # Back out c_f from eps = 10, then forward-check the definition.
        Cbar = 1188.0 * 959.9
        dH = 65100.0
        c_f = Cbar * E_MIC / (10.0 * dH * R_GAS)
        eps = Cbar * E_MIC / (c_f * dH * R_GAS)
        assert eps == pytest.approx(10.0, abs=0.1)
        assert c_f == pytest.approx(1.349e4, rel=2e-3)

    def test_nondimensionalize_matches_definitions(self, mic):
        dim = mic.dim
        p = model.nondimensionalize(dim, boiling_temperature=312.0)
        assert p.f == pytest.approx(dim.F / (dim.V * dim.A), rel=1e-12)
        assert p.u_a == pytest.approx(R_GAS * dim.T_a / dim.E, rel=1e-12)
        assert p.eps == pytest.approx(10.0, rel=1e-9)
        assert p.ell == pytest.approx(700.0, rel=1e-9)

    def test_dimensionalize_examples(self, mic):
        dim = mic.dim
        assert mic.model.u_a == pytest.approx(0.0379, abs=1e-4)
        c, T = model.dimensionalize(mic.model, (1.0, mic.model.u_a), dim)
        assert c == pytest.approx(dim.c_f, rel=1e-12)
        assert 291.8 <= T <= 292.2
        _, T_boil = model.dimensionalize(mic.model, (0.5, 0.04053), dim)
        assert T_boil == pytest.approx(312.0, abs=0.3)

    def test_round_trip_concentration_temperature(self, mic, rng):
        dim = mic.dim
        for _ in range(50):
            c = rng.uniform(1.0, dim.c_f)
            T = rng.uniform(250.0, 400.0)
            s = (c / dim.c_f, R_GAS * T / dim.E)
            c2, T2 = model.dimensionalize(mic.model, s, dim)
            assert abs(c2 - c) / c < 1e-9
            assert abs(T2 - T) / T < 1e-9


class TestVectorField:
    def test_no_reaction_equilibrium(self):
        p = ModelParams(f=1.7, ell=700.0, eps=10.0, u_a=0.0379, sigma=0.0)
        dx, du = model.vector_field(p, (1.0, p.u_a))
        assert dx == 0.0 and du == 0.0

    def test_inflow_only_at_zero_concentration(self):
        p = ModelParams(f=1.7, ell=700.0, eps=10.0, u_a=0.0379, sigma=0.0)
        dx, _ = model.vector_field(p, (0.0, 0.05))
        assert dx == pytest.approx(p.f)

    def test_near_reduced_root(self, mic):
        p = mic.model
        h = lambda u: float(model.reduced_balance(p, u))
        root = bisect_root(h, p.u_a + 1e-6, p.u_a + p.f / p.loss)
        x = float(model.quasi_steady_x(p, root))
        dx, du = model.vector_field(p, (x, root + 1e-5))
        assert abs(dx) < 0.05 and abs(du) < 0.05

    def test_domain_error(self, mic):
        with pytest.raises(DomainError):
            model.vector_field(mic.model, (0.5, -0.01))


class TestJacobian:
    def test_sigma_zero_diagonal(self):
        p = ModelParams(f=1.7, ell=700.0, eps=10.0, u_a=0.0379, sigma=0.0)
        J = model.jacobian(p, (0.3, 0.05))
        expect = np.diag([-p.f, -(p.f + p.ell / p.eps)])
        assert np.allclose(J, expect, rtol=0, atol=1e-15)

    def test_matches_finite_differences(self, rng):
        # Relative to the Jacobian scale; near-zero entries otherwise drown
        # in roundoff of the O(1) differences.
        worst = 0.0
        for _ in range(1000):
            p = ModelParams(f=float(rng.uniform(0.1, 5)),
                            ell=float(rng.uniform(1, 1000)),
                            eps=float(rng.uniform(1, 30)),
                            u_a=float(rng.uniform(0.02, 0.06)),
                            sigma=float(np.exp(rng.uniform(0, 30))))
            s = (float(rng.uniform(0, 1)), float(rng.uniform(0.02, 0.2)))
            J = model.jacobian(p, s)
            step = 1e-6
            fd = np.empty((2, 2))
            for j in range(2):
                sp = list(s)
                sm = list(s)
                sp[j] += step
                sm[j] -= step
                fd[:, j] = (np.array(model.vector_field(p, sp))
                            - np.array(model.vector_field(p, sm))) / (2 * step)
            rel = float(np.max(np.abs(J - fd)) / max(1.0, np.max(np.abs(J))))
            worst = max(worst, rel)
        assert worst < 1e-6

    def test_second_third_derivatives_match_fd(self, mic, rng):
        p = mic.model
        for _ in range(20):
            s = (float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.035, 0.06)))
            B = model.second_derivatives(p, s)
            h = 1e-5
            for j in range(2):
                sp, sm = list(s), list(s)
                sp[j] += h
                sm[j] -= h
                fd = (model.jacobian(p, sp) - model.jacobian(p, sm)) / (2 * h)
                scale = max(1.0, float(np.max(np.abs(B[:, :, j]))))
                assert np.max(np.abs(B[:, :, j] - fd)) / scale < 1e-4

    @pytest.mark.parametrize("u", (1e-60, 1e-100, 1e-170, 5e-324))
    def test_tiny_u_derivatives_are_the_zero_rate_limit(self, mic, u):
        # exp(-1/u) is 0 here, while powers of 1/u overflow or their
        # reciprocals underflow to 0: every rate derivative is the limit 0.
        p, x = mic.model, 0.5
        assert model.rho_derivs(p, u) == (0.0, 0.0, 0.0, 0.0)
        assert np.array_equal(model._hessian_xu(p, x, u), np.zeros((2, 2, 2)))
        assert np.array_equal(model.third_derivatives(p, (x, u)),
                              np.zeros((2, 2, 2, 2)))
        rate_free = {"eps": (0.0, p.ell * (u - p.u_a) / p.eps ** 2),
                     "sigma": (0.0, 0.0)}
        for name, want in rate_free.items():
            assert model._param_derivative_scalar(p, x, u, name) == want

    def test_stable_below_onset(self, mic):
        ts = mic.temp_scale
        p = mic.model.with_(u_a=286.0 / ts)
        h = lambda u: float(model.reduced_balance(p, u))
        root = bisect_root(h, p.u_a + 1e-9, p.u_a + p.f / p.loss)
        x = float(model.quasi_steady_x(p, root))
        tr, det = model.trace_det(p, (x, root))
        assert tr < 0 and det > 0


valid_params = st.builds(
    ModelParams,
    f=st.floats(0.1, 5.0), ell=st.floats(0.0, 1000.0), eps=st.floats(1.0, 30.0),
    u_a=st.floats(0.02, 0.06),
    sigma=st.one_of(st.just(0.0), st.floats(0.0, 30.0).map(math.exp)))


class TestScalarKernels:
    # u on both sides of 0, subnormal u included.  For u below ~2e-162,
    # u * u underflows to 0 and every kernel must return the limit 0 for
    # dr/du; for subnormal u, -1/u overflows to -inf (exp gives the limit 0).
    states = st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-0.1, 0.3)),
                      min_size=1, max_size=32)

    @settings(max_examples=300, deadline=None)
    @given(p=valid_params, states=states)
    def test_bit_identical_to_array_kernels(self, p, states):
        x, u = np.array(states).T
        with np.errstate(over="ignore"):
            fx, fu = model._field_xu(p, x, u)
            J = model._jac_xu(p, x, u)
        for i, (xi, ui) in enumerate(states):
            assert model._field_scalar(p, xi, ui) == (fx[i], fu[i])
            assert np.array_equal(np.array(model._jac_scalar(p, xi, ui)), J[i])
            if ui > 0:
                (a, b), (c, d) = J[i]
                assert model.trace_det(p, (xi, ui)) == (a + d, a * d - b * c)

    @settings(max_examples=200, deadline=None)
    @given(p=valid_params, states=states)
    def test_param_derivative_twin_bit_identical(self, p, states):
        x, u = np.array(states).T
        for name in model.CONTINUABLE_PARAMS:
            with np.errstate(over="ignore"):
                b = param_derivative(p, x, u, name)
            for i, (xi, ui) in enumerate(states):
                assert model._param_derivative_scalar(p, xi, ui, name) == tuple(b[i])

    def test_param_derivative_twin_rejects_unknown_name(self, mic):
        with pytest.raises(ValidationError):
            model._param_derivative_scalar(mic.model, 0.5, 0.04, "u_boil")

    # u outside the domain, below and at U_FLOOR, where u * u underflows
    # (below ~2e-162) and subnormal; x of both signs of zero.
    callback_us = st.sampled_from(
        [-0.01, -0.0, 0.0, 5e-324, 1e-300, 1e-170, 1.5e-162, 1e-4,
         model.U_FLOOR, 0.0013]) | st.floats(-0.1, 0.3)
    callback_xs = st.sampled_from([0.0, -0.0]) | st.floats(-0.5, 1.5)

    @settings(max_examples=300, deadline=None)
    @given(p=valid_params, x=callback_xs, u=callback_us)
    def test_callbacks_bit_identical_to_scalar_kernels(self, p, x, u):
        rhs, jac, field_jac = model._callbacks(p)
        y = np.array([x, u])
        field = np.array(model._field_scalar(p, x, u))
        J = np.array(model._jac_scalar(p, x, u))
        assert np.array(rhs(0.0, y)).tobytes() == field.tobytes()
        assert np.array(jac(0.0, y)).tobytes() == J.tobytes()
        assert (np.array(field_jac(x, u)).tobytes()
                == np.concatenate([field, J.ravel()]).tobytes())

    def test_tiny_u_gives_zero_rate_slope(self, mic):
        p = mic.model
        assert model._expu(1e-300) == 0.0
        assert model._jac_scalar(p, 0.5, 1e-300) == ((-p.f, 0.0), (0.0, -p.loss / p.eps))
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no 0 / 0 when u * u underflows
            J = model._jac_xu(p, 0.5, 1e-170)
        assert np.array_equal(J, np.array(model._jac_scalar(p, 0.5, 1e-170)))
        assert J[0, 1] == 0.0 and J[1, 1] == -p.loss / p.eps


# Parameters valid on both sides of a central-difference step.
fd_params = st.builds(
    ModelParams,
    f=st.floats(0.1, 5.0), ell=st.floats(1.0, 1000.0), eps=st.floats(1.0, 30.0),
    u_a=st.floats(0.02, 0.06), sigma=st.floats(0.0, 30.0).map(math.exp))
# x is 0 or at least 1e-250: a smaller x (normal or not) makes
# x * exp(-1/u) subnormal (exp(-1/u) >= 2e-22 here), and differences of
# subnormal values keep only a few bits.
fd_states = st.tuples(st.one_of(st.just(0.0), st.floats(1e-250, 1.0)),
                      st.floats(0.02, 0.2))


def field_scale(p: ModelParams, x: float, u: float) -> float:
    """Bound on the magnitude of every term of the field at (x, u) (eps >= 1);
    an evaluation rounds to within a few ulps of it."""
    r = p.sigma * math.exp(-1.0 / u)
    return max(1.0, p.f, x * r, p.loss * abs(u - p.u_a))


def central_difference(fn, v: float, h: float) -> np.ndarray:
    return (np.asarray(fn(v + h)) - np.asarray(fn(v - h))) / ((v + h) - (v - h))


class TestParamDerivatives:
    # The field is linear in every parameter but eps; those differences
    # carry rounding error only (the floor term).  eps adds O(h^2)
    # truncation, far below 1e-6.

    @settings(max_examples=300, deadline=None)
    @given(p=fd_params, s=fd_states,
           name=st.sampled_from(model.CONTINUABLE_PARAMS))
    def test_param_derivative_matches_central_differences(self, p, s, name):
        x, u = s
        v = getattr(p, name)
        h = 1e-6 * v
        fd = central_difference(
            lambda w: model._field_xu(p.with_(**{name: w}), x, u), v, h)
        exact = np.array(model._param_derivative_scalar(p, x, u, name))
        floor = 1e-14 * field_scale(p, x, u) / h
        assert np.all(np.abs(fd - exact) <= 1e-6 * np.abs(exact) + floor)


def rate_crossings_loop(d):
    """The per-interval loop that ``model.rate_crossings`` replaced."""
    g = d.r_g - d.r_l
    out = []
    for i in range(len(g) - 1):
        a, b = g[i], g[i + 1]
        if a == 0.0:
            out.append(float(d.u_grid[i]))
        elif a * b < 0:
            w = a / (a - b)
            out.append(float(d.u_grid[i] + w * (d.u_grid[i + 1] - d.u_grid[i])))
    if g[-1] == 0.0:
        out.append(float(d.u_grid[-1]))
    return out


# Rate samples drawn from a few values so that exact zeros, repeats and sign
# changes of r_g - r_l all occur; r_l = 0 makes g = r_g.
rate_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3e-300, 7e-310,
                               1e300, -1e300]) | st.floats(-10.0, 10.0)


class TestRateCrossings:
    @settings(max_examples=500, deadline=None)
    @given(rates=st.lists(rate_values, min_size=2, max_size=40),
           zero_ends=st.tuples(st.booleans(), st.booleans()),
           u0=st.floats(0.01, 0.1), du=st.floats(1e-6, 1e-2))
    def test_equals_the_loop(self, rates, zero_ends, u0, du):
        r_g = np.array(rates)
        if zero_ends[0]:
            r_g[0] = 0.0
        if zero_ends[1]:
            r_g[-1] = 0.0
        u = u0 + du * np.arange(len(r_g))
        d = model.RateDiagram(u, r_g, np.zeros_like(r_g))
        with np.errstate(over="ignore"):    # a * b of the 1e300 entries
            got = model.rate_crossings(d)
            want = rate_crossings_loop(d)
        assert np.array_equal(got, want)
        assert all(type(c) is float for c in got)

    def test_equals_the_loop_on_the_preset_diagram(self, mic):
        p, ts = mic.model, mic.temp_scale
        d = model.rate_diagram(p, 280.0 / ts, 330.0 / ts, 20001)
        assert model.rate_crossings(d) == rate_crossings_loop(d)


class TestRateDiagram:
    def test_loss_vanishes_at_ambient(self, mic):
        p = mic.model
        d = model.rate_diagram(p, p.u_a - 0.001, p.u_a + 0.003, 4001)
        i = int(np.argmin(np.abs(d.u_grid - p.u_a)))
        assert abs(d.r_l[i]) < 1e-10

    def test_generation_saturates_at_f(self):
        p = ModelParams(f=1.7, ell=700.0, eps=10.0, u_a=0.0379, sigma=1e12)
        d = model.rate_diagram(p, 5.0, 10.0, 11)  # rho >> f
        assert np.all(np.abs(d.r_g - p.f) < 1e-9)

    def test_single_crossing_near_reported_steady(self, mic):
        p, ts = mic.model, mic.temp_scale
        d = model.rate_diagram(p, 295.0 / ts, 320.0 / ts, 20001)
        crossings = model.rate_crossings(d)
        assert len(crossings) == 1
        assert 300.0 <= crossings[0] * ts <= 308.0

    def test_crossings_match_reduced_roots(self, mic):
        p, ts = mic.model, mic.temp_scale
        lo, hi = 285.0 / ts, 320.0 / ts
        n = 5001
        d = model.rate_diagram(p, lo, hi, n)
        crossings = model.rate_crossings(d)
        grid_step = (hi - lo) / (n - 1)
        h = lambda u: float(model.reduced_balance(p, u))
        for c in crossings:
            root = bisect_root(h, c - grid_step, c + grid_step)
            assert abs(root - c) <= grid_step

    def test_validation(self, mic):
        with pytest.raises(ValidationError):
            model.rate_diagram(mic.model, 0.05, 0.04, 100)


class TestCalibration:
    def test_sigma_magnitude(self, mic):
        # The reduced two-condition system puts the prefactor near e^26.7.
        ratio = mic.model.sigma / math.exp(26.7)
        assert 1.0 / 3.0 < ratio < 3.0

    def test_uncalibrated_model_is_inert(self, mic):
        p = mic.model.with_(sigma=1.0)
        h = lambda u: float(model.reduced_balance(p, u))
        root = bisect_root(h, p.u_a * (1 - 1e-9), p.u_a + p.f / p.loss)
        assert abs(root - p.u_a) < 1e-9
        # No oscillatory onset anywhere near the operating window: the
        # steady-state trace stays negative.
        ts = mic.temp_scale
        for T in np.linspace(282.0, 296.0, 30):
            q = p.with_(u_a=T / ts)
            r = bisect_root(lambda u: float(model.reduced_balance(q, u)),
                            q.u_a * (1 - 1e-9), q.u_a + q.f / q.loss)
            tr, _ = model.trace_det(q, (model.quasi_steady_x(q, r), r))
            assert tr < 0

    def test_degenerate_target_rejected(self, mic):
        with pytest.raises(ValidationError):
            model.calibrate_sigma(mic.model.with_(sigma=1.0), 292.0, 290.15,
                                  temp_scale=mic.temp_scale)

    def test_unreachable_target_raises(self, mic):
        with pytest.raises(CalibrationError):
            model.calibrate_sigma(mic.model.with_(sigma=1.0), 600.0, 10.0,
                                  temp_scale=mic.temp_scale)

    @settings(max_examples=400, deadline=None)
    @given(f=st.floats(0.3, 4.0), ell=st.floats(50.0, 1500.0),
           eps=st.floats(2.0, 25.0), u_a=st.floats(0.025, 0.055),
           hopf_ratio=st.floats(0.97, 1.0))
    def test_bisected_candidates_solve_both_conditions(self, f, ell, eps, u_a,
                                                        hopf_ratio):
        # On criterion 5's ranges a bisected root of the scalar reduction is
        # already a marginal steady state to roundoff: the balance and the
        # trace vanish relative to their largest terms.
        template = ModelParams(f=f, ell=ell, eps=eps, u_a=u_a)
        u_a_hopf = u_a * hopf_ratio
        for u, sigma in model._marginal_sigma_candidates(template, u_a_hopf):
            q = template.with_(sigma=sigma, u_a=u_a_hopf, u_boil=math.inf)
            x = float(model.quasi_steady_x(q, u))
            r, dr, _, _ = model.rho_derivs(q, u)
            r_g, r_l = q.f * r / (q.f + r), q.loss * (u - q.u_a)
            tr, det = model.trace_det(q, (x, u))
            assert det > 0
            assert abs(model.reduced_balance(q, u)) <= 1e-11 * max(abs(r_g), abs(r_l))
            assert abs(tr) <= 1e-11 * max(abs(r + q.f), abs(x * dr / q.eps),
                                          abs(q.loss / q.eps))


class TestPresets:
    def test_mic_caption_values(self, mic):
        assert mic.model.eps == pytest.approx(10.0, rel=1e-9)
        assert mic.model.ell == pytest.approx(700.0, rel=1e-9)
        assert mic.model.f == pytest.approx(1.7, rel=1e-12)

    def test_cumene_caption_values(self):
        pre = model.preset("cumene-hydroperoxide")
        assert pre.model.eps == pytest.approx(20.0)
        assert pre.model.ell == pytest.approx(700.0)
        assert pre.dim is None
        assert "sigma" in pre.placeholders

    def test_boil_to_ambient_ratio(self, mic):
        assert mic.model.u_boil / mic.model.u_a == pytest.approx(312.0 / 292.0,
                                                                 abs=1e-3)

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ValidationError) as err:
            model.preset("nope")
        assert "mic-tank610" in str(err.value)
        assert "cumene-hydroperoxide" in str(err.value)

    def test_preset_config_round_trip(self, mic):
        cfg = mic.to_config()
        p = ModelParams(**cfg["params"])
        assert p == mic.model

    @pytest.mark.parametrize("name", model.PRESET_NAMES)
    def test_from_config_inverts_to_config(self, name):
        pre = model.preset(name)
        back = model.Preset.from_config(pre.to_config())
        assert (back.model, back.dim, back.temp_scale) == \
            (pre.model, pre.dim, pre.temp_scale)
        # repr round-trips a float's bits
        assert repr(back.to_config()) == repr(pre.to_config())
        assert back.name is None

    def test_dimensional_block_follows_the_model(self, mic):
        hot = mic.with_overrides(T_a=286.0)
        assert hot.dim.T_a == 286.0 and hot.dim.E == mic.dim.E
        assert mic.with_overrides(sigma=1.0, u_boil=0.05).dim == mic.dim
        for name in ("f", "ell", "eps"):
            changed = mic.with_overrides(**{name: getattr(mic.model, name) * 1.01})
            assert changed.dim is None
            assert changed.temp_scale == mic.temp_scale
        with pytest.raises(ValidationError, match="temp_scale_K"):
            model.Preset(mic.model, mic.dim, mic.temp_scale * (1 + 1e-9))


def parent_arrhenius(u):
    """``model._arrhenius`` as it was before the clamp: two branches."""
    u = np.asarray(u, dtype=float)
    safe = np.where(u > 0, u, 1.0)
    out = np.where(u > 0, np.exp(-1.0 / safe), 0.0)
    return float(out) if out.ndim == 0 else out


class TestArrheniusClamp:
    edge_us = [-0.01, -0.0, 0.0, 1e-3, 0.0013, 1e-170, 1e-310, 5e-324,
               math.nan, math.inf, -math.inf]

    def test_same_bits_as_the_branches(self):
        us = np.concatenate([self.edge_us, np.linspace(0.02, 0.08, 20001)])
        with np.errstate(over="ignore"):        # -1/u for subnormal u
            want = parent_arrhenius(us)
            scalars = [parent_arrhenius(u) for u in self.edge_us]
        assert model._arrhenius(us).tobytes() == want.tobytes()
        for u, w in zip(self.edge_us, scalars):
            got = model._arrhenius(u)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(w).tobytes()

    @pytest.mark.parametrize("u", (5e-324, 1e-310, 1e-170))
    def test_subnormal_u_warns_nowhere(self, mic, u):
        # Before the clamp, -1/u overflowed in a divide for subnormal u.
        p, x = mic.model, 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert model._arrhenius(u) == 0.0
            for arg in (u, np.array([u, 0.04])):
                model._field_xu(p, x, arg)
                model._jac_xu(p, x, arg)
            for name in model.CONTINUABLE_PARAMS:
                model._param_derivative_scalar(p, x, u, name)
            dfds = model._param_derivative_scalar(p, x, u, "sigma")
        assert dfds == (0.0, 0.0)


class TestWithFastPath:
    fields = ("f", "ell", "eps", "u_a", "sigma", "u_boil")
    values = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.sampled_from([0.0, -0.0, 1e-300, 0.03, 0.06, 1.7]))

    @settings(max_examples=400, deadline=None)
    @given(p=valid_params,
           updates=st.dictionaries(st.sampled_from(fields), values))
    def test_equals_dataclasses_replace(self, p, updates):
        try:
            want = dataclasses.replace(p, **updates)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as err:
                p.with_(**updates)
            assert (err.value.field, str(err.value)) == (exc.field, str(exc))
            return
        got = p.with_(**updates)
        assert type(got) is ModelParams
        assert got == want and repr(got) == repr(want)   # repr keeps -0.0

    @pytest.mark.parametrize("field, bad", [
        ("f", 0.0), ("f", -1.0), ("f", math.nan), ("ell", -1e-300),
        ("ell", math.nan), ("eps", 0.0), ("eps", -math.inf), ("u_a", -0.0),
        ("u_a", math.nan), ("sigma", -1.0), ("sigma", math.nan),
        ("u_boil", 0.02), ("u_boil", math.nan)])
    def test_each_invalid_field_is_named(self, mic, field, bad):
        with pytest.raises(ValidationError) as err:
            mic.model.with_(**{field: bad})
        assert err.value.field == field

    def test_unknown_key_raises_type_error(self, mic):
        with pytest.raises(TypeError):
            mic.model.with_(T_a=290.0)
        with pytest.raises(TypeError):
            dataclasses.replace(mic.model, T_a=290.0)


class TestScalarRho:
    @settings(max_examples=300, deadline=None)
    @given(p=valid_params, u=st.one_of(st.floats(1e-3, 1.0), st.floats(1e-300, 0.1),
                                       st.floats(0.02, 0.08)))
    def test_same_bits_as_the_array_path(self, p, u):
        want = model.rho(p, np.array([u]))[0]
        for arg in (u, np.float64(u)):
            got = model.rho(p, arg)
            assert type(got) is float
            assert np.float64(got).tobytes() == want.tobytes()
        # and as the 0-d array path the scalar used to take
        assert np.float64(model.rho(p, np.array(u))).tobytes() == want.tobytes()

    @pytest.mark.parametrize("u", (0.0, -0.0, -1e-3, -math.inf))
    def test_nonpositive_u_raises(self, mic, u):
        for arg in (u, np.float64(u), np.array(u), np.array([0.04, u])):
            with pytest.raises(DomainError):
                model.rho(mic.model, arg)

    def test_nan_u_gives_nan(self, mic):
        for arg in (math.nan, np.float64(math.nan), np.array(math.nan)):
            got = model.rho(mic.model, arg)
            assert type(got) is float and math.isnan(got)


class TestScalarReducedBalance:
    # bracket_roots bisects the reduced balance with float (np.float64)
    # iterates, which skip np.asarray.
    @settings(max_examples=300, deadline=None)
    @given(p=valid_params, u=st.one_of(st.floats(1e-3, 1.0), st.floats(1e-300, 0.1),
                                       st.floats(0.02, 0.08)))
    def test_same_bits_as_the_array_path(self, p, u):
        want = np.float64(model.reduced_balance(p, np.array(u))).tobytes()
        for arg in (u, np.float64(u)):
            assert np.float64(model.reduced_balance(p, arg)).tobytes() == want

    @settings(max_examples=100, deadline=None)
    @given(p=valid_params, u=st.floats(max_value=0.0))
    def test_nonpositive_u_raises(self, p, u):
        for arg in (u, np.float64(u), np.array(u)):
            with pytest.raises(DomainError):
                model.reduced_balance(p, arg)
