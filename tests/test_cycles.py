from __future__ import annotations

import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermorun import cycles, model, simulate, steady
from thermorun.cycles import CycleSeed, find_cycle, floquet, hopf_germ
from thermorun.errors import ConvergenceError, GermError, ValidationError

from conftest import (_arrhenius, _field_xu, _jac_xu, criterion5_params,
                      floquet_rhs_allocating, kernel_layout, param_derivative,
                      stacked_rhs_allocating)


@pytest.fixture(scope="module")
def settled_cycle(mic, mic_h1):
    ts = mic.temp_scale
    p = mic.model.with_(u_a=mic_h1.param_value * 1.0002, u_boil=math.inf)
    rep = simulate.settle(p, (1.0, p.u_a), horizon=130.0)
    assert rep.kind == "cycle"
    return p, rep


class TestFindCycle:
    def test_matches_settled_cycle(self, settled_cycle):
        p, rep = settled_cycle
        seed = cycles.seed_from_simulation(
            p, (rep.terminal_state.x, rep.terminal_state.u), rep.period)
        orbit = find_cycle(p, seed, m=12)
        assert abs(orbit.period - rep.period) / rep.period < 1e-6
        assert abs(orbit.amplitude - rep.amplitude) < 1e-4
        assert orbit.residual < 1e-9
        assert orbit.stability == "stable"
        assert len(orbit.mesh) >= 200

    def test_trivial_multiplier_near_unity(self, settled_cycle):
        p, rep = settled_cycle
        seed = cycles.seed_from_simulation(
            p, (rep.terminal_state.x, rep.terminal_state.u), rep.period)
        orbit = find_cycle(p, seed, m=12)
        assert abs(orbit.multipliers[0] - 1.0) < 1e-4

    def test_degenerate_seed_rejected(self, mic):
        p = mic.model.with_(u_boil=math.inf)
        flat = CycleSeed(np.linspace(0, 1, 16, endpoint=False),
                         np.tile([0.5, 0.04], (16, 1)), 1.0)
        with pytest.raises(GermError):
            find_cycle(p, flat, m=12)

    def test_fewer_than_ten_segments_rejected(self, mic, mic_h1):
        p_off, seed = hopf_germ(mic.model, mic_h1, 1e-6)
        with pytest.raises(ValidationError, match="^m: "):
            find_cycle(p_off, seed, m=4)

    def test_floquet_only_on_the_returned_orbit(self, mic, mic_h1,
                                               monkeypatch):
        p_off, seed = hopf_germ(mic.model, mic_h1, 1e-6)
        calls = []

        def counting(p, y0, period, *args, **kwargs):
            calls.append(period)
            return floquet(p, y0, period, *args, **kwargs)

        monkeypatch.setattr(cycles, "floquet", counting)
        # Stopped by the period test at 24 segments; after one doubling with
        # a zero period tolerance, by the segment cap or, when the doubled
        # level takes no Newton step and keeps the period exactly, by the
        # period test; and before any doubling.
        for m_max, period_rtol, segments in ((96, 1e-8, 24), (24, 0.0, 24),
                                             (12, 1e-8, 12)):
            calls.clear()
            monkeypatch.setattr(cycles, "FIND_CYCLE_M_MAX", m_max)
            monkeypatch.setattr(cycles, "FIND_CYCLE_PERIOD_RTOL", period_rtol)
            orbit = find_cycle(p_off, seed, m=12)
            assert orbit.segments == segments
            assert calls == [orbit.period]
            assert abs(orbit.multipliers[0] - 1.0) < 1e-4
            assert len(orbit.mesh) == cycles.MESH_SAMPLES

    @pytest.mark.parametrize("source", ("settled_cycle", "hopf_germ"))
    def test_doubled_level_starts_on_the_coarse_orbit(self, source, request,
                                                      monkeypatch):
        # The 24-segment level is seeded with the 12-segment orbit's own
        # flow: it starts within CYCLE_TOL and keeps the coarse period, and
        # only the returned orbit is meshed.
        if source == "settled_cycle":
            p, rep = request.getfixturevalue("settled_cycle")
            seed = cycles.seed_from_simulation(
                p, (rep.terminal_state.x, rep.terminal_state.u), rep.period)
        else:
            p, seed = hopf_germ(request.getfixturevalue("mic").model,
                                request.getfixturevalue("mic_h1"), 1e-6)
        newton, finalize = cycles.damped_newton, cycles._finalize_orbit
        levels, meshed = [], []

        def recording_newton(fn, x0, *args):
            # The first residual's shoot is cached for newton's own first look.
            first = float(np.max(np.abs(fn(np.asarray(x0, dtype=float)))))
            z = newton(fn, x0, *args)
            levels.append((first, float(z[-1])))
            return z

        def recording_finalize(p_, y0, T):
            meshed.append(T)
            return finalize(p_, y0, T)

        monkeypatch.setattr(cycles, "damped_newton", recording_newton)
        monkeypatch.setattr(cycles, "_finalize_orbit", recording_finalize)
        orbit = find_cycle(p, seed, m=12)
        assert orbit.segments == 24 and len(levels) == 2
        (_, coarse_T), (first, T) = levels
        assert meshed == [orbit.period] == [T]
        assert first < cycles.CYCLE_TOL
        assert abs(T - coarse_T) <= cycles.FIND_CYCLE_PERIOD_RTOL * coarse_T

    def test_germ_amplitude_square_root_law(self, mic, mic_h1):
        # Orbit amplitude near the onset follows amp ~ sqrt(offset): the
        # log-log slope over two decades must be 1/2.
        p = mic.model
        deltas = np.geomspace(1e-8, 1e-6, 7)
        amps = []
        for d in deltas:
            p_off, seed = hopf_germ(p, mic_h1, float(d))
            orbit = find_cycle(p_off, seed, m=12)
            amps.append(orbit.amplitude)
        slope = np.polyfit(np.log(deltas), np.log(amps), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.05)


class TestSeedPeriod:
    @pytest.mark.parametrize("period", (0.0, -1.0, math.nan, math.inf))
    def test_rejected_before_integrating(self, mic, period, monkeypatch):
        def no_integration(*args):
            raise AssertionError("integrated")

        monkeypatch.setattr(cycles, "lsoda", no_integration)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as err:
                cycles.seed_from_simulation(mic.model, (0.5, 0.04), period)
            assert err.value.field == "period"
            with pytest.raises(ValidationError) as err:
                CycleSeed(np.zeros(4), np.tile([0.5, 0.04], (4, 1)), period)
            assert err.value.field == "period"


def stacked_rhs_reference(p, m, h, sens, Y):
    """The stacked RHS on conftest's array kernels, field, J via einsum, b, in the
    references' layout (``conftest.kernel_layout``)."""
    width = 8 if sens else 6
    Z = Y.reshape(m, width)
    x, u = Z[:, 0], Z[:, 1]
    out = np.empty_like(Z)
    out[:, 0:2] = h * np.column_stack(_field_xu(p, x, u))
    J = _jac_xu(p, x, u)
    M = Z[:, 2:6].reshape(m, 2, 2)
    out[:, 2:6] = (h * np.einsum("mij,mjk->mik", J, M)).reshape(m, 4)
    if sens:
        out[:, 6:8] = h * (np.einsum("mij,mj->mi", J, Z[:, 6:8])
                           + param_derivative(p, x, u, "u_a"))
    return out.ravel()


def stacked_rhs_magnitude(p, m, h, sens, Y):
    """A of the forward error bound eps A of a sum of rounded products: the
    stacked RHS with every factor and term replaced by its absolute value
    and every rounded intermediate enlarged by lam, the smallest normal
    number, since an operation that underflows errs by up to eps lam
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
    sections 2.1 and 3.1).  An evaluation may apply h before the operation
    that underflows (``_stacked_rhs`` folds it into its coefficients), so
    that error is not scaled by h: inside, the enlargement is lam / h for
    |h| < 1.  In the references' layout (``conftest.kernel_layout``)."""
    lam = np.finfo(float).tiny
    tiny = lam / min(1.0, abs(h))
    width = 8 if sens else 6
    Z = Y.reshape(m, width)
    x, u = np.abs(Z[:, 0]), Z[:, 1]
    r = p.sigma * _arrhenius(u) + tiny
    rp = r / np.maximum(u * u, model.U_FLOOR ** 2) + tiny
    xr, xrp = x * r + tiny, x * rp + tiny
    J = np.empty((m, 2, 2))
    J[:, 0, 0] = r + p.f
    J[:, 0, 1] = xrp
    J[:, 1, 0] = r / p.eps
    J[:, 1, 1] = (xrp + p.loss) / p.eps
    J += tiny
    out = np.empty_like(Z)
    out[:, 0] = xr + p.f * (1.0 + x)
    out[:, 1] = (xr + p.loss * (np.abs(u) + p.u_a)) / p.eps
    out[:, 2:6] = (J @ np.abs(Z[:, 2:6]).reshape(m, 2, 2)).reshape(m, 4)
    if sens:
        out[:, 6:8] = (J @ np.abs(Z[:, 6:8, None]))[..., 0] + [0.0, p.loss / p.eps]
    return abs(h) * (out.ravel() + tiny) + lam


def assert_rounding_close(got, want, magnitude):
    """|got - want| <= 16 eps A, component by component, for two evaluations
    of a few rounded products and sums, each within a few units of eps A of
    the exact value; A is ``stacked_rhs_magnitude``."""
    assert np.all(np.abs(got - want) <= 16 * np.finfo(float).eps * magnitude)


class TestStackedRhs:
    # BLAS sums the kernel's products in an order of its own, so the bits
    # are not the reference's; see stacked_rhs_magnitude.
    # Each id names the parameter the shoot differentiates by, if any.
    @pytest.mark.parametrize("sens", (False, True), ids=("None", "u_a"))
    def test_equals_array_kernel_reference(self, mic, rng, sens):
        p = mic.model
        width = 8 if sens else 6
        for m in (1, 12, 25):
            h = float(rng.uniform(0.01, 3.0))
            Z = rng.normal(size=(m, width))
            Z[:, 0] = rng.uniform(0.0, 1.0, m)
            Z[:, 1] = rng.uniform(0.02, 0.06, m)
            Z[0, 1] = -abs(Z[0, 1])     # one segment outside the domain
            if m > 1:
                Z[-1, 1] = 1e-170       # and one where u * u underflows to 0
            Y = Z.ravel()
            rhs, w = cycles._stacked_rhs(p, m, h, sens)
            assert w == width
            got = rhs(0.0, kernel_layout(Y, sens))
            assert_rounding_close(kernel_layout(got, sens, back=True),
                                  stacked_rhs_reference(p, m, h, sens, Y),
                                  stacked_rhs_magnitude(p, m, h, sens, Y))


def branched_stacked_rhs(p, m, h, sens):
    """``_stacked_rhs`` as it was before the clamps: conftest's ``_arrhenius``
    with its branches, a guard on u * u and h applied per term, in the
    references' layout (``conftest.kernel_layout``)."""
    width = 8 if sens else 6

    def rhs(s, Y):
        Z = Y.reshape(m, width)
        x, u = Z[:, 0], Z[:, 1]
        r = p.sigma * _arrhenius(u)
        uu = u * u
        rp = r / np.where(uu > 0, uu, 1.0)
        xr, xrp = x * r, x * rp
        j00, j01 = -(r + p.f), -xrp
        j10, j11 = r / p.eps, (xrp - p.loss) / p.eps
        out = np.empty_like(Z)
        out[:, 0] = h * (-xr + p.f * (1.0 - x))
        out[:, 1] = h * ((xr - p.loss * (u - p.u_a)) / p.eps)
        M0, M1 = Z[:, 2:4], Z[:, 4:6]
        out[:, 2:4] = h * (j00[:, None] * M0 + j01[:, None] * M1)
        out[:, 4:6] = h * (j10[:, None] * M0 + j11[:, None] * M1)
        if sens:
            z0, z1 = Z[:, 6], Z[:, 7]
            b = param_derivative(p, x, u, "u_a")
            out[:, 6] = h * (j00 * z0 + j01 * z1 + b[:, 0])
            out[:, 7] = h * (j10 * z0 + j11 * z1 + b[:, 1])
        return out.ravel()

    return rhs


def per_segment_stacked_jac(p, m, h, sens):
    """``_stacked_jac`` as it was before batching: one block per segment,
    joined by ``scipy.linalg.block_diag``, in the kernels' layout.  W holds
    the rows of M, or of [M | zeta] with the sensitivity, whose field
    derivative by u_a has a zero state Jacobian."""
    from scipy.linalg import block_diag

    width = 8 if sens else 6
    cols = (width - 2) // 2

    def jac(s, Y):
        Z = Y.reshape(m, width)
        blocks = []
        for i in range(m):
            x, u = float(Z[i, 0]), float(Z[i, 1])
            J = _jac_xu(p, x, u)
            B = model._hessian_xu(p, x, u)
            W = Z[i, 2:].reshape(2, cols)
            blk = np.zeros((width, width))
            blk[0:2, 0:2] = h * J
            dJW = np.einsum("jla,lk->jka", B, W)
            blk[2:, 0:2] = h * dJW.reshape(2 * cols, 2)
            blk[2:, 2:] = h * np.kron(J, np.eye(cols))
            blocks.append(blk)
        return block_diag(*blocks)

    return jac


# u at and around the clamp, outside the domain, where u * u underflows and
# subnormal; transition-matrix and sensitivity entries of either sign from
# exact zeros up to 1e5.
kernel_us = st.sampled_from([-0.01, -0.0, 0.0, 1e-3, 0.0013, 1e-170, 5e-324]) \
    | st.floats(0.02, 0.08) | st.floats(-0.1, 0.3)
kernel_entries = st.sampled_from([0.0, -0.0]) | st.builds(
    lambda mag, sign: sign * mag, st.floats(1e-20, 1e5), st.sampled_from([1.0, -1.0]))


class TestStackedKernels:
    # Up to 12 drawn segments, repeated to m rows: each value meets the
    # kernels at several positions of the batch.
    @settings(max_examples=200, deadline=None)
    @given(segments=st.lists(st.tuples(st.floats(-0.5, 1.5), kernel_us,
                                       *[kernel_entries] * 6),
                             min_size=1, max_size=12),
           m=st.sampled_from([1, 12, 24, 96]),
           sens=st.booleans(), h=st.floats(0.01, 3.0))
    def test_bytes_equal_the_branched_and_per_segment_kernels(
            self, mic, segments, m, sens, h):
        # The RHS within the rounding bound of the branched kernel (BLAS
        # sums its products in an order of its own), the Jacobian bit for
        # bit the per-segment one.
        p = mic.model
        width = 8 if sens else 6
        Y = np.resize(np.array(segments)[:, :width], (m, width)).ravel()
        rhs = cycles._stacked_rhs(p, m, h, sens)[0]
        jac = cycles._stacked_jac(p, m, h, sens)
        # -1 / u overflows for subnormal u (exp gives the limit 0); any
        # other warning, 0 / 0 above all, is an error.
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            ref_Y = kernel_layout(Y, sens, back=True)
            assert_rounding_close(kernel_layout(rhs(0.0, Y), sens, back=True),
                                  branched_stacked_rhs(p, m, h, sens)(0.0, ref_Y),
                                  stacked_rhs_magnitude(p, m, h, sens, ref_Y))
            assert (jac(0.0, Y).tobytes()
                    == per_segment_stacked_jac(p, m, h, sens)(0.0, Y).tobytes())


def stacked_jac_magnitudes(p, m, h, sens, Y):
    """Per segment, the diagonal block of ``_stacked_jac`` and the u column
    of the RHS's third derivatives, with every factor and term replaced by
    its absolute value; shapes (m, width, width) and (m, width), in the
    references' layout (``conftest.kernel_layout``)."""
    width = 8 if sens else 6
    Z = Y.reshape(m, width)
    x, u = np.abs(Z[:, 0]), Z[:, 1]
    M, z = np.abs(Z[:, 2:6]).reshape(m, 2, 2), np.abs(Z[:, 6:8, None])
    r = p.sigma * np.exp(-1.0 / u)
    # |d^k r / du^k| for r = sigma e^(-1/u): r / u^(2k) times a polynomial
    # in u, here with the absolute values of its coefficients.
    a = [r, r / u**2, r * (1 + 2 * u) / u**4, r * (1 + 6 * u + 6 * u**2) / u**6,
         r * (1 + 12 * u + 36 * u**2 + 24 * u**3) / u**8]

    def J(k):
        """|d^k J / du^k|; for k = 0, J with its constant terms."""
        out = np.empty((m, 2, 2))
        out[:, 0, 0] = a[k] + (p.f if k == 0 else 0.0)
        out[:, 0, 1] = x * a[k + 1]
        out[:, 1, 0] = a[k] / p.eps
        out[:, 1, 1] = (x * a[k + 1] + (p.loss if k == 0 else 0.0)) / p.eps
        return out

    J_x = np.zeros((m, 2, 2))
    J_x[:, 0, 1] = a[1]
    J_x[:, 1, 1] = a[1] / p.eps
    blk = np.zeros((m, width, width))
    third = np.zeros((m, width))
    blk[:, 0:2, 0] = np.column_stack([a[0] + p.f, a[0] / p.eps])
    blk[:, 0:2, 1] = np.column_stack([x * a[1], (x * a[1] + p.loss) / p.eps])
    third[:, 0:2] = np.column_stack([x * a[3], x * a[3] / p.eps])
    blk[:, 2:6, 0] = (J_x @ M).reshape(m, 4)
    blk[:, 2:6, 1] = (J(1) @ M).reshape(m, 4)
    third[:, 2:6] = (J(3) @ M).reshape(m, 4)
    blk[:, 2:6, 2:6] = (J(0)[:, :, None, :, None]
                        * np.eye(2)[:, None, :]).reshape(m, 4, 4)
    if sens:
        blk[:, 6:8, 0] = (J_x @ z)[..., 0]
        blk[:, 6:8, 1] = (J(1) @ z)[..., 0]
        third[:, 6:8] = (J(3) @ z)[..., 0]
        blk[:, 6:8, 6:8] = J(0)
    return abs(h) * blk, abs(h) * third


class TestStackedJacobian:
    """``_stacked_jac`` is the Jacobian of ``_stacked_rhs``, which computes
    its field and J another way: each diagonal block against central
    differences of the RHS, and nothing off the diagonal.

    A central difference with step d errs by d^2/6 times the third
    derivative, plus the rounding of the two RHS values over 2 d.  The RHS
    is linear in x, M and zeta, so only the u column has the first term;
    its step d = eta u^2 changes r by the factor e^(+-eta).  The rounding
    of an RHS value is a few units of eps A (A as in
    ``stacked_rhs_magnitude``), but for its error against the exact field
    that of -1/u in r = sigma e^(-1/u) counts 1/u times.  The allowance is
    each term's bound, twice, with 32 eps for the rounding of both sides."""

    ETA = 2.0 ** -16

    @settings(max_examples=200, deadline=None)
    @given(p=criterion5_params,
           segments=st.lists(st.tuples(st.floats(-0.5, 1.5), st.floats(0.015, 0.1),
                                       *[kernel_entries] * 6),
                             min_size=1, max_size=12),
           m=st.sampled_from([10, 12, 24]), sens=st.booleans(),
           h=st.floats(0.01, 3.0))
    def test_blocks_are_central_differences_of_the_rhs(self, p, segments, m,
                                                       sens, h):
        width = 8 if sens else 6
        Y = np.resize(np.array(segments)[:, :width], (m, width)).ravel()
        rhs = cycles._stacked_rhs(p, m, h, sens)[0]
        full = cycles._stacked_jac(p, m, h, sens)(0.0, Y).reshape(m, width, m, width)
        seg = np.arange(m)
        blocks = full[seg, :, seg, :].copy()
        full[seg, :, seg, :] = 0.0
        assert not full.any()
        # The magnitudes are in the references' layout, the blocks and the
        # perturbed components in the kernels'.
        mag, third = stacked_jac_magnitudes(p, m, h, sens,
                                            kernel_layout(Y, sens, back=True))
        mag, third = kernel_layout(mag, sens, axes=(1, 2)), kernel_layout(third, sens)
        Z = Y.reshape(m, width)
        eps = np.finfo(float).eps
        for k in range(width):
            d = self.ETA * (Z[:, 1] ** 2 if k == 1 else
                            np.maximum(1.0, np.abs(Z[:, k])))
            up, down = Z.copy(), Z.copy()
            up[:, k] += d
            down[:, k] -= d
            step = (up[:, k] - down[:, k])[:, None]
            # The RHS returns one buffer from call to call.
            diff = (rhs(0.0, up.ravel()).copy()
                    - rhs(0.0, down.ravel())).reshape(m, width)
            rounding = kernel_layout(np.maximum(
                *(stacked_rhs_magnitude(p, m, h, sens,
                                        kernel_layout(v.ravel(), sens, back=True))
                  for v in (up, down))), sens)
            tol = 32 * eps * (mag[:, :, k] + rounding.reshape(m, width)
                              * (1.0 + 1.0 / Z[:, 1:2]) / step)
            if k == 1:
                tol += 2 * d[:, None] ** 2 / 6 * third
            assert np.all(np.abs(diff / step - blocks[:, :, k]) <= tol), k


class _Captured(Exception):
    pass


def floquet_rhs(p):
    """The RHS ``cycles.floquet`` integrates its legs with, taken from its
    first ``lsoda`` call, which is not made."""
    captured = []

    def capture(fun, *args, **kwargs):
        captured.append(fun)
        raise _Captured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cycles, "lsoda", capture)
        with pytest.raises(_Captured):
            floquet(p, np.array([0.5, 0.04]), 1.0)
    return captured[0]


# One segment's state, transition matrix and sensitivity, or one floquet
# state (y, M, int trace, int |trace|).
kernel_rows = st.tuples(st.floats(-0.5, 1.5), kernel_us, *[kernel_entries] * 6)


class TestBufferedCallbacks:
    """The callbacks that keep their work arrays from call to call give, on
    every call and whatever the call before left in them, the bits of the
    same callback built afresh and the values of the allocating ones in
    ``conftest``: the bits for ``floquet``'s RHS, within the rounding bound
    for the stacked RHS, whose BLAS products sum in an order of their own."""

    @settings(max_examples=200, deadline=None)
    @given(p=criterion5_params,
           draws=st.lists(st.lists(kernel_rows, min_size=1, max_size=12),
                          min_size=2, max_size=3),
           m=st.sampled_from([10, 12, 24]), sens=st.booleans(),
           h=st.floats(0.01, 3.0))
    def test_stacked_rhs_bytes_equal_the_allocating_one(self, p, draws, m,
                                                        sens, h):
        width = 8 if sens else 6
        rhs, w = cycles._stacked_rhs(p, m, h, sens)
        ref, _ = stacked_rhs_allocating(p, m, h, sens)
        assert w == width
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            for segments in draws:
                Y = np.resize(np.array(segments)[:, :width], (m, width)).ravel()
                got = rhs(0.0, Y)
                fresh = cycles._stacked_rhs(p, m, h, sens)[0](0.0, Y)
                assert got.tobytes() == fresh.tobytes()
                ref_Y = kernel_layout(Y, sens, back=True)
                assert_rounding_close(kernel_layout(got, sens, back=True),
                                      ref(0.0, ref_Y),
                                      stacked_rhs_magnitude(p, m, h, sens, ref_Y))

    # Each id names the parameter the shoot differentiates by, if any.
    @pytest.mark.parametrize("sens", (False, True), ids=("None", "u_a"))
    @pytest.mark.parametrize("m", [10, 12, 24])
    def test_shoot_bytes_equal_on_the_allocating_rhs(self, mic, mic_h1,
                                                     monkeypatch, m, sens):
        # odeint reads the returned buffer; the shoot must not tell it from
        # a fresh array per call.
        p, seed = hopf_germ(mic.model, mic_h1, 1e-3)
        starts = seed.segment_starts(m)
        got = cycles._shoot(p, starts, seed.period, sens=sens)
        stacked = cycles._stacked_rhs

        def allocating(*args):
            rhs, width = stacked(*args)
            return (lambda s, Y: rhs(s, Y).copy()), width

        monkeypatch.setattr(cycles, "_stacked_rhs", allocating)
        want = cycles._shoot(p, starts, seed.period, sens=sens)
        for g, w in zip(got, want):
            assert (g is None and w is None) or g.tobytes() == w.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(p=criterion5_params,
           states=st.lists(kernel_rows, min_size=2, max_size=4))
    def test_floquet_rhs_bytes_equal_the_allocating_one(self, p, states):
        rhs, ref = floquet_rhs(p), floquet_rhs_allocating(p)
        for Y in map(np.array, states):
            assert (np.array(rhs(0.0, Y)).tobytes()
                    == np.array(ref(0.0, Y)).tobytes())


def shoot_reference(p, starts, T, sens=False, var=True):
    """``_shoot`` on ``solve_ivp(method="LSODA")``, the driver it replaced.

    The state rows get the shooting tolerances and the M and zeta rows the
    variational ones, as per-component arrays.  The start is built and the
    end read in the references' layout, y, M (4), zeta (2), and integrated
    in the kernels' (``conftest.kernel_layout``).  ``var=False`` integrates
    the segment states alone, as the plain shoot the cycle corrector's line
    search once judged its trials on.
    """
    from scipy.integrate import solve_ivp
    from scipy.linalg import block_diag

    m = len(starts)
    h = T / m
    if var:
        rhs, width = cycles._stacked_rhs(p, m, h, sens)
        jac = cycles._stacked_jac(p, m, h, sens)
        Y0 = np.zeros((m, width))
        Y0[:, 0:2] = starts
        Y0[:, 2] = Y0[:, 5] = 1.0
        Y0 = kernel_layout(Y0, sens)
    else:
        def rhs(s, Y):
            Z = Y.reshape(m, 2)
            return (h * np.column_stack(_field_xu(p, Z[:, 0], Z[:, 1]))).ravel()

        def jac(s, Y):
            Z = Y.reshape(m, 2)
            return block_diag(*(h * _jac_xu(p, Z[:, 0], Z[:, 1])))

        width, Y0 = 2, starts
    rtol = np.tile([cycles.SHOOT_RTOL] * 2
                   + [cycles.VARIATIONAL_RTOL] * (width - 2), m)
    atol = np.tile([cycles.SHOOT_ATOL] * 2
                   + [cycles.VARIATIONAL_ATOL] * (width - 2), m)
    sol = solve_ivp(rhs, (0.0, 1.0), Y0.ravel(), method="LSODA",
                    rtol=rtol, atol=atol, jac=jac)
    assert sol.success
    Z = sol.y[:, -1].reshape(m, width)
    if not var:
        return Z, None, None
    Z = kernel_layout(Z, sens, back=True)
    return Z[:, 0:2], Z[:, 2:6].reshape(m, 2, 2), Z[:, 6:8] if sens else None


@pytest.fixture(scope="module")
def germ_starts(mic, mic_h1):
    """Segment starts of a germ seed, and the same off the orbit."""
    p, seed = hopf_germ(mic.model, mic_h1, 1e-3)
    starts = seed.segment_starts(12)
    off = starts + [0.02, 5e-4] * np.sin(np.arange(12))[:, None]
    return p, seed.period, starts, off


class TestShootDriver:
    # Each id names the parameter the shoot differentiates by, if any.
    @pytest.mark.parametrize("sens", (False, True), ids=("None", "u_a"))
    def test_variational_equals_solve_ivp(self, germ_starts, sens):
        p, T, *cases = germ_starts
        for starts in cases:
            got = cycles._shoot(p, starts, T, sens=sens)
            want = shoot_reference(p, starts, T, sens)
            for g, w in zip(got, want):
                assert (g is None and w is None) or np.array_equal(g, w)

    def test_nonfinite_field_is_a_convergence_error(self, germ_starts,
                                                    monkeypatch):
        p, T, starts, _ = germ_starts
        stacked = cycles._stacked_rhs

        def stacked_blowing_up(*args):
            # Infinite from halfway through the unit interval on.
            rhs, width = stacked(*args)
            return (lambda s, Y: rhs(s, Y) if s < 0.5
                    else np.full_like(Y, np.inf)), width

        monkeypatch.setattr(cycles, "_stacked_rhs", stacked_blowing_up)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="variational integration "
                                                       "failed: LSODA failed"):
                cycles._shoot(p, starts, T, sens=True)


def lsoda_tolerances(monkeypatch):
    """(len(y0), rtol, atol) of every ``cycles.lsoda`` call from now on,
    each call still made."""
    calls, lsoda = [], cycles.lsoda

    def recording(rhs, jac, y0, ts, rtol, atol):
        calls.append((len(y0), np.asarray(rtol), np.asarray(atol)))
        return lsoda(rhs, jac, y0, ts, rtol, atol)

    monkeypatch.setattr(cycles, "lsoda", recording)
    return calls


class TestShootTolerances:
    """The stacked shoot holds its segment states to the shooting
    tolerances and its M and zeta rows, which only build Jacobians, to the
    variational ones; every integration whose variational part or samples
    are an output keeps the scalar shooting tolerances."""

    # Each id names the parameter the shoot differentiates by, if any.
    @pytest.mark.parametrize("sens", (False, True), ids=("None", "u_a"))
    def test_shoot_state_rows_keep_the_shooting_tolerances(
            self, germ_starts, monkeypatch, sens):
        p, T, starts, _ = germ_starts
        calls = lsoda_tolerances(monkeypatch)
        cycles._shoot(p, starts, T, sens=sens)
        width = 8 if sens else 6
        [(n, rtol, atol)] = calls
        assert n == len(starts) * width
        rtol, atol = rtol.reshape(-1, width), atol.reshape(-1, width)
        assert np.all(rtol[:, 0:2] == cycles.SHOOT_RTOL)
        assert np.all(atol[:, 0:2] == cycles.SHOOT_ATOL)
        assert np.all(rtol[:, 2:] == cycles.VARIATIONAL_RTOL)
        assert np.all(atol[:, 2:] == cycles.VARIATIONAL_ATOL)

    def test_output_integrations_keep_the_scalar_tolerances(
            self, germ_starts, monkeypatch):
        p, T, starts, _ = germ_starts
        for run in (lambda: floquet(p, starts[0], T),
                    lambda: cycles._finalize_orbit(p, starts[0], T),
                    lambda: cycles._sample_flow(p, starts[0], T, 24)):
            calls = lsoda_tolerances(monkeypatch)
            run()
            assert calls
            for _, rtol, atol in calls:
                assert rtol.ndim == 0 and rtol == cycles.SHOOT_RTOL
                assert atol.ndim == 0 and atol == cycles.SHOOT_ATOL


class TestJacobianTolerance:
    """Loosening the shoot's M and zeta rows moves no converged orbit
    beyond what ``find_cycle`` and the simulation resolve: the relaxation
    cycle by ``find_cycle`` and a germ orbit by ``_solve_cycle_raw``, each
    against the same solve with the variational rows at the shooting
    tolerances."""

    @staticmethod
    def assert_same_orbit(got, want):
        assert (abs(got.period - want.period)
                <= cycles.FIND_CYCLE_PERIOD_RTOL * want.period)
        assert (abs(got.amplitude - want.amplitude)
                <= simulate.PERIOD_REPEATABILITY * want.amplitude)
        assert got.segments == want.segments
        assert got.stability == want.stability

    @staticmethod
    def at_shooting_tolerances(monkeypatch):
        monkeypatch.setattr(cycles, "VARIATIONAL_RTOL", cycles.SHOOT_RTOL)
        monkeypatch.setattr(cycles, "VARIATIONAL_ATOL", cycles.SHOOT_ATOL)

    def test_relaxation_cycle(self, relaxation_seed, monkeypatch):
        p, seed = relaxation_seed
        got = find_cycle(p, seed, m=12)
        self.at_shooting_tolerances(monkeypatch)
        want = find_cycle(p, seed, m=12)
        assert want.stability == "stable"
        self.assert_same_orbit(got, want)

    def test_germ_orbit(self, mic, mic_h1, monkeypatch):
        p, seed = hopf_germ(mic.model, mic_h1, 1e-6)

        def orbit():
            starts, T, res = cycles._solve_cycle_raw(p, seed, 12)
            return cycles._make_orbit(p, starts, T, res)

        got = orbit()
        self.at_shooting_tolerances(monkeypatch)
        want = orbit()
        assert want.stability == "unstable"
        self.assert_same_orbit(got, want)


def newton_cycle_reference(p, seed, m, tol=cycles.CYCLE_TOL):
    """The corrector ``_solve_cycle_raw`` replaced: full variational shoots
    for the Newton steps, a line search of at most 12 halvings judged on
    plain shoots, and 25 iterates checked.  Returns (starts, T, residual).
    """
    starts = seed.segment_starts(m)
    ref_states, ref_fields = starts.copy(), cycles._fields_at(p, starts)
    T = seed.period
    norm = np.inf
    for _ in range(25):
        ends, Ms, _ = cycles._shoot(p, starts, T)
        R = cycles._residual(starts, ends, ref_states, ref_fields)
        norm = float(np.max(np.abs(R)))
        if norm < tol:
            return starts, T, norm
        J = cycles._bvp_jacobian(p, starts, ends, Ms, None, ref_fields)
        step = np.linalg.solve(J, -R)
        lam = 1.0
        for _ in range(12):
            s_new = starts + lam * step[:2 * m].reshape(m, 2)
            T_new = T + lam * step[2 * m]
            if T_new > 0:
                ends_new, _, _ = shoot_reference(p, s_new, T_new, var=False)
                R_new = cycles._residual(s_new, ends_new, ref_states, ref_fields)
                if float(np.max(np.abs(R_new))) < norm:
                    break
            lam *= 0.5
        else:
            raise ConvergenceError("cycle Newton line search stalled", residual=norm)
        starts, T = s_new, T_new
    raise ConvergenceError(f"cycle Newton did not reach {tol:g}", residual=norm)


@pytest.fixture(scope="module")
def relaxation_seed(mic):
    """A seed sampled from the relaxation cycle at 290.07 K, inside the
    bistable window, reached from a start outside the unstable orbit."""
    p = mic.model.with_(u_a=290.07 / mic.temp_scale, u_boil=math.inf)
    pt = steady.solve_steady(p, (float(model.quasi_steady_x(p, 0.03937)), 0.03937))
    traj = simulate.integrate(p, (pt.state.x, pt.state.u + 3.8e-3),
                              tau_end=20.0, n_samples=2000)
    # Period guess: mean gap between upward crossings of the mean u over
    # the last third of the run.
    n = len(traj.times) // 3
    t, g = traj.times[-n:], traj.us[-n:] - float(np.mean(traj.us[-n:]))
    up = np.nonzero((g[:-1] <= 0.0) & (g[1:] > 0.0))[0]
    crossings = t[up] - g[up] * (t[up + 1] - t[up]) / (g[up + 1] - g[up])
    period = float(np.mean(np.diff(crossings)))
    return p, cycles.seed_from_simulation(p, traj.final_state(), period)


class TestSolveCycleRaw:
    # Germs at 1e-6 and 1e-7 and the relaxation seed converge under both
    # correctors.  Larger germs (1e-5 at 12 segments, 1e-3 at 12 and 24)
    # stall the reference's 12 halvings, where damped_newton goes on.
    @pytest.mark.parametrize("m", (12, 24))
    def test_equals_the_plain_shoot_corrector(self, mic, mic_h1,
                                              relaxation_seed, m):
        seeds = [hopf_germ(mic.model, mic_h1, delta) for delta in (1e-6, 1e-7)]
        for p, seed in seeds + [relaxation_seed]:
            starts, T, res = cycles._solve_cycle_raw(p, seed, m)
            want_starts, want_T, want_res = newton_cycle_reference(p, seed, m)
            assert np.array_equal(starts, want_starts)
            assert float(T).hex() == float(want_T).hex()
            assert float(res).hex() == float(want_res).hex()

    def test_each_iterate_shot_once(self, mic, mic_h1, monkeypatch):
        # The accepted trial's shoot is the next iterate's residual and
        # Jacobian: no (starts, T) is integrated twice.
        p, seed = hopf_germ(mic.model, mic_h1, 1e-7)
        shoot, keys = cycles._shoot, []

        def recording(p_, starts, T, *args, **kwargs):
            keys.append((np.asarray(starts).tobytes(), float(T)))
            return shoot(p_, starts, T, *args, **kwargs)

        monkeypatch.setattr(cycles, "_shoot", recording)
        cycles._solve_cycle_raw(p, seed, 12)
        assert len(keys) > 1
        assert len(set(keys)) == len(keys)


class TestFloquet:
    def test_unstable_near_onset(self, mic, mic_h1):
        p_off, seed = hopf_germ(mic.model, mic_h1, 1e-7)
        orbit = find_cycle(p_off, seed, m=12)
        assert orbit.stability == "unstable"
        assert orbit.nontrivial_multiplier > 1.0
        assert abs(orbit.multipliers[0] - 1.0) < 1e-4

    def test_stable_cycle_contracts(self, settled_cycle):
        p, rep = settled_cycle
        seed = cycles.seed_from_simulation(
            p, (rep.terminal_state.x, rep.terminal_state.u), rep.period)
        orbit = find_cycle(p, seed, m=12)
        mults, defect = floquet(p, orbit.mesh[0], orbit.period)
        assert abs(mults[1]) < 1.0
        assert defect < 1e-6

    def test_liouville_identity_along_branch(self, mic_cycle_branch):
        for orbit in mic_cycle_branch.orbits:
            assert orbit.liouville_defect < 1e-6
            assert abs(orbit.multipliers[0] - 1.0) < 1e-4


DOP853 = {"method": "DOP853", "rtol": 1e-13, "atol": 1e-16}


def dop853_orbit(p, y0, period):
    """An orbit's u extrema and nontrivial multiplier from scipy's DOP853 at
    rtol 1e-13 and atol 1e-16, an integrator that ``cycles`` does not use.

    The extrema are the flow's u at its du/dt event; the monodromy matrix
    is the product of variational legs, each cut by a terminal event where
    its int |trace J| reaches ``LEG_TRACE_BUDGET``, and its determinant the
    product of theirs, so that a stable orbit's tiny multiplier is kept.
    """
    from scipy.integrate import solve_ivp

    rhs, _, field_jac = model._callbacks(p)

    def du(t, y):
        return rhs(t, y)[1]

    sol = solve_ivp(rhs, (0.0, period), y0, events=[du], **DOP853)
    us = np.concatenate([sol.y[1], sol.y_events[0][:, 1]])

    def variational(t, Y):
        fx, fu, a, b, c, d = field_jac(*Y[:2])
        M = np.array([[a, b], [c, d]]) @ Y[2:6].reshape(2, 2)
        return [fx, fu, *M.ravel(), abs(a + d)]

    def spent(t, Y):
        return Y[6] - cycles.LEG_TRACE_BUDGET

    spent.terminal = True
    monodromy, det, t = np.eye(2), 1.0, 0.0
    y = np.array(y0, dtype=float)
    while t < period:
        leg = solve_ivp(variational, (t, period), [*y, 1.0, 0.0, 0.0, 1.0, 0.0],
                        events=[spent], **DOP853)
        M = leg.y[2:6, -1].reshape(2, 2)
        monodromy, det = M @ monodromy, det * np.linalg.det(M)
        t, y = leg.t[-1], leg.y[:2, -1]
    lams = cycles._stable_multipliers(float(np.trace(monodromy)), float(det))
    return float(us.min()), float(us.max()), max(lams, key=lambda v: abs(v - 1.0))


class TestOrbitAccuracy:
    """Orbit data against an independent DOP853 reference from the orbit's
    own start: the amplitude to the simulation's period repeatability, the
    nontrivial multiplier to 1e-6.  The worst amplitude error, 3.0e-7, is
    orbit 15's, next to the cycle fold; it is the mesh run's LSODA error,
    not the extremum search's.  The branch orbits run up to the fold,
    where the multiplier errors grow to 1.6e-7 (orbit 15), and one past
    it."""

    @pytest.mark.parametrize("k", [1, 8, 12, 13, 14, 15, 16])
    def test_branch_orbit(self, mic, mic_cycle_branch, k):
        orbit = mic_cycle_branch.orbits[k - 1]
        p = mic.model.with_(u_a=orbit.param_value, u_boil=math.inf)
        lo, hi, nontrivial = dop853_orbit(p, orbit.mesh[0], orbit.period)
        assert (abs(orbit.amplitude - (hi - lo))
                <= simulate.PERIOD_REPEATABILITY * (hi - lo))
        assert (abs(orbit.nontrivial_multiplier - nontrivial)
                <= 1e-6 * abs(nontrivial))

    def test_relaxation_cycle(self, relaxation_seed):
        p, seed = relaxation_seed
        orbit = find_cycle(p, seed, m=12)
        lo, hi, _ = dop853_orbit(p, orbit.mesh[0], orbit.period)
        assert orbit.stability == "stable"
        assert (abs(orbit.amplitude - (hi - lo))
                <= simulate.PERIOD_REPEATABILITY * (hi - lo))


class TestCycleBranch:
    def test_emerges_toward_lower_ambient_unstable(self, mic_h1,
                                                   mic_cycle_branch):
        first = mic_cycle_branch.orbits[:5]
        assert all(o.stability == "unstable" for o in first)
        assert all(o.param_value < mic_h1.param_value for o in first)
        deltas = np.diff([o.param_value for o in first])
        assert np.all(deltas < 0)

    def test_cycle_fold_flips_stability(self, mic_cycle_branch):
        cb = mic_cycle_branch
        assert cb.cycle_folds, "expected a turning point of the cycle branch"
        flips = [i for i in range(len(cb.orbits) - 1)
                 if cb.orbits[i].stability != cb.orbits[i + 1].stability]
        assert len(flips) == 1
        i = flips[0]
        lo = min(cb.orbits[i].param_value, cb.orbits[i + 1].param_value)
        hi = max(cb.orbits[i].param_value, cb.orbits[i + 1].param_value)
        assert lo - 1e-6 <= cb.cycle_folds[0] <= hi + 1e-6
        assert cb.orbits[i].stability == "unstable"
        assert cb.orbits[i + 1].stability == "stable"

    def test_fold_below_onset(self, mic_h1, mic_cycle_branch):
        assert mic_cycle_branch.cycle_folds[0] < mic_h1.param_value

    def test_residuals_and_amplitudes(self, mic_cycle_branch):
        for o in mic_cycle_branch.orbits:
            assert o.residual < 1e-9
            assert o.amplitude > 0

    def test_stable_amplitudes_match_simulation(self, mic, mic_h1,
                                                mic_cycle_branch):
        p = mic.model.with_(u_boil=math.inf)
        stable = [o for o in mic_cycle_branch.orbits
                  if o.stability == "stable"
                  and o.param_value > mic_h1.param_value + 1e-5]
        assert len(stable) >= 3
        idx = np.linspace(0, len(stable) - 1, 3).astype(int)
        for i in idx:
            o = stable[i]
            q = p.with_(u_a=o.param_value)
            rep = simulate.settle(q, (1.0, q.u_a), horizon=130.0)
            assert rep.kind == "cycle"
            assert abs(rep.amplitude - o.amplitude) < 1e-3

    def test_bistability_window(self, mic, mic_h1, mic_cycle_branch):
        # Between the cycle fold and the onset, the steady state and the
        # large cycle coexist, separated by the unstable small cycle.
        cb = mic_cycle_branch
        fold = cb.cycle_folds[0]
        target = 0.5 * (fold + mic_h1.param_value)
        p = mic.model.with_(u_a=target, u_boil=math.inf)
        pt = steady.solve_steady(p, (mic_h1.state.x, mic_h1.state.u))
        assert pt.stability == steady.STABLE
        unstable_amp = min(
            (o for o in cb.orbits if o.stability == "unstable"),
            key=lambda o: abs(o.param_value - target)).amplitude
        # The midpoint steady is weakly damped; the inside run needs a
        # longer (cheap, near-steady) horizon to meet the 1e-9 criterion.
        inside = simulate.settle(
            p, (pt.state.x, pt.state.u + 0.2 * unstable_amp), horizon=400.0)
        outside = simulate.settle(
            p, (pt.state.x, pt.state.u + 3.0 * unstable_amp), horizon=130.0)
        assert inside.kind == "steady"
        assert outside.kind == "cycle"
        assert inside.kind != outside.kind

    def test_fold_is_the_branch_minimum_of_u_a(self, mic_cycle_branch):
        # The cycle fold is the minimum of u_a along the branch:
        # 0.0376710620897 over 39 pinned solves of the traced step.
        cb = mic_cycle_branch
        fold = cb.cycle_folds[0]
        assert fold <= min(o.param_value for o in cb.orbits)
        assert (abs(fold - 0.0376710620897)
                <= cycles.FOLD_PARAM_TOL * 0.0376710620897)

    def test_fold_between_the_last_two_orbits(self, mic, mic_h1, mic_window,
                                              mic_cycle_branch):
        # The 16th orbit is the first stable one past the cycle fold.  The
        # fold comes from those two orbits and their tangents alone, which
        # the full branch shares.
        cb = cycles.continue_cycles(mic.model, mic_h1, mic_window, m=12,
                                    max_orbits=16)
        assert cb.orbits[-2].stability == "unstable"
        assert cb.orbits[-1].stability == "stable"
        assert len(cb.cycle_folds) == 1
        assert cb.cycle_folds[0] == mic_cycle_branch.cycle_folds[0]

    def test_no_shoot_after_the_continuation(self, mic, mic_h1, mic_window,
                                             monkeypatch):
        # The fold is read off the accepted orbits and tangents: once
        # continue_curve returns, no orbit is solved again.
        events = []
        shoot, curve = cycles._shoot, cycles.continue_curve

        def recording_shoot(*args, **kwargs):
            events.append("shoot")
            return shoot(*args, **kwargs)

        def recording_curve(*args, **kwargs):
            run = curve(*args, **kwargs)
            events.append("continue_curve")
            return run

        monkeypatch.setattr(cycles, "_shoot", recording_shoot)
        monkeypatch.setattr(cycles, "continue_curve", recording_curve)
        cb = cycles.continue_cycles(mic.model, mic_h1, mic_window, m=12,
                                    max_orbits=16)
        assert len(cb.cycle_folds) == 1
        assert events.count("continue_curve") == 1
        assert events[-1] == "continue_curve" and "shoot" in events

    def test_no_shoot_repeated_back_to_back(self, mic, mic_h1, mic_window,
                                            monkeypatch):
        # The tangent at an accepted orbit reuses the corrector's last
        # integration instead of shooting the same orbit again.
        shoot, keys = cycles._shoot, []
        sig = inspect.signature(shoot)

        def recording(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            keys.append(tuple(np.asarray(v).tobytes()
                              if isinstance(v, (np.ndarray, np.floating)) else v
                              for v in bound.arguments.values()))
            return shoot(*args, **kwargs)

        monkeypatch.setattr(cycles, "_shoot", recording)
        cycles.continue_cycles(mic.model, mic_h1, mic_window, m=12, max_orbits=8)
        assert len(keys) > 8
        assert all(a != b for a, b in zip(keys, keys[1:]))

    def test_second_germ_failure_is_a_convergence_error(self, mic, mic_h1,
                                                        mic_window, monkeypatch):
        solve, calls = cycles._solve_cycle_raw, []

        def second_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ConvergenceError("forced failure")
            return solve(*args, **kwargs)

        monkeypatch.setattr(cycles, "_solve_cycle_raw", second_fails)
        with pytest.raises(ConvergenceError,
                           match="could not start the cycle branch from the germ"):
            cycles.continue_cycles(mic.model, mic_h1, mic_window, m=12)
        assert len(calls) == 2

    def test_one_hopf_crossing_per_branch(self, mic, mic_h1, mic_window,
                                          monkeypatch):
        # The first germ is forced to fail, so the branch starts from the
        # fallback scale 4 and its second germ at 8; all three germs are
        # hopf_germ's, from one crossing computation.
        crossing, solve = cycles._hopf_crossing, cycles._solve_cycle_raw
        calls, seeds = [], []

        def counting(*args):
            calls.append(args)
            return crossing(*args)

        def first_fails(p, seed, m):
            seeds.append((p, seed))
            if len(seeds) == 1:
                raise GermError("forced failure")
            return solve(p, seed, m)

        monkeypatch.setattr(cycles, "_solve_cycle_raw", first_fails)
        delta0 = cycles._germ_seeds(mic.model, mic_h1)[1]
        want = [hopf_germ(mic.model, mic_h1, scale * delta0) for scale in (1, 4, 8)]
        monkeypatch.setattr(cycles, "_hopf_crossing", counting)
        cb = cycles.continue_cycles(mic.model, mic_h1, mic_window, m=12,
                                    max_orbits=2)
        assert len(calls) == 1
        assert len(cb.orbits) == 2
        assert len(seeds) == 3
        for (p, seed), (want_p, want_seed) in zip(seeds, want):
            assert p == want_p
            assert seed.times.tobytes() == want_seed.times.tobytes()
            assert seed.states.tobytes() == want_seed.states.tobytes()
            assert float(seed.period).hex() == float(want_seed.period).hex()

    def test_hopf_point_of_another_parameter_is_rejected(self, mic):
        # Cycle branches are continued in u_a alone; the Hopf point of the
        # f-branch (f ~ 1.6407) names its parameter in the error.
        p = mic.model
        branch = steady.continue_branch(p, "f", (0.85, 3.4))
        hopf = next(sp for sp in branch.specials if sp.kind == "hopf")
        assert hopf.param_value == pytest.approx(1.6407, abs=1e-4)
        with pytest.raises(ValidationError, match="'f'"):
            cycles.continue_cycles(p, hopf, (0.85, 3.4), m=12, max_orbits=3)


def hermite_chord(seed, a, b, ma, mb, n):
    """Two points on a straight chord in n coordinates whose last one, u_a,
    goes from a to b, with tangents whose u_a components make the slopes
    d(u_a)/dv = ma and mb, v running over [0, 1] along the chord."""
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.1, 10.0, n)
    Y_a, Y_b = rng.standard_normal(n), rng.standard_normal(n)
    Y_a[-1], Y_b[-1] = a, b
    d = (Y_b - Y_a) / scales
    h = math.sqrt(d.dot(d))
    t_a, t_b = d / h, d / h
    t_a[-1], t_b[-1] = ma / (h * scales[-1]), mb / (h * scales[-1])
    return Y_a, Y_b, t_a, t_b, scales


slopes = st.floats(1e-3, 10.0)
chords = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))


class TestHermiteFold:
    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(-1.0, 1.0), b=st.floats(-1.0, 1.0), ma=slopes,
           mb=slopes, rising=st.booleans(), **chords)
    def test_returns_the_extremum_of_a_cubic(self, a, b, ma, mb, rising,
                                             seed, n):
        # u_a(v) = a + ma v + c2 v^2 + c3 v^3 with u_a'(0) = ma and
        # u_a'(1) = mb of opposite signs: one interior extremum.
        ma, mb = (ma, -mb) if rising else (-ma, mb)
        c2, c3 = 3.0 * (b - a) - 2.0 * ma - mb, 2.0 * (a - b) + ma + mb
        roots = np.roots([3.0 * c3, 2.0 * c2, ma])
        v = min(roots.real, key=lambda r: abs(r - min(max(r, 0.0), 1.0)))
        want = a + v * (ma + v * (c2 + v * c3))
        got = cycles._hermite_fold(*hermite_chord(seed, a, b, ma, mb, n))
        scale = abs(a) + abs(b) + abs(ma) + abs(mb)
        assert abs(got - want) <= 16 * np.finfo(float).eps * scale

    @settings(max_examples=300, deadline=None)
    @given(top=st.floats(-1.0, 1.0), k=slopes, is_max=st.booleans(),
           v0=st.floats(0.01, 0.99), **chords)
    def test_exact_on_a_quadratic(self, top, k, is_max, v0, seed, n):
        # u_a(v) = top - k (v - v0)^2 turns at v0, at u_a = top.
        k = k if is_max else -k
        a, b = top - k * v0 * v0, top - k * (1.0 - v0) ** 2
        ma, mb = 2.0 * k * v0, -2.0 * k * (1.0 - v0)
        got = cycles._hermite_fold(*hermite_chord(seed, a, b, ma, mb, n))
        assert abs(got - top) <= 4 * np.finfo(float).eps * (abs(top) + abs(k))
