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

from conftest import param_derivative


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

    def test_floquet_only_on_the_returned_orbit(self, mic, mic_h1,
                                               monkeypatch):
        p_off, seed = hopf_germ(mic.model, mic_h1, 1e-6)
        calls = []

        def counting(p, y0, period, *args, **kwargs):
            calls.append(period)
            return floquet(p, y0, period, *args, **kwargs)

        monkeypatch.setattr(cycles, "floquet", counting)
        # Stopped by the period test at 24 segments, by the segment cap
        # after one doubling (a zero period tolerance never passes), and
        # before any doubling.
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


def stacked_rhs_reference(p, m, h, sens, Y):
    """The stacked RHS on the array kernels: field, J via einsum, b."""
    width = 8 if sens else 6
    Z = Y.reshape(m, width)
    x, u = Z[:, 0], Z[:, 1]
    out = np.empty_like(Z)
    out[:, 0:2] = h * np.column_stack(model._field_xu(p, x, u))
    J = model._jac_xu(p, x, u)
    M = Z[:, 2:6].reshape(m, 2, 2)
    out[:, 2:6] = (h * np.einsum("mij,mjk->mik", J, M)).reshape(m, 4)
    if sens:
        out[:, 6:8] = h * (np.einsum("mij,mj->mi", J, Z[:, 6:8])
                           + param_derivative(p, x, u, "u_a"))
    return out.ravel()


class TestStackedRhs:
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
            assert np.array_equal(rhs(0.0, Y),
                                  stacked_rhs_reference(p, m, h, sens, Y))


def branched_stacked_rhs(p, m, h, sens):
    """``_stacked_rhs`` as it was before the clamps: ``model._arrhenius``
    with its branches, a guard on u * u and h applied per term."""
    width = 8 if sens else 6

    def rhs(s, Y):
        Z = Y.reshape(m, width)
        x, u = Z[:, 0], Z[:, 1]
        r = p.sigma * model._arrhenius(u)
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
    joined by ``scipy.linalg.block_diag``.  The sensitivity rows add the
    state Jacobian of the field derivative by u_a, a zero matrix."""
    from scipy.linalg import block_diag

    width = 8 if sens else 6

    def jac(s, Y):
        Z = Y.reshape(m, width)
        blocks = []
        for i in range(m):
            x, u = float(Z[i, 0]), float(Z[i, 1])
            J = model._jac_xu(p, x, u)
            B = model._hessian_xu(p, x, u)
            Mi = Z[i, 2:6].reshape(2, 2)
            blk = np.zeros((width, width))
            blk[0:2, 0:2] = h * J
            dJM = np.einsum("jla,lk->jka", B, Mi)
            blk[2:6, 0:2] = h * dJM.reshape(4, 2)
            blk[2:6, 2:6] = h * np.kron(J, np.eye(2))
            if sens:
                zeta = Z[i, 6:8]
                dJz = np.einsum("jla,l->ja", B, zeta)
                blk[6:8, 0:2] = h * (dJz + np.zeros((2, 2)))
                blk[6:8, 6:8] = h * J
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
        p = mic.model
        width = 8 if sens else 6
        Y = np.resize(np.array(segments)[:, :width], (m, width)).ravel()
        kernels = [(cycles._stacked_rhs(p, m, h, sens)[0],
                    branched_stacked_rhs(p, m, h, sens)),
                   (cycles._stacked_jac(p, m, h, sens),
                    per_segment_stacked_jac(p, m, h, sens))]
        # -1 / u overflows for subnormal u (exp gives the limit 0); any
        # other warning, 0 / 0 above all, is an error.
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            for got, want in kernels:
                assert got(0.0, Y).tobytes() == want(0.0, Y).tobytes()


def shoot_reference(p, starts, T, sens=False, var=True):
    """``_shoot`` on ``solve_ivp(method="LSODA")``, the driver it replaced.

    ``var=False`` integrates the segment states alone, as the plain shoot
    the cycle corrector's line search once judged its trials on.
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
    else:
        def rhs(s, Y):
            Z = Y.reshape(m, 2)
            return (h * np.column_stack(model._field_xu(p, Z[:, 0], Z[:, 1]))).ravel()

        def jac(s, Y):
            Z = Y.reshape(m, 2)
            return block_diag(*(h * model._jac_xu(p, Z[:, 0], Z[:, 1])))

        width, Y0 = 2, starts
    sol = solve_ivp(rhs, (0.0, 1.0), Y0.ravel(), method="LSODA",
                    rtol=cycles.SHOOT_RTOL, atol=cycles.SHOOT_ATOL, jac=jac)
    assert sol.success
    Z = sol.y[:, -1].reshape(m, width)
    if not var:
        return Z, None, None
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
