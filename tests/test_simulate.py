from __future__ import annotations

import math
import re
import signal
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from thermorun import cycles, model, simulate, steady
from thermorun.errors import ConvergenceError, IntegrationFailure, ValidationError
from thermorun.model import ModelParams
from thermorun.simulate import AttractorReport, Trajectory, TrajectoryEvent

from conftest import criterion5_params


def linear_params(u_a=0.0379):
    return ModelParams(f=1.7, ell=700.0, eps=10.0, u_a=u_a, sigma=0.0)


def mic_box_stream():
    """mic-tank610 without its boiling threshold, and 100 starts as
    fractions of the invariant box, drawn from the suite's fixed stream."""
    rng = np.random.default_rng(20260808)
    starts = [(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
              for _ in range(100)]
    return {"p": model.preset("mic-tank610").model.with_(u_boil=math.inf),
            "starts": starts}


class TestIntegrate:
    def test_linear_decay_to_equilibrium(self):
        # With the reaction off both variables relax at known linear rates.
        p = linear_params()
        tau_end = 50.0 / min(p.f, p.f + p.ell / p.eps)
        traj = simulate.integrate(p, (0.5, p.u_a + 0.01), tau_end,
                                  tol_rel=1e-10, tol_abs=1e-13)
        end = traj.final_state()
        assert abs(end.x - 1.0) < 1e-8
        assert abs(end.u - p.u_a) < 1e-8

    def test_runaway_from_full_charge(self, mic):
        p = mic.model
        traj = simulate.integrate(p, (1.0, p.u_a), 50.0)
        boil = [e for e in traj.events if e.kind == "boil"]
        assert boil, "expected the boiling threshold to be crossed"
        assert boil[0].time < 50.0
        assert boil[0].u == pytest.approx(p.u_boil, abs=1e-12)
        assert traj.times[-1] == pytest.approx(boil[0].time)

    @settings(max_examples=40, deadline=None)
    @given(p=criterion5_params,
           starts=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                           min_size=1, max_size=4))
    @example(**mic_box_stream())
    def test_invariant_box(self, p, starts):
        # The sides x = 0, x = 1 and u = u_a are forward-invariant: a
        # trajectory started with x in [0, 1] and u in [u_a, u_a + 2 f/loss]
        # keeps x in [0, 1] and u >= u_a.  The flow has no boiling threshold.
        for a, b in starts:
            s0 = (a, p.u_a + b * 2.0 * p.f / p.loss)
            traj = simulate.integrate(p, s0, 20.0, tol_rel=1e-9, tol_abs=1e-12)
            assert np.all(traj.xs >= -1e-9)
            assert np.all(traj.xs <= 1 + 1e-9)
            assert np.all(traj.us >= p.u_a - 1e-9)

    def test_validation(self, mic):
        with pytest.raises(ValidationError):
            simulate.integrate(mic.model, (1.0, 0.04), -1.0)
        with pytest.raises(ValidationError):
            simulate.integrate(mic.model, (1.0, 0.04), 1.0, tol_rel=-1e-8)

    def test_autonomy(self, mic):
        # Restarting from a mid-trajectory state reproduces the later state.
        ts = mic.temp_scale
        p = mic.model.with_(u_a=286.0 / ts, u_boil=math.inf)
        full = simulate.integrate(p, (0.6, p.u_a + 0.001), 10.0,
                                  tol_rel=1e-11, tol_abs=1e-13,
                                  n_samples=2001)
        i_mid = 1000
        t_mid = float(full.times[i_mid])
        s_mid = (float(full.xs[i_mid]), float(full.us[i_mid]))
        rest = simulate.integrate(p, s_mid, 10.0 - t_mid,
                                  tol_rel=1e-11, tol_abs=1e-13,
                                  n_samples=11)
        end_full = full.final_state()
        end_rest = rest.final_state()
        assert abs(end_full.x - end_rest.x) < 1e-7
        assert abs(end_full.u - end_rest.u) < 1e-7

    def test_tolerance_halving_convergence(self, mic):
        ts = mic.temp_scale
        p = mic.model.with_(u_a=286.0 / ts, u_boil=math.inf)
        s0 = (0.6, p.u_a + 0.001)
        tol = 1e-8
        a = simulate.integrate(p, s0, 5.0, tol_rel=tol,
                               tol_abs=tol * 1e-2).final_state()
        b = simulate.integrate(p, s0, 5.0, tol_rel=tol / 2,
                               tol_abs=tol * 1e-2 / 2).final_state()
        assert abs(a.x - b.x) < 10 * tol / 2
        assert abs(a.u - b.u) < 10 * tol / 2


def blow_up_past_three_quarters(monkeypatch):
    """Patch ``model._callbacks``, which every integrator callback is built
    on, so that the field it gives is infinite once x passes 0.75."""
    callbacks = model._callbacks

    def blowing_up(p_):
        rhs, jac, field_jac = callbacks(p_)

        def rhs_inf(t, y):
            return (math.inf, math.inf) if y[0] > 0.75 else rhs(t, y)

        def field_jac_inf(x, u):
            fj = field_jac(x, u)
            return (math.inf, math.inf, *fj[2:]) if x > 0.75 else fj

        return rhs_inf, jac, field_jac_inf

    monkeypatch.setattr(model, "_callbacks", blowing_up)


class TestEventFreeIntegrate:
    """``integrate`` without a boiling threshold runs on ``simulate.lsoda``
    (odeint)."""

    S0 = (0.5, 0.0379 + 0.01)

    @pytest.mark.parametrize("rtol, atol", [(1e-8, 1e-10), (1e-10, 1e-12)])
    def test_agrees_with_solve_ivp(self, rtol, atol):
        from scipy.integrate import solve_ivp

        p = linear_params()
        assert math.isinf(p.u_boil)     # so integrate has no event
        traj = simulate.integrate(p, self.S0, 10.0, tol_rel=rtol,
                                  tol_abs=atol, n_samples=200)
        t_eval = np.linspace(0.0, 10.0, 200)
        assert np.array_equal(traj.times, t_eval)
        assert traj.events == ()
        rhs, jac, _ = model._callbacks(p)
        ref = solve_ivp(rhs, (0.0, 10.0), np.array(self.S0), method="LSODA",
                        rtol=rtol, atol=atol, jac=jac, t_eval=t_eval)
        # Both runs keep every step's local error within the weighted
        # tolerance rtol |y| + atol (sqrt(2) of it per component, the norm
        # being an RMS over two).  On this linear flow an error decays at
        # rate min(f, loss / eps) = 1.7, so the global errors stay a few
        # local tolerances; a driver on other tolerances (odeint's default
        # rtol is 1.5e-8) misses the bound by a wide margin.
        bound = 10.0 * (rtol * np.abs(ref.y.T) + atol)
        assert np.all(np.abs(traj.states - ref.y.T) <= bound)

    def test_nonfinite_field_is_an_integration_failure(self, monkeypatch):
        # The field turns infinite once x passes 0.75 (x rises from 0.5 at
        # rate 1.7, so at tau = ln 2 / 1.7 = 0.41).
        p = linear_params()
        blow_up_past_three_quarters(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationFailure, match="LSODA failed") as err:
                simulate.integrate(p, self.S0, 10.0, n_samples=1001)
        part = err.value.partial
        t_eval = np.linspace(0.0, 10.0, 1001)
        assert 10 < len(part.times) <= 42
        assert np.array_equal(part.times, t_eval[:len(part.times)])
        assert np.all(np.isfinite(part.states)) and np.all(part.xs <= 0.75)
        last = err.value.last_state
        assert (last.x, last.u) == tuple(part.states[-1])


def scipy_solve_ivp(*args, **kwargs):
    """scipy's ``solve_ivp(method="LSODA")``, called as ``simulate.solve_ivp``."""
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, method="LSODA", **kwargs)


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_same_run(fun, t_span, y0, **kwargs):
    """Run ``simulate.solve_ivp`` and scipy's ``solve_ivp(method="LSODA")``
    on one problem, assert that every field of the results has the same
    bits, and return scipy's (None where both raise the same error)."""
    try:
        want = scipy_solve_ivp(fun, t_span, y0, **kwargs)
    except ValueError as exc:
        # brentq's "f(a) and f(b) must have different signs", where an
        # event that is zero at t0 is not zero on the first step's
        # interpolant there.
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            simulate.solve_ivp(fun, t_span, y0, **kwargs)
        return None
    got = simulate.solve_ivp(fun, t_span, y0, **kwargs)
    for key in ("status", "success", "message", "nfev", "njev", "nlu"):
        assert got[key] == want[key], key
    assert_bits(got.t, want.t)
    assert_bits(got.y, want.y)
    if want.t_events is None:
        assert got.t_events is None and got.y_events is None
    else:
        assert len(got.t_events) == len(want.t_events)
        for a, b in zip(got.t_events + got.y_events,
                        want.t_events + want.y_events):
            assert_bits(a, b)
    assert got.sol is None and want.sol is None
    return want


def du_event(p, direction=0, terminal=False):
    def du(t, y):
        return model._field_scalar(p, *y.tolist())[1]
    du.direction, du.terminal = direction, terminal
    return du


class TestSolveIvpOracle:
    """``simulate.solve_ivp`` against scipy's ``solve_ivp(method="LSODA")``:
    the same bits in every field, on the call shapes of ``settle`` and of
    ``integrate`` with a boiling threshold, and on a terminal event over a
    grown integral and on output times with a two-way event."""

    run = st.fixed_dictionaries({
        "T_a": st.floats(284.0, 294.0),
        "x0": st.floats(0.0, 1.0),
        "du0": st.floats(0.0, 0.008),
        "tau": st.floats(0.2, 3.0),
        "rtol": st.sampled_from([1e-6, 1e-8, 1e-10]),
    })

    @staticmethod
    def problem(mic, run):
        p = mic.model.with_(u_a=run["T_a"] / mic.temp_scale)
        y0 = np.array([run["x0"], p.u_a + run["du0"]])
        tol = {"rtol": run["rtol"], "atol": run["rtol"] * 1e-2}
        return p, y0, tol

    @given(run=run, budget=st.floats(0.1, 200.0))
    @settings(max_examples=20, deadline=None)
    def test_terminal_upward_event(self, mic, run, budget):
        # The state grows an integral, and a terminal upward event ends
        # the run when it reaches the budget.
        p, y0, tol = self.problem(mic, run)

        def rhs(t, Y):
            x, u, _ = Y.tolist()
            (a, _), (_, d) = model._jac_scalar(p, x, u)
            return [*model._field_scalar(p, x, u), abs(a + d)]

        def spent(t, Y):
            return Y[2] - budget

        spent.direction, spent.terminal = 1, True
        assert_same_run(rhs, (0.0, run["tau"]), np.append(y0, 0.0),
                        events=[spent], **tol)

    @given(run=run, n=st.integers(2, 300))
    @settings(max_examples=20, deadline=None)
    def test_output_times_with_a_two_way_event(self, mic, run, n):
        # t_eval short of the end and a two-way event on du/dt.
        p, y0, tol = self.problem(mic, run)
        rhs, jac, _ = model._callbacks(p)
        t_eval = np.linspace(0.0, run["tau"], n, endpoint=False)
        assert_same_run(rhs, (0.0, run["tau"]), y0, jac=jac, t_eval=t_eval,
                        events=[du_event(p)], **tol)

    @given(run=run, n=st.integers(2, 300), boil=st.floats(0.0, 0.05))
    @settings(max_examples=20, deadline=None)
    def test_output_times_with_a_terminal_event(self, mic, run, n, boil):
        # integrate with the boiling event.
        p, y0, tol = self.problem(mic, run)
        rhs, jac, _ = model._callbacks(p)
        assert_same_run(rhs, (0.0, run["tau"]), y0, jac=jac,
                        t_eval=np.linspace(0.0, run["tau"], n),
                        events=[simulate.boil_event(y0[1] + boil)], **tol)

    @given(run=run, boil=st.floats(0.0, 0.05))
    @settings(max_examples=20, deadline=None)
    def test_per_step_output_with_extremum_and_terminal_events(self, mic, run,
                                                                boil):
        # settle: per-step output, the boiling event and one two-way event
        # on du/dt.
        p, y0, tol = self.problem(mic, run)
        rhs, jac, _ = model._callbacks(p)
        events = [simulate.boil_event(y0[1] + boil), du_event(p)]
        assert_same_run(rhs, (0.0, run["tau"]), y0, jac=jac, events=events,
                        **tol)

    @pytest.mark.parametrize("terminal", [False, True])
    @pytest.mark.parametrize("direction", [-1, 0, 1])
    def test_event_zero_at_the_start(self, mic, direction, terminal):
        p = mic.model.with_(u_a=0.039)
        rhs, jac, _ = model._callbacks(p)
        y0 = np.array([0.5, 0.04])

        def level(t, y):
            return y[1] - 0.04

        level.direction, level.terminal = direction, terminal
        want = assert_same_run(rhs, (0.0, 1.0), y0, jac=jac, events=[level])
        if direction == 0:
            assert want.t_events[0][0] == 0.0

    @pytest.mark.parametrize("terminal", [False, True])
    def test_two_events_in_one_step(self, terminal):
        # Listed against time order, so a terminal pair must be sorted.
        def late(t, y):
            return t - (0.5 + 1e-9)

        def early(t, y):
            return t - 0.5

        for ev in (late, early):
            ev.direction, ev.terminal = 1, terminal
        want = assert_same_run(lambda t, y: -y, (0.0, 1.0), np.array([1.0]),
                               events=[late, early])
        assert want.t_events[1].size == 1
        assert want.t_events[0].size == (0 if terminal else 1)
        assert want.status == (1 if terminal else 0)

    def test_terminal_event_on_the_final_step(self):
        def end(t, y):
            return t - 2.0

        end.direction, end.terminal = 1, True
        want = assert_same_run(lambda t, y: -y, (0.0, 2.0), np.array([1.0]),
                               events=[end])
        assert want.status == 1 and want.t[-1] == 2.0

    @pytest.mark.parametrize("t_eval", [None, np.linspace(0.0, 1.0, 101)])
    def test_failed_run_keeps_its_partial_output(self, t_eval):
        # A pure relative tolerance on a decaying component: LSODA stops
        # with "excess accuracy requested" once the component underflows.
        def field(t, y):
            return [-1000.0 * y[0], 1.0]

        def halfway(t, y):
            return y[1] - 0.5

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            want = assert_same_run(field, (0.0, 1e4), np.array([1.0, 0.0]),
                                   atol=[0.0, 1e-8], t_eval=t_eval,
                                   events=[halfway])
        assert want.status == -1 and not want.success
        assert len(want.t) > 50 and want.t_events[0].size == 1

    @pytest.mark.parametrize("kwargs", [
        {"t_eval": [0.5, 0.0]}, {"t_span": (1.0, 0.0)},
        {"t_eval": [0.0, 1.5]}, {"t_span": (0.0, 0.0)}])
    def test_rejects_what_it_does_not_support(self, kwargs):
        call = {"fun": lambda t, y: -y, "t_span": (0.0, 1.0),
                "y0": np.array([1.0]), **kwargs}
        with pytest.raises(ValueError):
            simulate.solve_ivp(**call)

    @pytest.mark.parametrize("option", [{"method": "Radau"}, {"rotl": 1e-10},
                                        {"dense_output": True}])
    def test_rejects_options_it_does_not_take(self, option):
        # Always LSODA without dense output, and only its rtol, atol and
        # jac: a misspelt or foreign option is an error, not a warning.
        with pytest.raises(TypeError):
            simulate.solve_ivp(lambda t, y: -y, (0.0, 1.0), np.array([1.0]),
                               **option)

    def test_settle_reports_what_scipy_gives(self, mic, monkeypatch):
        p = mic.model.with_(u_a=290.15 / mic.temp_scale * 1.0002,
                            u_boil=math.inf)

        def report():
            return simulate.settle(p, (1.0, p.u_a), horizon=101.0,
                                   tol_rel=1e-8, tol_abs=1e-10)

        lean = report()
        monkeypatch.setattr(simulate, "solve_ivp", scipy_solve_ivp)
        assert lean.kind == "cycle"
        assert report() == lean


def two_event_settle(p, s0, horizon, tol_rel=3e-12, tol_abs=1e-14,
                     dense_rule=False, section_level=None, run=None):
    """``settle`` with u's maxima and minima found by two events on the same
    deadbanded du/dt, ``u_max`` (direction -1) and ``u_min`` (+1), each
    event a named ``g(t, x, u)`` and the records of all of them sorted by
    time, the excursions kept by walking the records, and the run scipy's
    ``solve_ivp(method="LSODA")`` with dense output.  The reference for
    ``settle``'s single two-way event.

    With ``dense_rule`` it decides from the dense output instead, the rule
    ``settle`` followed while it kept one: the tail is 2001 evenly spaced
    samples, and each excursion is stamped where u rises through the level
    (``section_level`` if given), by ``brentq`` between its minimum and
    maximum.  Returns the records, the run and the report.  ``run``, the
    records and the run of an earlier call with the same inputs, is decided
    again instead of integrated again."""
    from scipy.optimize import brentq

    floor = 1000.0 * tol_abs * max(1.0, p.loss / p.eps)

    def du(t, x, u):
        v = model._field_scalar(p, x, u)[1]
        return v if abs(v) > floor else -floor

    if run is None:
        specs = [("u_max", du, -1, False), ("u_min", du, 1, False)]
        if math.isfinite(p.u_boil):
            specs.insert(0, ("boil", lambda t, x, u: u - p.u_boil, 1, True))
        events = []
        for _, fn, direction, terminal in specs:
            def g(t, y, fn=fn):
                return fn(t, *y.tolist())
            g.direction, g.terminal = direction, terminal
            events.append(g)
        rhs, jac, _ = model._callbacks(p)
        sol = scipy_solve_ivp(rhs, (0.0, horizon), np.array(s0, dtype=float),
                              rtol=tol_rel, atol=tol_abs, jac=jac, events=events,
                              dense_output=True)
        recs = sorted((TrajectoryEvent(float(t), name, float(y[0]), float(y[1]))
                       for (name, *_), ts, ys in zip(specs, sol.t_events, sol.y_events)
                       for t, y in zip(ts, ys)), key=lambda e: e.time)
    else:
        recs, sol = run
    terminal = simulate._clamped_state(sol.y[0, -1], sol.y[1, -1])
    if any(e.kind == "boil" for e in recs):
        return recs, sol, AttractorReport("runaway", terminal)

    t_end = float(sol.t[-1])
    t_tail = t_end - 0.1 * horizon
    if dense_rule:
        ys = sol.sol(np.linspace(t_tail, t_end, 2001))
    else:
        # The state at t_tail on the chord between the steps around it.
        i = int(np.searchsorted(sol.t, t_tail))
        w = (t_tail - sol.t[i - 1]) / (sol.t[i] - sol.t[i - 1])
        first = sol.y[:, i - 1] + w * (sol.y[:, i] - sol.y[:, i - 1])
        ys = np.column_stack([first, sol.y[:, sol.t > t_tail]])
    if float(np.max(np.abs(ys - ys[:, -1:]))) < simulate.STEADY_VARIATION:
        return recs, sol, AttractorReport("steady", terminal, amplitude=0.0)
    level = float(np.mean(ys[1])) if section_level is None else float(section_level)

    def g(t):
        return sol.sol(t)[1] - level

    stamps = []
    t_min_ev = None
    for ev in recs:
        if ev.time < t_tail:
            if ev.kind == "u_min":
                t_min_ev = ev
            elif ev.kind == "u_max":
                t_min_ev = None
            continue
        if ev.kind == "u_min":
            t_min_ev = ev
        elif ev.kind == "u_max" and t_min_ev is not None:
            if t_min_ev.u < level <= ev.u and ev.time > t_min_ev.time:
                stamps.append(brentq(g, t_min_ev.time, ev.time, xtol=1e-13,
                                     rtol=1e-15) if dense_rule else ev.time)
            t_min_ev = None
    if len(stamps) >= 3:
        recent = np.diff(stamps)[-5:]
        period = float(np.mean(recent))
        if period > 0 and float(np.max(np.abs(recent - period))) < \
                simulate.PERIOD_REPEATABILITY * period:
            peaks = [e.u for e in recs if e.kind == "u_max" and e.time >= stamps[-2]]
            dips = [e.u for e in recs if e.kind == "u_min" and e.time >= stamps[-2]]
            return recs, sol, AttractorReport("cycle", terminal, period=period,
                                              amplitude=max(peaks) - min(dips))
    return recs, sol, AttractorReport("undetermined", terminal)


def splice_integrate(p, s0, tau_end, tol_rel, tol_abs, n_samples):
    """``integrate`` with the boiling event, its crossings spliced into the
    samples by a loop for any number of events: ``np.insert`` at each
    crossing not within 1e-14 of a sample, then a mask that drops repeated
    times.  The reference for ``integrate``'s single appended row."""
    rhs, jac, _ = model._callbacks(p)
    t_eval = np.linspace(0.0, tau_end, max(2, n_samples))
    sol = simulate.solve_ivp(rhs, (0.0, tau_end), np.array(s0, dtype=float),
                             rtol=tol_rel, atol=tol_abs,
                             jac=jac, events=[simulate.boil_event(p.u_boil)],
                             t_eval=t_eval)
    recs = [TrajectoryEvent(float(t), "boil", float(y[0]), float(y[1]))
            for t, y in zip(sol.t_events[0], sol.y_events[0])]
    times = sol.t.copy()
    states = sol.y.T.copy()
    for ev in recs:
        if times.size and np.min(np.abs(times - ev.time)) < 1e-14 * max(1.0, ev.time):
            continue
        i = int(np.searchsorted(times, ev.time))
        times = np.insert(times, i, ev.time)
        states = np.insert(states, i, [ev.x, ev.u], axis=0)
    keep = np.concatenate([[True], np.diff(times) > 0])
    return Trajectory(times[keep], states[keep], tuple(recs))


def settle_keeping_runs(p, s0, horizon, **tol):
    """``settle``'s report and the (events, result) of each
    ``simulate.solve_ivp`` run it made."""
    runs = []
    solve = simulate.solve_ivp

    def keeping(fun, t_span, y0, **kwargs):
        sol = solve(fun, t_span, y0, **kwargs)
        runs.append((kwargs["events"], sol))
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "solve_ivp", keeping)
        report = simulate.settle(p, s0, horizon, **tol)
    return report, runs


@pytest.fixture(scope="session")
def cycle_130(mic):
    """The ``cycle-130`` case of :class:`TestOneExtremumEvent`, integrated
    once per session for it and for
    ``TestSettle.test_cycle_detection_and_section_independence``: the
    inputs, ``settle``'s report and runs, and the records and dense run of
    ``two_event_settle``, which either rule decides again."""
    p, s0, horizon, tol, _ = TestOneExtremumEvent.case(mic, "cycle-130")
    report, runs = settle_keeping_runs(p, s0, horizon, **tol)
    recs, sol, _ = two_event_settle(p, s0, horizon, **tol)
    return {"inputs": (p, s0, horizon), "report": report, "runs": runs,
            "reference": (recs, sol)}


class TestOneExtremumEvent:
    """``settle``'s one two-way du/dt event and ``integrate``'s appended
    boiling row give what the two-event and splice-loop forms give, bit for
    bit."""

    @staticmethod
    def case(mic, name):
        """The parameters, start, horizon and tolerances of a case, and the
        event kinds its run records."""
        ts = mic.temp_scale
        hot = mic.model.with_(u_a=292.0 / ts)
        cycle = mic.model.with_(u_a=290.15 / ts * 1.0002, u_boil=math.inf)
        extrema = {"u_max", "u_min"}
        return {
            "steady": (mic.model.with_(u_a=286.0 / ts), (0.0, 286.0 / ts),
                       400.0, {}, extrema),
            "runaway": (hot, (1.0, hot.u_a), 150.0, {}, {"boil"}),
            # From an empty tank u passes a minimum before it boils.
            "runaway-fill": (hot, (0.0, hot.u_a), 150.0, {},
                             {"u_min", "boil"}),
            "cycle-101": (cycle, (1.0, cycle.u_a), 101.0,
                          {"tol_rel": 1e-8, "tol_abs": 1e-10}, extrema),
            "cycle-130": (cycle, (1.0, cycle.u_a), 130.0, {}, extrema),
        }[name]

    @pytest.mark.parametrize("name", ["steady", "runaway", "runaway-fill",
                                      "cycle-101", "cycle-130"])
    def test_settle_matches_two_events(self, mic, request, name):
        p, s0, horizon, tol, kinds = self.case(mic, name)
        if name == "cycle-130":
            shared = request.getfixturevalue("cycle_130")
            got, runs, run = shared["report"], shared["runs"], shared["reference"]
        else:
            got, runs = settle_keeping_runs(p, s0, horizon, **tol)
            run = None
        want_recs, want_sol, want = two_event_settle(p, s0, horizon, run=run, **tol)
        assert want.kind == name.split("-")[0]
        [(events, sol)] = runs
        *boil, du = events
        assert len(boil) == math.isfinite(p.u_boil) and du.direction == 0
        recs = [TrajectoryEvent(t, "boil", x, u) for t, (x, u) in
                zip(sol.t_events[0].tolist(), sol.y_events[0].tolist())] if boil else []
        recs = sorted(recs + simulate._extrema(sol, du), key=lambda e: e.time)
        assert recs == want_recs
        assert {e.kind for e in recs} == kinds
        assert_bits(sol.t, want_sol.t)
        assert_bits(sol.y, want_sol.y)
        assert got == want

    @given(run=TestSolveIvpOracle.run, n=st.integers(2, 300),
           boil=st.floats(1e-6, 0.005))
    @settings(max_examples=30, deadline=None)
    def test_integrate_matches_the_splice_loop(self, mic, run, n, boil):
        p = mic.model.with_(u_a=run["T_a"] / mic.temp_scale)
        s0 = (run["x0"], p.u_a + run["du0"])
        p = p.with_(u_boil=s0[1] + boil)
        args = (s0, run["tau"], run["rtol"], run["rtol"] * 1e-2, n)
        want = splice_integrate(p, *args)
        got = simulate.integrate(p, *args)
        assert got.events == want.events
        assert_bits(got.times, want.times)
        assert_bits(got.states, want.states)


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once it has run ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


class TestInfiniteField:
    """On a field that turns infinite LSODA either takes zero-length steps
    forever or runs on in NaN under a successful status; every integration
    with events must fail instead, and quickly.  So must ``floquet`` and the
    orbit mesh, whose event-free ``lsoda`` runs fail in the cycle code's
    ``ConvergenceError``."""

    S0 = (0.5, 0.0379 + 0.01)

    @pytest.fixture(autouse=True)
    def blowing_up(self, monkeypatch):
        # The reaction-off field turns infinite once x passes 0.75.
        blow_up_past_three_quarters(monkeypatch)

    @pytest.mark.parametrize("name, message", [
        ("integrate", "zero-length step"),
        ("integrate-1e-12", "state not finite"),
        ("settle", "zero-length step"),
        ("floquet", "LSODA failed"),
        ("orbit mesh", "LSODA failed")])
    def test_fails_within_seconds(self, name, message):
        p = linear_params().with_(u_boil=0.06)
        y0 = np.array(self.S0)
        run = {
            "integrate": lambda: simulate.integrate(p, self.S0, 10.0),
            "integrate-1e-12": lambda: simulate.integrate(
                p, self.S0, 10.0, tol_rel=1e-12, tol_abs=1e-14),
            "settle": lambda: simulate.settle(p, self.S0, 150.0),
            "floquet": lambda: cycles.floquet(p, y0, 10.0),
            "orbit mesh": lambda: cycles._finalize_orbit(p, y0, 10.0),
        }[name]
        with time_limit(20), pytest.raises((IntegrationFailure, ConvergenceError),
                                           match=message) as err:
            run()
        if name in ("floquet", "orbit mesh"):
            assert isinstance(err.value, ConvergenceError)
        if isinstance(err.value, IntegrationFailure):
            # What was integrated before the failure, all of it finite.
            part = err.value.partial
            assert len(part.times) > 10 and np.all(np.isfinite(part.states))
            assert part.xs[-1] <= 0.75
            last = err.value.last_state
            assert (last.x, last.u) == tuple(part.states[-1])


class TestStartAtThreshold:
    """A start at the boiling threshold is a runaway at tau = 0."""

    starts = pytest.mark.parametrize("T_a", [284.0, 286.0, 290.0, 292.0])
    x0s = pytest.mark.parametrize("x0", [0.2, 0.5, 0.9])

    @starts
    @x0s
    def test_integrate(self, mic, T_a, x0):
        p = mic.model.with_(u_a=T_a / mic.temp_scale)
        traj = simulate.integrate(p, (x0, p.u_boil), 2.0)
        assert traj.times.tolist() == [0.0]
        assert traj.states.tolist() == [[x0, p.u_boil]]
        assert traj.events == (TrajectoryEvent(0.0, "boil", x0, p.u_boil),)
        assert simulate.detect_runaway(traj, p.u_boil) == traj.events[0]

    @starts
    @x0s
    def test_settle(self, mic, monkeypatch, T_a, x0):
        p = mic.model.with_(u_a=T_a / mic.temp_scale)
        monkeypatch.setattr(simulate, "solve_ivp", None)   # not integrated
        rep = simulate.settle(p, (x0, p.u_boil), 101.0)
        assert rep == AttractorReport("runaway", model.State(x0, p.u_boil))


class TestDetectRunaway:
    def test_constant_below_threshold(self):
        times = np.linspace(0, 1, 11)
        states = np.column_stack([np.full(11, 0.5), np.full(11, 0.03)])
        traj = Trajectory(times, states)
        assert simulate.detect_runaway(traj, 0.04) is None

    def test_monotone_ramp_crossing(self):
        times = np.linspace(0.0, 1.0, 101)
        us = 0.03 + 0.02 * times  # crosses 0.04 at tau = 0.5 exactly
        states = np.column_stack([np.full_like(times, 0.5), us])
        traj = Trajectory(times, states)
        ev = simulate.detect_runaway(traj, 0.04)
        assert ev is not None
        assert abs(ev.time - 0.5) < 1e-10

    def test_matches_halting_event(self, mic):
        p = mic.model
        traj = simulate.integrate(p, (1.0, p.u_a), 50.0)
        ev = simulate.detect_runaway(traj, p.u_boil)
        assert ev is not None
        assert ev.time == traj.events[0].time


class TestSettle:
    def test_steady_matches_newton(self, mic):
        ts = mic.temp_scale
        p = mic.model.with_(u_a=286.0 / ts)
        pt = steady.solve_steady(p, (0.5, p.u_a + 0.001))
        rep = simulate.settle(p, (pt.state.x - 0.05, pt.state.u + 0.0005),
                              horizon=300.0)
        assert rep.kind == "steady"
        assert abs(rep.terminal_state.x - pt.state.x) < 1e-8
        assert abs(rep.terminal_state.u - pt.state.u) < 1e-8
        assert rep.amplitude == 0.0 and rep.period is None

    def test_reaction_off_settles_at_ambient(self):
        p = linear_params()
        rep = simulate.settle(p, (0.5, p.u_a + 0.002), horizon=150.0)
        assert rep.kind == "steady"
        assert abs(rep.terminal_state.x - 1.0) < 1e-9
        assert abs(rep.terminal_state.u - p.u_a) < 1e-9

    def test_runaway_classification(self, mic):
        rep = simulate.settle(mic.model, (1.0, mic.model.u_a), horizon=100.0)
        assert rep.kind == "runaway"
        assert rep.period is None

    def test_cycle_detection_and_section_independence(self, mic, cycle_130):
        ts = mic.temp_scale
        p = mic.model.with_(u_a=290.15 / ts * 1.0002, u_boil=math.inf)
        # settle and the dense reference run once, shared with
        # TestOneExtremumEvent's cycle-130 case.
        assert cycle_130["inputs"] == (p, (1.0, p.u_a), 130.0)
        rep = cycle_130["report"]
        assert rep.kind == "cycle"
        assert rep.period is not None and rep.period > 0
        assert rep.amplitude is not None and rep.amplitude > 0.01
        run = cycle_130["reference"]  # serves both section levels
        for frac in (0.2, 0.8):
            *_, alt = two_event_settle(p, (1.0, p.u_a), horizon=130.0,
                                       dense_rule=True, run=run,
                                       section_level=p.u_a + frac * rep.amplitude)
            assert alt.kind == "cycle"
            assert abs(alt.period - rep.period) / rep.period < 1e-6

    def test_dense_output_only_on_steps_with_event_roots(self, mic,
                                                         monkeypatch):
        # settle decides from its steps and its extremum events, so a step
        # builds its dense output only to locate an event root.
        from scipy.integrate import LSODA

        p, s0, horizon, tol, _ = TestOneExtremumEvent.case(mic, "cycle-101")
        built, runs = [], []
        dense_output, solve = LSODA.dense_output, simulate.solve_ivp

        def counting(self):
            built.append(self.t)
            return dense_output(self)

        def keeping(*args, **kwargs):
            runs.append(solve(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(LSODA, "dense_output", counting)
        monkeypatch.setattr(simulate, "solve_ivp", keeping)
        assert simulate.settle(p, s0, horizon, **tol).kind == "cycle"
        [sol] = runs
        roots = sum(te.size for te in sol.t_events)
        assert 0 < len(built) <= roots < sol.t.size

    @given(frac=st.one_of(st.floats(0.10, 0.30), st.floats(2.5, 3.5)))
    @example(frac=0.2)
    @example(frac=3.0)
    @settings(max_examples=6, deadline=None)
    def test_kind_and_period_match_the_dense_rule(self, mic, frac):
        # Starts inside the unstable cycle at 290.07 K (amplitude 1.26e-3)
        # and outside it, where the stable relaxation cycle is reached.
        p = mic.model.with_(u_a=290.07 / mic.temp_scale, u_boil=math.inf)
        pt = steady.solve_steady(p, (0.5, p.u_a + 0.001))
        s0 = (pt.state.x, pt.state.u + frac * 1.26e-3)
        tol = {"tol_rel": 1e-8, "tol_abs": 1e-10}
        got = simulate.settle(p, s0, 101.0, **tol)
        _, _, want = two_event_settle(p, s0, 101.0, dense_rule=True, **tol)
        assert got.kind == want.kind
        if want.kind == "cycle":
            assert (abs(got.period - want.period)
                    < simulate.PERIOD_REPEATABILITY * want.period)

    def test_horizon_precondition(self, mic):
        with pytest.raises(ValidationError):
            simulate.settle(mic.model, (1.0, mic.model.u_a), horizon=1.0)

    @pytest.mark.parametrize("tol", [{"tol_rel": 0.0}, {"tol_abs": -1e-14}])
    def test_tolerance_precondition(self, mic, tol):
        # The extremum event's deadband, 1000 tol_abs, must be positive.
        with pytest.raises(ValidationError):
            simulate.settle(mic.model, (1.0, mic.model.u_a), 101.0, **tol)
