"""Adaptive implicit time integration with event detection and settling.

Wraps an implicit stiff integrator around the reactor vector field, locates
threshold crossings (notably the boiling/runaway threshold) in time, and
classifies the long-time attractor of a trajectory by brute force.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from . import model
from .errors import IntegrationFailure, ValidationError
from .model import ModelParams, State

STEADY_VARIATION = 1e-9
PERIOD_REPEATABILITY = 1e-6
MAX_STEPS = 2**31 - 1
"""``odeint``'s cap on steps per output interval, set out of reach as
``solve_ivp`` has none: a long shoot must not fail on a step count."""


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first integration.

    Commands that never integrate then never import ``scipy.integrate``.
    ``cycles`` integrates through this same function.
    """
    from scipy.integrate import solve_ivp as _solve_ivp
    return _solve_ivp(*args, **kwargs)


def lsoda(rhs, jac, y0, ts, rtol, atol) -> np.ndarray:
    """The states at ``ts``, one row each, from ``scipy.integrate.odeint``.

    The same ODEPACK LSODA as ``solve_ivp(method="LSODA")``, stepped in
    Fortran rather than in ``solve_ivp``'s Python loop, for integrations
    that need neither events nor dense output.  ``tcrit`` keeps it from
    stepping past ``ts[-1]``, as ``solve_ivp``'s ``t_bound`` does, so over
    ``ts = [0, T]`` the end state is ``solve_ivp``'s bit for bit.  Imported
    on the first call, like :func:`solve_ivp`.

    A failed integration raises :class:`IntegrationFailure` with odeint's
    message, or with the first output time not reached or not finite.  Its
    ``partial`` holds the rows of ``ts`` before that (None if fewer than
    two), and ``last_state`` the last of them.
    """
    from scipy.integrate import ODEintWarning, odeint

    ts = np.asarray(ts, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ODEintWarning)
        ys, info = odeint(rhs, y0, ts, Dfun=jac, rtol=rtol, atol=atol,
                          tcrit=ts[-1:], mxstep=MAX_STEPS, full_output=True,
                          tfirst=True)
    ok = info["message"] == "Integration successful."
    # Row i >= 1 comes from the steps that reached tcur[i - 1]: at or past
    # ts[i], or at tcrit within LSODA's 100 eps (|t| + |h|), where the
    # proposed step h grows at most tenfold over the last one, hu.  A failed
    # interval ends short and the rows after it are unset.  An infinite
    # field can also end an interval short, or turn the state NaN, under a
    # successful status.
    slack = 0.0
    if ok:
        slack = 1e3 * np.finfo(float).eps * (abs(ts[-1]) + abs(info["hu"][-1]))
    bad = np.concatenate([[False], info["tcur"] < ts[1:] - slack])
    bad |= ~np.isfinite(ys).all(axis=1)
    if not bad.any():
        return ys
    k = int(np.argmax(bad))
    message = f"no finite state reached at t = {ts[k]:.6g}" if ok else info["message"]
    raise IntegrationFailure(
        f"LSODA failed: {message}",
        last_state=ys[k - 1].copy() if k else None,
        partial=Trajectory(ts[:k].copy(), ys[:k].copy()) if k > 1 else None)


@dataclass(frozen=True)
class EventSpec:
    """A scalar crossing detector g(tau, x, u) = 0.

    ``direction`` +1 triggers on upward crossings, -1 on downward, 0 on any.
    Terminal events halt the integration.
    """

    name: str
    fn: Callable[[float, float, float], float]
    direction: int = 0
    terminal: bool = False


def boil_event(u_boil: float) -> EventSpec:
    """Terminal upward crossing of the runaway threshold temperature."""
    return EventSpec("boil", lambda t, x, u: u - u_boil, direction=1, terminal=True)


@dataclass(frozen=True)
class TrajectoryEvent:
    time: float
    kind: str
    x: float
    u: float


@dataclass(frozen=True)
class Trajectory:
    """Samples of one integration run, with any event crossings recorded."""

    times: np.ndarray
    states: np.ndarray  # shape (n, 2): columns x, u
    events: tuple[TrajectoryEvent, ...] = ()

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValidationError("states", "times and states must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValidationError("times", "times must be strictly increasing")

    @property
    def xs(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def us(self) -> np.ndarray:
        return self.states[:, 1]

    def final_state(self) -> State:
        return _clamped_state(self.states[-1, 0], self.states[-1, 1])


@dataclass(frozen=True)
class AttractorReport:
    """Long-time classification of a trajectory's omega-limit set."""

    kind: Literal["steady", "cycle", "runaway", "undetermined"]
    terminal_state: State
    period: float | None = None
    amplitude: float | None = None


def _clamped_state(x: float, u: float, slack: float = 1e-9) -> State:
    """Build a State, absorbing sub-slack numerical excursions of x."""
    if -slack <= x < 0.0:
        x = 0.0
    elif 1.0 < x <= 1.0 + slack:
        x = 1.0
    return State(float(x), float(u))


def _scipy_events(events: Sequence[EventSpec]):
    wrapped = []
    for ev in events:
        def g(t, y, _fn=ev.fn):
            return _fn(t, *y.tolist())
        g.direction = ev.direction
        g.terminal = ev.terminal
        wrapped.append(g)
    return wrapped


def _callbacks(p: ModelParams):
    """The vector field and its Jacobian as LSODA callbacks ``f(t, y)``."""
    def rhs(t, y):
        return model._field_scalar(p, *y.tolist())

    def jac(t, y):
        return model._jac_scalar(p, *y.tolist())

    return rhs, jac


def _solve(p: ModelParams, s0, tau_end: float, tol_rel: float, tol_abs: float,
           events: Sequence[EventSpec], dense: bool = False,
           t_eval: np.ndarray | None = None):
    x0, u0 = model._as_state(s0)
    rhs, jac = _callbacks(p)
    # An array, not a list: solve_ivp hands y0 itself to the events at t0.
    sol = solve_ivp(rhs, (0.0, tau_end), np.array([x0, u0]), method="LSODA",
                    rtol=tol_rel, atol=tol_abs, jac=jac,
                    events=_scipy_events(events), dense_output=dense,
                    t_eval=t_eval)
    if sol.status == -1:
        last = _clamped_state(sol.y[0, -1], sol.y[1, -1]) if sol.y.size else None
        partial = Trajectory(sol.t.copy(), sol.y.T.copy()) if sol.t.size > 1 else None
        raise IntegrationFailure(
            f"stiffness failure: {sol.message}", last_state=last, partial=partial)
    return sol


def _collect_events(sol, events: Sequence[EventSpec]) -> list[TrajectoryEvent]:
    out = []
    for spec, ts, ys in zip(events, sol.t_events, sol.y_events):
        for t, y in zip(ts, ys):
            out.append(TrajectoryEvent(float(t), spec.name, float(y[0]), float(y[1])))
    out.sort(key=lambda e: e.time)
    return out


def integrate(p: ModelParams, s0, tau_end: float, tol_rel: float = 1e-8,
              tol_abs: float = 1e-10, events: Sequence[EventSpec] | None = None,
              n_samples: int = 1000) -> Trajectory:
    """Integrate the reactor equations with adaptive implicit stepping.

    By default a terminal boiling event at ``p.u_boil`` is attached (omitted
    when the threshold is infinite); pass ``events=[]`` to integrate without
    any.  Event crossings are located in time by the integrator's dense
    output to root-finder precision and appear both in ``Trajectory.events``
    and as extra sample rows.  Without events the run goes through
    :func:`lsoda`, which returns exactly the sample times.
    """
    if tau_end <= 0:
        raise ValidationError("tau_end", "integration horizon must be positive")
    if tol_rel <= 0 or tol_abs <= 0:
        raise ValidationError("tol_rel", "tolerances must be positive")
    if events is None:
        events = [boil_event(p.u_boil)] if math.isfinite(p.u_boil) else []
    else:
        events = list(events)

    t_eval = np.linspace(0.0, tau_end, max(2, n_samples))
    if not events:
        try:
            states = lsoda(*_callbacks(p), model._as_state(s0), t_eval,
                           tol_rel, tol_abs)
        except IntegrationFailure as exc:
            last = exc.last_state
            raise IntegrationFailure(
                str(exc), None if last is None else _clamped_state(*last),
                exc.partial) from None
        return Trajectory(t_eval, states)
    sol = _solve(p, s0, tau_end, tol_rel, tol_abs, events, t_eval=t_eval)
    recs = _collect_events(sol, events)

    times = sol.t.copy()
    states = sol.y.T.copy()
    # Splice event crossings into the sample arrays.
    for ev in recs:
        if times.size and np.min(np.abs(times - ev.time)) < 1e-14 * max(1.0, ev.time):
            continue
        i = int(np.searchsorted(times, ev.time))
        times = np.insert(times, i, ev.time)
        states = np.insert(states, i, [ev.x, ev.u], axis=0)
    keep = np.concatenate([[True], np.diff(times) > 0])
    return Trajectory(times[keep], states[keep], tuple(recs))


def detect_runaway(traj: Trajectory, u_boil: float) -> TrajectoryEvent | None:
    """First crossing of u above the runaway threshold, if any.

    Uses recorded boiling events when present, otherwise locates the first
    sign change of u - u_boil in the samples by linear interpolation.
    """
    for ev in traj.events:
        if ev.kind == "boil":
            return ev
    us = traj.us
    if us[0] > u_boil:
        return TrajectoryEvent(float(traj.times[0]), "boil",
                               float(traj.xs[0]), float(us[0]))
    g = us - u_boil
    for i in range(len(g) - 1):
        if g[i] <= 0.0 < g[i + 1]:
            w = -g[i] / (g[i + 1] - g[i])
            t = traj.times[i] + w * (traj.times[i + 1] - traj.times[i])
            x = traj.xs[i] + w * (traj.xs[i + 1] - traj.xs[i])
            return TrajectoryEvent(float(t), "boil", float(x), float(u_boil))
    return None


def settle(p: ModelParams, s0, horizon: float, tol_rel: float = 3e-12,
           tol_abs: float = 1e-14,
           section_level: float | None = None) -> AttractorReport:
    """Classify the long-time attractor reached from a starting state.

    Integrates over ``horizon`` and inspects the final 10%%: a runaway is a
    boiling-threshold crossing; a steady state varies by less than 1e-9; a
    cycle returns to a Poincare section (u = tail mean by default,
    increasing) with period repeatable to 1e-6 relative.  Anything else is
    reported as undetermined.
    """
    transient = 10.0 * p.eps / min(1.0, p.f)
    if horizon <= transient:
        raise ValidationError(
            "horizon", f"must exceed the transient estimate {transient:.3g}")

    events = []
    if math.isfinite(p.u_boil):
        events.append(boil_event(p.u_boil))

    # Extremum detectors carry a deadband well above the integrator noise so
    # that a trajectory parked on a steady state emits no spurious events.
    floor = 1000.0 * tol_abs * max(1.0, p.loss / p.eps)

    def du(t, x, u):
        v = model._field_scalar(p, x, u)[1]
        return v if abs(v) > floor else -floor

    events.append(EventSpec("u_max", du, direction=-1))
    events.append(EventSpec("u_min", du, direction=1))

    sol = _solve(p, s0, horizon, tol_rel, tol_abs, events, dense=True)
    recs = _collect_events(sol, events)
    terminal = _clamped_state(sol.y[0, -1], sol.y[1, -1])

    boil_hits = [e for e in recs if e.kind == "boil"]
    if boil_hits:
        return AttractorReport("runaway", terminal)

    t_end = float(sol.t[-1])
    t_tail = t_end - 0.1 * horizon
    ts = np.linspace(t_tail, t_end, 2001)
    ys = sol.sol(ts)

    ref = ys[:, -1]
    variation = float(np.max(np.abs(ys - ref[:, None])))
    if variation < STEADY_VARIATION:
        return AttractorReport("steady", terminal, amplitude=0.0)

    u_tail = ys[1]
    level = float(np.mean(u_tail)) if section_level is None else float(section_level)

    def g(t):
        return sol.sol(t)[1] - level

    # Upward crossings of the section, bracketed between consecutive
    # u-minimum and u-maximum events so that narrow spikes are not missed.
    from scipy.optimize import brentq

    crossings = []
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
                crossings.append(brentq(g, t_min_ev.time, ev.time,
                                        xtol=1e-13, rtol=1e-15))
            t_min_ev = None
    if len(crossings) >= 3:
        gaps = np.diff(crossings)
        k = min(5, len(gaps))
        recent = gaps[-k:]
        period = float(np.mean(recent))
        if period > 0 and float(np.max(np.abs(recent - period))) < PERIOD_REPEATABILITY * period:
            t_lo = crossings[-1] - period
            peaks = [e.u for e in recs if e.kind == "u_max" and e.time >= t_lo]
            dips = [e.u for e in recs if e.kind == "u_min" and e.time >= t_lo]
            if peaks and dips:
                amp = float(max(peaks) - min(dips))
            else:
                amp = float(np.max(u_tail) - np.min(u_tail))
            return AttractorReport("cycle", terminal, period=period, amplitude=amp)

    return AttractorReport("undetermined", terminal)
