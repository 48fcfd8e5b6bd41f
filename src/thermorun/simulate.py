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

_EPS = float(np.finfo(float).eps)
_MESSAGES = {
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred."}


def solve_ivp(fun, t_span, y0, method="LSODA", t_eval=None,
              dense_output=False, events=None, **options):
    """``scipy.integrate.solve_ivp(method="LSODA")``'s result, bit for bit.

    The same loop over ``scipy.integrate.LSODA``'s ``step()`` with the same
    arithmetic: each active event's root is ``brentq``'s, at xtol = rtol =
    4 eps, on the step's dense output, terminal events are ordered and cut
    as scipy does, and ``t_eval`` points are read off the step's dense
    output in one call per step.  So ``t``, ``y``, ``t_events``,
    ``y_events``, ``sol``, ``status``, ``nfev``, ``njev`` and ``nlu`` all
    equal scipy's.  What is left out is scipy's generic per-step work: event
    signs are compared as scalars, and a step that holds no event root or
    output time builds no array (scipy's ``find_active_events`` and its
    ``t_eval`` search and slice build several on every step).  A step's
    dense output is built, as in scipy, only on such a step, or on every
    step for ``dense_output``.

    Forward in time only, with scipy's keywords less ``args``, and
    ``dense_output`` only without ``t_eval``; an event's ``terminal`` is a
    flag, not a count.  ``options`` go to ``LSODA``.  ``scipy.integrate``
    and ``scipy.optimize`` are imported on the first call, so commands that
    never integrate never import them.  ``cycles`` integrates through this
    same function.
    """
    from scipy.integrate import LSODA, OdeSolution
    from scipy.optimize import OptimizeResult, brentq

    if method != "LSODA":
        raise ValueError(f"only LSODA is supported, not {method!r}")
    t0, tf = map(float, t_span)
    if tf < t0:
        raise ValueError("integrates forward in time only")
    if t_eval is not None and dense_output:
        raise ValueError("dense_output is not supported with t_eval")
    if t_eval is not None:
        t_eval = np.asarray(t_eval)
        if t_eval.ndim != 1:
            raise ValueError("`t_eval` must be 1-dimensional.")
        if np.any(t_eval < t0) or np.any(t_eval > tf):
            raise ValueError("Values in `t_eval` are not within `t_span`.")
        if np.any(np.diff(t_eval) <= 0):
            raise ValueError("Values in `t_eval` are not properly sorted.")
    solver = LSODA(fun, t0, y0, tf, **options)

    if events is None:
        events = []
        t_events = y_events = None
    else:
        events = list(events)
        t_events = [[] for _ in events]
        y_events = [[] for _ in events]
    directions = [getattr(ev, "direction", 0) for ev in events]
    terminal = [bool(getattr(ev, "terminal", False)) for ev in events]
    g = [ev(t0, y0) for ev in events]

    if t_eval is None:
        ts, ys = [t0], [y0]
    else:
        ts, ys = [], []
        i_eval = 0
        next_eval = float(t_eval[0]) if t_eval.size else math.inf
    interpolants = []

    status = None
    while status is None:
        message = solver.step()
        if solver.status == "finished":
            status = 0
        elif solver.status == "failed":
            status = -1
            break
        t_old, t, y = solver.t_old, solver.t, solver.y
        sol = None
        if dense_output:
            sol = solver.dense_output()
            interpolants.append(sol)

        if events:
            g_new = [ev(t, y) for ev in events]
            # scipy's find_active_events: up- and down-crossings, each
            # including a zero at either end, filtered by direction.
            active = [i for i, (a, b, d) in enumerate(zip(g, g_new, directions))
                      if (d >= 0 and a <= 0 <= b) or (d <= 0 and a >= 0 >= b)]
            g = g_new
            if active:
                if sol is None:
                    sol = solver.dense_output()
                roots = [brentq(lambda s, ev=events[i]: ev(s, sol(s)), t_old, t,
                                xtol=4 * _EPS, rtol=4 * _EPS) for i in active]
                terminate = any(terminal[i] for i in active)
                if terminate:
                    # scipy's handle_events: the roots in time order (its
                    # argsort, for the same order of ties), cut after the
                    # first terminal one.
                    order = np.argsort(roots)
                    active = [active[k] for k in order]
                    roots = [roots[k] for k in order]
                    cut = next(k for k, i in enumerate(active) if terminal[i])
                    active, roots = active[:cut + 1], roots[:cut + 1]
                for i, te in zip(active, roots):
                    t_events[i].append(te)
                    y_events[i].append(sol(te))
                if terminate:
                    status = 1
                    t = roots[-1]
                    y = sol(t)

        if t_eval is None:
            if dense_output and len(ts) > 1 and ts[-1] == t:
                interpolants.pop()
            else:
                ts.append(t)
                ys.append(y)
        elif t >= next_eval:
            i_new = int(np.searchsorted(t_eval, t, side="right"))
            if sol is None:
                sol = solver.dense_output()
            ts.append(t_eval[i_eval:i_new])
            ys.append(sol(t_eval[i_eval:i_new]))
            i_eval = i_new
            next_eval = float(t_eval[i_new]) if i_new < t_eval.size else math.inf

    if t_events is not None:
        t_events = [np.asarray(te) for te in t_events]
        y_events = [np.asarray(ye) for ye in y_events]
    if t_eval is None:
        ts = np.array(ts)
        ys = np.vstack(ys).T
    elif ts:
        ts = np.hstack(ts)
        ys = np.hstack(ys)
    sol = OdeSolution(ts, interpolants, alt_segment=True) if dense_output else None
    return OptimizeResult(t=ts, y=ys, sol=sol, t_events=t_events,
                          y_events=y_events, nfev=solver.nfev,
                          njev=solver.njev, nlu=solver.nlu, status=status,
                          message=_MESSAGES.get(status, message),
                          success=status >= 0)


def lsoda(rhs, jac, y0, ts, rtol, atol) -> np.ndarray:
    """The states at ``ts``, one row each, from ``scipy.integrate.odeint``.

    The same ODEPACK LSODA as :func:`solve_ivp`, stepped in Fortran rather
    than in a Python loop, for integrations that need neither events nor
    dense output.  ``tcrit`` keeps it from stepping past ``ts[-1]``, as
    ``LSODA``'s ``t_bound`` does, so over ``ts = [0, T]`` the end state is
    :func:`solve_ivp`'s bit for bit.  Imported on the first call, like
    :func:`solve_ivp`.

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
    any.  With events the run goes through :func:`solve_ivp`: crossings are
    located in time by ``brentq`` on the step's dense output and appear
    both in ``Trajectory.events`` and as extra sample rows.  Without events
    it goes through :func:`lsoda`, which returns exactly the sample times.
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
