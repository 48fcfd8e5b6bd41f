"""Adaptive implicit time integration with event detection and settling.

Wraps an implicit stiff integrator around the reactor vector field, locates
threshold crossings (notably the boiling/runaway threshold) in time, and
classifies the long-time attractor of a trajectory by brute force.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import pairwise
from typing import Literal

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


def solve_ivp(fun, t_span, y0, t_eval=None, events=None, *, rtol=1e-3,
              atol=1e-6, jac=None):
    """``scipy.integrate.solve_ivp(method="LSODA")``'s result, bit for bit.

    The same loop over ``scipy.integrate.LSODA``'s ``step()`` with the same
    arithmetic: each active event's root is ``brentq``'s, at xtol = rtol =
    4 eps, on the step's dense output, terminal events are ordered and cut
    as scipy does, and ``t_eval`` points are read off the step's dense
    output in one call per step.  So ``t``, ``y``, ``t_events``,
    ``y_events``, ``sol``, ``status``, ``nfev``, ``njev`` and ``nlu`` all
    equal scipy's, except on three kinds of run.  An empty span (tf = t0)
    raises the ``ValueError`` of a backward one, where scipy returns a
    success at t0.  Two fail here with status -1: one with a step that
    leaves ``t`` where it was (on an infinite field LSODA reports such
    steps as successes forever, and scipy's loop never ends), and one whose
    last state is not finite (a NaN state can also step on under a
    successful status).  What is left out is scipy's
    generic per-step work: event signs are compared as scalars, and a step
    that holds no event root or output time builds no array (scipy's
    ``find_active_events`` and its ``t_eval`` search and slice build
    several on every step).  A step's dense output is built, as in scipy,
    only on such a step.

    Forward in time only, with scipy's keywords less ``method`` (always
    LSODA), ``dense_output`` and ``args``; an event's ``terminal`` is a
    flag, not a count.  Of ``LSODA``'s options only ``rtol``, ``atol`` and
    ``jac`` are taken, with scipy's defaults.
    ``scipy.integrate`` and ``scipy.optimize`` are imported on the first
    call, so commands that never integrate never import them.
    ``settle`` and ``integrate`` with the boiling event run on it;
    ``cycles`` needs no events and integrates through :func:`lsoda` only.
    """
    from scipy.integrate import LSODA
    from scipy.optimize import OptimizeResult, brentq

    t0, tf = map(float, t_span)
    if tf <= t0:
        raise ValueError("integrates forward in time only, over a span of "
                         "positive length")
    if t_eval is not None:
        t_eval = np.asarray(t_eval)
        if t_eval.ndim != 1:
            raise ValueError("`t_eval` must be 1-dimensional.")
        if np.any(t_eval < t0) or np.any(t_eval > tf):
            raise ValueError("Values in `t_eval` are not within `t_span`.")
        if np.any(np.diff(t_eval) <= 0):
            raise ValueError("Values in `t_eval` are not properly sorted.")
    solver = LSODA(fun, t0, y0, tf, rtol=rtol, atol=atol, jac=jac)

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

    status = None
    while status is None:
        message = solver.step()
        if solver.status == "finished":
            status = 0
        elif solver.status == "failed":
            status = -1
            break
        t_old, t, y = solver.t_old, solver.t, solver.y
        if t == t_old:
            status = -1
            message = f"zero-length step at t = {t!r}"
            break
        sol = None
        if events:
            g_new = [ev(t, y) for ev in events]
            # scipy's find_active_events: up- and down-crossings, each
            # including a zero at either end, filtered by direction.
            active = [i for i, (a, b, d) in enumerate(zip(g, g_new, directions))
                      if (d >= 0 and a <= 0 <= b) or (d <= 0 and a >= 0 >= b)]
            g = g_new
            if active:
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

    if status >= 0 and not np.isfinite(solver.y).all():
        status = -1
        message = f"state not finite at t = {solver.t!r}"
    if t_events is not None:
        t_events = [np.asarray(te) for te in t_events]
        y_events = [np.asarray(ye) for ye in y_events]
    if t_eval is None:
        ts = np.array(ts)
        ys = np.vstack(ys).T
    elif ts:
        ts = np.hstack(ts)
        ys = np.hstack(ys)
    return OptimizeResult(t=ts, y=ys, sol=None, t_events=t_events,
                          y_events=y_events, nfev=solver.nfev,
                          njev=solver.njev, nlu=solver.nlu, status=status,
                          message=_MESSAGES.get(status, message),
                          success=status >= 0)


def lsoda(rhs, jac, y0, ts, rtol, atol) -> np.ndarray:
    """The states at ``ts``, one row each, from ``scipy.integrate.odeint``.

    The same ODEPACK LSODA as :func:`solve_ivp`, stepped in Fortran rather
    than in a Python loop, for integrations that need no events.  ``tcrit``
    keeps it from stepping past ``ts[-1]``, as
    ``LSODA``'s ``t_bound`` does, so over ``ts = [0, T]`` the end state is
    :func:`solve_ivp`'s bit for bit.  ``rtol`` and ``atol`` are scalars or
    arrays with one entry per component, as both drivers accept them; the
    cycle code's stacked shoot gives its transition-matrix rows looser
    ones than its states.  Imported on the first call, like
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


def boil_event(u_boil: float):
    """The event ``g(t, y)`` of :func:`solve_ivp` for a terminal upward
    crossing of the runaway threshold temperature."""
    def boil(t, y):
        return y[1] - u_boil

    boil.direction, boil.terminal = 1, True
    return boil


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


def _clamped_state(x: float, u: float) -> State:
    """Build a State, absorbing numerical excursions of x up to 1e-9."""
    if -1e-9 <= x < 0.0:
        x = 0.0
    elif 1.0 < x <= 1.0 + 1e-9:
        x = 1.0
    return State(float(x), float(u))


def _solve(p: ModelParams, x0: float, u0: float, tau_end: float,
           tol_rel: float, tol_abs: float, events: list,
           t_eval: np.ndarray | None = None):
    """:func:`solve_ivp` on the reactor field from (x0, u0) over
    [0, tau_end], its output per step or at ``t_eval``.  A failed run raises
    :class:`IntegrationFailure` with the output rows before the first state
    that is not finite (None if fewer than two) and the last of them."""
    rhs, jac, _ = model._callbacks(p)
    # An array, not a list: solve_ivp hands y0 itself to the events at t0.
    sol = solve_ivp(rhs, (0.0, tau_end), np.array([x0, u0]), rtol=tol_rel,
                    atol=tol_abs, jac=jac, events=events, t_eval=t_eval)
    if sol.status == -1:
        bad = ~np.isfinite(sol.y).all(axis=0)
        k = int(np.argmax(bad)) if bad.any() else sol.t.size
        last = _clamped_state(*sol.y[:, k - 1]) if k else None
        partial = Trajectory(sol.t[:k].copy(), sol.y[:, :k].T.copy()) if k > 1 else None
        raise IntegrationFailure(
            f"stiffness failure: {sol.message}", last_state=last, partial=partial)
    return sol


def _checked_start(s0, span: str, length: float, tol_rel: float,
                   tol_abs: float) -> tuple[float, float]:
    """The start (x0, u0) of a run over ``length``, the argument ``span``;
    raises :class:`ValidationError` unless the length and both tolerances
    are finite and positive and the start is finite, with x in [0, 1] and
    u > 0."""
    for field, v in ((span, length), ("tol_rel", tol_rel), ("tol_abs", tol_abs)):
        if not (math.isfinite(v) and v > 0):
            raise ValidationError(field, f"must be finite and positive, got {v!r}")
    x0, u0 = model._as_state(s0)
    if not 0.0 <= x0 <= 1.0:
        raise ValidationError("x0", f"must lie in [0, 1], got {x0!r}")
    if not (math.isfinite(u0) and u0 > 0):
        raise ValidationError("u0", f"must be finite and positive, got {u0!r}")
    return x0, u0


def integrate(p: ModelParams, s0, tau_end: float, tol_rel: float = 1e-8,
              tol_abs: float = 1e-10, n_samples: int = 1000) -> Trajectory:
    """Integrate the reactor equations with adaptive implicit stepping.

    With a finite ``p.u_boil`` the run goes through :func:`solve_ivp` with
    :func:`boil_event`: it stops where u first rises through the threshold,
    located in time by ``brentq`` on the step's dense output.  That crossing
    is the one ``Trajectory.events`` entry and ends the samples (as an
    extra row unless the last sample is within 1e-14 of it).  A start at
    or above the threshold is such a crossing at tau = 0, and the
    trajectory is that one row.  With an infinite threshold the run goes
    through :func:`lsoda`, which returns exactly the sample times.
    :func:`_checked_start` checks the inputs, and ``n_samples`` must be at
    least 2.
    """
    x0, u0 = _checked_start(s0, "tau_end", tau_end, tol_rel, tol_abs)
    if n_samples < 2:
        raise ValidationError("n_samples", f"need at least 2, got {n_samples!r}")
    if u0 >= p.u_boil:
        return Trajectory(np.zeros(1), np.array([[x0, u0]]),
                          (TrajectoryEvent(0.0, "boil", x0, u0),))

    t_eval = np.linspace(0.0, tau_end, n_samples)
    if not math.isfinite(p.u_boil):
        rhs, jac, _ = model._callbacks(p)
        try:
            states = lsoda(rhs, jac, (x0, u0), t_eval, tol_rel, tol_abs)
        except IntegrationFailure as exc:
            last = exc.last_state
            raise IntegrationFailure(
                str(exc), None if last is None else _clamped_state(*last),
                exc.partial) from None
        return Trajectory(t_eval, states)
    sol = _solve(p, x0, u0, tau_end, tol_rel, tol_abs, [boil_event(p.u_boil)],
                 t_eval=t_eval)
    times, states = sol.t, sol.y.T.copy()
    if sol.status == 0:
        return Trajectory(times, states)
    # The samples end at or before the crossing.
    te, (xe, ue) = float(sol.t_events[0][0]), sol.y_events[0][0].tolist()
    if te - times[-1] >= 1e-14 * max(1.0, te):
        times = np.append(times, te)
        states = np.vstack([states, [xe, ue]])
    return Trajectory(times, states, (TrajectoryEvent(te, "boil", xe, ue),))


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


def _extrema(sol, du) -> list[TrajectoryEvent]:
    """u's maxima and minima, in time order, from the roots of ``du``, the
    last event of the run ``sol``.

    ``du`` is du/dt with a deadband that keeps it from ever being 0 or NaN,
    so its roots alternate between maxima and minima, beginning with a
    maximum if u rises at the start.
    """
    rises = du(sol.t[0], sol.y[:, 0]) > 0
    kinds = ("u_max", "u_min") if rises else ("u_min", "u_max")
    return [TrajectoryEvent(t, kinds[k % 2], x, u) for k, (t, (x, u))
            in enumerate(zip(sol.t_events[-1].tolist(), sol.y_events[-1].tolist()))]


def settle(p: ModelParams, s0, horizon: float, tol_rel: float = 3e-12,
           tol_abs: float = 1e-14) -> AttractorReport:
    """Classify the long-time attractor reached from a starting state.

    Integrates over ``horizon`` with a boiling event and an event on du/dt,
    and decides from the steps and events of that run.  A runaway is a
    boiling-threshold crossing (a start at or above the threshold is one at
    tau = 0, and is not integrated).  Otherwise the tail is the final 10%:
    the state at its start, linearly interpolated between the two steps
    around it, then every step state after it.  A steady state varies by
    less than 1e-9 over the tail.  A cycle rises through the tail's mean u
    again and again: each such excursion is stamped at the time of its
    u-maximum, and at least three stamps must repeat with a period steady
    to 1e-6 relative.  Its amplitude is the range of the extrema from the
    second-to-last stamp on.  Anything else is reported as undetermined.
    :func:`_checked_start` checks the inputs.
    """
    x0, u0 = _checked_start(s0, "horizon", horizon, tol_rel, tol_abs)
    transient = 10.0 * p.eps / min(1.0, p.f)
    if horizon <= transient:
        raise ValidationError(
            "horizon", f"must exceed the transient estimate {transient:.3g}")
    if u0 >= p.u_boil:
        return AttractorReport("runaway", _clamped_state(x0, u0))

    # The extremum event carries a deadband well above the integrator noise
    # so that a trajectory parked on a steady state emits no spurious events.
    floor = 1000.0 * tol_abs * max(1.0, p.loss / p.eps)
    field = model._callbacks(p)[0]

    def du(t, y):
        v = field(t, y)[1]
        return v if abs(v) > floor else -floor

    du.direction, du.terminal = 0, False
    events = [boil_event(p.u_boil), du] if math.isfinite(p.u_boil) else [du]
    sol = _solve(p, x0, u0, horizon, tol_rel, tol_abs, events)
    terminal = _clamped_state(sol.y[0, -1], sol.y[1, -1])
    if sol.status == 1:
        return AttractorReport("runaway", terminal)

    # The interpolated first tail state keeps one long step across t_tail
    # from hiding a drift.
    t_tail = float(sol.t[-1]) - 0.1 * horizon
    first = [np.interp(t_tail, sol.t, row) for row in sol.y]
    ys = np.column_stack([first, sol.y[:, sol.t > t_tail]])

    variation = float(np.max(np.abs(ys - ys[:, -1:])))
    if variation < STEADY_VARIATION:
        return AttractorReport("steady", terminal, amplitude=0.0)

    # Each upward excursion through the level, from a minimum below it to a
    # tail maximum at or above it, stamped at that maximum, so that narrow
    # spikes are not missed.
    level = float(np.mean(ys[1]))
    recs = _extrema(sol, du)
    stamps = [hi.time for lo, hi in pairwise(recs)
              if hi.kind == "u_max" and hi.time >= t_tail
              and lo.u < level <= hi.u and hi.time > lo.time]
    if len(stamps) >= 3:
        recent = np.diff(stamps)[-5:]
        period = float(np.mean(recent))
        if period > 0 and float(np.max(np.abs(recent - period))) < PERIOD_REPEATABILITY * period:
            # From the maximum at stamps[-2] on: both stamped maxima and
            # the minimum between them, so neither list is empty.
            peaks = [e.u for e in recs if e.kind == "u_max" and e.time >= stamps[-2]]
            dips = [e.u for e in recs if e.kind == "u_min" and e.time >= stamps[-2]]
            amp = float(max(peaks) - min(dips))
            return AttractorReport("cycle", terminal, period=period, amplitude=amp)

    return AttractorReport("undetermined", terminal)
