"""Limit cycles: multiple shooting, Floquet stability, cycle continuation.

Periodic orbits are solved as a multiple-shooting boundary-value problem
(segment states plus the period as unknowns, phase pinned by an integral
condition against the seed) with the segment flows, transition matrices and
parameter sensitivities obtained from one stacked variational integration
per Newton iterate.  Seeds at fixed parameters are corrected by the damped
mode of the ``solvers`` Newton loop: its line search judges each trial on
that integration, and an accepted trial's integration also gives the next
step's Jacobian.  Floquet multipliers come from the monodromy matrix
accumulated in chunks around the orbit, with the determinant identity
against exp(integral of the Jacobian trace) kept as a consistency defect.
Cycle branches are continued in the ambient temperature u_a alone: the
branch emerging from the Hopf point of a u_a branch is traced by the shared
pseudo-arclength engine (``solvers.continue_curve``) in (orbit, period, u_a),
with the phase condition re-anchored on every accepted orbit; a cycle fold
is flagged by a reversal of the u_a tangent and located at the turn of the
cubic Hermite interpolant of u_a between the two accepted orbits around it,
from their tangents (no further solve).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from . import model
from .errors import (ConvergenceError, GermError, IntegrationFailure,
                     NotAHopfError, ValidationError)
from .model import U_FLOOR, ModelParams
from .simulate import lsoda, solve_ivp
from .solvers import (ContinuationProblem, bisect_root, continue_curve,
                      damped_newton)
from .steady import SpecialPoint, _complex_pair, lyapunov_first_coeff, solve_steady

CYCLE_TOL = 1e-9
TRIVIAL_MULT_TOL = 1e-4
LIOUVILLE_TOL = 1e-6
# No solve stops on this: it is the relative agreement that the tests and the
# benchmark's fingerprint ask of a located parameter value, such as a Hopf
# point, the orbit at the turn of a cycle branch, or a cycle fold.
FOLD_PARAM_TOL = 1e-8
SHOOT_RTOL = 1e-11
SHOOT_ATOL = 1e-13
MESH_SAMPLES = 256
# Seed samples per period: hopf_germ's ellipse and seed_from_simulation's flow.
GERM_SAMPLES = 64
SEED_SAMPLES = 128
# find_cycle doubles its segments up to this count, until the period is
# stable to this relative change.
FIND_CYCLE_M_MAX = 96
FIND_CYCLE_PERIOD_RTOL = 1e-8
# continue_cycles' first, smallest and largest step, and first germ radius.
CYCLE_DS0 = 2e-3
CYCLE_DS_MIN = 1e-7
CYCLE_DS_MAX = 0.25
GERM_RADIUS = 2e-3


@dataclass(frozen=True)
class CycleSeed:
    """A sampled approximation of one period, used to start the BVP solve."""

    times: np.ndarray   # ascending, spanning [0, period]
    states: np.ndarray  # shape (k, 2)
    period: float

    def segment_starts(self, m: int) -> np.ndarray:
        ts = np.linspace(0.0, self.period, m, endpoint=False)
        frac = np.mod(self.times, self.period * (1 + 1e-15))
        order = np.argsort(frac)
        xs = np.interp(ts, frac[order], self.states[order, 0],
                       period=self.period)
        us = np.interp(ts, frac[order], self.states[order, 1],
                       period=self.period)
        return np.column_stack([xs, us])


@dataclass(frozen=True)
class Orbit:
    """A converged periodic orbit with Floquet data, labelled by its ``u_a``."""

    param_value: float
    period: float
    mesh: np.ndarray            # shape (k, 2), k >= 200
    multipliers: tuple[float, float]   # (trivial, nontrivial)
    stability: str              # "stable" | "unstable"
    residual: float
    liouville_defect: float
    amplitude: float
    min_u: float
    max_u: float
    segments: int

    @property
    def nontrivial_multiplier(self) -> float:
        return self.multipliers[1]


@dataclass(frozen=True)
class CycleBranch:
    """A continued family of periodic orbits in u_a with its turning points."""

    orbits: tuple[Orbit, ...]
    cycle_folds: tuple[float, ...]
    stop_reason: str


# ---------------------------------------------------------------------------
# Stacked segment integration


def _stacked_rhs(p: ModelParams, m: int, h: float, sens: bool):
    """RHS of the stacked segment system on the unit interval.

    Per-segment layout: y (2), flattened transition matrix M (4) and, when
    ``sens`` is set, the sensitivity zeta (2) by u_a, whose field derivative
    is the constant row (0, loss/eps).
    """
    width = 8 if sens else 6
    dfdp = np.array([0.0, p.loss / p.eps])

    def rhs(s, Y):
        Z = Y.reshape(m, width)
        x, u = Z[:, 0], Z[:, 1]
        # The field and J of model._field_xu/_jac_xu on one Arrhenius
        # evaluation, clamped instead of branched: the same bits for every
        # finite u.
        e = np.exp(-1.0 / np.maximum(u, U_FLOOR))
        r = p.sigma * e
        rp = r / np.maximum(u * u, U_FLOOR * U_FLOOR)
        xr, xrp = x * r, x * rp                          # -(x r) == (-x) r
        # Columns of each segment's J, shape (m, 2, 1); J M and J zeta are
        # the two-term sums einsum forms.
        J0 = np.empty((m, 2, 1))
        J1 = np.empty((m, 2, 1))
        J0[:, 0, 0] = -(r + p.f)
        J0[:, 1, 0] = r / p.eps
        J1[:, 0, 0] = -xrp
        J1[:, 1, 0] = (xrp - p.loss) / p.eps
        out = np.empty_like(Z)
        out[:, 0] = -xr + p.f * (1.0 - x)
        out[:, 1] = (xr - p.loss * (u - p.u_a)) / p.eps
        M = Z[:, 2:6].reshape(m, 2, 2)
        out[:, 2:6] = (J0 * M[:, 0:1] + J1 * M[:, 1:2]).reshape(m, 4)
        if sens:
            out[:, 6:8] = (J0[:, :, 0] * Z[:, 6:7] + J1[:, :, 0] * Z[:, 7:8]
                           + dfdp)
        out *= h
        return out.ravel()

    return rhs, width


def _stacked_jac(p: ModelParams, m: int, h: float, sens: bool):
    """Jacobian of ``_stacked_rhs``: one block per segment on the diagonal.

    All blocks are formed at once and returned in a dense matrix; a banded
    one would change the rounding of LSODA's LU.  The field derivative by
    u_a is constant, so the sensitivity rows hold J and the Hessian term.
    """
    width = 8 if sens else 6
    seg = np.arange(m)

    def jac(s, Y):
        Z = Y.reshape(m, width)
        x, u = Z[:, 0], Z[:, 1]
        J = model._jac_xu(p, x, u)                                   # (m, 2, 2)
        # Per segment: the Hessian keeps rho_derivs' math.exp bits.
        B = np.array([model._hessian_xu(p, xi, ui)
                      for xi, ui in zip(x.tolist(), u.tolist())])
        blk = np.zeros((m, width, width))
        blk[:, 0:2, 0:2] = h * J
        # d(J M)/dy via the Hessian tensor.
        dJM = np.einsum("mjla,mlk->mjka", B, Z[:, 2:6].reshape(m, 2, 2))
        blk[:, 2:6, 0:2] = h * dJM.reshape(m, 4, 2)
        # kron(J, I) per segment; a product, as np.kron forms it, keeps the
        # signs of its zeros.
        blk[:, 2:6, 2:6] = h * (J[:, :, None, :, None]
                                * np.eye(2)[:, None, :]).reshape(m, 4, 4)
        if sens:
            blk[:, 6:8, 0:2] = h * np.einsum("mjla,ml->mja", B, Z[:, 6:8])
            blk[:, 6:8, 6:8] = h * J
        out = np.zeros((m * width, m * width))
        out.reshape(m, width, m, width)[seg, :, seg, :] = blk
        return out

    return jac


def _shoot(p: ModelParams, starts: np.ndarray, T: float, sens: bool = False):
    """Flow all segments over T/m; return endpoints and variational data,
    with the sensitivities by u_a when ``sens`` is set."""
    m = len(starts)
    h = T / m
    rhs, width = _stacked_rhs(p, m, h, sens)
    jac = _stacked_jac(p, m, h, sens)
    Y0 = np.zeros((m, width))
    Y0[:, 0:2] = starts
    Y0[:, 2] = 1.0
    Y0[:, 5] = 1.0
    try:
        Z = lsoda(rhs, jac, Y0.ravel(), [0.0, 1.0], SHOOT_RTOL,
                  SHOOT_ATOL)[-1].reshape(m, width)
    except IntegrationFailure as exc:
        raise ConvergenceError(f"variational integration failed: {exc}") from None
    ends = Z[:, 0:2].copy()
    Ms = Z[:, 2:6].reshape(m, 2, 2).copy()
    zetas = Z[:, 6:8].copy() if sens else None
    return ends, Ms, zetas


def _residual(starts: np.ndarray, ends: np.ndarray, ref_states: np.ndarray,
              ref_fields: np.ndarray) -> np.ndarray:
    m = len(starts)
    R = np.empty(2 * m + 1)
    R[:2 * m] = (ends - np.roll(starts, -1, axis=0)).ravel()
    R[2 * m] = float(np.sum((starts - ref_states) * ref_fields))
    return R


def _bvp_jacobian(p: ModelParams, starts: np.ndarray, ends: np.ndarray,
                  Ms: np.ndarray, zetas: np.ndarray | None,
                  ref_fields: np.ndarray) -> np.ndarray:
    """Jacobian of (matching, phase) w.r.t. (segment states, period[, u_a])."""
    m = len(starts)
    ncols = 2 * m + 1 + (1 if zetas is not None else 0)
    J = np.zeros((2 * m + 1, ncols))
    # Segment i's 2 x 2 block in rows / columns 2i, 2i + 1; then i + 1's.
    rows = 2 * np.arange(m)[:, None, None] + np.arange(2)[:, None]
    cols = rows.transpose(0, 2, 1)
    J[rows, cols] = Ms
    J[rows, (cols + 2) % (2 * m)] -= np.eye(2)
    J[:2 * m, 2 * m] = (_fields_at(p, ends) / m).ravel()
    if zetas is not None:
        J[:2 * m, 2 * m + 1] = zetas.ravel()
    J[2 * m, 0:2 * m] = ref_fields.ravel()
    return J


def _fields_at(p: ModelParams, states: np.ndarray) -> np.ndarray:
    fx, fu = model._field_xu(p, states[:, 0], states[:, 1])
    return np.column_stack([fx, fu])


def _shooting_system(m: int, params_at: Callable[[np.ndarray], ModelParams],
                     sens: bool, ref: dict):
    """Residual and Jacobian of the shooting BVP at z = (segment starts, T, ...).

    ``params_at(z)`` gives the model parameters at z, and ``sens`` says
    whether z ends in u_a, which the shoot then differentiates by; the
    phase condition is anchored at ``ref["states"]`` with ``ref["fields"]``.
    Residual and Jacobian at one z share a single variational shoot: the last
    one is cached, so a Newton step or tangent at an accepted point reuses
    the integration that gave its residual.
    """
    last: dict = {}

    def shot(z):
        key = z.tobytes()
        if last.get("key") != key:
            starts, T = z[:2 * m].reshape(m, 2).copy(), z[2 * m]
            if T <= 0:
                raise ConvergenceError("nonpositive period")
            p = params_at(z)
            last.update(key=key, shot=(p, starts, *_shoot(p, starts, T, sens)))
        return last["shot"]

    def residual(z):
        _, starts, ends, _, _ = shot(z)
        return _residual(starts, ends, ref["states"], ref["fields"])

    def jacobian(z):
        p, starts, ends, Ms, zetas = shot(z)
        return _bvp_jacobian(p, starts, ends, Ms, zetas, ref["fields"])

    return residual, jacobian


# ---------------------------------------------------------------------------
# Floquet analysis and orbit finalization


def _stable_multipliers(tr: float, det: float) -> tuple[float, float]:
    """Eigenvalues of a real 2x2 via the numerically stable quadratic form."""
    disc = tr * tr - 4.0 * det
    if disc < 0:
        # Planar monodromy has real spectrum; tiny negatives are roundoff.
        disc = 0.0
    root = math.sqrt(disc)
    lam1 = (tr + root) / 2 if tr >= 0 else (tr - root) / 2
    lam2 = det / lam1 if lam1 != 0 else 0.0
    return lam1, lam2


LEG_TRACE_BUDGET = 12.0
"""Renormalize the variational flow whenever int |trace J| grows this much,
so every leg's transition-matrix determinant stays well-conditioned."""


def floquet(p: ModelParams, y0: np.ndarray,
            period: float) -> tuple[tuple[float, float], float]:
    """Floquet multipliers of the periodic orbit through ``y0`` with
    ``period``, and the Liouville defect.

    Integrates the variational equations around the orbit at the shooting
    tolerances ``SHOOT_RTOL`` and ``SHOOT_ATOL``, restarting from
    the identity whenever the accumulated |trace| budget is exhausted
    (strongly contracting relaxation orbits would otherwise lose the tiny
    determinant to cancellation).  The monodromy matrix is the ordered
    product of the legs, its determinant the product of well-conditioned leg
    determinants.  The defect reported is the relative mismatch between that
    determinant and exp(integral of trace J), an identity in exact
    arithmetic.  Returns ((trivial, nontrivial), defect), trivial being the
    multiplier closest to unity.
    """
    # State layout: y (2), M (4), q = int trace, qa = int |trace|.
    def rhs(t, Y):
        x, u = Y[:2].tolist()
        J = model._jac_scalar(p, x, u)
        tr = J[0][0] + J[1][1]
        # Keep the matmul: written-out sums round differently from it and
        # move the Floquet multipliers.
        Mdot = np.array(J) @ Y[2:6].reshape(2, 2)
        return [*model._field_scalar(p, x, u), *Mdot.ravel().tolist(), tr, abs(tr)]

    def jac(t, Y):
        x, u = float(Y[0]), float(Y[1])
        J = model._jac_xu(p, x, u)
        B = model._hessian_xu(p, x, u)
        M = Y[2:6].reshape(2, 2)
        out = np.zeros((8, 8))
        out[0:2, 0:2] = J
        out[2:6, 0:2] = np.einsum("jla,lk->jka", B, M).reshape(4, 2)
        out[2:6, 2:6] = np.kron(J, np.eye(2))
        dtr = B[0, 0, :] + B[1, 1, :]
        out[6, 0:2] = dtr
        tr = J[0, 0] + J[1, 1]
        out[7, 0:2] = math.copysign(1.0, tr) * dtr
        return out

    def budget(t, Y):
        return Y[7] - LEG_TRACE_BUDGET

    budget.direction = 1
    budget.terminal = True

    Mtot = np.eye(2)
    log_det = 0.0
    det_sign = 1.0
    q_total = 0.0
    y = np.array(y0, dtype=float)
    t_done = 0.0
    for _ in range(10000):
        Y0 = np.concatenate([y, np.eye(2).ravel(), [0.0, 0.0]])
        sol = solve_ivp(rhs, (0.0, period - t_done), Y0, rtol=SHOOT_RTOL,
                        atol=SHOOT_ATOL, jac=jac, events=[budget])
        if not sol.success:
            raise ConvergenceError(f"variational integration failed: {sol.message}")
        Z = sol.y[:, -1]
        y = Z[0:2].copy()
        Mk = Z[2:6].reshape(2, 2)
        Mtot = Mk @ Mtot
        det_k = float(np.linalg.det(Mk))
        if det_k == 0.0:
            raise ConvergenceError("degenerate variational leg")
        det_sign *= math.copysign(1.0, det_k)
        log_det += math.log(abs(det_k))
        q_total += float(Z[6])
        t_done += float(sol.t[-1])
        if t_done >= period * (1 - 1e-14):
            break
    else:
        raise ConvergenceError("variational renormalization did not terminate")

    det_prod = det_sign * math.exp(log_det)
    defect = abs(math.expm1(log_det - q_total)) if det_sign > 0 else np.inf
    lam1, lam2 = _stable_multipliers(float(np.trace(Mtot)), det_prod)
    if abs(lam1 - 1.0) <= abs(lam2 - 1.0):
        trivial, nontrivial = lam1, lam2
    else:
        trivial, nontrivial = lam2, lam1
    return (trivial, nontrivial), defect


def _finalize_orbit(p: ModelParams, y0: np.ndarray, T: float):
    """Sample a corrected orbit over one period from ``y0``.

    Returns the uniform mesh times, the mesh (the orbit an :class:`Orbit`
    carries, and the seed of the next segment doubling) and the u extrema,
    located exactly by an event on du/dt.
    """
    def rhs(t, y):
        return model._field_scalar(p, *y.tolist())

    def jac(t, y):
        return model._jac_scalar(p, *y.tolist())

    def du(t, y):
        return model._field_scalar(p, *y.tolist())[1]

    du.direction = 0
    du.terminal = False
    ts = np.linspace(0.0, T, MESH_SAMPLES, endpoint=False)
    sol = solve_ivp(rhs, (0.0, T), y0, rtol=SHOOT_RTOL, atol=SHOOT_ATOL,
                    jac=jac, t_eval=ts, events=[du])
    if not sol.success:
        raise ConvergenceError(f"orbit sampling failed: {sol.message}")
    mesh = sol.y.T.copy()
    u_candidates = list(mesh[:, 1])
    if sol.y_events and len(sol.y_events[0]):
        u_candidates.extend(sol.y_events[0][:, 1])
    return ts, mesh, float(np.min(u_candidates)), float(np.max(u_candidates))


def _make_orbit(p: ModelParams, starts: np.ndarray, T: float, res: float) -> Orbit:
    """The :class:`Orbit` of a corrected solution: mesh, extrema, Floquet data."""
    mults, defect = floquet(p, starts[0], T)
    _, mesh, min_u, max_u = _finalize_orbit(p, starts[0], T)
    nontrivial = mults[1]
    return Orbit(
        param_value=float(p.u_a),
        period=float(T),
        mesh=mesh,
        multipliers=mults,
        stability="stable" if abs(nontrivial) < 1.0 else "unstable",
        residual=res,
        liouville_defect=defect,
        amplitude=max_u - min_u,
        min_u=min_u,
        max_u=max_u,
        segments=len(starts),
    )


# ---------------------------------------------------------------------------
# Seeds


def _hopf_crossing(p: ModelParams, hopf: SpecialPoint) -> tuple[float, float]:
    """First Lyapunov coefficient and eigenvalue crossing speed d(Re lambda)/dp.

    ``l1`` is taken from the special point when it carries one; the crossing
    speed is a central difference of the steady-state trace along the branch.
    """
    name = hopf.param_name
    l1 = hopf.l1
    if l1 is None:
        l1 = lyapunov_first_coeff(p.with_(**{name: hopf.param_value}), hopf)
    dp = 1e-7 * max(abs(hopf.param_value), 1e-3)
    s_h = (hopf.state.x, hopf.state.u)
    tr_p, tr_m = (solve_steady(p.with_(**{name: hopf.param_value + sgn * dp}),
                               s_h, param_name=name).trace for sgn in (+1, -1))
    return l1, (tr_p - tr_m) / (4 * dp)


def hopf_germ(p: ModelParams, hopf: SpecialPoint,
              delta: float) -> tuple[ModelParams, CycleSeed]:
    """Small-amplitude elliptic seed near a Hopf point, offset by ``delta``.

    The parameter offset is taken on the side where the normal form predicts
    a cycle (opposite the stable side for a subcritical point); the ellipse
    radius follows the square-root law from the first Lyapunov coefficient
    and the eigenvalue crossing speed.
    """
    if hopf.kind != "hopf":
        raise NotAHopfError("germ requires a hopf special point")
    if delta <= 0:
        raise GermError("germ offset must be positive")
    p = p.with_(u_boil=math.inf)
    name = hopf.param_name
    p_h = p.with_(**{name: hopf.param_value})
    s_h = (hopf.state.x, hopf.state.u)
    omega = math.sqrt(hopf.det)
    l1, re_lam_prime = _hopf_crossing(p, hopf)
    if re_lam_prime == 0:
        raise GermError("eigenvalues do not cross transversally")

    side = -math.copysign(1.0, re_lam_prime * l1)
    mu = re_lam_prime * side * delta
    r2 = -mu / (omega * l1)
    if r2 <= 0:
        raise GermError("normal form predicts no cycle on this side")
    r = math.sqrt(r2)
    if 2 * r < 1e-8:
        raise GermError(f"germ amplitude {2*r:.2e} below 1e-8")

    A = model.jacobian(p_h, s_h)
    qv, _ = _complex_pair(A, omega)
    period = 2 * math.pi / omega
    ts = np.linspace(0.0, period, GERM_SAMPLES, endpoint=False)
    z = r * np.exp(1j * omega * ts)
    states = np.array(s_h)[None, :] + 2 * np.real(z[:, None] * qv[None, :])
    p_off = p.with_(**{name: hopf.param_value + side * delta})
    return p_off, CycleSeed(ts, states, period)


def seed_from_simulation(p: ModelParams, state, period: float) -> CycleSeed:
    """Sample one period of the flow from a settled point on a cycle."""
    def rhs(t, y):
        return model._field_scalar(p, *y.tolist())

    def jac(t, y):
        return model._jac_scalar(p, *y.tolist())

    ts = np.linspace(0.0, period, SEED_SAMPLES, endpoint=False)
    try:
        states = lsoda(rhs, jac, model._as_state(state), ts, SHOOT_RTOL,
                       SHOOT_ATOL)
    except IntegrationFailure as exc:
        raise ConvergenceError(f"seed sampling failed: {exc}") from None
    return CycleSeed(ts, states, period)


# ---------------------------------------------------------------------------
# Public solves


def _solve_cycle_raw(p: ModelParams, seed: CycleSeed,
                     m: int) -> tuple[np.ndarray, float, float]:
    """Correct a seed at fixed parameters by damped Newton to ``CYCLE_TOL``;
    returns (segment starts, T, residual)."""
    starts = seed.segment_starts(m)
    spread = float(np.max(starts[:, 1]) - np.min(starts[:, 1]))
    if np.max(np.abs(starts - starts.mean(axis=0))) < 1e-8:
        raise GermError("seed amplitude below 1e-8")
    ref = {"states": starts.copy(), "fields": _fields_at(p, starts)}
    residual, jacobian = _shooting_system(m, lambda z: p, False, ref)
    z = damped_newton(residual, np.append(starts.ravel(), seed.period),
                      jacobian, CYCLE_TOL, 24)
    # The converged iterate's shoot is the cached last one.
    res = float(np.max(np.abs(residual(z))))
    s, T = z[:2 * m].reshape(m, 2), float(z[2 * m])
    if float(np.max(s[:, 1]) - np.min(s[:, 1])) < max(1e-8, 1e-6 * spread):
        raise GermError("corrected orbit collapsed to a steady state")
    return s, T, res


def find_cycle(p: ModelParams, seed: CycleSeed, m: int = 12) -> Orbit:
    """Correct a seed into a periodic orbit at fixed parameters by
    multiple shooting; the orbit is labelled by its ambient ``u_a``.

    The segment count doubles from ``m`` (at most to ``FIND_CYCLE_M_MAX``)
    until the period is stable to ``FIND_CYCLE_PERIOD_RTOL`` relative, so
    the returned orbit's discretization is self-validated.  Each coarser
    level only samples the seed of the next; Floquet data are computed for
    the returned orbit alone.  Raises :class:`GermError` for degenerate
    seeds and :class:`ConvergenceError` when Newton fails (with the final
    residual).
    """
    m = max(10, m)
    starts, T, res = _solve_cycle_raw(p, seed, m)
    while 2 * m <= FIND_CYCLE_M_MAX:
        ts, mesh, _, _ = _finalize_orbit(p, starts[0], T)
        m *= 2
        coarse_T = T
        starts, T, res = _solve_cycle_raw(p, CycleSeed(ts, mesh, T), m)
        if abs(T - coarse_T) <= FIND_CYCLE_PERIOD_RTOL * coarse_T:
            break
    return _make_orbit(p, starts, T, res)


# ---------------------------------------------------------------------------
# Cycle continuation


def _params_at(p0: ModelParams, alpha: float) -> ModelParams:
    try:
        return p0.with_(u_a=float(alpha))
    except ValidationError as exc:
        raise ConvergenceError(f"trial parameter rejected: {exc}") from None


def _cycle_problem(p0: ModelParams, m: int,
                   scales: np.ndarray) -> ContinuationProblem:
    """The shooting BVP over Y = (segment starts, T, u_a).

    ``rebase`` re-anchors the integral phase condition on the orbit at Y;
    the tangent at an accepted point reuses the corrector's final shoot.
    """
    ref: dict = {}
    residual, jacobian = _shooting_system(
        m, lambda Y: _params_at(p0, Y[2 * m + 1]), True, ref)

    def rebase(Y):
        ref["states"] = Y[:2 * m].reshape(m, 2).copy()
        ref["fields"] = _fields_at(_params_at(p0, Y[2 * m + 1]),
                                   ref["states"])

    return ContinuationProblem(residual, jacobian, scales, rebase)


def continue_cycles(p: ModelParams, from_hopf: SpecialPoint,
                    prange: tuple[float, float], m: int = 12,
                    max_orbits: int = 120) -> CycleBranch:
    """Continue the periodic-orbit family born at a Hopf point of a u_a branch.

    Starts from two small germ orbits, then takes pseudo-arclength steps in
    (segment states, period, u_a) with ``solvers.continue_curve``.  Cycle
    folds are detected by a sign reversal of the u_a tangent component and
    located by :func:`_hermite_fold` from the two orbits around the reversal;
    each accepted orbit carries Floquet data, so the stability flip at a
    fold is explicit.  Continuation stops at the range boundary, on a
    corrector failure (truncated branch) or at ``max_orbits``.  A Hopf point of a branch in any other parameter raises
    :class:`ValidationError`.
    """
    if from_hopf.kind != "hopf":
        raise NotAHopfError("cycle continuation must start from a hopf point")
    if from_hopf.param_name != "u_a":
        raise ValidationError("from_hopf", "cycle branches are continued in "
                              f"u_a, not in {from_hopf.param_name!r}")
    p = p.with_(u_boil=math.inf)
    lo, hi = float(prange[0]), float(prange[1])
    m = max(10, m)

    # Germ offset sized so the first orbit has a workable radius.
    omega = math.sqrt(from_hopf.det)
    l1, re_lam_prime = _hopf_crossing(p, from_hopf)
    delta0 = GERM_RADIUS ** 2 * omega * abs(l1) / max(abs(re_lam_prime), 1e-300)

    def germ(delta):
        p_off, seed = hopf_germ(p, from_hopf, delta)
        starts, T, res = _solve_cycle_raw(p_off, seed, m)
        orbit = _make_orbit(p_off, starts, T, res)
        return orbit, np.concatenate([starts.ravel(), [T, orbit.param_value]])

    no_start = "could not start the cycle branch from the germ"
    for scale in (1.0, 4.0, 16.0, 0.25):
        try:
            first, Y0 = germ(scale * delta0)
            break
        except (GermError, ConvergenceError):
            continue
    else:
        raise ConvergenceError(no_start)
    try:
        second, Y1 = germ(2.0 * scale * delta0)
    except (GermError, ConvergenceError):
        raise ConvergenceError(no_start) from None

    seg_w = math.sqrt(2.0 * m)
    scales = np.concatenate([
        np.tile([seg_w, seg_w * 0.02], m),
        [max(first.period, 1.0), max(hi - lo, 1e-6)],
    ])
    prob = _cycle_problem(p, m, scales)

    def stop(Y):
        return "window boundary" if Y[-1] < lo or Y[-1] > hi else None

    run = continue_curve(prob, Y1, Y1 - Y0, ds0=CYCLE_DS0, ds_min=CYCLE_DS_MIN,
                         ds_max=CYCLE_DS_MAX, max_steps=max_orbits - 2,
                         tol=CYCLE_TOL, growth=1.3, stop=stop)

    orbits = [first, second] + [
        _make_orbit(_params_at(p, Y[-1]), Y[:2 * m].reshape(m, 2),
                    float(Y[2 * m]), res)
        for Y, res in zip(run.points[1:], run.residuals)]
    # Cycle fold: the u_a component of the tangent reverses.
    folds = [_hermite_fold(Y_a, Y_b, t_a, t_b, scales)
             for (Y_a, t_a), (Y_b, t_b) in pairwise(zip(run.points, run.tangents))
             if t_a[-1] * t_b[-1] < 0]
    stop_reason = "max orbits" if run.stop_reason == "max steps" else run.stop_reason
    return CycleBranch(tuple(orbits), tuple(folds), stop_reason)


def _hermite_fold(Y_a: np.ndarray, Y_b: np.ndarray, t_a: np.ndarray,
                  t_b: np.ndarray, scales: np.ndarray) -> float:
    """u_a at the turn of the cubic Hermite interpolant of u_a between two
    branch points whose unit tangents ``t_a``, ``t_b`` (in the metric scaled
    by ``scales``) have u_a components of opposite signs.

    The interpolant runs over the chord's scaled length h with the end slopes
    ``t[-1] * scales[-1]``; its derivative, bisected on [0, 1], takes the
    opposite end slopes exactly.  The error is O(h^4), and no orbit is solved.
    """
    d = (Y_b - Y_a) / scales
    h = math.sqrt(d.dot(d))
    a, b = float(Y_a[-1]), float(Y_b[-1])
    ma, mb = h * float(t_a[-1] * scales[-1]), h * float(t_b[-1] * scales[-1])
    w = bisect_root(lambda v: (6.0 * v * (1.0 - v) * (b - a)
                               + ma * (1.0 - v) * (1.0 - 3.0 * v)
                               + mb * v * (3.0 * v - 2.0)), 0.0, 1.0)
    return (a + (b - a) * w * w * (3.0 - 2.0 * w) + ma * w * (1.0 - w) ** 2
            - mb * w * w * (1.0 - w))
