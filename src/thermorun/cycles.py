"""Limit cycles: multiple shooting, Floquet stability, cycle continuation.

Periodic orbits are solved as a multiple-shooting boundary-value problem
(segment states plus the period as unknowns, phase pinned by an integral
condition against the seed) with the segment flows, transition matrices and
parameter sensitivities obtained from one stacked variational integration
per Newton iterate.  Seeds at fixed parameters are corrected by the damped
mode of the ``solvers`` Newton loop: its line search judges each trial on
that integration, and an accepted trial's integration also gives the next
step's Jacobian.  ``find_cycle`` doubles the segment count until the
period settles, seeding each doubled level with the converged coarser
orbit's flow sampled at the new segment starts, so that level's Newton loop
mostly only confirms the orbit.  Floquet multipliers come from the
monodromy matrix accumulated in legs around the orbit, each leg's ends on a
uniform sample grid of the period, with the determinant identity against
exp(integral of the Jacobian trace) kept as a consistency defect.  Every
integration is an event-free ``simulate.lsoda`` run; an orbit's u extrema
are located between its mesh samples by a Newton iteration in time.  Every
run holds the states to the shooting tolerances ``SHOOT_RTOL`` and
``SHOOT_ATOL``.  The stacked shoot's transition matrices and u_a
sensitivity only build Newton's Jacobian and the continuation tangent, so
they are held to the looser ``VARIATIONAL_RTOL`` and ``VARIATIONAL_ATOL``:
an inexact Jacobian leaves the root where the state residual puts it.
``floquet``'s legs, the orbit mesh and extremum runs and the sampled seeds
are outputs, and keep the shooting tolerances throughout.
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
from .simulate import lsoda
# Nothing here integrates through solve_ivp: only the benchmark tracer reads
# this name, until it spans lsoda instead (ROADMAP item A).
from .simulate import solve_ivp  # noqa: F401
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
# The shoot's M and zeta rows, which only build Jacobians: an order inside
# FOLD_PARAM_TOL keeps the tangents and the Hermite fold to it, at the
# shooting tolerances' atol/rtol ratio.
VARIATIONAL_RTOL = FOLD_PARAM_TOL / 10
VARIATIONAL_ATOL = VARIATIONAL_RTOL * SHOOT_ATOL / SHOOT_RTOL
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


def _check_period(period: float) -> None:
    if not (math.isfinite(period) and period > 0):
        raise ValidationError("period", f"must be finite and positive, got {period!r}")


@dataclass(frozen=True)
class CycleSeed:
    """A sampled approximation of one period, used to start the BVP solve."""

    times: np.ndarray   # ascending, spanning [0, period]
    states: np.ndarray  # shape (k, 2)
    period: float

    def __post_init__(self):
        _check_period(self.period)

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


def _flow(rhs, jac, y0, ts, what: str, rtol=SHOOT_RTOL,
          atol=SHOOT_ATOL) -> np.ndarray:
    """``lsoda`` at ``rtol`` and ``atol``, scalars or one per component, by
    default the scalar shooting tolerances; a failed integration is a
    :class:`ConvergenceError` naming ``what``."""
    try:
        return lsoda(rhs, jac, y0, ts, rtol, atol)
    except IntegrationFailure as exc:
        raise ConvergenceError(f"{what} failed: {exc}") from None


# ---------------------------------------------------------------------------
# Stacked segment integration


def _stacked_rhs(p: ModelParams, m: int, h: float, sens: bool):
    """RHS of the stacked segment system on the unit interval.

    Per-segment layout: y (2), then the rows of M, flattened, without
    ``sens`` and the rows of [M | zeta] with it, (M00, M01, zeta0, M10,
    M11, zeta1): zeta is the sensitivity by u_a, whose field derivative is
    the constant row (0, loss/eps).

    The field and the Jacobian are linear in seven features of the state,
    phi = (1, x - 1, u - u_a, r, r', x r, x r'), with r = sigma e^(-1/a),
    r' = r / a^2 and a = max(u, ``U_FLOOR``) (``model._jet``'s r and r' for
    every finite u, where ``model._expu`` branches instead of clamping).
    So one call fills the (7, m) features with eight ufuncs and multiplies
    them by a (6, 7) coefficient matrix, built once with h folded in, to
    get h (dx, du, J00, J01, J10, J11) for every segment, as ``model._jet``
    gives them for one; one stacked product of h J with the 2 x 2 M or
    the 2 x 3 [M | zeta] gives h J M and h J zeta together, and with
    ``sens`` the constant h loss/eps is added to the last component.  That
    is 12 numpy calls per evaluation with ``sens`` and 11 without, where
    one ufunc per operation of the field took 30 and 26: at m = 12 the
    kernel is bound by numpy's per-call dispatch, not by arithmetic.

    BLAS, which the products go through, fixes no order of summation and
    may fuse a multiply and an add, so the bits are not those of the
    per-operation reference (``stacked_rhs_allocating`` in
    ``tests/conftest.py``); each component is within the forward error
    bound of a sum of rounded products of it.  The work arrays are
    allocated once per closure.  The derivative returned is one of them,
    overwritten by the next call: that is safe only because ``odeint``
    (like scipy's ``LSODA``) copies it before it calls again.  A caller
    that keeps one must copy it.
    """
    width = 8 if sens else 6
    f, eps, loss = p.f, p.eps, p.loss
    # 0-d arrays, not floats: a ufunc converts a Python float operand anew
    # on every call.
    sigma, minus_one, floor = map(np.array, (p.sigma, -1.0, U_FLOOR))
    # Rows h (dx, du, J00, J01, J10, J11) over the columns of phi.
    coef = h * np.array([
        [0.0, -f, 0.0, 0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, -loss / eps, 0.0, 0.0, 1.0 / eps, 0.0],
        [-f, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 0.0, 1.0 / eps, 0.0, 0.0, 0.0],
        [-loss / eps, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0 / eps]])
    shift = np.array([[1.0], [p.u_a]])
    hdfdp = np.array(h * (loss / eps))
    phi = np.empty((7, m))
    phi[0] = 1.0
    r, rp = phi[3], phi[4]
    a, e = np.empty((2, m))
    field_jac = np.empty((6, m))
    hJ = field_jac[2:6].T.reshape(m, 2, 2)
    out = np.empty((m, width))
    # Views, as every split of a contiguous axis is: the state's block and
    # the rows of M or [M | zeta] of the derivative.
    cols = (width - 2) // 2
    dy, dW = out[:, 0:2].T, out[:, 2:].reshape(m, 2, cols)
    dz1 = out[:, 7] if sens else None
    flat = out.reshape(m * width)

    def rhs(s, Y):
        Z = Y.reshape(m, width)
        xu = Z[:, 0:2].T
        np.maximum(xu[1], floor, out=a)
        np.divide(minus_one, a, out=e)
        np.exp(e, out=e)
        np.multiply(sigma, e, out=r)
        np.multiply(a, a, out=a)
        np.divide(r, a, out=rp)
        np.subtract(xu, shift, out=phi[1:3])
        np.multiply(xu[0], phi[3:5], out=phi[5:7])
        np.matmul(coef, phi, out=field_jac)
        np.copyto(dy, field_jac[0:2])
        np.matmul(hJ, Z[:, 2:].reshape(m, 2, cols), out=dW)
        if sens:
            np.add(dz1, hdfdp, out=dz1)
        return flat

    return rhs, width


def _stacked_jac(p: ModelParams, m: int, h: float, sens: bool):
    """Jacobian of ``_stacked_rhs``: one block per segment on the diagonal.

    All blocks are formed at once and returned in a dense matrix; a banded
    one would change the rounding of LSODA's LU.  The rows of M, or of
    [M | zeta] with ``sens``, are W, whose derivative is J W plus, in the
    last component, a constant: so the block holds the Hessian term
    d(J W)/dy and kron(J, I) on W.
    """
    width = 8 if sens else 6
    cols = (width - 2) // 2
    seg = np.arange(m)
    eye = np.eye(cols)
    field_jac = model._callbacks(p)[2]

    def jac(s, Y):
        Z = Y.reshape(m, width)
        # Per segment: J from the scalar kernel, and the Hessian, which
        # keeps rho_derivs' math.exp bits.
        Js, Bs = [], []
        for x, u in Z[:, 0:2].tolist():
            Js.append(field_jac(x, u)[2:])
            Bs.append(model._hessian_xu(p, x, u))
        J = np.array(Js).reshape(m, 2, 2)
        B = np.array(Bs)
        blk = np.zeros((m, width, width))
        blk[:, 0:2, 0:2] = h * J
        # d(J W)/dy via the Hessian tensor.
        dJW = np.einsum("mjla,mlk->mjka", B, Z[:, 2:].reshape(m, 2, cols))
        blk[:, 2:, 0:2] = h * dJW.reshape(m, 2 * cols, 2)
        # kron(J, I) per segment; a product, as np.kron forms it, keeps the
        # signs of its zeros.
        blk[:, 2:, 2:] = h * (J[:, :, None, :, None]
                              * eye[:, None, :]).reshape(m, 2 * cols, 2 * cols)
        out = np.zeros((m * width, m * width))
        out.reshape(m, width, m, width)[seg, :, seg, :] = blk
        return out

    return jac


def _shoot(p: ModelParams, starts: np.ndarray, T: float, sens: bool = False):
    """Flow all segments over T/m; return endpoints and variational data,
    with the sensitivities by u_a when ``sens`` is set.

    Each segment's state rows are held to ``SHOOT_RTOL`` and ``SHOOT_ATOL``:
    the matching residual, and so the converged orbit, is made of them.
    Its M and zeta rows only build Newton's Jacobian and the continuation
    tangent, and are held to ``VARIATIONAL_RTOL`` and ``VARIATIONAL_ATOL``;
    at the tighter tolerances they would set LSODA's step sizes.  Each
    segment's rows follow ``_stacked_rhs``: y, then the rows of M, or of
    [M | zeta] with ``sens``, which start from [I | 0].
    """
    m = len(starts)
    h = T / m
    rhs, width = _stacked_rhs(p, m, h, sens)
    jac = _stacked_jac(p, m, h, sens)
    cols = (width - 2) // 2
    Y0 = np.zeros((m, width))
    Y0[:, 0:2] = starts
    Y0[:, 2:].reshape(m, 2, cols)[:, :, 0:2] = np.eye(2)
    rtol = np.full((m, width), VARIATIONAL_RTOL)
    atol = np.full((m, width), VARIATIONAL_ATOL)
    rtol[:, 0:2], atol[:, 0:2] = SHOOT_RTOL, SHOOT_ATOL
    Z = _flow(rhs, jac, Y0.ravel(), [0.0, 1.0], "variational integration",
              rtol.ravel(), atol.ravel())[-1].reshape(m, width)
    W = Z[:, 2:].reshape(m, 2, cols)
    ends = Z[:, 0:2].copy()
    Ms = W[:, :, 0:2].copy()
    zetas = W[:, :, 2].copy() if sens else None
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
    return np.array([model._field_scalar(p, x, u) for x, u in states.tolist()])


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
"""A Floquet leg spans at most this much of int |trace J|, unless it is a
single sample interval, so every leg's transition-matrix determinant stays
well-conditioned."""


def floquet(p: ModelParams, y0: np.ndarray,
            period: float) -> tuple[tuple[float, float], float]:
    """Floquet multipliers of the periodic orbit through ``y0`` with
    ``period``, and the Liouville defect.

    Integrates the variational equations around the orbit at the shooting
    tolerances ``SHOOT_RTOL`` and ``SHOOT_ATOL`` in legs, each restarted
    from the identity (strongly contracting relaxation orbits would
    otherwise lose the tiny determinant to cancellation).  One run over the
    ``MESH_SAMPLES + 1`` uniform times of [0, period] places the legs: each
    ends at the last sample whose int |trace J| since the leg's start is
    within ``LEG_TRACE_BUDGET``, and spans at least one interval.  That run
    gives the first leg; each later leg is one more run over its own
    samples, from the state where the leg before it ended (starting from
    the first run's state at that sample makes near-homoclinic orbits'
    multipliers up to 20 times less accurate).  A single interval over the
    budget is cut the same way on its own uniform grid.  The RHS works on
    Python floats, with J M written out as sums of products: each entry is
    within the forward error bound of a two-term dot product, as a matmul's
    is, and the multipliers agree with a DOP853 reference as closely.  The
    monodromy matrix is the ordered product of the legs, its determinant
    the product of well-conditioned leg determinants.  The defect reported
    is the relative mismatch between that determinant and exp(integral of
    trace J), an identity in exact arithmetic.  Returns ((trivial,
    nontrivial), defect), trivial being the multiplier closest to unity.
    """
    # State layout: y (2), M (4), q = int trace, qa = int |trace|.
    field_jac = model._callbacks(p)[2]

    def rhs(t, Y):
        x, u, m00, m01, m10, m11, _, _ = Y.tolist()
        fx, fu, a, b, c, d = field_jac(x, u)
        tr = a + d
        return (fx, fu, a * m00 + b * m10, a * m01 + b * m11,
                c * m00 + d * m10, c * m01 + d * m11, tr, abs(tr))

    def jac(t, Y):
        x, u = float(Y[0]), float(Y[1])
        J = np.array(field_jac(x, u)[2:]).reshape(2, 2)
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

    def run(y, ts):
        Y0 = np.concatenate([y, np.eye(2).ravel(), [0.0, 0.0]])
        return _flow(rhs, jac, Y0, ts, "variational integration")

    def legs(y, t0, t1):
        """The last row of each leg of the flow from ``y`` over [t0, t1]."""
        ts = np.linspace(t0, t1, MESH_SAMPLES + 1)
        Z = run(y, ts)
        s = 0
        while s < MESH_SAMPLES:
            # The leg ends just before the first sample past the budget.
            over = np.flatnonzero(Z[s + 1:, 7] - Z[s, 7] > LEG_TRACE_BUDGET)
            e = s + int(over[0]) if over.size else MESH_SAMPLES
            if e == s:
                for end in legs(y, ts[s], ts[s + 1]):
                    yield end
                e = s + 1
            else:
                end = Z[e] if s == 0 else run(y, ts[s:e + 1])[-1]
                yield end
            y, s = end[0:2], e

    Mtot = np.eye(2)
    log_det = 0.0
    det_sign = 1.0
    q_total = 0.0
    for Z in legs(np.array(y0, dtype=float), 0.0, period):
        Mk = Z[2:6].reshape(2, 2)
        Mtot = Mk @ Mtot
        det_k = float(np.linalg.det(Mk))
        if det_k == 0.0:
            raise ConvergenceError("degenerate variational leg")
        det_sign *= math.copysign(1.0, det_k)
        log_det += math.log(abs(det_k))
        q_total += float(Z[6])

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

    Returns the uniform mesh (the orbit an :class:`Orbit` carries) and the u
    extrema.  Each extremum is bracketed by a sign change of du/dt between
    two samples of one run over the ``MESH_SAMPLES + 1`` uniform times of
    [0, T], and located by a safeguarded Newton iteration in t on
    du/dt = 0, with d2u/dt2 = c fx + d fu from ``field_jac``: a step that
    leaves the bracket bisects it instead, and each iterate is a short run
    from the sample that opens the bracket.  The search stops when the
    bracket or the Newton step is within 4 eps of t, as ``brentq`` does.
    """
    rhs, jac, field_jac = model._callbacks(p)
    ts = np.linspace(0.0, T, MESH_SAMPLES + 1)
    states = _flow(rhs, jac, y0, ts, "orbit sampling")
    mesh = states[:-1].copy()
    du = np.array([field_jac(x, u)[1] for x, u in states.tolist()])
    us = mesh[:, 1].tolist()
    tol = 4 * np.finfo(float).eps
    for i in np.flatnonzero(np.sign(du[:-1]) * np.sign(du[1:]) < 0):
        a, b, t, y = ts[i], ts[i + 1], ts[i], states[i]
        while True:
            fx, fu, _, _, c, d = field_jac(*y.tolist())
            if (fu < 0) == (du[i] < 0):
                a = t
            else:
                b = t
            ddu = c * fx + d * fu
            step = -fu / ddu if ddu else math.inf
            if fu == 0 or min(b - a, abs(step)) <= tol * (1 + abs(t)):
                break
            t = t + step if a < t + step < b else 0.5 * (a + b)
            y = _flow(rhs, jac, states[i], [ts[i], t], "orbit sampling")[-1]
        us.append(float(y[1]))
    return mesh, min(us), max(us)


def _make_orbit(p: ModelParams, starts: np.ndarray, T: float, res: float) -> Orbit:
    """The :class:`Orbit` of a corrected solution: mesh, extrema, Floquet data."""
    mults, defect = floquet(p, starts[0], T)
    mesh, min_u, max_u = _finalize_orbit(p, starts[0], T)
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
                               s_h).trace for sgn in (+1, -1))
    return l1, (tr_p - tr_m) / (4 * dp)


def _germ_seeds(p: ModelParams, hopf: SpecialPoint):
    """The seeds near the Hopf point ``hopf`` of a branch of ``p``:
    ``(germ, delta0)``, where ``germ(delta)`` is :func:`hopf_germ` at the
    offset ``delta`` and ``delta0`` the offset whose germ radius is
    ``GERM_RADIUS``.  The Lyapunov coefficient and the crossing speed, two
    steady solves, are computed once for every germ.
    """
    p = p.with_(u_boil=math.inf)
    name = hopf.param_name
    p_h = p.with_(**{name: hopf.param_value})
    s_h = (hopf.state.x, hopf.state.u)
    omega = math.sqrt(hopf.det)
    l1, re_lam_prime = _hopf_crossing(p, hopf)

    def germ(delta: float) -> tuple[ModelParams, CycleSeed]:
        if delta <= 0:
            raise GermError("germ offset must be positive")
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
        qv, _ = _complex_pair(model.jacobian(p_h, s_h), omega)
        period = 2 * math.pi / omega
        ts = np.linspace(0.0, period, GERM_SAMPLES, endpoint=False)
        z = r * np.exp(1j * omega * ts)
        states = np.array(s_h)[None, :] + 2 * np.real(z[:, None] * qv[None, :])
        p_off = p.with_(**{name: hopf.param_value + side * delta})
        return p_off, CycleSeed(ts, states, period)

    delta0 = GERM_RADIUS ** 2 * omega * abs(l1) / max(abs(re_lam_prime), 1e-300)
    return germ, delta0


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
    return _germ_seeds(p, hopf)[0](delta)


def _sample_flow(p: ModelParams, y0, period: float, n: int) -> CycleSeed:
    """The flow from ``y0`` at ``n`` uniform times over [0, ``period``), one
    event-free integration at the shooting tolerances."""
    _check_period(period)
    rhs, jac, _ = model._callbacks(p)
    ts = np.linspace(0.0, period, n, endpoint=False)
    return CycleSeed(ts, _flow(rhs, jac, y0, ts, "seed sampling"), period)


def seed_from_simulation(p: ModelParams, state, period: float) -> CycleSeed:
    """Sample one period of the flow from a settled point on a cycle.

    Raises :class:`ValidationError` unless ``period`` is finite and positive.
    """
    return _sample_flow(p, model._as_state(state), period, SEED_SAMPLES)


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
    the returned orbit's discretization is self-validated.  Each doubled
    level starts from the converged coarser orbit itself, its flow from the
    first segment start sampled at the 2m new start times, so its first
    residual is that orbit's own and usually already meets ``CYCLE_TOL``;
    the mesh, extrema and Floquet data are computed for the returned orbit
    alone.  Raises :class:`ValidationError` for fewer than 10 segments,
    :class:`GermError` for degenerate seeds and :class:`ConvergenceError`
    when Newton fails (with the final residual).
    """
    if m < 10:
        raise ValidationError("m", f"need at least 10 segments, got {m}")
    starts, T, res = _solve_cycle_raw(p, seed, m)
    while 2 * m <= FIND_CYCLE_M_MAX:
        m *= 2
        coarse_T = T
        starts, T, res = _solve_cycle_raw(p, _sample_flow(p, starts[0], T, m), m)
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


def check_branch_options(m: int, max_orbits: int) -> None:
    """Raise :class:`ValidationError` for fewer than 10 segments ``m`` or a
    ``max_orbits`` below the two germ orbits a cycle branch starts from."""
    if m < 10:
        raise ValidationError("m", f"need at least 10 segments, got {m}")
    if max_orbits < 2:
        raise ValidationError("max_orbits", "the branch starts from two germ "
                              f"orbits, so need at least 2, got {max_orbits}")


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
    corrector failure (truncated branch) or at ``max_orbits``.  A Hopf
    point of a branch in any other parameter, fewer than 10 segments ``m``
    or a ``max_orbits`` below the two germ orbits raises
    :class:`ValidationError`.
    """
    if from_hopf.kind != "hopf":
        raise NotAHopfError("cycle continuation must start from a hopf point")
    if from_hopf.param_name != "u_a":
        raise ValidationError("from_hopf", "cycle branches are continued in "
                              f"u_a, not in {from_hopf.param_name!r}")
    check_branch_options(m, max_orbits)
    p = p.with_(u_boil=math.inf)
    lo, hi = float(prange[0]), float(prange[1])

    # Germ offset sized so the first orbit has a workable radius.
    seeds, delta0 = _germ_seeds(p, from_hopf)

    def germ(delta):
        p_off, seed = seeds(delta)
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
