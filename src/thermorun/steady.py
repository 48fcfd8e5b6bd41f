"""Steady states: solving, stability, continuation, Hopf classification.

Steady states of the reactor equations are computed by damped Newton (the
halving line-search mode of the one ``solvers`` Newton loop) and,
independently, by bracketing the reduced one-variable heat balance.  A
pseudo-arclength continuation traces branches through folds while watching
the fold and Hopf test functions (determinant and trace of the Jacobian);
detected special points are refined by bisection along the branch and Hopf
points are classified by the sign of the first Lyapunov coefficient
(positive = subcritical, the emergent cycle is unstable).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import model
from .errors import ConvergenceError, NotAHopfError, ValidationError
from .model import ModelParams, State
from .solvers import (ContinuationProblem, bracket_roots, continue_curve,
                      damped_newton, solve_pinned)

STEADY_TOL = 1e-12
BRANCH_TOL = 1e-10
# continue_branch's smallest and largest arclength step, and step budget.
BRANCH_DS_MIN = 1e-6
BRANCH_DS_MAX = 1e-2
BRANCH_MAX_STEPS = 3000
TEST_FN_TOL = 1e-10
HOPF_TRACE_TOL = 1e-8

STABLE = "stable"
UNSTABLE = "unstable"
SADDLE = "saddle"

ACTIVE_PARAMS = model.CONTINUABLE_PARAMS


@dataclass(frozen=True)
class SteadyPoint:
    """A converged steady state with its linearization data."""

    state: State
    param_name: str
    param_value: float
    trace: float
    det: float
    eigenvalues: tuple[complex, complex]
    stability: str
    residual: float


@dataclass(frozen=True)
class SpecialPoint:
    """A fold or Hopf point on a steady branch."""

    kind: str  # "fold" | "hopf"
    param_name: str
    param_value: float
    state: State
    trace: float
    det: float
    l1: float | None = None
    criticality: str | None = None  # "subcritical" | "supercritical"
    after_index: int | None = None  # branch point preceding this special


@dataclass(frozen=True)
class Branch:
    """An ordered continuation curve of steady states with special points."""

    param_name: str
    points: tuple[SteadyPoint, ...]
    specials: tuple[SpecialPoint, ...]
    stop_reason: str


def classify_stability(trace: float, det: float) -> str:
    if det < 0:
        return SADDLE
    return STABLE if trace < 0 else UNSTABLE


def _eigenvalues(trace: float, det: float) -> tuple[complex, complex]:
    disc = trace * trace - 4.0 * det
    if disc >= 0:
        r = math.sqrt(disc)
        return (complex((trace + r) / 2), complex((trace - r) / 2))
    r = math.sqrt(-disc)
    return (complex(trace / 2, r / 2), complex(trace / 2, -r / 2))


def _make_point(p: ModelParams, x: float, u: float,
                param_name: str = "u_a") -> SteadyPoint:
    x, u = float(x), float(u)
    tr, det = model.trace_det(p, (x, u))
    fx, fu = model._field_scalar(p, x, u)
    return SteadyPoint(
        state=State(min(max(x, 0.0), 1.0), u),
        param_name=param_name,
        param_value=float(getattr(p, param_name)),
        trace=tr, det=det,
        eigenvalues=_eigenvalues(tr, det),
        stability=classify_stability(tr, det),
        residual=max(abs(fx), abs(fu)),
    )


def solve_steady(p: ModelParams, guess, param_name: str = "u_a") -> SteadyPoint:
    """Damped Newton (halving line search) to residual < 1e-12."""
    x0, u0 = model._as_state(guess)

    def fn(y):
        return np.array(model._field_scalar(p, *y.tolist()))

    def jac(y):
        return np.array(model._jac_scalar(p, *y.tolist()))

    y = damped_newton(fn, np.array([x0, u0]), jac=jac, tol=STEADY_TOL, max_iter=50)
    return _make_point(p, y[0], y[1], param_name)


def reduced_scan(p: ModelParams, u_lo: float, u_hi: float,
                 n: int = 10000, param_name: str = "u_a") -> list[SteadyPoint]:
    """All steady states in a temperature window, by bracketing + bisection.

    Works on the reduced balance h(u) with the concentration eliminated at
    its quasi-steady value; independent of the Newton path.
    """
    if u_lo >= u_hi:
        raise ValidationError("u_lo", "window must satisfy u_lo < u_hi")
    roots = bracket_roots(lambda u: model.reduced_balance(p, u),
                          np.linspace(u_lo, u_hi, n))
    return [_make_point(p, float(model.quasi_steady_x(p, u)), u, param_name)
            for u in roots]


# ---------------------------------------------------------------------------
# One-parameter continuation


def _branch_params(p: ModelParams, active: str):
    """``value -> p`` with ``active`` set to value, built once per value."""
    return functools.cache(lambda value: p.with_(**{active: value}))


def _branch_problem(active: str, scales: np.ndarray, at) -> ContinuationProblem:
    """Steady system over y = (x, u, value of ``active``).

    ``at`` (a :func:`_branch_params`) maps the value to its parameter set,
    so the caller can share the problem's cache.
    """
    def residual(y):
        x, u, value = y.tolist()
        return np.array(model._field_scalar(at(value), x, u))

    def jacobian(y):
        x, u, value = y.tolist()
        q = at(value)
        (a, b), (c, d) = model._jac_scalar(q, x, u)
        e, g = model._param_derivative_scalar(q, x, u, active)
        return np.array([[a, b, e], [c, d, g]])

    return ContinuationProblem(residual, jacobian, scales)


def _refine_special(prob: ContinuationProblem, y0: np.ndarray, y1: np.ndarray,
                    test_fn) -> np.ndarray:
    """Bisect a test function between two branch points.

    The segment is parametrized by its fastest-changing scaled coordinate;
    each probe re-solves the steady equations with that coordinate pinned.
    """
    pivot = int(np.argmax(np.abs((y1 - y0) / prob.scales)))
    a, b = float(y0[pivot]), float(y1[pivot])
    ya, yb = y0.copy(), y1.copy()
    fa, fb = test_fn(ya), test_fn(yb)
    if fa == 0.0:
        return ya
    if fb == 0.0:
        return yb
    if fa * fb > 0:
        raise ConvergenceError("test function does not change sign on segment")
    y_best, f_best = (ya, fa) if abs(fa) < abs(fb) else (yb, fb)
    for _ in range(90):
        c = 0.5 * (a + b)
        if c == a or c == b:
            break
        w = (c - a) / (b - a) if b != a else 0.5
        y_guess = ya + w * (yb - ya)
        yc = solve_pinned(prob, y_guess, pivot, c, 1e-13, 29)
        fc = test_fn(yc)
        if abs(fc) < abs(f_best):
            y_best, f_best = yc, fc
        if abs(fc) <= TEST_FN_TOL:
            return yc
        if fa * fc < 0:
            b, yb, fb = c, yc, fc
        else:
            a, ya, fa = c, yc, fc
    return y_best


def continue_branch(p: ModelParams, active: str = "u_a",
                    prange: tuple[float, float] = None, ds0: float = 1e-3,
                    start: SteadyPoint | None = None) -> Branch:
    """Trace a steady branch over a parameter range by pseudo-arclength.

    Starts from ``start`` or from the lowest-temperature steady state at the
    lower end of the range, heads in the direction of increasing parameter,
    and runs until the parameter leaves the range (folds are traversed, so
    the exit may be at either end).  Fold points are flagged by a sign
    reversal of the parameter component of the branch tangent, Hopf points
    by a sign change of the Jacobian trace with positive determinant; both
    are refined by bisection of their test function along the branch.
    """
    if active not in ACTIVE_PARAMS:
        raise ValidationError("active", f"must be one of {ACTIVE_PARAMS}")
    if prange is None or prange[0] >= prange[1]:
        raise ValidationError("prange", "need a (lo, hi) range with lo < hi")
    # The boiling threshold constrains simulations, not steady analysis.
    p = p.with_(u_boil=math.inf)
    lo, hi = float(prange[0]), float(prange[1])

    if start is None:
        q = p.with_(**{active: lo})
        window = (q.u_a, q.u_a + q.f / q.loss * (1 + 1e-9))
        seeds = reduced_scan(q, window[0], window[1], n=4000, param_name=active)
        if not seeds:
            raise ConvergenceError(f"no steady state found at {active} = {lo}")
        start = seeds[0]
    y0 = np.array([start.state.x, start.state.u, start.param_value])

    u_scale = max(p.f / p.loss, 1e-6)
    scales = np.array([1.0, u_scale, hi - lo])
    at = _branch_params(p, active)
    prob = _branch_problem(active, scales, at)

    def stop(y):
        return "window boundary" if y[2] < lo - 1e-12 or y[2] > hi + 1e-12 else None

    run = continue_curve(prob, y0, initial_direction=np.array([0.0, 0.0, 1.0]),
                         ds0=ds0, ds_min=BRANCH_DS_MIN, ds_max=BRANCH_DS_MAX,
                         max_steps=BRANCH_MAX_STEPS, tol=BRANCH_TOL, stop=stop)

    points = []
    for y in run.points:
        points.append(_make_point(at(float(y[2])), y[0], y[1], active))

    def trace_of(y):
        return model.trace_det(at(float(y[2])), (y[0], y[1]))[0]

    def det_of(y):
        return model.trace_det(at(float(y[2])), (y[0], y[1]))[1]

    specials = []
    for i in range(len(run.points) - 1):
        ya, yb = run.points[i], run.points[i + 1]
        ta, tb = run.tangents[i], run.tangents[i + 1]
        pa, pb = points[i], points[i + 1]
        # Fold: parameter component of the tangent reverses.
        if ta[2] * tb[2] < 0:
            try:
                yf = _refine_special(prob, ya, yb, det_of)
                tr, det = model.trace_det(at(float(yf[2])), (yf[0], yf[1]))
                specials.append(SpecialPoint(
                    "fold", active, float(yf[2]),
                    State(float(np.clip(yf[0], 0, 1)), float(yf[1])), tr, det,
                    after_index=i))
            except ConvergenceError:
                pass
        # Hopf: trace changes sign while the determinant stays positive.
        if pa.trace * pb.trace < 0 and pa.det > 0 and pb.det > 0:
            try:
                yh = _refine_special(prob, ya, yb, trace_of)
            except ConvergenceError:
                continue
            q = at(float(yh[2]))
            tr, det = model.trace_det(q, (yh[0], yh[1]))
            if det > 0:
                sp = SpecialPoint(
                    "hopf", active, float(yh[2]),
                    State(float(np.clip(yh[0], 0, 1)), float(yh[1])), tr, det)
                l1 = lyapunov_first_coeff(q, sp)
                specials.append(replace(
                    sp, l1=l1,
                    criticality="subcritical" if l1 > 0 else "supercritical",
                    after_index=i))

    return Branch(active, tuple(points), tuple(specials), run.stop_reason)


# ---------------------------------------------------------------------------
# First Lyapunov coefficient


def _complex_pair(A: np.ndarray, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Right/adjoint eigenvectors q, p with A q = i w q, A^T p = -i w p, <p,q>=1."""
    if abs(A[0, 1]) >= abs(A[1, 0]):
        q = np.array([A[0, 1], 1j * omega - A[0, 0]], dtype=complex)
    else:
        q = np.array([1j * omega - A[1, 1], A[1, 0]], dtype=complex)
    q /= np.linalg.norm(q)
    if abs(A[1, 0]) >= abs(A[0, 1]):
        pv = np.array([A[1, 0], -(A[0, 0] + 1j * omega)], dtype=complex)
    else:
        pv = np.array([-(A[1, 1] + 1j * omega), A[0, 1]], dtype=complex)
    s = np.vdot(pv, q)  # conj(p) . q
    if s == 0:
        raise NotAHopfError("degenerate eigenvector normalization")
    pv = pv / np.conj(s)
    return q, pv


def planar_lyapunov_coefficient(A: np.ndarray, B: np.ndarray, C: np.ndarray,
                                omega: float) -> float:
    """First Lyapunov coefficient of a planar Hopf from derivative tensors.

    ``A`` is the Jacobian at the equilibrium (trace ~ 0, eigenvalues
    +/- i*omega), ``B`` and ``C`` the second- and third-derivative tensors.
    Positive result: subcritical (the emergent limit cycle is unstable).
    """
    q, pv = _complex_pair(A, omega)
    qb = np.conj(q)
    g20 = np.vdot(pv, np.einsum("ijk,j,k->i", B, q, q))
    g11 = np.vdot(pv, np.einsum("ijk,j,k->i", B, q, qb))
    g21 = np.vdot(pv, np.einsum("ijkl,j,k,l->i", C, q, q, qb))
    return float(np.real(1j * g20 * g11 + omega * g21) / (2.0 * omega ** 2))


def lyapunov_first_coeff(p: ModelParams, h: SpecialPoint) -> float:
    """First Lyapunov coefficient at a Hopf point of the reactor model.

    Uses the analytic second and third state derivatives.  Raises
    :class:`NotAHopfError` unless the trace is within 1e-8 of zero and the
    determinant is positive.
    """
    if h.kind != "hopf":
        raise NotAHopfError(f"special point is a {h.kind}, not a hopf")
    s = (h.state.x, h.state.u)
    q = p.with_(**{h.param_name: h.param_value})
    tr, det = model.trace_det(q, s)
    if abs(tr) > HOPF_TRACE_TOL or det <= 0:
        raise NotAHopfError(
            f"not a Hopf point: trace={tr:.3e}, det={det:.3e}")
    A = model.jacobian(q, s)
    B = model.second_derivatives(q, s)
    C = model.third_derivatives(q, s)
    return planar_lyapunov_coefficient(A, B, C, math.sqrt(det))
