"""Steady states: solving, stability, one-parameter branches, Hopf
classification.

Steady states of the reactor equations are computed by damped Newton (the
halving line-search mode of the one ``solvers`` Newton loop) and,
independently, by bracketing the reduced one-variable heat balance.  A
one-parameter branch is an explicit curve in the steady temperature u:
x = f/(f + rho(u)), and the heat balance gives the parameter in closed
form (a quadratic's root for the flow rate).  Branches are walked along
that curve through folds, with no corrector; fold and Hopf points are sign
changes of the determinant and trace of the Jacobian between neighbouring
points, bisected in u, and Hopf points are classified by the sign of the
first Lyapunov coefficient (positive = subcritical, the emergent cycle is
unstable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import model
from .errors import ConvergenceError, NotAHopfError, ValidationError
from .model import ModelParams, State
from .solvers import _solve, bisect_root, bracket_roots, damped_newton

STEADY_TOL = 1e-12
# continue_branch's largest scaled step, and step budget.
BRANCH_DS_MAX = 1e-2
BRANCH_MAX_STEPS = 3000
HOPF_TRACE_TOL = 1e-8

STABLE = "stable"
UNSTABLE = "unstable"
SADDLE = "saddle"

ACTIVE_PARAMS = model.CONTINUABLE_PARAMS


@dataclass(frozen=True)
class SteadyPoint:
    """A converged steady state with its linearization data: the trace and
    determinant of J, which fix its eigenvalues, and the stability label
    they give."""

    state: State
    param_name: str
    param_value: float
    trace: float
    det: float
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


def _steady_point(x: float, u: float, name: str, value: float, tr: float,
                  det: float, fx: float, fu: float) -> SteadyPoint:
    return SteadyPoint(State(min(max(x, 0.0), 1.0), u), name, value, tr, det,
                       classify_stability(tr, det), max(abs(fx), abs(fu)))


def _make_point(p: ModelParams, x: float, u: float,
                param_name: str = "u_a") -> SteadyPoint:
    x, u = float(x), float(u)
    tr, det = model.trace_det(p, (x, u))
    return _steady_point(x, u, param_name, float(getattr(p, param_name)),
                         tr, det, *model._field_scalar(p, x, u))


def solve_steady(p: ModelParams, guess) -> SteadyPoint:
    """Damped Newton (halving line search) to residual < 1e-12; the point is
    labelled by its u_a."""
    x0, u0 = model._as_state(guess)

    def fn(y):
        return np.array(model._field_scalar(p, *y.tolist()))

    def jac(y):
        return np.array(model._jac_scalar(p, *y.tolist()))

    y = damped_newton(fn, np.array([x0, u0]), jac=jac, tol=STEADY_TOL, max_iter=50)
    # A residual below STEADY_TOL still leaves u up to STEADY_TOL / |J| off
    # the root: some 1e-12 of a temperature near 0.03.  One more full Newton
    # step takes that out where it lowers the residual.  A step below 1e-13
    # (of x's unit range, of u) is rounding and is not taken, so a start on
    # a root comes back unchanged.
    r = fn(y)
    try:
        step = _solve(jac(y), -r)
    except np.linalg.LinAlgError:
        step = np.zeros(2)
    if abs(step[0]) > 1e-13 or abs(step[1]) > 1e-13 * y[1]:
        polished = y + step
        if np.max(np.abs(fn(polished))) <= np.max(np.abs(r)):
            y = polished
    return _make_point(p, y[0], y[1])


def reduced_scan(p: ModelParams, u_lo: float, u_hi: float,
                 n: int = 10000) -> list[SteadyPoint]:
    """All steady states in a temperature window, by bracketing + bisection,
    each labelled by its u_a.

    Works on the reduced balance h(u) with the concentration eliminated at
    its quasi-steady value; independent of the Newton path.
    """
    if u_lo >= u_hi:
        raise ValidationError("u_lo", "window must satisfy u_lo < u_hi")
    roots = bracket_roots(lambda u: model.reduced_balance(p, u),
                          np.linspace(u_lo, u_hi, n))
    return [_make_point(p, float(model.quasi_steady_x(p, u)), u) for u in roots]


# ---------------------------------------------------------------------------
# One-parameter branches


def _f_quadratic(p: ModelParams, u: float, r: float) -> tuple[float, ...]:
    """(a, b, c, discriminant): the heat balance at temperature u as
    a f^2 + b f + c = 0 in the flow rate, with r = sigma e^(-1/u)."""
    w = u - p.u_a
    a, b, c = p.eps * w, (p.eps * r + p.ell) * w - r, p.ell * w * r
    return a, b, c, b * b - 4.0 * a * c


def _curve(p: ModelParams, active: str, u: float,
           root: int) -> tuple[float, float, float, float]:
    """(x, value of ``active``, e^(-1/u), discriminant) of the steady state
    at temperature u, the other parameters fixed at ``p``'s.

    The heat balance x r = (eps f + ell)(u - u_a), with x = f/(f + r) and
    r = sigma e^(-1/u), is linear in u_a, ell and eps, gives sigma through r,
    and is a quadratic in f; ``root`` = 1 takes its larger root, -1 the
    smaller; the discriminant is its (0 for the other parameters).
    """
    expu = model._expu(u)
    w = u - p.u_a
    if active == "sigma":
        r = p.f * p.loss * w / (p.f - p.loss * w)
        return p.f / (p.f + r), r * math.exp(1.0 / u), expu, 0.0
    r = p.sigma * expu
    if active == "f":
        a, b, c, disc = _f_quadratic(p, u, r)
        q = 0.5 * (math.sqrt(max(disc, 0.0)) - b)
        f = q / a if root > 0 else c / q
        return f / (f + r), f, expu, disc
    x = p.f / (p.f + r)
    if active == "u_a":
        return x, u - x * r / p.loss, expu, 0.0
    if active == "ell":
        return x, x * r / w - p.eps * p.f, expu, 0.0
    return x, (x * r / w - p.ell) / p.f, expu, 0.0


def _tangent(active: str, args: tuple, jet: tuple) -> tuple[float, float]:
    """(dx/du, d(value of ``active``)/du) along the steady curve through the
    state of ``model._jet(*args)`` = ``jet``, by implicit differentiation."""
    _, _, a, b, c, d = jet
    e, g = model._dfdp(active, *args)
    m = a * g - e * c
    return (e * d - b * g) / m, (c * b - a * d) / m


def continue_branch(p: ModelParams, active: str = "u_a",
                    prange: tuple[float, float] = None, ds0: float = 1e-3) -> Branch:
    """Trace a steady branch over a parameter range along its curve in u.

    With the other parameters fixed, x and the parameter's value are
    explicit functions of the steady temperature u (:func:`_curve`), so
    every point is exact.  The walk starts from the lowest-temperature
    steady state at the lower end of the range, steps u
    in the direction of increasing parameter, and ends where the parameter
    first leaves the range, on the crossing itself (folds are passed, so
    the exit may be at either end).  Each step is ``ds`` long along the
    curve's tangent in the metric that scales x by 1, u by f/loss and the
    parameter by the range width: ``ds0``, then 1.4 times the last, at most
    ``BRANCH_DS_MAX``.  A flow-rate branch follows one root of its
    quadratic; where the two roots meet it moves onto the other and turns
    back in u.  Fold points are sign changes of det J between neighbouring
    points, Hopf points sign changes of the trace with det > 0 at the root;
    both are bisected in u on the curve.  Each evaluation takes one
    e^(-1/u), shared by the curve, ``model._jet`` and :func:`_tangent` (a
    sigma branch's value takes one more), and builds no parameter set.
    With the reaction off (sigma = 0), an f, ell or eps branch is the state
    (1, u_a) at 101 evenly spaced values.  A ``ds0`` that is not finite and
    positive raises :class:`ValidationError`.
    """
    if active not in ACTIVE_PARAMS:
        raise ValidationError("active", f"must be one of {ACTIVE_PARAMS}")
    if prange is None or prange[0] >= prange[1]:
        raise ValidationError("prange", "need a (lo, hi) range with lo < hi")
    if not (math.isfinite(ds0) and ds0 > 0):
        raise ValidationError("ds0", f"must be finite and positive, got {ds0!r}")
    # The boiling threshold constrains simulations, not steady analysis.
    p = p.with_(u_boil=math.inf)
    lo, hi = float(prange[0]), float(prange[1])
    if p.sigma == 0 and active in ("f", "ell", "eps"):
        # No reaction: (x, u) = (1, u_a) at every value, no curve in u.
        return Branch(active, tuple(
            _make_point(p.with_(**{active: lo + k / 100 * (hi - lo)}), 1.0,
                        p.u_a, active) for k in range(101)), (), "window boundary")

    q = p.with_(**{active: lo})
    seeds = reduced_scan(q, q.u_a, q.u_a + q.f / q.loss * (1 + 1e-9), n=4000)
    if not seeds:
        raise ConvergenceError(f"no steady state found at {active} = {lo}")

    vals = [p.f, p.ell, p.eps, p.u_a, p.sigma]  # model._jet's parameters
    k = ("f", "ell", "eps", "u_a", "sigma").index(active)

    def at(u, root, curve=None):
        """(x, value, trace, det, model._jet's arguments and result) at u;
        p.with_ is built only outside [lo, hi], where it may raise."""
        x, value, expu, _ = curve or _curve(p, active, u, root)
        if not lo <= value <= hi:
            p.with_(**{active: value})
        vals[k] = value
        args = (*vals, x, u, expu)
        jet = model._jet(*args)
        _, _, a, b, c, d = jet
        return x, value, a + d, a * d - b * c, args, jet

    def disc(u):
        return _f_quadratic(p, u, p.sigma * model._expu(u))[3]

    u = seeds[0].state.u  # and below, the root of f's quadratic through it
    root = min((1, -1), key=lambda k: abs(_curve(p, active, u, k)[1] - lo))
    x, value, tr, det, args, jet = at(u, root)
    points, roots = [_steady_point(x, u, active, value, tr, det, *jet[:2])], []
    u_scale = max(p.f / p.loss, 1e-6)
    direction = 1.0 if _tangent(active, args, jet)[1] >= 0 else -1.0
    ds, du = ds0, 0.0  # du: a u-step set in advance, back from a turn
    stop_reason = "max steps"
    while len(points) <= BRANCH_MAX_STEPS:
        if not du:
            dx, dv = _tangent(active, args, jet)
            du = ds / math.sqrt(dx * dx + u_scale ** -2 + (dv / (hi - lo)) ** 2)
        u_next, du = u + direction * du, 0.0
        if u_next == u:  # below u's resolution: u barely moves on the branch
            u_next = math.nextafter(u, direction * math.inf)
        curve = _curve(p, active, u_next, root)
        if curve[3] < 0:
            # Past the roots' meeting point: step onto it, then back over
            # the same u-step on the other root.
            u_next = bisect_root(disc, u, u_next)
            du = abs(u_next - u)
            curve = _curve(p, active, u_next, root)
        value = curve[1]
        if not lo <= value <= hi:
            bound = lo if value < lo else hi
            u_next = bisect_root(
                lambda v: _curve(p, active, v, root)[1] - bound, u, u_next)
            stop_reason = "window boundary"
            if u_next == u:  # u's resolution puts the crossing on the last point
                break
            curve = None
        u = u_next
        x, value, tr, det, args, jet = at(u, root, curve)
        points.append(_steady_point(x, u, active, value, tr, det, *jet[:2]))
        roots.append(root)
        if stop_reason == "window boundary":
            break
        if du:
            root, direction = -root, -direction
        ds = min(BRANCH_DS_MAX, ds * 1.4)

    specials = []
    for i, (a, b) in enumerate(zip(points, points[1:])):
        for kind, j, ends in (("hopf", 2, (a.trace, b.trace)),
                              ("fold", 3, (a.det, b.det))):
            if not min(ends) < 0 < max(ends):
                continue
            v = bisect_root(lambda v: at(v, roots[i])[j], a.state.u, b.state.u)
            x, value, tr, det, _, _ = at(v, roots[i])
            sp = SpecialPoint(kind, active, value, State(min(max(x, 0.0), 1.0), v),
                              tr, det, after_index=i)
            if kind == "fold":
                specials.append(sp)
            elif det > 0:
                l1 = lyapunov_first_coeff(p, sp)
                specials.append(replace(
                    sp, l1=l1,
                    criticality="subcritical" if l1 > 0 else "supercritical"))

    return Branch(active, tuple(points), tuple(specials), stop_reason)


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
