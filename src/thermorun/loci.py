"""Two-parameter bifurcation loci over ambient temperature and flow rate.

Both loci are curves in the steady temperature u on the steady manifold
x = f/(f + rho), with u_a from the heat balance.  The Hopf locus is
explicit, f being a root of a quadratic at each u, and is walked in u from
:func:`_hopf_seed`'s point; the fold locus is traced by pseudo-arclength
continuation of {vector field = 0, det = 0} in (x, u, u_a, ln f) from a
root of the fold condition found by a flow-rate sweep.  A classifier
assigns regime labels to points of the plane by ray-parity against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import DomainError, ValidationError
from .model import ModelParams
from .solvers import ContinuationProblem, bisect_root, bracket_roots, continue_curve

LOCUS_TOL = 1e-10
# Both loci's first and largest arclength step, and step budget per direction.
LOCUS_DS0 = 1e-3
LOCUS_DS_MAX = 0.05
LOCUS_MAX_STEPS = 4000
CLOSURE_TOL = 1e-6
BOUNDARY_TOL = 1e-8
# Points of the u grid on which fold roots and the Hopf seed are bracketed.
U_GRID_POINTS = 2000

OSCILLATORY = "oscillatory-runaway"
BISTABLE = "bistable"
UNIQUE_STABLE = "unique-stable"
BOUNDARY = "boundary"


@dataclass(frozen=True)
class Window:
    """Search window: ambient-temperature and flow-rate intervals."""

    u_a: tuple[float, float]
    f: tuple[float, float]

    def __post_init__(self):
        if not (0 < self.u_a[0] < self.u_a[1] and 0 < self.f[0] < self.f[1]):
            raise ValidationError("window", "need 0 < u_a_lo < u_a_hi, 0 < f_lo < f_hi")

    def contains(self, u_a: float, f: float) -> bool:
        return (self.u_a[0] <= u_a <= self.u_a[1]
                and self.f[0] <= f <= self.f[1])


@dataclass(frozen=True)
class Locus:
    """A codimension-one bifurcation curve in the (u_a, f) plane.

    ``points`` rows are (u_a, f, x, u).  ``extra`` carries the complementary
    test function at each point (det along a Hopf locus, trace along a fold
    locus).  An empty locus explains itself through ``empty_reason``.
    """

    kind: str  # "hopf" | "fold"
    points: np.ndarray
    extra: np.ndarray
    stop_reasons: tuple[str, ...] = ()
    empty_reason: str = ""
    f_threshold: float | None = None

    def __len__(self) -> int:
        return len(self.points)


def _test_functions(f: float, ell: float, eps: float, u_a: float,
                    sigma: float, x: float, u: float):
    """Trace of the Jacobian, and its determinant with the gradient w.r.t.
    (x, u, u_a, f), at ``model._jet``'s parameter values (u_a is not
    read), from one ``rho_derivs`` evaluation."""
    if u <= 0:
        raise DomainError("rho requires u > 0")
    r, d1, _, _ = model._rho_derivs_raw(sigma, u)
    loss = eps * f + ell
    dd1 = r / u**4 - 2 * r / u**3  # d/du of rho/u^2
    tr = -(r + f) + (x * d1 - loss) / eps
    det = (loss * (r + f) - f * x * d1) / eps
    det_grad = (-f * d1 / eps,
                (loss * d1 - f * x * dd1) / eps,
                0.0,
                (eps * (r + f) + loss - x * d1) / eps)
    return tr, det, det_grad


def _params_at(p: ModelParams, u_a: float, f: float) -> tuple[float, ...]:
    """``model._jet``'s parameter values of ``p`` at (u_a, f).  Builds no
    parameter set where ``p.with_(u_a=u_a, f=f)`` would be valid, and
    builds it, to raise what it raises, everywhere else."""
    if not (0 < u_a < p.u_boil and f > 0):
        p.with_(u_a=u_a, f=f)
    return f, p.ell, p.eps, u_a, p.sigma


def _augmented_problem(p: ModelParams, scales: np.ndarray) -> ContinuationProblem:
    """{F = 0, det J = 0} over y = (x, u, u_a, ln f).

    Residual and Jacobian share one evaluation per iterate, kept for the
    last y by its bytes: ``model._jet``, :func:`_test_functions` and the
    two ``model._dfdp`` rows, at :func:`_params_at`'s values.
    """
    last = {"key": None}

    def at(y):
        key = y.tobytes()
        if last["key"] != key:
            x, u, u_a, ln_f = y.tolist()
            args = (*_params_at(p, u_a, math.exp(ln_f)), x, u)
            last.update(key=key, args=args, tests=_test_functions(*args),
                        jet=model._jet(*args, model._expu(u)))
        return last

    def residual(y):
        ev = at(y)
        fx, fu = ev["jet"][:2]
        return np.array([fx, fu, ev["tests"][1]])

    def jacobian(y):
        ev = at(y)
        args, (_, _, a, b, c, d), g = ev["args"], ev["jet"], ev["tests"][2]
        f = args[0]
        a0, a1 = model._dfdp("u_a", *args, 0.0)
        f0, f1 = model._dfdp("f", *args, 0.0)
        return np.array([[a, b, a0, f * f0],
                         [c, d, a1, f * f1],
                         [g[0], g[1], g[2], f * g[3]]])

    return ContinuationProblem(residual, jacobian, scales)


def _trace_locus(p: ModelParams, y0: np.ndarray, window: Window):
    """Run the fold continuation in both directions from a seed."""
    u_scale = max(p.f / p.loss, 1e-4)
    scales = np.array([1.0, u_scale, window.u_a[1] - window.u_a[0], 1.0])
    prob = _augmented_problem(p, scales)

    def stop(y):
        return None if window.contains(y[2], math.exp(y[3])) else "window boundary"

    halves, reasons = [], []
    for sign in (+1.0, -1.0):
        direction = np.array([0.0, 0.0, 0.0, sign])
        run = continue_curve(prob, y0, direction, ds0=LOCUS_DS0, ds_min=1e-9,
                             ds_max=LOCUS_DS_MAX, max_steps=LOCUS_MAX_STEPS,
                             tol=LOCUS_TOL, stop=stop)
        # Closure: returning to the seed closes the curve.
        pts = run.points
        for k in range(20, len(pts)):
            d = (pts[k] - y0) / scales
            if math.sqrt(d.dot(d)) < CLOSURE_TOL:
                pts = pts[:k + 1]
                run.stop_reason = "closed"
                break
        halves.append(pts)
        reasons.append(run.stop_reason)
        if run.stop_reason == "closed":
            return pts, ("closed",)
    return list(reversed(halves[1][1:])) + halves[0], tuple(reasons)


def _hopf_curve(p: ModelParams, u: float, root: int):
    """((u_a, f, x, u, det J), discriminant) of the Hopf point at steady
    temperature u: f is the larger (``root`` = 1) or smaller root of
    2 eps f^2 + (3 eps r + ell - r') f + r (eps r + ell), r = sigma e^(-1/u),
    r' = r/u^2, where tr J vanishes on x = f/(f + r)."""
    r = p.sigma * model._expu(u)
    rp = r / (u * u)
    a, b, c = 2.0 * p.eps, 3.0 * p.eps * r + p.ell - rp, r * (p.eps * r + p.ell)
    disc = b * b - 4.0 * a * c
    q = 0.5 * (math.sqrt(max(disc, 0.0)) - b)
    f = q / a if root > 0 else c / q
    x, loss = f / (f + r), p.eps * f + p.ell
    return (u - x * r / loss, f, x, u, (loss * (r + f) - f * x * rp) / p.eps), disc


def continue_hopf_locus(p: ModelParams, window: Window) -> Locus:
    """The Hopf locus through :func:`_hopf_seed`'s point (empty, with the
    reason, without one), walked both ways in u along :func:`_hopf_curve`
    on the seed's root, onto the other root where the two meet, with the
    fold continuation's step schedule and metric.  Each way ends, bisected
    in u, on the window boundary, where det J falls to 0 (a Bogdanov-Takens
    point), or back on the seed; each crossing of p.f is a bisected vertex."""
    p = p.with_(u_boil=math.inf)
    y0 = _hopf_seed(p, window)
    if y0 is None:
        reason = "no Hopf point found at the seed flow rate"
        if not window.f[0] <= p.f <= window.f[1]:
            reason = (f"the seed flow rate f = {p.f:g} lies outside the "
                      f"window's flow rates {window.f[0]:g}:{window.f[1]:g}")
        return Locus("hopf", np.empty((0, 4)), np.empty(0), empty_reason=reason)
    x0, u0, u_a0, _ = y0.tolist()
    seed = (u_a0, p.f, x0, u0,
            _test_functions(p.f, p.ell, p.eps, p.u_a, p.sigma, x0, u0)[1])
    root0 = min((1, -1), key=lambda k: abs(_hopf_curve(p, u0, k)[0][1] - p.f))
    scales = np.array([1.0, max(p.f / p.loss, 1e-4), window.u_a[1] - window.u_a[0], 1.0])

    def arm(direction, root=root0):
        rows, u, ds, du = [seed], u0, LOCUS_DS0, 0.0  # du: set back from a turn

        def at(s):  # the point, its scaled (x, u, u_a, ln f), the discriminant
            pt, disc = _hopf_curve(p, s, root)
            return pt, np.array([pt[2], s, pt[0], math.log(pt[1])]) / scales, disc

        def inside(s):
            u_a, f, _, _, det = at(s)[0]
            return det > 0 and window.contains(u_a, f)

        for _ in range(LOCUS_MAX_STEPS):
            h = direction * 1e-7 * u  # the tangent by a forward difference
            v = u + (direction * du or ds * h / np.linalg.norm(at(u + h)[1] - at(u)[1]))
            du = 0.0
            if at(v)[2] < 0:  # onto the roots' meeting point, back on the other
                v = bisect_root(lambda s: at(s)[2], u, v)
                du = abs(v - u)
            if root == root0 and u != u0 and (u - u0) * (v - u0) <= 0:
                return rows + [seed], "closed"
            reason = ""
            if not inside(v):
                v = bisect_root(lambda s: 1.0 if inside(s) else -1.0, u, v)
                v = v if inside(v) else math.nextafter(v, u)  # the last inside
                reason = ("determinant nonpositive (neutral saddle boundary)"
                          if at(math.nextafter(v, direction * math.inf))[0][4] <= 0
                          else "window boundary")
            if (rows[-1][1] - p.f) * (at(v)[0][1] - p.f) < 0:
                rows.append(at(bisect_root(lambda s: at(s)[0][1] - p.f, u, v))[0])
            rows.append(at(v)[0])
            if reason:
                return rows, reason
            if du:
                root, direction = -root, -direction
            u, ds = v, min(LOCUS_DS_MAX, ds * 1.4)
        return rows, "max steps"

    rows, reason = arm(1.0)
    reasons = (reason,)
    if reason != "closed":
        back, reason = arm(-1.0)
        rows, reasons = back[:0:-1] + rows, reasons + (reason,)
    rows = np.array(rows)
    return Locus("hopf", rows[:, :4], rows[:, 4], reasons)


def continue_fold_locus(p: ModelParams, window: Window) -> Locus:
    """Trace the fold locus from a seed hunted by a flow-rate sweep.

    When no fold exists anywhere in the window the result is empty, with the
    reason and the scanned threshold recorded.  Continuation runs both ways
    until the window boundary or closure of the curve.
    """
    p = p.with_(u_boil=math.inf)
    f_star = fold_threshold(p, window)
    seed = find_fold_seed(p, window)
    if seed is None:
        return Locus("fold", np.empty((0, 4)), np.empty(0),
                     empty_reason="no fold point in the window "
                                  f"(flow rates up to {window.f[1]:g} scanned)",
                     f_threshold=f_star)
    pts, reasons = _trace_locus(p, seed, window)
    rows = [[u_a, math.exp(ln_f), x, u] for x, u, u_a, ln_f in np.array(pts).tolist()]
    extra = [_test_functions(*_params_at(p, u_a, f), x, u)[0] for u_a, f, x, u in rows]
    return Locus("fold", np.array(rows), np.array(extra), reasons, f_threshold=f_star)


def _hopf_seed(p: ModelParams, window: Window) -> np.ndarray | None:
    """Lowest-temperature Hopf point (x, u, u_a, ln f) at the template's flow
    rate: the first root of tr J along the steady curve x = f/(f + rho), on
    :func:`_fold_roots_at_f`'s grid, with (u_a, f) in the window and det > 0."""
    def trace(u):  # u may be an array
        r = model.rho(p, u)
        return -(r + p.f) + (p.f / (p.f + r) * r / (u * u) - p.loss) / p.eps

    grid = np.linspace(window.u_a[0], window.u_a[1] + p.f / p.loss, U_GRID_POINTS)
    for u in bracket_roots(trace, grid):
        r = model.rho(p, u)
        x = p.f / (p.f + r)
        u_a = u - x * r / p.loss
        if (window.contains(u_a, p.f) and _test_functions(
                p.f, p.ell, p.eps, p.u_a, p.sigma, x, u)[1] > 0):
            return np.array([x, u, u_a, math.log(p.f)])
    return None


# ---------------------------------------------------------------------------
# Fold seeds


def _fold_condition(p: ModelParams, u):
    """u-derivative of the reduced balance; zero at a steady-state fold.

    ``u`` may be an array; raises :class:`DomainError` unless u > 0.
    """
    r = model.rho(p, u)
    d1 = r / (u * u)
    return p.f ** 2 * d1 / (p.f + r) ** 2 - p.loss


def _fold_roots_at_f(p: ModelParams, f: float, window: Window) -> list[np.ndarray]:
    """Fold points (x, u, u_a, ln f) at a fixed flow rate, inside the window."""
    q = p.with_(f=f, u_boil=math.inf)
    grid = np.linspace(window.u_a[0], window.u_a[1] + f / q.loss, U_GRID_POINTS)
    out = []
    for u in bracket_roots(lambda v: _fold_condition(q, v), grid):
        r = model.rho(q, u)
        r_g = q.f * r / (q.f + r)
        u_a = u - r_g / q.loss
        if window.u_a[0] <= u_a <= window.u_a[1]:
            x = q.f / (q.f + r)
            out.append(np.array([x, u, u_a, math.log(f)]))
    return out


def _f_sweep(window: Window, per_decade: int = 12) -> np.ndarray:
    decades = math.log10(window.f[1] / window.f[0])
    n = max(8, int(per_decade * decades) + 1)
    return np.geomspace(window.f[0], window.f[1], n)


def find_fold_seed(p: ModelParams, window: Window) -> np.ndarray | None:
    """First fold point found by a logarithmic sweep of the flow rate."""
    for f in _f_sweep(window):
        roots = _fold_roots_at_f(p, float(f), window)
        if roots:
            return roots[0]
    return None


def fold_threshold(p: ModelParams, window: Window) -> float | None:
    """Smallest flow rate in the window at which steady-state folds exist.

    Log-sweeps the window up to the first fold-bearing flow rate, then
    bisects the onset between it and the last fold-free one.  None when the
    window has no folds.
    """
    sweep = _f_sweep(window, per_decade=24)
    first = next((i for i, f in enumerate(sweep)
                  if _fold_roots_at_f(p, float(f), window)), None)
    if first is None:
        return None
    if first == 0:
        return float(sweep[0])
    lo, hi = float(sweep[first - 1]), float(sweep[first])
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if _fold_roots_at_f(p, mid, window):
            hi = mid
        else:
            lo = mid
        if hi / lo < 1 + 1e-12:
            break
    return hi


# ---------------------------------------------------------------------------
# Regime classification


def _row_hits(locus: Locus | None, uas: np.ndarray, f: float):
    """Boundary and parity flags of the points (uas, f) against one locus.

    ``near`` marks points within BOUNDARY_TOL of the polyline, the distance
    taken with f scaled by max(1, |f|); ``odd`` marks points whose ray
    towards lower u_a crosses it an odd number of times.  A segment is
    crossed when f lies in its half-open f-span, so a ray through a vertex
    counts once.  The distance is taken only to the segments whose scaled
    f-span reaches within 2 BOUNDARY_TOL of the row: on a finite polyline
    every other one is farther than its f-gap alone, far above rounding.
    All of ``uas`` are done at once, so temporaries are len(uas) x those
    segments.
    """
    if locus is None or len(locus) < 2:
        flat = np.zeros(len(uas), dtype=bool)
        return flat, flat
    a, b = locus.points[:, 0], locus.points[:, 1]
    a1, a2, b1, b2 = a[:-1], a[1:], b[:-1], b[1:]
    span = ((b1 <= f) & (f < b2)) | ((b2 <= f) & (f < b1))
    a1s, b1s = a1[span], b1[span]
    a_cross = a1s + (f - b1s) / (b2[span] - b1s) * (a2[span] - a1s)
    odd = np.count_nonzero(a_cross < uas[:, None], axis=1) % 2 == 1

    scale = max(1.0, abs(f))
    fs, sb = f / scale, b / scale
    sb1, sb2 = sb[:-1], sb[1:]
    gap = 2.0 * BOUNDARY_TOL
    close = ~((fs < np.minimum(sb1, sb2) - gap) | (fs > np.maximum(sb1, sb2) + gap))
    if not close.any():
        return np.zeros(len(uas), dtype=bool), odd
    a1, sb1 = a1[close], sb1[close]
    da, db = a2[close] - a1, sb2[close] - sb1
    denom = da * da + db * db
    pu, pf = uas[:, None] - a1, fs - sb1
    t = np.clip((pu * da + pf * db) / np.where(denom > 0, denom, 1.0), 0.0, 1.0)
    du, df = a1 + t * da - uas[:, None], sb1 + t * db - fs
    near = np.sqrt(du * du + df * df).min(axis=1) < BOUNDARY_TOL
    return near, odd


def _label_row(uas: np.ndarray, f: float, loci: dict[str, Locus]) -> list[str]:
    """Regime labels of the points (uas, f); see :func:`classify_point`."""
    hopf_near, hopf_odd = _row_hits(loci.get("hopf"), uas, f)
    fold_near, fold_odd = _row_hits(loci.get("fold"), uas, f)
    near = hopf_near | fold_near
    return [BOUNDARY if on else BISTABLE if in_fold else OSCILLATORY if in_hopf
            else UNIQUE_STABLE
            for on, in_fold, in_hopf in zip(near.tolist(), fold_odd.tolist(),
                                            hopf_odd.tolist())]


def classify_point(u_a: float, f: float, loci: dict[str, Locus]) -> str:
    """Regime label at a parameter point, from ray parity against the loci.

    Inside the fold wedge the regime is bistable; otherwise inside the Hopf
    region the steady state is oscillatory-unstable and any runaway is
    oscillatory; otherwise a unique stable steady state prevails.  Points
    within 1e-8 (scaled) of a locus are labelled as boundary.
    """
    return _label_row(np.array([u_a], dtype=float), float(f), loci)[0]


def region_map(loci: dict[str, Locus], window: Window,
               n_ua: int = 60, n_f: int = 60) -> list[tuple[float, float, str]]:
    """Regime labels on a grid over the window (flow rate log-spaced).

    Labelled one flow-rate row at a time, which bounds the temporaries.
    """
    uas = np.linspace(window.u_a[0], window.u_a[1], n_ua)
    fs = np.geomspace(window.f[0], window.f[1], n_f)
    rows = []
    for f in fs.tolist():
        rows += [(ua, f, label) for ua, label
                 in zip(uas.tolist(), _label_row(uas, f, loci))]
    return rows


def default_window(p: ModelParams) -> Window:
    """Window spanning the interesting ambient range and six flow decades."""
    lo = 0.75 * p.u_a
    hi = 1.35 * p.u_a
    return Window((lo, hi), (max(p.f * 1e-2, 1e-6), p.f * 1e6))
