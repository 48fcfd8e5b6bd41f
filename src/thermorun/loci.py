"""Two-parameter bifurcation loci over ambient temperature and flow rate.

Hopf and fold curves are traced in the (u_a, f) plane by pseudo-arclength
continuation of the augmented systems {vector field = 0, trace = 0} and
{vector field = 0, det = 0} in the unknowns (x, u, u_a, ln f); the log of
the flow rate keeps the stepping well-scaled across decades.  Fold seeds
are hunted through the one-variable fold condition (the u-derivative of the
reduced balance vanishes), which fixes u and f first and back-solves the
ambient temperature.  A classifier assigns regime labels to points of the
plane by ray-parity against the computed loci.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import ConvergenceError, ValidationError
from .model import ModelParams
from .solvers import (ContinuationProblem, bracket_roots, continue_curve,
                      memo_last)
from .steady import SpecialPoint, continue_branch

LOCUS_TOL = 1e-10
# Both loci's first and largest arclength step, and step budget per direction.
LOCUS_DS0 = 1e-3
LOCUS_DS_MAX = 0.05
LOCUS_MAX_STEPS = 4000
CLOSURE_TOL = 1e-6
BOUNDARY_TOL = 1e-8

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
        if not (self.u_a[0] < self.u_a[1] and 0 < self.f[0] < self.f[1]):
            raise ValidationError("window", "need u_a_lo < u_a_hi and 0 < f_lo < f_hi")

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


def _trace_grad(p: ModelParams, x: float, u: float) -> tuple[float, np.ndarray]:
    """Trace of the Jacobian and its gradient w.r.t. (x, u, u_a, f)."""
    r, d1, _, _ = model.rho_derivs(p, u)
    tr = -(r + p.f) + (x * d1 - p.loss) / p.eps
    dd1 = r / u**4 - 2 * r / u**3  # d/du of rho/u^2
    g = np.array([
        d1 / p.eps,
        -d1 + x * dd1 / p.eps,
        0.0,
        -2.0,
    ])
    return tr, g


def _det_grad(p: ModelParams, x: float, u: float) -> tuple[float, np.ndarray]:
    """Determinant of the Jacobian and its gradient w.r.t. (x, u, u_a, f)."""
    r, d1, _, _ = model.rho_derivs(p, u)
    det = (p.loss * (r + p.f) - p.f * x * d1) / p.eps
    dd1 = r / u**4 - 2 * r / u**3
    g = np.array([
        -p.f * d1 / p.eps,
        (p.loss * d1 - p.f * x * dd1) / p.eps,
        0.0,
        (p.eps * (r + p.f) + p.loss - x * d1) / p.eps,
    ])
    return det, g


def _augmented_problem(p: ModelParams, test: str,
                       scales: np.ndarray) -> ContinuationProblem:
    """{F = 0, test fn = 0} over y = (x, u, u_a, ln f)."""
    grad_fn = _trace_grad if test == "trace" else _det_grad
    at = memo_last(lambda u_a, ln_f: p.with_(u_a=u_a, f=math.exp(ln_f)), 2)

    def residual(y):
        x, u, u_a, ln_f = y.tolist()
        q = at(u_a, ln_f)
        fx, fu = model._field_scalar(q, x, u)
        t, _ = grad_fn(q, x, u)
        return np.array([fx, fu, t])

    def jacobian(y):
        x, u, u_a, ln_f = y.tolist()
        q = at(u_a, ln_f)
        (a, b), (c, d) = model._jac_scalar(q, x, u)
        a0, a1 = model._param_derivative_scalar(q, x, u, "u_a")
        f0, f1 = model._param_derivative_scalar(q, x, u, "f")
        _, g = grad_fn(q, x, u)
        return np.array([[a, b, a0, q.f * f0],
                         [c, d, a1, q.f * f1],
                         [g[0], g[1], g[2], q.f * g[3]]])

    return ContinuationProblem(residual, jacobian, scales)


def _other_test(p: ModelParams, test: str, y) -> float:
    q = p.with_(u_a=float(y[2]), f=float(math.exp(y[3])))
    if test == "trace":
        return _det_grad(q, float(y[0]), float(y[1]))[0]
    return _trace_grad(q, float(y[0]), float(y[1]))[0]


def _trace_locus(p: ModelParams, y0: np.ndarray, test: str, window: Window):
    """Run the augmented continuation in both directions from a seed."""
    u_scale = max(p.f / p.loss, 1e-4)
    scales = np.array([1.0, u_scale, window.u_a[1] - window.u_a[0], 1.0])
    prob = _augmented_problem(p, test, scales)

    halves = []
    reasons = []
    for sign in (+1.0, -1.0):
        state = {"closed": False}

        def stop(y, _state=state):
            if not window.contains(float(y[2]), float(math.exp(y[3]))):
                return "window boundary"
            if test == "trace" and _other_test(p, "trace", y) <= 0:
                return "determinant nonpositive (neutral saddle boundary)"
            return None

        direction = np.zeros(4)
        direction[3] = sign
        run = continue_curve(prob, y0, direction, ds0=LOCUS_DS0, ds_min=1e-9,
                             ds_max=LOCUS_DS_MAX, max_steps=LOCUS_MAX_STEPS,
                             tol=LOCUS_TOL, stop=stop)
        # Closure: returning to the seed closes the curve.
        pts = run.points
        for k in range(20, len(pts)):
            if np.linalg.norm((pts[k] - y0) / scales) < CLOSURE_TOL:
                pts = pts[:k + 1]
                run.stop_reason = "closed"
                break
        halves.append(pts)
        reasons.append(run.stop_reason)
        if run.stop_reason == "closed":
            return [pts], ("closed",)
    merged = list(reversed(halves[1][1:])) + halves[0]
    return [merged], tuple(reasons)


def _locus_from_points(p: ModelParams, pts, test: str, reasons,
                       f_threshold: float | None = None) -> Locus:
    rows = []
    extra = []
    for y in pts:
        f_val = float(math.exp(y[3]))
        rows.append([float(y[2]), f_val, float(y[0]), float(y[1])])
        extra.append(_other_test(p, test, y))
    kind = "hopf" if test == "trace" else "fold"
    rows = np.array(rows)
    extra = np.array(extra)
    if kind == "hopf" and len(rows):
        # Endpoints where the determinant has crossed zero are neutral
        # saddles, not Hopf points; they only mark where tracing stopped.
        keep = extra > 0
        lo = int(np.argmax(keep)) if keep.any() else len(rows)
        hi = len(keep) - int(np.argmax(keep[::-1])) if keep.any() else len(rows)
        rows, extra = rows[lo:hi], extra[lo:hi]
    return Locus(kind, rows, extra, tuple(reasons), f_threshold=f_threshold)


def continue_hopf_locus(p: ModelParams, window: Window | None = None) -> Locus:
    """Trace the Hopf locus through a verified Hopf point.

    A one-parameter branch at the template's flow rate is scanned for a
    Hopf; if none exists (e.g. the reaction is switched off) an empty locus
    is returned with the reason recorded.  Continuation runs both ways until
    the window boundary, a vanishing determinant, or closure of the curve.
    """
    p = p.with_(u_boil=math.inf)
    if window is None:
        window = default_window(p)
    start = _auto_hopf_seed(p, window)
    if start is None:
        return Locus("hopf", np.empty((0, 4)), np.empty(0),
                     empty_reason="no Hopf point found at the seed flow rate")
    y0 = np.array([start.state.x, start.state.u, start.param_value, math.log(p.f)])
    pts_runs, reasons = _trace_locus(p, y0, "trace", window)
    return _locus_from_points(p, pts_runs[0], "trace", reasons)


def continue_fold_locus(p: ModelParams, window: Window | None = None) -> Locus:
    """Trace the fold locus from a seed hunted by a flow-rate sweep.

    When no fold exists anywhere in the window the result is empty, with the
    reason and the scanned threshold recorded.
    """
    p = p.with_(u_boil=math.inf)
    if window is None:
        window = default_window(p)
    f_star = fold_threshold(p, window)
    seed = find_fold_seed(p, window)
    if seed is None:
        return Locus("fold", np.empty((0, 4)), np.empty(0),
                     empty_reason="no fold point in the window "
                                  f"(flow rates up to {window.f[1]:g} scanned)",
                     f_threshold=f_star)
    pts_runs, reasons = _trace_locus(p, seed, "det", window)
    return _locus_from_points(p, pts_runs[0], "det", reasons, f_threshold=f_star)


def _auto_hopf_seed(p: ModelParams, window: Window) -> SpecialPoint | None:
    try:
        br = continue_branch(p, "u_a", window.u_a, ds0=1e-3)
    except ConvergenceError:
        return None
    hopfs = [sp for sp in br.specials if sp.kind == "hopf"]
    return hopfs[0] if hopfs else None


# ---------------------------------------------------------------------------
# Fold seeds


def _fold_condition(p: ModelParams, u):
    """u-derivative of the reduced balance; zero at a steady-state fold.

    ``u`` may be an array; raises :class:`DomainError` unless u > 0.
    """
    r = model.rho(p, u)
    d1 = r / (u * u)
    return p.f ** 2 * d1 / (p.f + r) ** 2 - p.loss


def _fold_roots_at_f(p: ModelParams, f: float, window: Window,
                     n: int = 2000) -> list[np.ndarray]:
    """Fold points (x, u, u_a, ln f) at a fixed flow rate, inside the window."""
    q = p.with_(f=f, u_boil=math.inf)
    grid = np.linspace(window.u_a[0], window.u_a[1] + f / q.loss, n)
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
    counts once.  All of ``uas`` are done at once, so temporaries are
    len(uas) x segments.
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
    fs, sb1 = f / scale, b1 / scale
    da, db = a2 - a1, b2 / scale - sb1
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


def classify_point(u_a: float, f: float, loci: dict[str, Locus],
                   window: Window | None = None) -> str:
    """Regime label at a parameter point, from ray parity against the loci.

    Inside the fold wedge the regime is bistable; otherwise inside the Hopf
    region the steady state is oscillatory-unstable and any runaway is
    oscillatory; otherwise a unique stable steady state prevails.  Points
    within 1e-8 (scaled) of a locus are labelled as boundary.
    """
    if window is not None and not window.contains(u_a, f):
        raise ValidationError("point", "outside the computed window")
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
