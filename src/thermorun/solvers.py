"""Shared numerical machinery: root bracketing and bisection, the one Newton
loop under every solve (full steps, or damped by a halving line search), and
the pseudo-arclength continuation engine that traces the fold locus and
the cycle branches."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, ValidationError

try:  # the LAPACK gufunc under np.linalg.solve, a private numpy name
    from numpy.linalg._umath_linalg import solve1 as _solve1
except ImportError:
    _solve1 = None


def _opposite(a: float, b: float) -> bool:
    """Whether ``a`` and ``b`` are non-zero with opposite signs; unlike
    ``a * b < 0``, the answer survives the product's underflow."""
    return a < 0 < b or b < 0 < a


def bisect_root(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Bisection to machine precision; lo/hi must bracket a sign change.

    2100 halvings take any finite bracket down to adjacent floats, a root
    at 0 included.
    """
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if not _opposite(flo, fhi):
        raise ValueError(f"no sign change on [{lo!r}, {hi!r}]")
    for _ in range(2100):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if _opposite(flo, fm):
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def bracket_roots(fn: Callable, grid) -> list[float]:
    """All roots of ``fn`` on an ascending grid, in ascending order.

    ``fn`` is evaluated once on the whole grid array.  Grid points where it
    is exactly zero are roots; every sign change between two finite
    neighbours is bisected to machine precision with scalar calls of ``fn``.
    """
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(fn(grid), dtype=float)
    finite = np.isfinite(vals)
    sign = np.sign(vals)
    change = finite[:-1] & finite[1:] & (sign[:-1] * sign[1:] < 0)
    hits = np.flatnonzero((vals == 0.0) | np.append(change, False))
    return [float(grid[i]) if vals[i] == 0.0
            else float(bisect_root(fn, grid[i], grid[i + 1])) for i in hits]


def damped_newton(fn: Callable[[np.ndarray], np.ndarray], x0,
                  jac: Callable[[np.ndarray], np.ndarray],
                  tol: float = 1e-12, max_iter: int = 50) -> np.ndarray:
    """The root reached from ``x0`` by :func:`_newton`'s damped mode: steady
    states and fixed-parameter cycle seeds."""
    x = np.array(x0, dtype=float)
    _newton(fn, jac, x, tol, max_iter, damped=True)
    return x


# ---------------------------------------------------------------------------
# Pseudo-arclength continuation engine


@dataclass
class ContinuationProblem:
    """An under-determined system F: R^n -> R^(n-1) traced by arclength.

    ``residual`` and ``jacobian`` act on the full vector y (the last-row
    arclength constraint is appended by the engine).  ``scales`` weights the
    coordinates in the arclength metric; steps are measured in these scaled
    units.  ``rebase``, when given, is called on the start and on every
    accepted point before its tangent is taken, so a problem can re-anchor
    itself there (cycle branches move their phase condition).
    """

    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    scales: np.ndarray
    rebase: Callable[[np.ndarray], None] | None = None


@dataclass
class ContinuationRun:
    points: list[np.ndarray] = field(default_factory=list)
    tangents: list[np.ndarray] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)  # of points[1:]
    stop_reason: str = ""


# Errors by which a residual or Jacobian rejects an iterate outside its domain.
FAILED_ITERATE = (DomainError, ValidationError, OverflowError, FloatingPointError)


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(A, b)`` for a square float ``A`` and a 1-D ``b``.

    Calls the gufunc that ``np.linalg.solve`` calls, under the same error
    state, so the bits and the ``LinAlgError`` on a singular ``A`` are the
    same; it skips the wrapper's checks and conversions, which cost about
    as much as a 4×4 solve itself.  Falls back to ``np.linalg.solve`` when
    numpy has no such gufunc.
    """
    if _solve1 is None:
        return np.linalg.solve(A, b)
    with np.errstate(call=_raise_singular, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _solve1(A, b, signature="dd->d")


def _inf_norm(r: np.ndarray) -> float:
    """Infinity norm of ``r`` as a Python float, NaN if any entry is NaN."""
    rl = r.tolist()
    norm = max(map(abs, rl))
    total = sum(rl)
    if total != total and any(v != v for v in rl):
        norm = math.nan  # Python's max drops a NaN that is not first
    return norm


def _newton(residual: Callable[[np.ndarray], np.ndarray],
            jacobian: Callable[[np.ndarray], np.ndarray], y: np.ndarray,
            tol: float, max_iter: int, damped: bool = False) -> float:
    """Newton steps on ``y``, in place.

    Returns the residual infinity norm once it is below ``tol``, after at
    most ``max_iter`` steps.  A plain step is the full step; a damped one is
    halved, at most 40 times, until the norm is finite and lower (a trial
    raising ``FAILED_ITERATE`` or ConvergenceError is no decrease).  Raises
    :class:`ConvergenceError` with the last iterate and norm when the norm
    is non-finite (or above 1e6 in plain mode), the Jacobian is singular,
    the residual or Jacobian raises ``FAILED_ITERATE``, the line search
    stalls, or ``max_iter`` steps pass.
    """
    norm = math.inf
    try:
        r = residual(y)
        for step in range(max_iter + 1):
            norm = _inf_norm(r)
            if not math.isfinite(norm) or norm > 1e6 and not damped:
                raise ConvergenceError("Newton iteration diverged", y, norm)
            if norm < tol:
                return norm
            if step == max_iter:
                break
            dx = _solve(jacobian(y), -r)
            if not damped:
                y += dx
                r = residual(y)
                continue
            lam = 1.0
            for _ in range(40):
                trial = y + lam * dx
                try:
                    r_trial = residual(trial)
                    if _inf_norm(r_trial) < norm:
                        break
                except FAILED_ITERATE + (ConvergenceError,):
                    pass
                lam *= 0.5
            else:
                raise ConvergenceError("line search stalled", y, norm)
            y[:], r = trial, r_trial
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular Jacobian: {exc}", y, norm) from None
    except FAILED_ITERATE as exc:
        raise ConvergenceError(f"iterate left the domain: {exc}", y,
                               norm) from None
    raise ConvergenceError(f"no convergence in {max_iter} iterations", y, norm)


def _tangent(J: np.ndarray, scales: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Unit null vector of the Jacobian ``J`` in the metric scaled by
    ``scales``, bordered with and oriented along ``prev``."""
    n = J.shape[1]
    A = np.empty((n, n))
    A[:-1] = J
    A[-1] = prev
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        t = _solve(A, rhs)
    except np.linalg.LinAlgError:
        # Fall back to SVD null space.
        _, _, vh = np.linalg.svd(J)
        t = vh[-1]
    t = t / scales
    t /= math.sqrt(t.dot(t))
    if float(np.dot(t, prev)) < 0:
        t = -t
    return t


def _correct(prob: ContinuationProblem, y_pred: np.ndarray, t_hat: np.ndarray,
             tol: float) -> tuple[np.ndarray, float]:
    """Newton corrector on the bordered system (orthogonal to the tangent).

    Returns the corrected point and its residual norm, the arclength row
    included.
    """
    n = len(y_pred)
    r, A = np.empty(n), np.empty((n, n))
    A[-1] = t_hat / prob.scales

    def full_res(y):
        r[:-1] = prob.residual(y)
        r[-1] = np.dot(t_hat, (y - y_pred) / prob.scales)
        return r

    def full_jac(y):
        A[:-1] = prob.jacobian(y)
        return A

    y = y_pred.copy()
    norm = _newton(full_res, full_jac, y, tol, 11)
    return y, norm


def continue_curve(prob: ContinuationProblem, y0: np.ndarray,
                   initial_direction: np.ndarray, *,
                   ds0: float, ds_min: float, ds_max: float,
                   max_steps: int, tol: float = 1e-10, growth: float = 1.4,
                   stop: Callable[[np.ndarray], str | None] | None = None,
                   ) -> ContinuationRun:
    """Trace the solution curve by tangent-predictor pseudo-arclength steps.

    The first tangent is bordered with and oriented along
    ``initial_direction`` (in unscaled coordinates).  ``stop`` may return a
    reason string to end the run after a point is accepted.  The step
    halves on a corrector failure and grows by ``growth`` after every
    accepted point, inside [ds_min, ds_max]; a failure at the floor
    truncates the run with ``stop_reason = "corrector failure"``.
    """
    run = ContinuationRun()
    y = np.asarray(y0, dtype=float).copy()
    t = initial_direction / prob.scales
    t = t / math.sqrt(t.dot(t))
    ds = ds0
    while True:
        if prob.rebase is not None:
            prob.rebase(y)
        t = _tangent(prob.jacobian(y), prob.scales, t)
        run.points.append(y)
        run.tangents.append(t)
        if stop is not None and len(run.points) > 1:
            run.stop_reason = stop(y) or ""
            if run.stop_reason:
                return run
        if len(run.points) > max_steps:
            run.stop_reason = "max steps"
            return run
        while True:
            try:
                y, norm = _correct(prob, y + ds * t * prob.scales, t, tol)
                break
            except ConvergenceError:
                if ds <= ds_min * (1 + 1e-12):
                    run.stop_reason = "corrector failure"
                    return run
                ds = max(ds_min, ds / 2)
        run.residuals.append(norm)
        ds = min(ds_max, ds * growth)
