"""Shared numerical machinery: root bracketing and bisection, damped Newton,
pseudo-arclength continuation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, ValidationError


def bisect_root(fn: Callable[[float], float], lo: float, hi: float,
                max_iter: int = 200) -> float:
    """Bisection to machine precision; lo/hi must bracket a sign change."""
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError(f"no sign change on [{lo!r}, {hi!r}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
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
    change = finite[:-1] & finite[1:] & (vals[:-1] * vals[1:] < 0)
    hits = np.flatnonzero((vals == 0.0) | np.append(change, False))
    return [float(grid[i]) if vals[i] == 0.0
            else float(bisect_root(fn, grid[i], grid[i + 1])) for i in hits]


def fd_jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                step: float = 1e-7) -> np.ndarray:
    """Central finite-difference Jacobian with per-coordinate relative steps."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fn(x), dtype=float)
    J = np.empty((f0.size, x.size))
    for j in range(x.size):
        h = step * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (np.asarray(fn(xp)) - np.asarray(fn(xm))) / (2 * h)
    return J


def damped_newton(fn: Callable[[np.ndarray], np.ndarray], x0,
                  jac: Callable[[np.ndarray], np.ndarray] | None = None,
                  tol: float = 1e-12, max_iter: int = 50,
                  fd_step: float = 1e-7) -> np.ndarray:
    """Newton iteration with a halving line search on the residual norm.

    Converges when the residual infinity norm drops below ``tol``.  Raises
    :class:`ConvergenceError` carrying the last iterate otherwise.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    r = np.atleast_1d(np.asarray(fn(x), dtype=float))
    norm = float(np.max(np.abs(r)))
    for _ in range(max_iter):
        if norm < tol:
            return x
        J = jac(x) if jac is not None else fd_jacobian(fn, x, fd_step)
        try:
            dx = np.linalg.solve(np.atleast_2d(J), -r)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Jacobian: {exc}", x, norm) from None
        lam = 1.0
        for _ in range(40):
            x_new = x + lam * dx
            try:
                r_new = np.atleast_1d(np.asarray(fn(x_new), dtype=float))
                norm_new = float(np.max(np.abs(r_new)))
            except (ValueError, FloatingPointError, OverflowError):
                norm_new = np.inf
            if np.isfinite(norm_new) and norm_new < norm:
                break
            lam *= 0.5
        else:
            raise ConvergenceError("line search stalled", x, norm)
        x, r, norm = x_new, r_new, norm_new
    if norm < tol:
        return x
    raise ConvergenceError(f"no convergence in {max_iter} iterations", x, norm)


# ---------------------------------------------------------------------------
# Pseudo-arclength continuation engine


@dataclass
class ContinuationProblem:
    """An under-determined system F: R^n -> R^(n-1) traced by arclength.

    ``residual`` and ``jacobian`` act on the full vector y (the last-row
    arclength constraint is appended by the engine).  ``scales`` weights the
    coordinates in the arclength metric; steps are measured in these scaled
    units.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    scales: np.ndarray


@dataclass
class ContinuationRun:
    points: list[np.ndarray] = field(default_factory=list)
    tangents: list[np.ndarray] = field(default_factory=list)
    stop_reason: str = ""


def _tangent(J: np.ndarray, scales: np.ndarray,
             prev: np.ndarray | None) -> np.ndarray:
    """Unit null vector of the Jacobian ``J`` in the metric scaled by
    ``scales``, oriented along ``prev`` if given."""
    n = J.shape[1]
    border = prev if prev is not None else np.eye(n)[-1]
    A = np.vstack([J, border])
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        t = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        # Fall back to SVD null space.
        _, _, vh = np.linalg.svd(J)
        t = vh[-1]
    t = t / scales
    t /= np.linalg.norm(t)
    if prev is not None and float(np.dot(t, prev)) < 0:
        t = -t
    return t


def _correct(prob: ContinuationProblem, y_pred: np.ndarray, t_hat: np.ndarray,
             tol: float, max_iter: int = 12) -> np.ndarray:
    """Newton corrector on the bordered system (orthogonal to the tangent)."""

    def full_res(y):
        r = prob.residual(y)
        c = float(np.dot(t_hat, (y - y_pred) / prob.scales))
        return np.append(r, c)

    def full_jac(y):
        J = prob.jacobian(y)
        return np.vstack([J, t_hat / prob.scales])

    return damped_newton(full_res, y_pred, jac=full_jac, tol=tol, max_iter=max_iter)


def continue_curve(prob: ContinuationProblem, y0: np.ndarray,
                   initial_direction: np.ndarray, *,
                   ds0: float, ds_min: float, ds_max: float,
                   max_steps: int, tol: float = 1e-10,
                   stop: Callable[[np.ndarray], str | None] | None = None,
                   on_point: Callable[[np.ndarray, np.ndarray], None] | None = None,
                   ) -> ContinuationRun:
    """Trace the solution curve by secant-predictor pseudo-arclength steps.

    ``initial_direction`` orients the first tangent (only its sign pattern
    matters).  ``stop`` may return a reason string to end the run after a
    point is accepted.  Step size adapts inside [ds_min, ds_max] based on
    corrector effort; a corrector failure at the floor truncates the run
    with ``stop_reason = "corrector failure"``.
    """
    run = ContinuationRun()
    y = np.asarray(y0, dtype=float).copy()
    t = _tangent(prob.jacobian(y), prob.scales, None)
    if float(np.dot(t, initial_direction / prob.scales)) < 0:
        t = -t
    run.points.append(y.copy())
    run.tangents.append(t.copy())
    if on_point:
        on_point(y, t)

    ds = ds0
    while len(run.points) - 1 < max_steps:
        stepped = False
        while not stepped:
            y_pred = y + ds * t * prob.scales
            try:
                y_new = _correct(prob, y_pred, t, tol)
                stepped = True
            except (ConvergenceError, ValidationError, DomainError):
                if ds <= ds_min * (1 + 1e-12):
                    run.stop_reason = "corrector failure"
                    return run
                ds = max(ds_min, ds / 2)
        t_new = _tangent(prob.jacobian(y_new), prob.scales, t)
        y = y_new
        t = t_new
        run.points.append(y.copy())
        run.tangents.append(t.copy())
        if on_point:
            on_point(y, t)
        if stop is not None:
            reason = stop(y)
            if reason:
                run.stop_reason = reason
                return run
        ds = min(ds_max, ds * 1.4)
    run.stop_reason = "max steps"
    return run
