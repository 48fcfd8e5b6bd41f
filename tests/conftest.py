from __future__ import annotations

import dataclasses
import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import strategies as st

from thermorun import cycles, loci, model, steady
from thermorun.errors import ConvergenceError, ValidationError
from thermorun.model import CONTINUABLE_PARAMS, U_FLOOR, ModelParams, State
from thermorun.solvers import bisect_root

# Parameter distribution of acceptance criterion 5.
criterion5_params = st.builds(
    lambda f, ell, eps, u_a, ln_sigma: ModelParams(
        f=f, ell=ell, eps=eps, u_a=u_a, sigma=math.exp(ln_sigma)),
    st.floats(0.3, 4.0), st.floats(50.0, 1500.0), st.floats(2.0, 25.0),
    st.floats(0.025, 0.055), st.floats(20.0, 32.0))


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once it has run ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


# The array forms of the field and its Jacobian, which ``model._jet`` gives
# at one state: the references of the stacked shooting kernels and the
# augmented loci Jacobian, and of the scalar kernel itself, bit for bit.
def _arrhenius(u):
    """exp(-1/u) extended smoothly by zero for u <= 0 (and for NaN).

    The extension is C-infinity at u = 0+ and keeps internal solver
    iterations total when a trial state briefly leaves the physical domain.
    Clamping u to ``U_FLOOR`` gives the zero without a branch, and keeps
    -1/u finite for subnormal u; ``fmax`` sends NaN to the floor too.
    """
    out = np.exp(-1.0 / np.fmax(u, U_FLOOR))
    return float(out) if out.ndim == 0 else out


def _field_xu(p: ModelParams, x, u):
    """Vectorized right-hand side over plain arrays (no validation)."""
    r = p.sigma * _arrhenius(u)
    dx = -x * r + p.f * (1.0 - x)
    du = (x * r - p.loss * (u - p.u_a)) / p.eps
    return dx, du


def _jac_xu(p: ModelParams, x, u) -> np.ndarray:
    """Vectorized Jacobian entries; returns shape (..., 2, 2)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    r = p.sigma * _arrhenius(u)
    # Guarding on u * u, not u: below u ~ 2e-162 the square underflows and
    # r / (u * u) would be 0 / 0 instead of its limit 0.
    uu = u * u
    rp = np.where(u > 0, r / np.where(uu > 0, uu, 1.0), 0.0)
    J = np.empty(np.broadcast(x, u).shape + (2, 2))
    J[..., 0, 0] = -(r + p.f)
    J[..., 0, 1] = -x * rp
    J[..., 1, 0] = r / p.eps
    J[..., 1, 1] = (x * rp - p.loss) / p.eps
    return J


# The array form of ``model._param_derivative_scalar``: the reference for
# its twin test, the stacked shooting kernels, the augmented loci Jacobian
# and the steady walk's step direction.
def param_derivative(p: ModelParams, x, u, name: str):
    """d(vector field)/d(parameter) at fixed state; broadcasts over arrays.

    Returns shape (..., 2).
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    shape = np.broadcast(x, u).shape
    out = np.zeros(shape + (2,))
    if name == "u_a":
        out[..., 1] = p.loss / p.eps
    elif name == "f":
        out[..., 0] = 1.0 - x
        out[..., 1] = -(u - p.u_a)
    elif name == "ell":
        out[..., 1] = -(u - p.u_a) / p.eps
    elif name == "eps":
        expu = _arrhenius(u)
        out[..., 1] = -(x * p.sigma * expu - p.ell * (u - p.u_a)) / p.eps ** 2
    elif name == "sigma":
        expu = _arrhenius(u)
        out[..., 0] = -x * expu
        out[..., 1] = x * expu / p.eps
    else:
        raise ValidationError(
            "active", f"unknown parameter {name!r}; one of {CONTINUABLE_PARAMS}")
    return out


def slope(q: ModelParams, x: float, u: float, active: str) -> tuple[float, float]:
    """(dx/du, d(value of ``active``)/du) along the steady curve through the
    steady state (x, u) of ``q``, by implicit differentiation, from the
    array Jacobian and ``param_derivative``: the reference of
    ``continue_branch``'s step direction."""
    (a, b), (c, d) = model.jacobian(q, (x, u)).tolist()
    e, g = param_derivative(q, x, u, active).tolist()
    m = a * g - e * c
    return (e * d - b * g) / m, (c * b - a * d) / m


def reference_branch(p: ModelParams, active: str, prange, ds0: float = 1e-3):
    """``steady.continue_branch``'s walk over a reaction that is on, with a
    validated parameter set per evaluation: every point is
    ``_make_point(p.with_(**{active: value}), x, u, active)``, every step
    direction :func:`slope`, every special point a bisection on
    ``model.trace_det(*at(v))``.  The reference of the walk, which takes
    one exponential per point and builds no parameter set."""
    p = p.with_(u_boil=math.inf)
    lo, hi = float(prange[0]), float(prange[1])
    q = p.with_(**{active: lo})
    seeds = steady.reduced_scan(q, q.u_a, q.u_a + q.f / q.loss * (1 + 1e-9), n=4000)
    if not seeds:
        raise ConvergenceError(f"no steady state found at {active} = {lo}")

    def at(u, root):
        x, value = steady._curve(p, active, u, root)[:2]
        return p.with_(**{active: value}), (x, u)

    def disc(u):
        return steady._f_quadratic(p, u, model.rho(p, u))[3]

    u = seeds[0].state.u
    root = min((1, -1), key=lambda k: abs(steady._curve(p, active, u, k)[1] - lo))
    q, s = at(u, root)
    points, roots = [steady._make_point(q, *s, active)], []
    u_scale = max(p.f / p.loss, 1e-6)
    direction = 1.0 if slope(q, *s, active)[1] >= 0 else -1.0
    ds, du = ds0, 0.0
    stop_reason = "max steps"
    while len(points) <= steady.BRANCH_MAX_STEPS:
        if not du:
            dx, dv = slope(q, *s, active)
            du = ds / math.sqrt(dx * dx + u_scale ** -2 + (dv / (hi - lo)) ** 2)
        u_next, du = u + direction * du, 0.0
        if u_next == u:
            u_next = math.nextafter(u, direction * math.inf)
        if active == "f" and disc(u_next) < 0:
            u_next = bisect_root(disc, u, u_next)
            du = abs(u_next - u)
        value = steady._curve(p, active, u_next, root)[1]
        if not lo <= value <= hi:
            bound = lo if value < lo else hi
            u_next = bisect_root(
                lambda v: steady._curve(p, active, v, root)[1] - bound, u, u_next)
            stop_reason = "window boundary"
            if u_next == u:
                break
        u = u_next
        q, s = at(u, root)
        points.append(steady._make_point(q, *s, active))
        roots.append(root)
        if stop_reason == "window boundary":
            break
        if du:
            root, direction = -root, -direction
        ds = min(steady.BRANCH_DS_MAX, ds * 1.4)

    specials = []
    for i, (a, b) in enumerate(zip(points, points[1:])):
        for kind, k, ends in (("hopf", 0, (a.trace, b.trace)),
                              ("fold", 1, (a.det, b.det))):
            if not min(ends) < 0 < max(ends):
                continue
            v = bisect_root(lambda v: model.trace_det(*at(v, roots[i]))[k],
                            a.state.u, b.state.u)
            q, s = at(v, roots[i])
            tr, det = model.trace_det(q, s)
            sp = steady.SpecialPoint(kind, active, float(getattr(q, active)),
                                     State(min(max(s[0], 0.0), 1.0), v), tr, det,
                                     after_index=i)
            if kind == "fold":
                specials.append(sp)
            elif det > 0:
                l1 = steady.lyapunov_first_coeff(q, sp)
                specials.append(dataclasses.replace(
                    sp, l1=l1,
                    criticality="subcritical" if l1 > 0 else "supercritical"))
    return steady.Branch(active, tuple(points), tuple(specials), stop_reason)


# The stacked shoot's sensitivity layout keeps each segment's rows as y, then
# the rows of [M | zeta], (M00, M01, zeta0, M10, M11, zeta1); the stacked
# kernels' references keep y, M (4), zeta (2).  Entry i is the reference
# position of the shoot's component i.  Without the sensitivity both are
# y, M (4).
KERNEL_ORDER = (0, 1, 2, 3, 6, 4, 5, 7)


def kernel_layout(a, sens: bool, axes=(-1,), back: bool = False):
    """``a`` with each of ``axes``, which runs over one segment's
    components, from the references' order to the stacked kernels' (to the
    references' with ``back``).  A 1-d ``a`` is a stacked state or
    derivative, m segments of 8 components in a row."""
    a = np.asarray(a)
    if not sens:
        return a
    if a.ndim == 1:
        return kernel_layout(a.reshape(-1, 8), sens, back=back).ravel()
    order = np.argsort(KERNEL_ORDER) if back else np.array(KERNEL_ORDER)
    for axis in axes:
        a = np.take(a, order, axis=axis)
    return a


# Allocating forms of the integrator callbacks of ``cycles``: fresh arrays on
# every call and the parameters read from ``p`` each time.  The callbacks,
# which reuse their arrays, are tested against them bit for bit.
def stacked_rhs_allocating(p: ModelParams, m: int, h: float, sens: bool):
    """The stacked shooting RHS one ufunc per operation, its arrays
    allocated per call, in the references' layout: the reference of
    ``cycles._stacked_rhs`` through :func:`kernel_layout`."""
    width = 8 if sens else 6
    dfdp = np.array([0.0, p.loss / p.eps])

    def rhs(s, Y):
        Z = Y.reshape(m, width)
        x, u = Z[:, 0], Z[:, 1]
        e = np.exp(-1.0 / np.maximum(u, U_FLOOR))
        r = p.sigma * e
        rp = r / np.maximum(u * u, U_FLOOR * U_FLOOR)
        xr, xrp = x * r, x * rp
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


def floquet_rhs_allocating(p: ModelParams):
    """The RHS of ``cycles.floquet``'s variational legs, J built per call
    from ``model._jac_scalar`` and the field from ``model._field_scalar``,
    J M as the sums of products written out in its order."""
    def rhs(t, Y):
        x, u = Y[:2].tolist()
        M = Y[2:6].reshape(2, 2).tolist()
        J = model._jac_scalar(p, x, u)
        JM = [J[i][0] * M[0][k] + J[i][1] * M[1][k] for i in (0, 1) for k in (0, 1)]
        tr = J[0][0] + J[1][1]
        return [*model._field_scalar(p, x, u), *JM, tr, abs(tr)]

    return rhs


# ``output.format_value`` before its exact-type fast paths, verbatim: the
# reference of the CSV cell strings.
def format_value_reference(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


# ``loci._row_hits`` before the boundary test skipped far segments,
# verbatim: the reference of its ``near`` and ``odd`` flags.
def row_hits_unpruned(locus, uas: np.ndarray, f: float):
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
    near = np.sqrt(du * du + df * df).min(axis=1) < loci.BOUNDARY_TOL
    return near, odd


@pytest.fixture(scope="session")
def mic():
    return model.preset("mic-tank610")


@pytest.fixture(scope="session")
def mic_window(mic):
    ts = mic.temp_scale
    return (282.0 / ts, 296.0 / ts)


@pytest.fixture(scope="session")
def mic_branch(mic, mic_window):
    return steady.continue_branch(mic.model, "u_a", mic_window, ds0=1e-3)


@pytest.fixture(scope="session")
def mic_h1(mic_branch):
    hopfs = [sp for sp in mic_branch.specials if sp.kind == "hopf"]
    assert hopfs, "expected a Hopf point on the reference branch"
    return hopfs[0]


@pytest.fixture(scope="session")
def mic_cycle_branch(mic, mic_h1, mic_window):
    return cycles.continue_cycles(mic.model, mic_h1, mic_window, m=12,
                                  max_orbits=120)


@pytest.fixture(scope="session")
def mic_loci(mic):
    p = mic.model
    window = loci.default_window(p)
    hopf = loci.continue_hopf_locus(p, window=window)
    fold = loci.continue_fold_locus(p, window=window)
    return window, {"hopf": hopf, "fold": fold}


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)
