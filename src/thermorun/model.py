"""Dimensionless exothermic flow-reactor model and its dimensional mapping.

The model tracks a scaled reactant concentration x in [0, 1] and a scaled
temperature u > 0 of a well-stirred reacting volume with inflow, outflow
and linear heat loss to the surroundings:

    dx/dtau = -x * rho(u) + f * (1 - x)
    eps * du/dtau = x * rho(u) - (eps * f + ell) * (u - u_a)

with the Arrhenius-type rate rho(u) = sigma * exp(-1/u).  The prefactor
sigma rescales the reaction rate relative to the time unit; sigma = 1
recovers the bare scaling, while :func:`calibrate_sigma` pins it so that a
preset reproduces reported operating and oscillation-onset temperatures.

This module also provides the analytic Jacobian and higher state
derivatives, heat generation/loss rate diagrams, conversions between
dimensional tank quantities and the dimensionless parameter set, and the
preset registry.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import CalibrationError, DomainError, ValidationError
from .solvers import bracket_roots

R_GAS = 8.314
"""Universal gas constant, J/(mol K). Fixed."""

SIGMA_MAX_LN = 40.0
"""Calibration search ceiling: sigma must land in (1, e**40)."""


def _require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ValidationError(field, message)


@dataclass(frozen=True, slots=True)
class DimensionalParams:
    """Physical tank and kinetics quantities.

    Attributes
    ----------
    V : reacting volume, m^3
    F : volumetric flow through the reacting volume, m^3/s
    c_f : inflow reactant concentration, mol/m^3
    Cbar : volumetric heat capacity, J/(K m^3)
    dH : reaction enthalpy, J/mol (negative = exothermic)
    L : linear heat-transfer coefficient, W/K
    T_a : ambient temperature, K
    A : reaction frequency factor, 1/s
    E : activation energy, J/mol
    """

    V: float
    F: float
    c_f: float
    Cbar: float
    dH: float
    L: float
    T_a: float
    A: float
    E: float

    def __post_init__(self):
        _require(self.V > 0, "V", "reacting volume must be positive")
        _require(self.F >= 0, "F", "volumetric flow must be nonnegative")
        _require(self.c_f > 0, "c_f", "inflow concentration must be positive")
        _require(self.Cbar > 0, "Cbar", "heat capacity must be positive")
        _require(self.dH < 0, "dH", "reaction must be exothermic (dH < 0)")
        _require(self.L >= 0, "L", "heat-transfer coefficient must be nonnegative")
        _require(self.T_a > 0, "T_a", "ambient temperature must be positive")
        _require(self.A > 0, "A", "reaction frequency must be positive")
        _require(self.E > 0, "E", "activation energy must be positive")

    @property
    def temp_scale(self) -> float:
        """Kelvin per unit of dimensionless temperature (E/R)."""
        return self.E / R_GAS


@dataclass(frozen=True, slots=True)
class ModelParams:
    """Dimensionless parameter set of the two-variable reactor model."""

    f: float
    ell: float
    eps: float
    u_a: float
    sigma: float = 1.0
    u_boil: float = math.inf

    def __post_init__(self):
        _require(self.f > 0, "f", "inverse residence time must be positive")
        _require(self.ell >= 0, "ell", "heat loss must be nonnegative")
        _require(self.eps > 0, "eps", "eps must be positive")
        _require(self.u_a > 0, "u_a", "ambient temperature must be positive")
        # sigma = 0 (reaction switched off) is a meaningful degenerate
        # configuration, so only negative values are rejected.
        _require(self.sigma >= 0, "sigma", "rate prefactor must be nonnegative")
        _require(self.u_boil > self.u_a, "u_boil", "runaway threshold must exceed u_a")

    @property
    def loss(self) -> float:
        """Combined linear loss coefficient eps*f + ell."""
        return self.eps * self.f + self.ell

    def with_(self, **updates) -> "ModelParams":
        """A copy with ``updates`` applied, validated like any new instance.

        ``dataclasses.replace`` without its per-call field introspection:
        an unknown key raises ``TypeError`` from the constructor.
        """
        kw = {"f": self.f, "ell": self.ell, "eps": self.eps, "u_a": self.u_a,
              "sigma": self.sigma, "u_boil": self.u_boil}
        kw.update(updates)
        return ModelParams(**kw)


@dataclass(frozen=True, slots=True)
class State:
    """Dimensionless reactor state: scaled concentration and temperature."""

    x: float
    u: float

    def __post_init__(self):
        _require(0.0 <= self.x <= 1.0, "x", "scaled concentration must lie in [0, 1]")
        _require(self.u > 0.0, "u", "scaled temperature must be positive")


@dataclass(frozen=True)
class RateDiagram:
    """Sampled heat generation and loss rates over a temperature grid."""

    u_grid: np.ndarray
    r_g: np.ndarray
    r_l: np.ndarray

    def __post_init__(self):
        _require(len(self.u_grid) == len(self.r_g) == len(self.r_l),
                 "u_grid", "grid and rate arrays must have equal length")
        _require(bool(np.all(np.diff(self.u_grid) > 0)),
                 "u_grid", "temperature grid must be strictly increasing")


# ---------------------------------------------------------------------------
# Rate law and derivatives


def _as_state(s) -> tuple[float, float]:
    if isinstance(s, State):
        return s.x, s.u
    x, u = s
    return float(x), float(u)


U_FLOOR = 1e-3
"""exp(-1/u) is exactly 0 for every u at or below this, so clamping u to it
changes no rate; clamping u * u to its square keeps 0 / 0 from arising
where the square underflows."""


def _arrhenius(u):
    """exp(-1/u) extended smoothly by zero for u <= 0 (and for NaN).

    The extension is C-infinity at u = 0+ and keeps internal solver
    iterations total when a trial state briefly leaves the physical domain.
    Clamping u to ``U_FLOOR`` gives the zero without a branch, and keeps
    -1/u finite for subnormal u; ``fmax`` sends NaN to the floor too.
    """
    out = np.exp(-1.0 / np.fmax(u, U_FLOOR))
    return float(out) if out.ndim == 0 else out


def rho(p: ModelParams, u):
    """Dimensionless reaction rate sigma * exp(-1/u); u may be an array.

    A float u (``np.float64`` included) skips the array machinery; its
    ``np.exp`` gives the same bits as the array path.
    """
    if isinstance(u, float):
        if u <= 0:
            raise DomainError("rho requires u > 0")
        return p.sigma * float(np.exp(-1.0 / u))
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise DomainError("rho requires u > 0")
    out = p.sigma * np.exp(-1.0 / u)
    return float(out) if out.ndim == 0 else out


def _rho_derivs_raw(p: ModelParams, u: float) -> tuple[float, float, float, float]:
    r = p.sigma * math.exp(-1.0 / u) if u > 0 else 0.0
    if r == 0.0:
        # The limit, as in _jet: for u below ~1.3e-3 exp(-1/u) is 0, and
        # below ~5e-52 the powers of 1/u would divide 0 by an underflow.
        return 0.0, 0.0, 0.0, 0.0
    u2 = u * u
    d1 = r / u2
    d2 = r * (1.0 / u2**2 - 2.0 / u**3)
    d3 = r * (1.0 / u**6 - 6.0 / u**5 + 6.0 / u2**2)
    return r, d1, d2, d3


def rho_derivs(p: ModelParams, u: float) -> tuple[float, float, float, float]:
    """rho and its first three u-derivatives at a scalar u."""
    if u <= 0:
        raise DomainError("rho requires u > 0")
    return _rho_derivs_raw(p, u)


def _field_xu(p: ModelParams, x, u):
    """Vectorized right-hand side over plain arrays (no validation)."""
    r = p.sigma * _arrhenius(u)
    dx = -x * r + p.f * (1.0 - x)
    du = (x * r - p.loss * (u - p.u_a)) / p.eps
    return dx, du


def _expu(u: float) -> float:
    """exp(-1/u) at a float u > 0, its limit 0 at u <= 0.  ``np.exp`` on a
    Python float matches the array path bit for bit; ``math.exp`` is one
    ulp off on some u."""
    return float(np.exp(-1.0 / u)) if u > 0 else 0.0


def _jet(f: float, ell: float, eps: float, u_a: float, sigma: float,
         x: float, u: float, expu: float) -> tuple[float, ...]:
    """(fx, fu, a, b, c, d): the field and J = ((a, b), (c, d)) at (x, u)
    from the parameter values and ``expu`` = ``_expu(u)``; the one copy of
    the scalar formulas.  r = sigma * expu is 0 wherever u * u underflows,
    so dr/du is never 0 / 0."""
    r = sigma * expu
    rp = r / (u * u) if r else 0.0
    loss = eps * f + ell
    return (-x * r + f * (1.0 - x), (x * r - loss * (u - u_a)) / eps,
            -(r + f), -x * rp, r / eps, (x * rp - loss) / eps)


def _field_scalar(p: ModelParams, x: float, u: float) -> tuple[float, float]:
    """``_field_xu`` for one state given as Python floats."""
    return _jet(p.f, p.ell, p.eps, p.u_a, p.sigma, x, u, _expu(u))[:2]


def _jac_scalar(p: ModelParams, x: float, u: float):
    """``_jac_xu`` for one state given as Python floats, as nested tuples."""
    _, _, a, b, c, d = _jet(p.f, p.ell, p.eps, p.u_a, p.sigma, x, u, _expu(u))
    return ((a, b), (c, d))


def _callbacks(p: ModelParams):
    """The integrator callbacks of the vector field at ``p``: ``rhs(t, y)``,
    ``jac(t, y)`` and ``field_jac(x, u)``.

    ``rhs`` and ``jac`` are ``_field_scalar`` and ``_jac_scalar`` at the
    state ``y``; ``field_jac`` takes the state as two floats and returns
    the field and the Jacobian's rows flattened, (fx, fu, a, b, c, d), from
    one exponential (``jac``, called once per LSODA Jacobian, reads it).
    The arithmetic is :func:`_jet`'s, inlined, so the bits are the same;
    what is left out is the per-call work that depends on ``p`` alone: the
    parameters are read, and ``loss`` summed, once here.
    Every integrator callback of ``simulate`` and ``cycles`` is built on
    this, so a test that patches it changes the field of all of them.
    """
    f, eps, loss, u_a, sigma = p.f, p.eps, p.loss, p.u_a, p.sigma
    exp = np.exp

    def rhs(t, y):
        x, u = y.tolist()
        r = sigma * float(exp(-1.0 / u)) if u > 0 else 0.0
        return -x * r + f * (1.0 - x), (x * r - loss * (u - u_a)) / eps

    def field_jac(x, u):
        if u > 0:
            r = sigma * float(exp(-1.0 / u))
            rp = r / (u * u) if r else 0.0
        else:
            r = rp = 0.0
        return (-x * r + f * (1.0 - x), (x * r - loss * (u - u_a)) / eps,
                -(r + f), -x * rp, r / eps, (x * rp - loss) / eps)

    def jac(t, y):
        _, _, a, b, c, d = field_jac(*y.tolist())
        return ((a, b), (c, d))

    return rhs, jac, field_jac


def vector_field(p: ModelParams, s) -> tuple[float, float]:
    """Time derivatives (dx/dtau, du/dtau) at a state."""
    x, u = _as_state(s)
    if u <= 0:
        raise DomainError("vector_field requires u > 0")
    dx, du = _field_xu(p, x, u)
    return float(dx), float(du)


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


def jacobian(p: ModelParams, s) -> np.ndarray:
    """Analytic 2x2 Jacobian of the vector field at a state."""
    x, u = _as_state(s)
    if u <= 0:
        raise DomainError("jacobian requires u > 0")
    return _jac_xu(p, x, u)


def second_derivatives(p: ModelParams, s) -> np.ndarray:
    """Hessian tensor B with B[i, j, k] = d^2 F_i / ds_j ds_k."""
    x, u = _as_state(s)
    return _hessian_xu(p, x, u)


def _hessian_xu(p: ModelParams, x: float, u: float) -> np.ndarray:
    _, d1, d2, _ = _rho_derivs_raw(p, u)
    B = np.zeros((2, 2, 2))
    B[0, 0, 1] = B[0, 1, 0] = -d1
    B[0, 1, 1] = -x * d2
    B[1, 0, 1] = B[1, 1, 0] = d1 / p.eps
    B[1, 1, 1] = x * d2 / p.eps
    return B


def third_derivatives(p: ModelParams, s) -> np.ndarray:
    """Third-derivative tensor C with C[i, j, k, l] = d^3 F_i / ds_j ds_k ds_l."""
    x, u = _as_state(s)
    _, _, d2, d3 = rho_derivs(p, u)
    C = np.zeros((2, 2, 2, 2))
    for perm in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        C[(0,) + perm] = -d2
        C[(1,) + perm] = d2 / p.eps
    C[0, 1, 1, 1] = -x * d3
    C[1, 1, 1, 1] = x * d3 / p.eps
    return C


def trace_det(p: ModelParams, s) -> tuple[float, float]:
    """Trace and determinant of the Jacobian at a state."""
    x, u = _as_state(s)
    if u <= 0:
        raise DomainError("trace_det requires u > 0")
    (a, b), (c, d) = _jac_scalar(p, x, u)
    return a + d, a * d - b * c


CONTINUABLE_PARAMS = ("u_a", "f", "ell", "eps", "sigma")


def _dfdp(name: str, f: float, ell: float, eps: float, u_a: float,
          sigma: float, x: float, u: float, expu: float) -> tuple[float, float]:
    """d(vector field)/d(parameter ``name``) from :func:`_jet`'s arguments
    (``expu`` is read for ``eps`` and ``sigma`` only).

    Its array twin, ``param_derivative`` in ``tests/conftest.py``, is the
    reference it is tested against; both share the expression order, so
    the same bits: for ``eps`` the rate is (x * sigma) * expu, not x * r.
    """
    if name == "u_a":
        return 0.0, (eps * f + ell) / eps
    if name == "f":
        return 1.0 - x, -(u - u_a)
    if name == "ell":
        return 0.0, -(u - u_a) / eps
    if name == "eps":
        return 0.0, -(x * sigma * expu - ell * (u - u_a)) / eps ** 2
    if name == "sigma":
        return -x * expu, x * expu / eps
    raise ValidationError(
        "active", f"unknown parameter {name!r}; one of {CONTINUABLE_PARAMS}")


def _param_derivative_scalar(p: ModelParams, x: float, u: float,
                             name: str) -> tuple[float, float]:
    """:func:`_dfdp` at one state of ``p`` given as Python floats."""
    expu = _expu(u) if name in ("eps", "sigma") else 0.0
    return _dfdp(name, p.f, p.ell, p.eps, p.u_a, p.sigma, x, u, expu)


# ---------------------------------------------------------------------------
# Reduced steady-state balance and rate diagrams


def reduced_balance(p: ModelParams, u):
    """Heat balance h(u) with x eliminated at its quasi-steady value.

    Steady states are exactly the roots of h(u) = r_g(u) - r_l(u), where
    r_g = f*rho/(f + rho) and r_l = (eps*f + ell)*(u - u_a).
    """
    r = rho(p, u)
    # A float u skips the array machinery, as in rho.
    w = u - p.u_a if isinstance(u, float) else np.asarray(u) - p.u_a
    return p.f * r / (p.f + r) - p.loss * w


def quasi_steady_x(p: ModelParams, u):
    """Concentration on the steady-state manifold: x = f / (f + rho)."""
    return p.f / (p.f + rho(p, u))


def rate_diagram(p: ModelParams, u_lo: float, u_hi: float, n: int) -> RateDiagram:
    """Sample generation and loss rates on a uniform temperature grid."""
    _require(u_lo < u_hi, "u_lo", "window must satisfy u_lo < u_hi")
    _require(n >= 2, "n", "need at least 2 grid points")
    u = np.linspace(u_lo, u_hi, n)
    r = rho(p, u)
    r_g = p.f * r / (p.f + r)
    r_l = p.loss * (u - p.u_a)
    return RateDiagram(u, r_g, r_l)


def rate_crossings(d: RateDiagram) -> list[float]:
    """Temperatures where generation and loss curves cross (grid resolution).

    Each grid interval contributes its left end if the curves meet there,
    else the linear-interpolation root if they change sign across it; the
    right end of the grid counts if they meet there.
    """
    g = d.r_g - d.r_l
    u = d.u_grid
    a, b = g[:-1], g[1:]
    i = np.flatnonzero((a == 0.0) | (a * b < 0))
    a, b = a[i], b[i]
    # a - b is nonzero wherever the division's result is kept.
    w = a / np.where(a == 0.0, 1.0, a - b)
    out = np.where(a == 0.0, u[i], u[i] + w * (u[i + 1] - u[i])).tolist()
    if g[-1] == 0.0:
        out.append(float(u[-1]))
    return out


# ---------------------------------------------------------------------------
# Dimensional conversions


def nondimensionalize(dim: DimensionalParams, boiling_temperature: float,
                      sigma: float = 1.0) -> ModelParams:
    """Map dimensional tank quantities onto the dimensionless parameter set.

    The boiling temperature (K) supplies the runaway threshold u_boil; sigma
    is carried through unchanged (default 1).
    """
    _require(boiling_temperature > dim.T_a, "boiling_temperature",
             "boiling temperature must exceed the ambient temperature")
    heat = -dim.dH
    return ModelParams(
        f=dim.F / (dim.V * dim.A),
        ell=dim.L * dim.E / (dim.c_f * dim.V * dim.A * heat * R_GAS),
        eps=dim.Cbar * dim.E / (dim.c_f * heat * R_GAS),
        u_a=R_GAS * dim.T_a / dim.E,
        sigma=sigma,
        u_boil=R_GAS * boiling_temperature / dim.E,
    )


def dimensionalize(p: ModelParams, s, dim: DimensionalParams) -> tuple[float, float]:
    """Recover (concentration mol/m^3, temperature K) from a dimensionless state."""
    x, u = _as_state(s)
    return x * dim.c_f, u * dim.E / R_GAS


# ---------------------------------------------------------------------------
# Rate-prefactor calibration

def _marginal_gap(p: ModelParams, u: float, u_a_hopf: float) -> float:
    """Scalar reduction of {steady balance, trace = 0} at ambient u_a_hopf.

    On the steady manifold the generation rate equals c = loss*(u - u_a),
    which pins rho two ways: rho_st = c*f/(f - c) from the balance and
    rho_tr = c/(eps*u^2) - 2f - ell/eps from a vanishing trace.  Their gap
    is zero exactly at a marginal (Hopf) steady state.
    """
    c = p.loss * (u - u_a_hopf)
    rho_st = c * p.f / (p.f - c)
    rho_tr = c / (p.eps * u * u) - 2.0 * p.f - p.ell / p.eps
    return rho_tr - rho_st


def _marginal_sigma_candidates(template: ModelParams,
                               u_a_hopf: float) -> list[tuple[float, float]]:
    """All (u, sigma) with a marginal steady state at ambient ``u_a_hopf``.

    Grid-scans the scalar reduction of {steady balance, trace = 0} for sign
    changes and bisects each bracket to machine precision; a bisected root
    already solves both conditions to roundoff.  Only genuine Hopf
    candidates (determinant positive, sigma in the admissible range) are
    returned.
    """
    width = template.f / template.loss
    grid = np.linspace(u_a_hopf + 1e-4 * width, u_a_hopf + (1.0 - 1e-9) * width, 4001)

    out: list[tuple[float, float]] = []
    for u_root in bracket_roots(lambda u: _marginal_gap(template, u, u_a_hopf), grid):
        c = template.loss * (u_root - u_a_hopf)
        rho_star = c * template.f / (template.f - c)
        if rho_star <= 0:
            continue
        ln_sigma = math.log(rho_star) + 1.0 / u_root
        if not (0.0 < ln_sigma < SIGMA_MAX_LN):
            continue
        sigma = math.exp(ln_sigma)
        q = template.with_(sigma=sigma, u_a=u_a_hopf, u_boil=math.inf)
        _, det = trace_det(q, (quasi_steady_x(q, u_root), u_root))
        if det > 0:
            out.append((u_root, sigma))
    return out


def calibrate_sigma(template: ModelParams, target_T_steady: float,
                    target_T_hopf: float, temp_scale: float) -> float:
    """Solve for the rate prefactor that anchors the model to Kelvin targets.

    Finds sigma such that the steady state is exactly marginal (trace of the
    Jacobian zero, determinant positive) when the ambient temperature equals
    ``target_T_hopf``, i.e. the oscillatory instability switches on there.
    The candidate is then verified against ``target_T_steady``: with the
    template's own ambient temperature, the unique steady state must sit
    within 3 K of the target.

    ``temp_scale`` is E/R in Kelvin per dimensionless temperature unit.
    """
    ambient_K = template.u_a * temp_scale
    _require(target_T_steady > ambient_K, "target_T_steady",
             f"target steady temperature must exceed the ambient {ambient_K:.2f} K")
    _require(target_T_hopf > 0, "target_T_hopf", "Hopf target must be positive")

    u_a_hopf = target_T_hopf / temp_scale
    candidates: list[tuple[float, float]] = []  # (|T err|, sigma)
    for _, sigma in _marginal_sigma_candidates(template, u_a_hopf):
        cand = template.with_(sigma=sigma, u_boil=math.inf)
        roots = _reduced_roots(cand)
        if len(roots) != 1:
            continue
        err = abs(roots[0] * temp_scale - target_T_steady)
        if err <= 3.0:
            candidates.append((err, sigma))

    if not candidates:
        raise CalibrationError(
            f"no admissible prefactor in sigma in (1, e^{SIGMA_MAX_LN:.0f}) reaches a "
            f"marginal steady state at {target_T_hopf} K with a unique steady state "
            f"within 3 K of {target_T_steady} K at ambient {ambient_K:.2f} K")
    candidates.sort()
    return candidates[0][1]


def _reduced_roots(p: ModelParams, n: int = 20000) -> list[float]:
    """All roots of the reduced balance in the window [u_a, u_a + f/loss]."""
    lo, hi = p.u_a, p.u_a + p.f / p.loss * (1.0 + 1e-12)
    return bracket_roots(lambda u: reduced_balance(p, u), np.linspace(lo, hi, n))


# ---------------------------------------------------------------------------
# Presets

PRESET_NAMES = ("mic-tank610", "cumene-hydroperoxide")

MIC_TARGET_T_STEADY = 305.0
MIC_TARGET_T_HOPF = 290.15


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def _number(v, field: str) -> float:
    _require(isinstance(v, (int, float)) and not isinstance(v, bool), field,
             f"number expected, got {v!r}")
    return float(v)


def _block(cls, cfg: dict, key: str):
    """``cls`` built from the JSON object ``cfg[key]``; None when absent."""
    if key not in cfg:
        return None
    _require(isinstance(cfg[key], dict), key, "JSON object expected")
    kw = {name: _number(v, f"{key}.{name}") for name, v in cfg[key].items()}
    try:
        return cls(**kw)
    except TypeError as exc:  # a missing or unknown field
        raise ValidationError(key, str(exc)) from None


@dataclass(frozen=True)
class Preset:
    """A run's resolved inputs: dimensionless model plus dimensional context.

    ``name`` is the registry name, None for inputs read from a config;
    ``placeholders`` names fields whose values are stand-ins rather than
    vetted data.  ``dim`` is None when no kinetic constants are given.  It
    is kept true to ``model``: ``temp_scale`` is its E/R (one off by more
    than 1e-12 relative is an error), ``T_a`` follows ``u_a``, and the block
    is dropped when ``f``, ``ell`` or ``eps`` differ from what it
    nondimensionalizes to, as V, F, c_f, Cbar and L cannot be solved for.
    """

    model: ModelParams
    dim: DimensionalParams | None
    temp_scale: float | None = None
    name: str | None = None
    placeholders: tuple[str, ...] = ()

    def __post_init__(self):
        dim = self.dim
        if dim is None:
            return
        scale = dim.temp_scale
        _require(self.temp_scale is None or _close(self.temp_scale, scale),
                 "temp_scale_K", f"{self.temp_scale} K disagrees with the "
                 f"dimensional block's E/R = {scale} K")
        ref = nondimensionalize(dim, boiling_temperature=math.inf)
        m = self.model
        if not (_close(ref.f, m.f) and _close(ref.ell, m.ell) and _close(ref.eps, m.eps)):
            dim = None
        elif not _close(dim.T_a, m.u_a * scale):
            dim = replace(dim, T_a=m.u_a * scale)
        object.__setattr__(self, "temp_scale", scale)
        object.__setattr__(self, "dim", dim)

    def kelvin_to_u(self, T: float) -> float:
        if self.temp_scale is None:
            raise ValidationError(
                "temp_scale", "Kelvin inputs need a preset, a dimensional block "
                "or temp_scale_K in the config")
        return T / self.temp_scale

    def u_to_kelvin(self, u: float) -> float | None:
        return None if self.temp_scale is None else u * self.temp_scale

    def with_overrides(self, T_a: float | None = None, **params) -> "Preset":
        """These inputs with ``params`` and then an ambient ``T_a`` (K) set."""
        if T_a is not None:
            params["u_a"] = self.kelvin_to_u(T_a)
        return replace(self, model=self.model.with_(**params))

    def to_config(self) -> dict:
        """Serialize to the CLI's JSON config schema."""
        cfg: dict = {"params": asdict(self.model)}
        if self.temp_scale is not None:
            cfg["temp_scale_K"] = self.temp_scale
        if self.dim is not None:
            cfg["dimensional"] = asdict(self.dim)
        return cfg

    @classmethod
    def from_config(cls, cfg) -> "Preset":
        """Read the CLI's JSON config schema; the inverse of ``to_config``.

        Three forms: ``{"preset": name}``; a ``params`` block with optional
        ``dimensional`` and ``temp_scale_K`` context; or a ``dimensional``
        block with ``T_boil`` (K) and optional ``sigma`` and
        ``temp_scale_K``.  Another key, a missing or unknown field or a
        non-numeric value raises ``ValidationError`` naming it.
        """
        _require(isinstance(cfg, dict), "config", "top-level JSON object expected")
        forms = (("preset",), ("params", "dimensional", "temp_scale_K"),
                 ("dimensional", "T_boil", "sigma", "temp_scale_K"))
        form = next((f for f in forms if f[0] in cfg), None)
        _require(form is not None, "config", "no preset and no parameter block given")
        for key in cfg:
            _require(key in form, key, f"not a key of a {form[0]!r} config")
        if form[0] == "preset":
            _require(isinstance(cfg["preset"], str), "preset", "name expected")
            return preset(cfg["preset"])
        num = {k: _number(cfg[k], k) for k in ("T_boil", "sigma", "temp_scale_K")
               if k in cfg}
        dim = _block(DimensionalParams, cfg, "dimensional")
        params = _block(ModelParams, cfg, "params")
        if params is None:
            _require("T_boil" in num, "T_boil", "a dimensional block needs T_boil (K)")
            params = nondimensionalize(dim, num["T_boil"], num.get("sigma", 1.0))
        return cls(params, dim, num.get("temp_scale_K"))


def _build_mic_tank610() -> Preset:
    # Tank-scale MIC hydrolysis. Thermochemistry and kinetics are tabulated
    # data; c_f is backed out of eps = 10 because the inflow concentration in
    # the reacting volume is not independently known; F and L are the formal
    # values implied by f = 1.7 and ell = 700 under the literal time scaling
    # tau = t*A and are not physical flow measurements.  u_boil comes from
    # the 312 K boiling point; sigma is calibrated to a steady state near
    # 305 K at 292 K ambient and an oscillation onset at 290.15 K.
    E = 64000.0
    A = 3.9e12
    dH = -65100.0
    Cbar = 1188.0 * 959.9          # J/(K kg) * kg/m^3
    T_a = 292.0
    T_boil = 312.0
    eps = 10.0
    f = 1.7
    ell = 700.0
    c_f = Cbar * E / (eps * (-dH) * R_GAS)
    V = 41000.0 / 959.9            # 41 t of liquid at its density
    F = f * V * A
    L = ell * c_f * V * A * (-dH) * R_GAS / E
    dim = DimensionalParams(V=V, F=F, c_f=c_f, Cbar=Cbar, dH=dH, L=L,
                            T_a=T_a, A=A, E=E)
    base = nondimensionalize(dim, boiling_temperature=T_boil)
    sigma = calibrate_sigma(base, MIC_TARGET_T_STEADY, MIC_TARGET_T_HOPF,
                            temp_scale=dim.temp_scale)
    model = base.with_(sigma=sigma)
    return Preset(model, dim, name="mic-tank610")


def _build_cumene() -> Preset:
    # Decomposition of cumene hydroperoxide: only eps = 20 and ell = 700 are
    # vetted here. The kinetic constants live outside this package, so the
    # activation energy, flow rate, temperatures and prefactor ship as
    # placeholders the user is expected to replace; the prefactor is pinned
    # to an oscillation onset at the 290.15 K equivalent.
    temp_scale = 75000.0 / R_GAS
    base = ModelParams(f=1.7, ell=700.0, eps=20.0,
                       u_a=292.0 / temp_scale, u_boil=425.0 / temp_scale)
    u_a_hopf = 290.15 / temp_scale
    cands = _marginal_sigma_candidates(base, u_a_hopf)
    if not cands:
        raise CalibrationError("no placeholder prefactor for the cumene preset")
    model = base.with_(sigma=min(sigma for _, sigma in cands))
    return Preset(model, None, temp_scale, name="cumene-hydroperoxide",
                  placeholders=("f", "u_a", "u_boil", "sigma", "temp_scale"))


@lru_cache(maxsize=None)
def preset(name: str) -> Preset:
    """Look up a named preset. Unknown names list the valid ones."""
    builders = {"mic-tank610": _build_mic_tank610,
                "cumene-hydroperoxide": _build_cumene}
    if name not in builders:
        raise ValidationError(
            "name", f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}")
    return builders[name]()
