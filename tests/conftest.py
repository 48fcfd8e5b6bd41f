from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from thermorun import cycles, loci, model, steady
from thermorun.errors import ValidationError
from thermorun.model import CONTINUABLE_PARAMS, U_FLOOR, ModelParams, _arrhenius

# Parameter distribution of acceptance criterion 5.
criterion5_params = st.builds(
    lambda f, ell, eps, u_a, ln_sigma: ModelParams(
        f=f, ell=ell, eps=eps, u_a=u_a, sigma=math.exp(ln_sigma)),
    st.floats(0.3, 4.0), st.floats(50.0, 1500.0), st.floats(2.0, 25.0),
    st.floats(0.025, 0.055), st.floats(20.0, 32.0))


# The array form of ``model._param_derivative_scalar``: the reference for
# its twin test, the stacked shooting kernels and the augmented loci
# Jacobian.
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


# Allocating forms of the integrator callbacks of ``cycles``: fresh arrays on
# every call and the parameters read from ``p`` each time.  The callbacks,
# which reuse their arrays, are tested against them bit for bit.
def stacked_rhs_allocating(p: ModelParams, m: int, h: float, sens: bool):
    """The stacked shooting RHS one ufunc per operation, its arrays
    allocated per call: the reference of ``cycles._stacked_rhs``."""
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
    from ``model._jac_scalar`` and the field from ``model._field_scalar``."""
    def rhs(t, Y):
        x, u = Y[:2].tolist()
        J = model._jac_scalar(p, x, u)
        tr = J[0][0] + J[1][1]
        Mdot = np.array(J) @ Y[2:6].reshape(2, 2)
        return [*model._field_scalar(p, x, u), *Mdot.ravel().tolist(), tr, abs(tr)]

    return rhs


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
