from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from thermorun import cycles, loci, model, steady
from thermorun.model import ModelParams

# Parameter distribution of acceptance criterion 5.
criterion5_params = st.builds(
    lambda f, ell, eps, u_a, ln_sigma: ModelParams(
        f=f, ell=ell, eps=eps, u_a=u_a, sigma=math.exp(ln_sigma)),
    st.floats(0.3, 4.0), st.floats(50.0, 1500.0), st.floats(2.0, 25.0),
    st.floats(0.025, 0.055), st.floats(20.0, 32.0))


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
