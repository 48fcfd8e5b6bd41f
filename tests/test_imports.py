"""scipy is imported on the first integration, not with the package.

Only ``cycle-branch`` and ``simulate`` integrate, so the other commands
start without paying for ``scipy.integrate``.  Each import check runs in a
fresh interpreter, since this test process has long since loaded scipy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import thermorun
from thermorun import cycles, simulate

SRC = str(Path(thermorun.__file__).resolve().parents[1])
HEAVY = ("scipy.integrate", "scipy.linalg")

# Runs ``cli.main`` on the given arguments, if any, and prints which of the
# HEAVY modules are then loaded.
PROBE = f"""
import json, sys
from thermorun import cli
if sys.argv[1:]:
    assert cli.main(sys.argv[1:]) == 0
print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
"""


def loaded_after(argv: list[str]) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    res = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


PRESET = ["--preset", "mic-tank610"]


def test_importing_the_cli_loads_no_scipy_integrate_or_linalg():
    assert loaded_after([]) == []


@pytest.mark.parametrize("argv", [
    ["rates"] + PRESET,
    ["steady-branch"] + PRESET + ["--Ta", "282:296"],
    ["calibrate"] + PRESET,
    ["loci"] + PRESET + ["--grid", "6x6"],
], ids=lambda argv: argv[0])
def test_commands_without_integration_stay_scipy_free(argv, tmp_path):
    assert loaded_after(argv + ["-o", str(tmp_path)]) == []


@pytest.mark.parametrize("argv", [
    ["cycle-branch"] + PRESET + ["--Ta", "282:296", "--max-orbits", "2"],
    ["simulate"] + PRESET + ["--Ta", "292"],
], ids=lambda argv: argv[0])
def test_integrating_commands_load_scipy_integrate(argv, tmp_path):
    assert "scipy.integrate" in loaded_after(argv + ["-o", str(tmp_path)])


def test_integrations_go_through_the_module_forwarder(mic, mic_h1, monkeypatch):
    """Every integration calls one forwarder of its own module by name:
    ``solve_ivp`` where it needs events or dense output, ``lsoda``
    otherwise.  It does so once, with the RHS defined where the integration
    is, and the forwarder resolves scipy's driver (the ``LSODA`` solver
    that ``solve_ivp`` steps, or ``odeint``) at call time.  A tracer that
    wraps the module attributes therefore sees each integration exactly
    once."""
    import scipy.integrate

    p, seed = cycles.hopf_germ(mic.model, mic_h1, 1e-3)
    starts = seed.segment_starts(12)
    boiling = mic.model.with_(u_a=p.u_a)

    def integrations():
        ts, mesh, lo, hi = cycles._finalize_orbit(p, starts[0], seed.period)
        mults, defect = cycles.floquet(p, starts[0], seed.period)
        sampled = cycles.seed_from_simulation(p, starts[0], seed.period)
        return [*cycles._shoot(p, starts, seed.period, param="u_a"),
                ts, mesh, lo, hi, *mults, defect,
                sampled.times, sampled.states,
                simulate.integrate(p, (0.9, p.u_a), 5.0),
                simulate.integrate(boiling, (0.9, p.u_a), 5.0)]

    reference = integrations()
    calls = Counter()

    def counting(where, fn):
        def wrapped(fun, *args, **kwargs):
            owner = fun.__qualname__.split(".<locals>")[0]
            calls[where, fn.__name__, owner] += 1
            return fn(fun, *args, **kwargs)
        return wrapped

    for name in ("LSODA", "odeint"):
        monkeypatch.setattr(scipy.integrate, name,
                            counting("scipy", getattr(scipy.integrate, name)))
    for mod in (cycles, simulate):
        for name in ("solve_ivp", "lsoda"):
            monkeypatch.setattr(mod, name,
                                counting(mod.__name__, getattr(mod, name)))
    patched = integrations()

    expected = Counter()
    for module, forwarder, driver, owner in (
            ("thermorun.cycles", "lsoda", "odeint", "_stacked_rhs"),
            ("thermorun.cycles", "solve_ivp", "LSODA", "_finalize_orbit"),
            # floquet integrates leg by leg; this orbit takes two legs.
            ("thermorun.cycles", "solve_ivp", "LSODA", "floquet"),
            ("thermorun.cycles", "solve_ivp", "LSODA", "floquet"),
            ("thermorun.cycles", "lsoda", "odeint", "seed_from_simulation"),
            # Without a boiling threshold integrate has no event.
            ("thermorun.simulate", "lsoda", "odeint", "_callbacks"),
            ("thermorun.simulate", "solve_ivp", "LSODA", "_callbacks")):
        expected[module, forwarder, owner] += 1
        expected["scipy", driver, owner] += 1
    assert calls == expected
    assert len(patched) == len(reference)
    for got, want in zip(patched, reference):
        if isinstance(want, simulate.Trajectory):
            assert np.array_equal(got.times, want.times)
            assert np.array_equal(got.states, want.states)
            assert got.events == want.events
        elif want is None:
            assert got is None
        else:
            assert np.array_equal(got, want)
