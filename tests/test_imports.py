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
    """Every integration calls ``cycles.solve_ivp`` or ``simulate.solve_ivp``
    by name, with the RHS defined where the integration is, and that name
    resolves ``scipy.integrate.solve_ivp`` at call time.  A tracer that
    wraps the two module attributes therefore sees each integration once."""
    import scipy.integrate

    p, seed = cycles.hopf_germ(mic.model, mic_h1, 1e-3)
    starts = seed.segment_starts(12)

    def integrations():
        return [*cycles._shoot(p, starts, seed.period, param="u_a"),
                *cycles._shoot(p, starts, seed.period, var=False),
                simulate.integrate(p, (0.9, p.u_a), 5.0)]

    reference = integrations()
    calls = Counter()

    def counting(where, fn):
        def wrapped(fun, *args, **kwargs):
            owner = fun.__qualname__.split(".<locals>")[0]
            calls[where, owner] += 1
            return fn(fun, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(scipy.integrate, "solve_ivp",
                        counting("scipy", scipy.integrate.solve_ivp))
    for mod in (cycles, simulate):
        monkeypatch.setattr(mod, "solve_ivp",
                            counting(mod.__name__, mod.solve_ivp))
    patched = integrations()

    assert calls == {
        ("thermorun.cycles", "_stacked_rhs"): 1, ("scipy", "_stacked_rhs"): 1,
        ("thermorun.cycles", "_shoot"): 1, ("scipy", "_shoot"): 1,
        ("thermorun.simulate", "_solve"): 1, ("scipy", "_solve"): 1,
    }
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
