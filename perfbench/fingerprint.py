"""Result fingerprints and the gate that holds every workload to them.

Each operation's outputs are reduced to a flat fingerprint (``extract``) and
checked against ``CHECKS``.  Tolerances come from the library's own
constants and the acceptance criteria (tests/test_acceptance.py), never from
observed run-to-run noise:

- ``FOLD_PARAM_TOL`` (1e-8) is the precision to which ``cycles`` locates a
  cycle fold in the parameter.  Taken relative, it is the tolerance on every
  parameter value a solver locates: Hopf points, the orbit at the turn of
  the cycle branch, the fold threshold f*, the calibrated prefactor sigma.
- ``PERIOD_REPEATABILITY`` (1e-6 relative) is what ``settle`` calls the same
  orbit; it bounds periods and amplitudes of one cycle computed two ways.
- ``TRIVIAL_MULT_TOL`` and ``LIOUVILLE_TOL`` bound the Floquet data
  (criterion 6); the criteria 3, 4, 5 and 7 windows are checked as stated.
  Criterion 4's shrinking oscillation inside the unstable cycle is an
  amplitude ratio below 1.
- Counts (orbits, stable orbits, region-map cells) and labels must match.

Reference values are those of the first recorded run (perfbench/history).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS

# Library constants, restated so the gate does not import the code under test.
FOLD_PARAM_TOL = 1e-8          # thermorun.cycles.FOLD_PARAM_TOL
TRIVIAL_MULT_TOL = 1e-4        # thermorun.cycles.TRIVIAL_MULT_TOL
LIOUVILLE_TOL = 1e-6           # thermorun.cycles.LIOUVILLE_TOL
PERIOD_REPEATABILITY = 1e-6    # thermorun.simulate.PERIOD_REPEATABILITY
ORACLE_TOL = 1e-6              # acceptance criterion 5


@dataclass(frozen=True)
class Check:
    """One fingerprint value and the rule it must satisfy.

    ``equals`` demands an exact match; ``ref`` with ``abs_tol``/``rel_tol``
    a numeric match; ``lo``/``hi`` an inclusive window.
    """

    key: str
    equals: object = None
    ref: float | None = None
    abs_tol: float = 0.0
    rel_tol: float = 0.0
    lo: float = -math.inf
    hi: float = math.inf

    def failure(self, fp: dict) -> str | None:
        v = fp.get(self.key)
        if self.equals is not None:
            return None if v == self.equals else f"{self.key} = {v!r}, expected {self.equals!r}"
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            return f"{self.key} = {v!r}, expected a finite number"
        if not self.lo <= v <= self.hi:
            return f"{self.key} = {v!r} outside [{self.lo!r}, {self.hi!r}]"
        if self.ref is not None:
            tol = max(self.abs_tol, self.rel_tol * abs(self.ref))
            if abs(v - self.ref) > tol:
                return f"{self.key} = {v!r}, reference {self.ref!r} +- {tol:.3g}"
        return None


def _param(key: str, ref: float) -> Check:
    return Check(key, ref=ref, rel_tol=FOLD_PARAM_TOL)


def _orbit_scalar(key: str, ref: float) -> Check:
    return Check(key, ref=ref, rel_tol=PERIOD_REPEATABILITY)


SIGMA_MIC = 440238860828.87897
SIGMA_CUMENE = 19389414959738.82

CHECKS: dict[str, list[Check]] = {
    "cycle-branch-mic": [
        _param("sigma", SIGMA_MIC),
        _param("hopf_u_a", 0.037692298437497856),
        Check("hopf_T_K", lo=288.5, hi=291.5),                      # criterion 3
        Check("criticality", equals="subcritical"),                 # criterion 3
        Check("head_unstable", equals=True),                        # criterion 4
        # The last unstable orbit before the stability flip; the refined
        # cycle fold is 0.037671071187724996 (289.99 K).
        _param("turning_param", 0.037671062263393798),
        Check("orbits", equals=16),
        Check("stable_orbits", equals=1),
        _orbit_scalar("stable_amplitude", 0.007268028176642502),
        Check("stop_reason", equals="max orbits"),
    ],
    "attractor-mic": [
        _param("sigma_mic", SIGMA_MIC),
        Check("runaway_292K", equals="runaway"),
        Check("settle_292K", equals="runaway"),
        Check("settle_286K", equals="steady"),
        Check("inside_decay", hi=1.0),                              # criterion 4
        _orbit_scalar("cycle_period", 0.5772479388596395),
        _orbit_scalar("cycle_amplitude", 0.01935969927914316),
        Check("cycle_amplitude", lo=0.01),                          # criterion 4
        Check("cycle_segments", equals=24),
        Check("trivial_defect", hi=TRIVIAL_MULT_TOL),               # criterion 6
        Check("liouville_defect", hi=LIOUVILLE_TOL),                # criterion 6
    ],
    "loci-steady/loci": [
        _param("sigma", SIGMA_MIC),
        _param("f_star", 4.64493814504088),
        Check("oscillatory_cells", equals=44),
        Check("bistable_cells", equals=161),
        Check("hopf_gap_at_f", hi=1e-3),                            # criterion 7
    ],
    "loci-steady/steady-sweep": [
        _param("sigma/mic-tank610", SIGMA_MIC),
        _param("sigma/cumene-hydroperoxide", SIGMA_CUMENE),
        Check("oracle_worst", hi=ORACLE_TOL),                       # criterion 5
        Check("oracle_rootless", equals=0),
        Check("oracle_compared", lo=1),
    ] + [
        Check(f"hopf/{preset}/{param}",
              equals=["supercritical" if (preset, param) == ("mic-tank610", "eps")
                      else "subcritical"])
        for preset in ("mic-tank610", "cumene-hydroperoxide")
        for param in ("u_a", "f", "ell", "eps", "sigma")
    ],
}


# ---------------------------------------------------------------------------
# Extraction from operation outputs


def _cycle_branch(out: Path) -> dict:
    man = json.loads((out / "manifest.json").read_text())
    s = man["summary"]
    with open(out / "cycles.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    stable = [r for r in rows if r["stability"] == "stable"]
    head = rows[:5]
    return {
        "sigma": man["resolved_params"]["sigma"],
        "hopf_u_a": s["hopf_param"],
        "hopf_T_K": s["hopf_param"] * man["temp_scale_K"],
        # A subcritical Hopf point sheds unstable orbits (l1 > 0).
        "criticality": "subcritical" if rows and rows[0]["stability"] == "unstable"
        else "supercritical",
        "head_unstable": bool(head) and all(r["stability"] == "unstable" for r in head),
        "turning_param": min((float(r["param"]) for r in rows), default=None),
        "orbits": s["orbits"],
        "stable_orbits": len(stable),
        "stable_amplitude": max((float(r["amplitude"]) for r in stable), default=None),
        "stop_reason": s["stop_reason"],
    }


def _loci(out: Path) -> dict:
    man = json.loads((out / "manifest.json").read_text())
    s = man["summary"]
    fp = {
        "sigma": man["resolved_params"]["sigma"],
        "f_star": s["fold_f_threshold"],
        "oscillatory_cells": s["oscillatory_cells"],
        "bistable_cells": s["bistable_cells"],
    }
    # Criterion 7: the Hopf locus passes 290.15 K at the preset flow rate.
    f0, target = man["resolved_params"]["f"], 290.15 / man["temp_scale_K"]
    with open(out / "hopf_locus.csv", newline="") as fh:
        gaps = [abs(float(r["u_a"]) - target) for r in csv.DictReader(fh)
                if abs(float(r["f"]) - f0) < 1e-3]
    fp["hopf_gap_at_f"] = min(gaps, default=None)
    return fp


def _attractor(fp: dict) -> dict:
    fp = dict(fp)
    tm = fp.get("trivial_multiplier")
    fp["trivial_defect"] = abs(tm - 1.0) if tm is not None else None
    return fp


def _sweep(fp: dict) -> dict:
    flat = {k: v for k, v in fp.items() if k not in ("sigma", "hopf")}
    for name, sigma in fp["sigma"].items():
        flat[f"sigma/{name}"] = sigma
    for branch, hopfs in fp["hopf"].items():
        flat[f"hopf/{branch}"] = [h[2] for h in hopfs]
    return flat


def extract(workload: str, op_index: int, out: Path) -> tuple[str, dict]:
    """(check set name, fingerprint) of one operation's output directory.

    The check set is the workload's name, followed by ``/`` and the command
    or script name when the workload has more than one operation.
    """
    ops = WORKLOADS[workload].ops
    kind, what = ops[op_index][:2]
    check_set = workload if len(ops) == 1 else f"{workload}/{what}"
    if kind == "cli":
        return check_set, (_cycle_branch if what == "cycle-branch" else _loci)(out)
    fp = json.loads((out / "fingerprint.json").read_text())
    return check_set, _attractor(fp) if what == "attractor-mic" else _sweep(fp)


def failures(check_set: str, fp: dict) -> list[str]:
    """Every check of ``check_set`` that ``fp`` does not satisfy."""
    return [msg for c in CHECKS[check_set] if (msg := c.failure(fp)) is not None]
