"""Self-checks of the benchmark's own logic; runs in a second, no library runs.

    python3 perfbench/selfcheck.py

Checks the metric aggregation, that the fingerprint gate rejects every
perturbed value of the recorded fingerprints, that the span arithmetic and
the predicted-zero counters behave, and that BENCHMARK.json names exactly
the workloads and per-layer metrics the code produces.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import fingerprint
import run
import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
HISTORY = BENCH / "history"


def check_aggregation() -> None:
    s = run.summarize([5.0, 1.0, 4.0, 2.0, 3.0])
    assert (s["median"], s["q1"], s["q3"], s["n"]) == (3.0, 1.5, 4.5, 5), s
    s = run.summarize([2.5])
    assert (s["median"], s["q1"], s["q3"], s["n"]) == (2.5, 2.5, 2.5, 1), s
    s = run.summarize([1.0, 3.0])
    assert s["median"] == 2.0 and s["q1"] <= 2.0 <= s["q3"], s
    assert s["min"] == 1.0, s
    passes = [[{"s": 2.0, "ref_s": 1.0}, {"s": 3.0, "ref_s": 1.0}],
              [{"s": 4.0, "ref_s": 2.0}, {"s": 1.0, "ref_s": 2.0}]]
    assert run.pass_ratios(passes, 2.0) == [4.0, 2.5], "references around each operation"
    assert run.fail_frac(8, 2) == 0.25
    assert run.fail_frac(3, 0) == 0.0
    assert run.fail_frac(0, 0) == 1.0, "nothing attempted must not read as success"


def _perturbed(check: fingerprint.Check, value):
    """A value that ``check`` must reject."""
    if check.equals is not None:
        if isinstance(check.equals, bool):
            return not check.equals
        if isinstance(check.equals, int):
            return check.equals + 1
        if isinstance(check.equals, list):
            return list(reversed(check.equals)) + ["perturbed"]
        return f"{check.equals}-perturbed"
    if check.ref is not None:
        tol = max(check.abs_tol, check.rel_tol * abs(check.ref))
        return check.ref + 2.0 * tol
    if math.isfinite(check.hi):
        return check.hi + max(abs(check.hi), 1e-12)
    return check.lo - max(abs(check.lo), 1.0)


def _recorded_fingerprints() -> dict[str, dict]:
    """One recorded fingerprint per check set, from the committed history."""
    found: dict[str, dict] = {}
    for path in sorted(HISTORY.glob("*.json")):
        for result in json.loads(path.read_text())["results"]:
            for check_set, fp in result["fingerprints"].items():
                found.setdefault(check_set, fp)
    return found


def check_gate() -> None:
    recorded = _recorded_fingerprints()
    assert set(recorded) == set(fingerprint.CHECKS), sorted(recorded)
    for check_set, fp in recorded.items():
        assert fingerprint.failures(check_set, fp) == [], (check_set, fingerprint.failures(check_set, fp))
        for check in fingerprint.CHECKS[check_set]:
            bad = dict(fp, **{check.key: _perturbed(check, fp.get(check.key))})
            msgs = fingerprint.failures(check_set, bad)
            assert any(m.startswith(check.key) for m in msgs), (check_set, check)
            missing = {k: v for k, v in fp.items() if k != check.key}
            assert fingerprint.failures(check_set, missing), (check_set, check.key)


def _stacked_rhs():
    """Stands in for cycles._stacked_rhs: the RHS closure it defines."""
    def rhs():
        pass
    return rhs


def check_spans() -> None:
    spans = [
        ["solvers.continue_curve", -1, 0.0, 10.0, {"points": 2}],
        ["solvers.damped_newton", 0, 1.0, 2.0, None],
        ["solvers.damped_newton", 0, 3.0, 4.0, None],
        ["solvers.damped_newton", 0, 5.0, 6.0, None],
        ["solvers.damped_newton", -1, 11.0, 12.0, None],
        ["simulate.settle", -1, 20.0, 30.0, {"kind": "steady"}],
        ["simulate.ivp", 5, 21.0, 29.0, {"nfev": 7, "njev": 1, "nlu": 2}],
    ]
    m = tracing.layer_metrics(spans)
    assert m["solvers.continue_curve.s"] == 7.0
    assert m["solvers.damped_newton.calls"] == 4
    assert m["solvers.newton_per_point"] == 1.5, "only corrector calls inside continue_curve"
    assert m["simulate.settle.s"] == 2.0 and m["simulate.settle.steady_s"] == 10.0
    assert (m["simulate.ivp.calls"], m["simulate.ivp.nfev"]) == (1, 7)
    merged = tracing.merge([spans[:1], spans[1:3]])
    assert [row[1] for row in merged] == [-1, 1, 1]
    assert tracing._cycles_ivp_name((_stacked_rhs(),), {}) == "cycles.ivp.variational"
    assert tracing._cycles_ivp_name((lambda t, y: y,), {}) == "cycles.ivp.other"


def check_predicted_zeros() -> None:
    clean = tracing.layer_metrics([["model.preset", -1, 0.0, 1.0, None]])
    for workload in tracing.PREDICTED_ZERO:
        assert tracing.zero_violations(workload, clean) == [], workload
    drifted = tracing.layer_metrics([
        ["simulate.ivp", -1, 0.0, 1.0, {"nfev": 1, "njev": 0, "nlu": 0}],
        ["cycles.ivp.variational", -1, 1.0, 2.0, {"nfev": 1, "njev": 0, "nlu": 0}],
    ])
    for workload in ("cycle-branch-mic", "loci-steady"):
        assert any(v.startswith("simulate.ivp.calls")
                   for v in tracing.zero_violations(workload, drifted)), workload
    assert any(v.startswith("cycles.ivp.variational.calls")
               for v in tracing.zero_violations("loci-steady", drifted))
    # The recorded traced runs themselves.
    for path in sorted(HISTORY.glob("*.json")):
        for result in json.loads(path.read_text())["results"]:
            if result["trace"]:
                layer = {k: v["value"] for k, v in result["metrics"].items()}
                assert tracing.zero_violations(result["workload"], layer) == [], path


def check_manifest() -> None:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)


def main() -> int:
    checks = (check_aggregation, check_gate, check_spans, check_predicted_zeros,
              check_manifest)
    failed = 0
    for check in checks:
        try:
            check()
            print(f"PASS {check.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
