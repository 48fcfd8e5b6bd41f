"""Outside-in layer spans for the traced benchmark pass.

``install`` replaces the benchmark-relevant public functions of the library
layers, and ``solve_ivp`` as ``simulate`` and ``cycles`` import it, with
wrappers that record one span per call: name, parent span, start, end and a
few counters read from the call's result.  Spans stay in memory and are
written out once, when the traced operation ends.  ``layer_metrics`` turns
the spans of a pass into the per-layer metrics named in ``PER_LAYER``.

A wrapper is bound wherever the library holds the original function, so
``from .solvers import continue_curve`` call sites are traced too.  The
per-evaluation kernels (vector field, derivatives, rate law) are not
wrapped: a wrapper costs more than such a call, so their time counts as self
time of the enclosing layer call.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function, counter extractor or None) for every traced call.
TRACED = (
    ("model", "preset", None),
    ("model", "calibrate_sigma", None),
    ("steady", "continue_branch", lambda out: {"points": len(out.points)}),
    ("steady", "reduced_scan", None),
    ("steady", "solve_steady", None),
    ("steady", "lyapunov_first_coeff", None),
    # The first point of a run is the start, not a corrected point.
    ("solvers", "continue_curve", lambda out: {"points": len(out.points) - 1}),
    ("solvers", "damped_newton", None),
    ("simulate", "settle", lambda out: {"kind": out.kind}),
    ("simulate", "integrate", None),
    ("cycles", "continue_cycles", lambda out: {"orbits": len(out.orbits)}),
    ("cycles", "find_cycle", lambda out: {"orbits": 1}),
    ("cycles", "hopf_germ", None),
    ("cycles", "seed_from_simulation", None),
    ("cycles", "floquet", None),
    ("loci", "continue_hopf_locus", lambda out: {"points": len(out)}),
    ("loci", "continue_fold_locus", lambda out: {"points": len(out)}),
    ("loci", "fold_threshold", None),
    ("loci", "find_fold_seed", None),
    ("loci", "region_map", None),
    ("loci", "classify_point", None),
    ("output", "write_csv", lambda out: {"rows": out}),
)

# solve_ivp calls from cycles, labelled by the function defining the RHS.
IVP_LABELS = {"_stacked_rhs": "variational", "_shoot": "plain",
              "floquet": "floquet", "_finalize_orbit": "sample",
              "seed_from_simulation": "sample"}
IVP_KINDS = ("variational", "plain", "floquet", "sample", "other")


def _ivp_counts(sol) -> dict:
    return {"nfev": int(sol.nfev), "njev": int(sol.njev), "nlu": int(sol.nlu)}


def _cycles_ivp_name(args, kwargs) -> str:
    fun = args[0] if args else kwargs["fun"]
    owner = getattr(fun, "__qualname__", "").split(".<locals>")[0]
    return "cycles.ivp." + IVP_LABELS.get(owner, "other")


class Tracer:
    """Span recorder: one list row per wrapped call, linked to its parent."""

    def __init__(self):
        self.spans: list[list] = []   # [name, parent, t0, t1, counters]
        self._open: list[int] = []

    def wrap(self, fn, name, count=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            row = [label, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(row)
            try:
                out = fn(*args, **kwargs)
            finally:
                row[3] = clock()
                stack.pop()
            if count is not None:
                row[4] = count(out)
            return out

        return traced

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.spans))


def install(tracer: Tracer, imports: tuple[str, ...]) -> None:
    """Import ``thermorun.<name>`` for each of ``imports`` and bind traced
    wrappers in every ``thermorun`` module then loaded.

    Importing only what the traced operation itself imports keeps the
    import cost of the traced and the untraced pass equal.
    """
    for name in imports:
        importlib.import_module(f"thermorun.{name}")
    modules = {n.split(".")[-1]: m for n, m in sys.modules.items()
               if n == "thermorun" or n.startswith("thermorun.")}
    for mod_name, fn_name, count in TRACED:
        if mod_name not in modules:
            continue
        original = getattr(modules[mod_name], fn_name)
        wrapper = tracer.wrap(original, f"{mod_name}.{fn_name}", count)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    if "simulate" in modules:
        sim = modules["simulate"]
        sim.solve_ivp = tracer.wrap(sim.solve_ivp, "simulate.ivp", _ivp_counts)
    if "cycles" in modules:
        cyc = modules["cycles"]
        cyc.solve_ivp = tracer.wrap(cyc.solve_ivp, _cycles_ivp_name, _ivp_counts)


# ---------------------------------------------------------------------------
# Per-layer metrics

def _per_layer() -> tuple[tuple[str, str], ...]:
    seconds = ["model.preset", "model.calibrate_sigma",
               "steady.continue_branch", "steady.reduced_scan",
               "steady.solve_steady", "steady.lyapunov_first_coeff",
               "solvers.continue_curve", "solvers.damped_newton",
               "simulate.settle", "simulate.integrate", "simulate.ivp",
               "cycles.continue_cycles", "cycles.find_cycle", "cycles.hopf_germ",
               "cycles.seed_from_simulation", "cycles.floquet",
               "loci.continue_hopf_locus", "loci.continue_fold_locus",
               "loci.fold_threshold", "loci.find_fold_seed", "loci.region_map",
               "loci.classify_point", "output.write_csv"]
    counts = ["steady.continue_branch.calls", "steady.continue_branch.points",
              "steady.solve_steady.calls", "solvers.continue_curve.points",
              "solvers.damped_newton.calls", "simulate.settle.calls",
              "simulate.ivp.calls", "simulate.ivp.nfev", "simulate.ivp.njev",
              "simulate.ivp.nlu", "cycles.orbits", "cycles.floquet.calls"]
    for kind in IVP_KINDS:
        seconds.append(f"cycles.ivp.{kind}")
        counts += [f"cycles.ivp.{kind}.calls", f"cycles.ivp.{kind}.nfev"]
    counts += ["cycles.ivp.variational.njev", "cycles.ivp.variational.nlu",
               "loci.classify_point.calls", "loci.hopf_points", "loci.fold_points",
               "output.write_csv.rows"]
    return (tuple((f"{name}.s", "s") for name in seconds)
            + tuple((f"simulate.settle.{kind}_s", "s") for kind in ("steady", "runaway"))
            + tuple((name, "count") for name in counts)
            + (("solvers.newton_per_point", "ratio"), ("cycles.ivp_per_orbit", "ratio"),
               ("trace.overhead_s", "s")))


PER_LAYER = _per_layer()
"""(metric, unit) reported by every traced run, in BENCHMARK.json order."""


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``trace.overhead_s`` excluded).

    ``.s`` metrics are self times: span duration minus the time covered by
    its child spans.  ``simulate.settle.<kind>_s`` are whole settle calls
    split by the attractor they returned.  Counters belong to the span that
    recorded them; ``solvers.newton_per_point`` counts only the
    ``damped_newton`` calls with a ``continue_curve`` ancestor.
    """
    child = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    m: dict[str, float] = defaultdict(float)
    for i, (name, parent, t0, t1, counters) in enumerate(spans):
        m[f"{name}.s"] += (t1 - t0) - child[i]
        m[f"{name}.calls"] += 1
        counters = counters or {}
        for key, value in counters.items():
            if key == "kind":
                m[f"{name}.{value}_s"] += t1 - t0
            else:
                m[f"{name}.{key}"] += value
        if name == "solvers.damped_newton" and _has_ancestor(
                spans, parent, "solvers.continue_curve"):
            m["solvers.newton_in_curve"] += 1
        if name.startswith("cycles.ivp."):
            m["cycles.ivp.calls"] += 1
    m["loci.hopf_points"] = m["loci.continue_hopf_locus.points"]
    m["loci.fold_points"] = m["loci.continue_fold_locus.points"]
    m["cycles.orbits"] = m["cycles.continue_cycles.orbits"] + m["cycles.find_cycle.orbits"]
    m["cycles.ivp_per_orbit"] = _ratio(m["cycles.ivp.calls"], m["cycles.orbits"])
    m["solvers.newton_per_point"] = _ratio(m["solvers.newton_in_curve"],
                                           m["solvers.continue_curve.points"])
    return {name: float(m[name]) for name, _ in PER_LAYER if name != "trace.overhead_s"}


def _has_ancestor(spans, idx: int, name: str) -> bool:
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][1]
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def merge(span_lists: list[list[list]]) -> list[list]:
    """Concatenate the spans of several operations, re-basing parent links."""
    out: list[list] = []
    for spans in span_lists:
        base = len(out)
        out.extend([n, p + base if p >= 0 else -1, t0, t1, c]
                   for n, p, t0, t1, c in spans)
    return out


# ---------------------------------------------------------------------------
# Layer map and predicted zeros

LAYER_MAP = {
    "cycles": {"moves": {"pass_per_ref": ["cycle-branch-mic", "attractor-mic"]},
               "no_change": ["loci-steady"]},
    "simulate": {"moves": {"pass_per_ref": ["attractor-mic"]},
                 "no_change": ["cycle-branch-mic", "loci-steady"]},
    "loci": {"moves": {"pass_per_ref": ["loci-steady"]},
             "no_change": ["cycle-branch-mic", "attractor-mic"]},
    "steady": {"moves": {"pass_per_ref": ["loci-steady"]}, "no_change": ["attractor-mic"]},
    "solvers": {"moves": {"pass_per_ref": ["loci-steady"]}, "no_change": ["attractor-mic"]},
    "model": {"moves": {"setup_s": ["cycle-branch-mic", "attractor-mic", "loci-steady"]},
              "no_change": []},
    "output": {"moves": {"pass_per_ref": ["loci-steady"]}, "no_change": ["attractor-mic"]},
}
"""Layer -> end-to-end metric it should move -> workloads; and the workloads
on which a change to the layer is predicted to change nothing."""

# Counters that must read zero because the workload never enters the layer.
PREDICTED_ZERO = {
    "cycle-branch-mic": ["simulate.ivp.calls", "simulate.settle.calls",
                         "loci.classify_point.calls"],
    "attractor-mic": ["loci.classify_point.calls", "steady.continue_branch.calls",
                      "output.write_csv.rows"],
    "loci-steady": ["simulate.ivp.calls", "simulate.settle.calls", "cycles.orbits"]
                   + [f"cycles.ivp.{k}.calls" for k in IVP_KINDS],
}


def zero_violations(workload: str, metrics: dict[str, float]) -> list[str]:
    """Predicted-zero counters that are not zero on this workload."""
    return [f"{name} = {metrics[name]:g}, predicted 0"
            for name in PREDICTED_ZERO[workload] if metrics[name] != 0]
