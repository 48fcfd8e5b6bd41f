"""thermorun benchmark: end-to-end times gated by a result fingerprint.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the library is imported from its
``src`` directory.  A closed loop with one client: one operation at a time,
in one child process at a time, with BLAS/OpenMP pinned to one thread.

``--trace 0`` measures the end-to-end metrics: ``setup_s``, the median of
SETUP_REPS fresh processes that only import ``thermorun.cli`` and build the
workload's presets; then ``pass_per_ref``, the workload's passes repeated in
one fresh process for S seconds, each operation timed on its own between
two runs of a fixed reference integration, reported as the median over the
passes of the pass time in units of the reference time; and
``peak_rss_mb``, that process's peak RSS after its first pass.
``--trace 1`` runs one untraced and one traced pass, each operation in a
fresh process, and reports the per-layer metrics of ``tracing.PER_LAYER``.
Every operation's outputs are checked against ``fingerprint.CHECKS``; any
failure makes ``correct`` false and the exit code 1.  The last stdout line
is the JSON result; a record with provenance and all samples goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import fingerprint
import tracing
from workloads import CLI_SHIM, WORKLOADS, op_words

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SCRATCH = ROOT / ".perfbench"

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_REPS = 5
# Every child is killed at this point, 170 s after the runner started, so a
# hung operation fails the run instead of overrunning it.
DEADLINE = time.monotonic() + 170.0

# Import the CLI and build the presets; report which library was imported.
SETUP_CODE = ("import json, sys, numpy, scipy, thermorun, thermorun.cli; "
              "from thermorun import model; [model.preset(n) for n in sys.argv[1:]]; "
              "print(json.dumps({'thermorun': thermorun.__file__, "
              "'numpy': numpy.__version__, 'scipy': scipy.__version__}))")

END_TO_END = (("pass_per_ref", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The checkout's own library cannot be imported, so nothing can run."""


# ---------------------------------------------------------------------------
# Child processes


def _env() -> dict:
    env = dict(os.environ)
    env.pop("THERMORUN_OUTDIR", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(THREAD_ENV)
    return env


def run_child(argv: list[str], log: Path) -> tuple[float, float, float, int]:
    """Run one child to completion: (wall s, CPU s, max RSS in MB, exit code)."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, DEADLINE - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode


def _op_argv(name: str, i: int, seed: int, out: Path, spans: Path | None) -> list[str]:
    """Command line of operation ``i``: a CLI command or a library script, maybe traced."""
    op = op_words(WORKLOADS[name].ops[i], seed, out)
    if spans is not None:
        return [sys.executable, str(BENCH / "workloads.py"), "trace", str(spans), *op]
    if op[0] == "script":
        return [sys.executable, str(BENCH / "workloads.py"), *op]
    # As the ``thermorun`` console script would run it.
    return [sys.executable, "-c", CLI_SHIM, *op[1:]]


def _pass(name: str, seed: int, traced: bool) -> dict:
    """One workload pass: every operation, its fingerprint and its cost."""
    w = WORKLOADS[name]
    work = SCRATCH / "work" / name / ("traced" if traced else "plain")
    shutil.rmtree(work, ignore_errors=True)
    ops = []
    for i in range(len(w.ops)):
        out = work / f"op{i}"
        spans = work / f"spans{i}.json" if traced else None
        wall, cpu, rss, rc = run_child(_op_argv(name, i, seed, out, spans),
                                       work / f"op{i}.log")
        op = {"wall_s": wall, "cpu_s": cpu, "rss_mb": rss, "exit": rc, "failures": []}
        if rc != 0:
            op["failures"].append(f"exit code {rc}; see {work / f'op{i}.log'}")
        else:
            try:
                check_set, fp = fingerprint.extract(name, i, out)
                op["check_set"], op["fingerprint"] = check_set, fp
                op["failures"] += fingerprint.failures(check_set, fp)
            except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
                op["failures"].append(f"unreadable output: {exc!r}")
        if traced and spans.exists():
            op["spans"] = json.loads(spans.read_text())
        ops.append(op)
    return {"wall_s": sum(o["wall_s"] for o in ops), "cpu_s": sum(o["cpu_s"] for o in ops),
            "peak_rss_mb": max(o["rss_mb"] for o in ops), "ops": ops}


def _fingerprints(ops: list[dict]) -> dict:
    return {op["check_set"]: op["fingerprint"] for op in ops if "fingerprint" in op}


def _setup(name: str, rep: int | str) -> tuple[float, dict]:
    """One set-up process: (wall seconds, versions and library path).

    Raises BenchError unless it imported the checkout's own library.
    """
    log = SCRATCH / "work" / name / f"setup{rep}.log"
    wall, _, _, rc = run_child([sys.executable, "-c", SETUP_CODE,
                                *WORKLOADS[name].presets], log)
    lines = log.read_text(errors="replace").strip().splitlines()
    if rc != 0 or not lines:
        raise BenchError(f"cannot import thermorun from {ROOT / 'src'} (exit {rc}); see {log}")
    info = json.loads(lines[-1])
    if not Path(info["thermorun"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported {info['thermorun']}, not the checkout's library")
    return wall, info


# ---------------------------------------------------------------------------
# Statistics and provenance


def summarize(values: list[float]) -> dict:
    """Minimum, median, quartiles (statistics.quantiles, n=4) and sample count."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    else:
        q1 = med = q3 = values[0]
    return {"min": min(values), "median": med, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def fail_frac(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 1.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown (not a git checkout)"


def provenance(args, library: dict) -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": library["numpy"],
        "scipy": library["scipy"],
        "nproc": os.cpu_count(),
        "child_thread_env": THREAD_ENV,
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_reps": SETUP_REPS,
    }


# ---------------------------------------------------------------------------
# Measurement modes


def pass_ratios(passes: list[list[dict]], ref_after_s: float) -> list[float]:
    """Per pass, the sum over its operations of each one's time over the
    mean of the reference runs just before and just after it."""
    seq = [op for p in passes for op in p]
    refs = [op["ref_s"] for op in seq] + [ref_after_s]
    ratios = [op["s"] / (0.5 * (refs[k] + refs[k + 1])) for k, op in enumerate(seq)]
    n = len(passes[0])
    return [sum(ratios[j * n:(j + 1) * n]) for j in range(len(passes))]


def measure(args) -> dict:
    """--trace 0: SETUP_REPS set-up processes, then passes for --seconds.

    An untimed set-up process first warms the file cache for the imports.
    The passes run in one fresh process (``workloads.py loop``) that times
    every operation and the reference runs around it, and checks the
    operation's outputs.
    """
    name = args.workload
    _setup(name, "warm")
    setups = [_setup(name, rep) for rep in range(SETUP_REPS)]
    work = SCRATCH / "work" / name / "loop"
    shutil.rmtree(work, ignore_errors=True)
    _, _, rss, rc = run_child([sys.executable, str(BENCH / "workloads.py"), "loop", name,
                               str(args.seed), str(args.seconds), str(work)],
                              work / "loop.log")
    loop_out = work / "loop.json"
    loop = (json.loads(loop_out.read_text()) if rc == 0 and loop_out.exists()
            else {"first_pass_rss_mb": 0.0, "passes": []})
    passes = loop["passes"]
    ops = [op for p in passes for op in p]
    failures = [msg for op in ops for msg in op["failures"]]
    if not passes:
        failures.append(f"loop exit code {rc}; see {work / 'loop.log'}")
    attempted = max(1, len(ops))
    failed = sum(bool(op["failures"]) for op in ops) or int(not passes)
    summaries = {"setup_s": summarize([wall for wall, _ in setups])}
    if passes:
        summaries["pass_per_ref"] = summarize(pass_ratios(passes, loop["ref_after_s"]))
        summaries["pass_s"] = summarize([sum(op["s"] for op in p) for p in passes])
        for i, op in enumerate(WORKLOADS[name].ops):
            summaries[f"op{i}_s ({' '.join(op[:2])})"] = summarize([p[i]["s"] for p in passes])
        summaries["ref_s"] = summarize([op["ref_s"] for op in ops] + [loop["ref_after_s"]])
    ratio = summaries["pass_per_ref"]["median"] if passes else 0.0
    metrics = {"pass_per_ref": {"value": ratio, "unit": "ratio"},
               "setup_s": {"value": summaries["setup_s"]["median"], "unit": "s"},
               "peak_rss_mb": {"value": loop["first_pass_rss_mb"], "unit": "MB"}}
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "passes": len(passes),
            "loop_peak_rss_mb": rss,
            "summaries": summaries, "metrics": metrics,
            "fingerprints": _fingerprints(passes[-1] if passes else []),
            "library": setups[0][1]}


def measure_traced(args) -> dict:
    """--trace 1: an untraced then a traced pass; per-layer metrics."""
    name = args.workload
    _, library = _setup(name, 0)
    plain = _pass(name, args.seed, traced=False)
    traced = _pass(name, args.seed, traced=True)
    spans = tracing.merge([op.get("spans", []) for op in traced["ops"]])
    layer = tracing.layer_metrics(spans)
    layer["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    zeros = tracing.zero_violations(name, layer)
    attempted = failed = 0
    failures = []
    for p in (plain, traced):
        for op in p["ops"]:
            if p is traced and zeros:
                op["failures"] += zeros
            attempted += 1
            failed += bool(op["failures"])
            failures += op["failures"]
    units = dict(tracing.PER_LAYER)
    metrics = {k: {"value": layer[k], "unit": units[k]} for k, _ in tracing.PER_LAYER}
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "metrics": metrics, "untraced_wall_s": plain["wall_s"],
            "traced_wall_s": traced["wall_s"], "spans": len(spans),
            "fingerprints": _fingerprints(traced["ops"]), "library": library}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "thermorun" / "__init__.py").is_file():
        print(f"perfbench: no library source at {ROOT / 'src' / 'thermorun'}",
              file=sys.stderr)
        return 2
    try:
        res = measure_traced(args) if args.trace else measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    record = {"provenance": provenance(args, res.pop("library")),
              "why": WORKLOADS[args.workload].why,
              "fail_frac": fail_frac(res["attempted"], res["failed"]),
              "layer_map": tracing.LAYER_MAP, **res}
    out = SCRATCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))

    for msg in res["failures"]:
        print(f"FAIL {args.workload}: {msg}", file=sys.stderr)
    for key, summ in res.get("summaries", {}).items():
        print(f"{key}: min {summ['min']:.6g}, median {summ['median']:.6g} "
              f"(q1 {summ['q1']:.6g}, q3 {summ['q3']:.6g}, n={summ['n']})")
    print(f"fail_frac: {record['fail_frac']:g} "
          f"({res['failed']}/{res['attempted']} operations)")
    correct = res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
