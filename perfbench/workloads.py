"""The three benchmark workloads and the library scripts behind them.

A workload pass is a list of operations: each one ``thermorun`` CLI
command or one library script defined here.  A script's inputs come only
from the workload seed and a draw number; the CLI commands are
deterministic and ignore both.

    python3 perfbench/workloads.py loop cycle-branch-mic 1 30 DIR
    python3 perfbench/workloads.py script attractor-mic --seed 1 --draw 0 --out DIR
    python3 perfbench/workloads.py trace SPANS.json cli loci --preset mic-tank610 -o DIR
    python3 perfbench/workloads.py trace SPANS.json script steady-sweep --seed 1 --draw 0 --out DIR

``loop`` runs passes of a workload in one process for the given seconds,
timing and checking every operation (see ``loop``); the runner's timed
measurement.  ``script`` runs one script and writes its fingerprint to
``DIR/fingerprint.json``; ``trace`` runs one operation with the layer
wrappers of ``tracing.py`` installed and writes the recorded spans to
``SPANS.json``."""

from __future__ import annotations

import json
import math
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# The console-script entry point, run as ``python3 -c CLI_SHIM <args>``.
CLI_SHIM = "import sys; from thermorun.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    presets: tuple[str, ...]          # built by the set-up process
    # One operation per entry: ("cli", *thermorun args) or ("script", name).
    ops: tuple[tuple[str, ...], ...]


WORKLOADS = {w.name: w for w in (
    Workload(
        "cycle-branch-mic",
        "paper headline: subcritical Hopf, 15 unstable orbits, cycle fold by "
        "stacked variational shooting and Floquet; no simulate or loci",
        ("mic-tank610",),
        (("cli", "cycle-branch", "--preset", "mic-tank610", "--Ta", "282:296",
          "--max-orbits", "16"),),
    ),
    Workload(
        "attractor-mic",
        "stiff integration: runaway event, steady fill, decaying spiral and "
        "relaxation cycle, then find_cycle; seed draws the basin offsets",
        ("mic-tank610",),
        (("script", "attractor-mic"),),
    ),
    Workload(
        "loci-steady",
        "loci and a 40x40 region map, then steady continuation and the reduced-"
        "scan oracle; no ODE integration, so the control for integrator changes",
        ("mic-tank610", "cumene-hydroperoxide"),
        (("cli", "loci", "--preset", "mic-tank610", "--grid", "40x40"),
         ("script", "steady-sweep")),
    ),
)}


# ---------------------------------------------------------------------------
# attractor-mic

# Ambient inside the bistable window of mic-tank610, between the cycle fold
# (289.99 K) and the subcritical Hopf point (290.15 K).
BISTABLE_T_K = 290.07
# Amplitude in u of the unstable orbit at that ambient (cycle-branch output).
UNSTABLE_AMPLITUDE = 1.26e-3
# Start offsets above the steady state, in units of UNSTABLE_AMPLITUDE.  Both
# ends of each range were checked over REACH_TAU: the inner range spirals in
# towards the steady state, the outer one reaches the relaxation cycle.
INSIDE_OFFSETS = (0.10, 0.30)
OUTSIDE_OFFSETS = (2.5, 3.5)
# Steady-state guess at BISTABLE_T_K for the Newton solve.
STEADY_U_GUESS = 0.03937
# Integration time of both bistable-window starts, and its samples.  The
# outer start is on the relaxation cycle by tau = 15.
REACH_TAU = 30.0
REACH_SAMPLES = 4000


def _half_range(us) -> float:
    return 0.5 * float(us.max() - us.min())


def _crossing_period(traj) -> float:
    """Mean gap between upward crossings of the mean u over the last third.

    A period guess for ``seed_from_simulation``; ``find_cycle`` corrects it.
    """
    import numpy as np

    n = len(traj.times) // 3
    t, u = traj.times[-n:], traj.us[-n:]
    g = u - float(np.mean(u))
    up = np.nonzero((g[:-1] <= 0.0) & (g[1:] > 0.0))[0]
    crossings = t[up] - g[up] * (t[up + 1] - t[up]) / (g[up + 1] - g[up])
    return float(np.mean(np.diff(crossings)))


def attractor_mic(seed: int, draw: int) -> dict:
    """Integrator four ways on mic-tank610, then correct the reached cycle."""
    import numpy as np

    from thermorun import cycles, model, simulate, steady

    rng = np.random.default_rng([seed, draw])
    k_in = float(rng.uniform(*INSIDE_OFFSETS))
    k_out = float(rng.uniform(*OUTSIDE_OFFSETS))

    pre = model.preset("mic-tank610")
    p, ts = pre.model, pre.temp_scale

    # Above the Hopf point with boiling: a full tank at ambient runs away.
    hot = p.with_(u_a=292.0 / ts)
    traj = simulate.integrate(hot, (1.0, hot.u_a), tau_end=50.0)
    boil = simulate.detect_runaway(traj, hot.u_boil)
    hot_report = simulate.settle(hot, (1.0, hot.u_a), horizon=150.0)

    # Well below it: an empty tank at ambient fills to the stable steady state.
    cold = p.with_(u_a=286.0 / ts)
    cold_report = simulate.settle(cold, (0.0, cold.u_a), horizon=400.0)

    # Bistable window: from inside the unstable cycle the oscillation spirals
    # in; from outside it the relaxation cycle is reached.
    q = p.with_(u_a=BISTABLE_T_K / ts, u_boil=math.inf)
    x_guess = float(model.quasi_steady_x(q, STEADY_U_GUESS))
    pt = steady.solve_steady(q, (x_guess, STEADY_U_GUESS))
    x0, u0 = pt.state.x, pt.state.u
    inside = simulate.integrate(q, (x0, u0 + k_in * UNSTABLE_AMPLITUDE),
                                tau_end=REACH_TAU, n_samples=REACH_SAMPLES)
    outside = simulate.integrate(q, (x0, u0 + k_out * UNSTABLE_AMPLITUDE),
                                 tau_end=REACH_TAU, n_samples=REACH_SAMPLES)
    fifth = len(inside.times) // 5

    period_guess = _crossing_period(outside)
    seed_orbit = cycles.seed_from_simulation(q, outside.final_state(), period_guess)
    orbit = cycles.find_cycle(q, seed_orbit, m=12)

    return {
        "inputs": {"inside_offset": k_in, "outside_offset": k_out},
        "sigma_mic": p.sigma,
        "runaway_292K": "runaway" if boil is not None else "none",
        "settle_292K": hot_report.kind,
        "settle_286K": cold_report.kind,
        "inside_decay": _half_range(inside.us[-fifth:]) / _half_range(inside.us[:fifth]),
        "period_guess": period_guess,
        "cycle_period": orbit.period,
        "cycle_amplitude": orbit.amplitude,
        "cycle_segments": orbit.segments,
        "trivial_multiplier": orbit.multipliers[0],
        "liouville_defect": orbit.liouville_defect,
    }


# ---------------------------------------------------------------------------
# steady-sweep

SWEEP_SETS = 40
# Continuation windows per parameter, as multiples of the preset value
# (u_a is given in Kelvin); each holds exactly one Hopf point on both presets.
PRESET_WINDOWS = {"u_a": (282.0, 296.0), "f": (0.5, 2.0), "ell": (0.5, 2.0),
                  "eps": (0.5, 2.0), "sigma": (0.3, 3.0)}


def steady_sweep(seed: int, draw: int) -> dict:
    """Criterion-5 oracle sweep on random parameter sets, then preset branches."""
    import numpy as np

    from thermorun import model, steady
    from thermorun.model import ModelParams

    rng = np.random.default_rng([seed, draw])
    worst = interp_worst = 0.0
    compared = 0
    rootless = 0
    for _ in range(SWEEP_SETS):
        # The parameter distribution of acceptance criterion 5.
        p = ModelParams(f=float(rng.uniform(0.3, 4.0)),
                        ell=float(rng.uniform(50.0, 1500.0)),
                        eps=float(rng.uniform(2.0, 25.0)),
                        u_a=float(rng.uniform(0.025, 0.055)),
                        sigma=float(np.exp(rng.uniform(20.0, 32.0))))
        width = p.f / p.loss
        br = steady.continue_branch(p, "u_a", (p.u_a - 0.05 * width,
                                               p.u_a + 0.05 * width), ds0=1e-3)
        roots = [r.state.u for r in steady.reduced_scan(
            p, p.u_a, p.u_a + width * (1 + 1e-9), n=10000)]
        if not roots:
            rootless += 1
            continue
        for a, b in zip(br.points, br.points[1:]):
            if (a.param_value - p.u_a) * (b.param_value - p.u_a) <= 0:
                w = abs(a.param_value - p.u_a) / max(
                    abs(b.param_value - a.param_value), 1e-300)
                x = a.state.x + w * (b.state.x - a.state.x)
                u = a.state.u + w * (b.state.u - a.state.u)
                # Criterion 5 compares this linear interpolant, whose own
                # error near a fold can exceed 1e-6; the gated comparison
                # polishes the crossing onto the slice first.
                interp_worst = max(interp_worst, min(abs(u - r) for r in roots))
                on_slice = steady.solve_steady(p, (x, u)).state.u
                worst = max(worst, min(abs(on_slice - r) for r in roots))
                compared += 1

    hopfs = {}
    sigmas = {}
    for name in model.PRESET_NAMES:
        pre = model.preset(name)
        sigmas[name] = pre.model.sigma
        for active, (lo, hi) in PRESET_WINDOWS.items():
            if active == "u_a":
                window = (lo / pre.temp_scale, hi / pre.temp_scale)
            else:
                value = getattr(pre.model, active)
                window = (lo * value, hi * value)
            br = steady.continue_branch(pre.model, active, window)
            hopfs[f"{name}/{active}"] = [
                [sp.param_value, sp.l1, sp.criticality]
                for sp in br.specials if sp.kind == "hopf"]

    return {
        "inputs": {"sets": SWEEP_SETS},
        "oracle_worst": worst,
        "oracle_interp_worst": interp_worst,
        "oracle_compared": compared,
        "oracle_rootless": rootless,
        "sigma": sigmas,
        "hopf": hopfs,
    }


# Script and the library modules it imports (the traced pass loads no more).
SCRIPTS = {"attractor-mic": (attractor_mic, ("cycles", "model", "simulate", "steady")),
           "steady-sweep": (steady_sweep, ("model", "steady"))}


# ---------------------------------------------------------------------------
# Operation entry points


def op_words(op: tuple[str, ...], seed: int, out: Path, draw: int = 0) -> list[str]:
    """``script NAME --seed N --draw D --out DIR`` or ``cli ARGS... -o DIR``.

    A script's inputs are the ``draw``-th set drawn from the workload seed.
    """
    kind, *args = op
    if kind == "script":
        return ["script", args[0], "--seed", str(seed), "--draw", str(draw), "--out", str(out)]
    return ["cli", *args, "-o", str(out)]


def _script(name: str, seed: int, draw: int, out: Path) -> int:
    fingerprint = SCRIPTS[name][0](seed, draw)
    out.mkdir(parents=True, exist_ok=True)
    (out / "fingerprint.json").write_text(json.dumps(fingerprint, indent=1))
    return 0


def _run_op(argv: list[str]) -> int:
    """Run the operation of ``op_words``."""
    if argv[0] == "cli":
        from thermorun.cli import main
        return main(argv[1:])
    if argv[0] == "script" and len(argv) == 8 and argv[2:7:2] == ["--seed", "--draw", "--out"]:
        return _script(argv[1], int(argv[3]), int(argv[5]), Path(argv[7]))
    print(f"unknown operation: {argv}", file=sys.stderr)
    return 2


# Reference computation: the Van der Pol oscillator integrated two ways the
# library integrates, so that its time follows the host's speed as the
# operations' does: alone, stiff (mu = 50, about one period), with scipy's
# Radau and a Python right-hand side; and as REF_SEGMENTS stacked copies with
# their 2x2 variational equations (numpy right-hand side, LSODA), as in the
# library's multiple shooting.  Each takes 0.2-0.4 s on a 2-vCPU Xeon.
REF_MU = 50.0
REF_TAU = 60.0
REF_SEGMENTS = 12
REF_STACKED_MU = 5.0
REF_STACKED_TAU = 10.0


def _van_der_pol(t, y):
    return [y[1], REF_MU * (1.0 - y[0] * y[0]) * y[1] - y[0]]


def _stacked_van_der_pol(t, Y):
    import numpy as np

    Z = Y.reshape(REF_SEGMENTS, 6)
    x, v = Z[:, 0], Z[:, 1]
    out = np.empty_like(Z)
    out[:, 0] = v
    out[:, 1] = REF_STACKED_MU * (1.0 - x * x) * v - x
    J = np.zeros((REF_SEGMENTS, 2, 2))
    J[:, 0, 1] = 1.0
    J[:, 1, 0] = -2.0 * REF_STACKED_MU * x * v - 1.0
    J[:, 1, 1] = REF_STACKED_MU * (1.0 - x * x)
    out[:, 2:6] = np.einsum("mij,mjk->mik", J, Z[:, 2:6].reshape(-1, 2, 2)).reshape(-1, 4)
    return out.ravel()


def reference() -> float:
    """Seconds taken by two fixed scipy integrations that run no thermorun code."""
    import numpy as np
    from scipy.integrate import solve_ivp

    Y0 = np.zeros((REF_SEGMENTS, 6))
    Y0[:, 0] = np.linspace(0.5, 2.0, REF_SEGMENTS)
    Y0[:, 2] = Y0[:, 5] = 1.0
    t0 = time.perf_counter()
    sols = (solve_ivp(_van_der_pol, (0.0, REF_TAU), [2.0, 0.0], method="Radau",
                      rtol=1e-8, atol=1e-10),
            solve_ivp(_stacked_van_der_pol, (0.0, REF_STACKED_TAU), Y0.ravel(),
                      method="LSODA", rtol=1e-10, atol=1e-12))
    dt = time.perf_counter() - t0
    for sol in sols:
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
    return dt


def loop(name: str, seed: int, seconds: float, work: Path) -> int:
    """Run passes of workload ``name`` in this process for ``seconds``.

    The library is imported and the presets built first, untimed.  Then
    every operation is timed on its own, right after a timed run of
    ``reference``, and its output is checked against its fingerprint,
    untimed.  One more reference run follows the last operation.  Pass j
    gives the scripts the j-th input set drawn from the seed, so that a run
    averages over several inputs of the seed's stream.  A new
    pass starts only if one as long as the last still ends within
    ``seconds`` (the first always runs), and none starts after a failed
    one.  Writes ``work/loop.json``: the peak RSS in MB after the first
    pass, the last reference time, and per pass, per operation
    ``{"s", "ref_s", "check_set", "fingerprint", "failures"}``.
    """
    import importlib
    import resource

    import fingerprint  # sibling module: the script's directory is on sys.path

    w = WORKLOADS[name]
    from thermorun import model
    for module in ("cli",) + tuple(m for op in w.ops if op[0] == "script"
                                   for m in SCRIPTS[op[1]][1]):
        importlib.import_module(f"thermorun.{module}")
    for preset in w.presets:
        model.preset(preset)
    reference()

    passes: list[list[dict]] = []
    t_end = time.perf_counter() + seconds
    while True:
        p0 = time.perf_counter()
        done = []
        for i, op in enumerate(w.ops):
            out = work / f"op{i}"
            shutil.rmtree(out, ignore_errors=True)
            ref_s = reference()
            t0 = time.perf_counter()
            try:
                rc = _run_op(op_words(op, seed, out, draw=len(passes)))
            except Exception as exc:  # noqa: BLE001 - a failed operation, not a crash
                rc = repr(exc)
            rec = {"s": time.perf_counter() - t0, "ref_s": ref_s, "failures": []}
            if rc != 0:
                rec["failures"].append(f"operation {i} ended with {rc}")
            else:
                try:
                    rec["check_set"], rec["fingerprint"] = fingerprint.extract(name, i, out)
                    rec["failures"] += fingerprint.failures(rec["check_set"], rec["fingerprint"])
                except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
                    rec["failures"].append(f"unreadable output: {exc!r}")
            done.append(rec)
        passes.append(done)
        if len(passes) == 1:
            first_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.perf_counter()
        if now + (now - p0) > t_end or any(r["failures"] for r in done):
            break
    (work / "loop.json").write_text(json.dumps({
        "first_pass_rss_mb": first_rss_mb, "ref_after_s": reference(), "passes": passes}))
    return 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "loop" and len(argv) == 5:
        return loop(argv[1], int(argv[2]), float(argv[3]), Path(argv[4]))
    if argv and argv[0] == "trace":
        import tracing  # sibling module: the script's directory is on sys.path

        op = argv[2:]
        tracer = tracing.Tracer()
        tracing.install(tracer, ("cli",) if op[0] == "cli" else SCRIPTS[op[1]][1])
        try:
            return _run_op(op)
        finally:
            tracer.dump(Path(argv[1]))
    return _run_op(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
