"""Command-line front end: presets, config ingestion, plot-ready CSV output.

Temperatures are accepted in Kelvin and converted through the resolved
temperature scale (E/R).  Exit codes: 0 success, 2 invalid configuration,
3 convergence failure, 4 runaway detected under --fail-on-runaway.  On exit
2 or 3 the output directory gets a manifest with ``status: "failed"``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import cycles, loci, model, simulate, steady
from .errors import (CalibrationError, ConvergenceError, IntegrationFailure,
                     ThermorunError, ValidationError)
from .model import Preset
from .output import ManifestWriter, resolve_outdir

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_RUNAWAY = 4

PARAM_FLAGS = ("f", "ell", "eps", "u_a", "sigma", "u_boil")


def _load_config(path: str | None):
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or encoding
        raise ValidationError("config", f"cannot read {path!r}: {exc}") from None


def resolve_inputs(args) -> Preset:
    """Merge preset, config file and flags (flags win, then config)."""
    cfg = _load_config(args.config)
    if args.preset and isinstance(cfg, dict):
        cfg = {**cfg, "preset": args.preset}
    Ta = getattr(args, "Ta", None)
    # The branch commands read a lo:hi --Ta as their range, not as T_a.
    ranged = args.command in ("steady-branch", "cycle-branch") and ":" in (Ta or "")
    flags = {name: v for name in PARAM_FLAGS
             if (v := getattr(args, f"param_{name}")) is not None}
    return Preset.from_config(cfg).with_overrides(
        T_a=None if Ta is None or ranged else _parse_kelvin(Ta), **flags)


def _parse_kelvin(text: str) -> float:
    """A single ``--Ta`` value: a finite temperature in K."""
    try:
        T = float(text)
    except ValueError:
        T = math.nan
    if not math.isfinite(T):
        raise ValidationError("Ta", f"expected a finite temperature (K), got {text!r}")
    return T


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError:
        raise ValidationError("range", f"expected lo:hi, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError("range", f"need finite bounds in {text!r}")
    if lo >= hi:
        raise ValidationError("range", f"need lo < hi in {text!r}")
    return lo, hi


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        n_ua, n_f = (int(part) for part in text.split("x"))
    except ValueError:
        raise ValidationError("grid", f"expected NxM, got {text!r}") from None
    if n_ua < 1 or n_f < 1:
        raise ValidationError("grid", f"need positive counts in {text!r}")
    return n_ua, n_f


def _kelvin_range(res: Preset, text: str) -> tuple[float, float]:
    lo, hi = _parse_range(text)
    return res.kelvin_to_u(lo), res.kelvin_to_u(hi)


def _maybe_kelvin_row(res: Preset, u: float):
    T = res.u_to_kelvin(u)
    return [] if T is None else [T]


def _kelvin_header(res: Preset, name: str) -> list[str]:
    return [] if res.temp_scale is None else [name]


# ---------------------------------------------------------------------------
# Commands


def cmd_rates(args, res: Preset, man: ManifestWriter) -> int:
    p = res.model
    if args.T_window:
        u_lo, u_hi = _kelvin_range(res, args.T_window)
    else:
        width = p.f / p.loss
        u_lo, u_hi = p.u_a * 0.97, p.u_a + 1.6 * width
    d = model.rate_diagram(p, u_lo, u_hi, args.n)
    crossings = model.rate_crossings(d)

    header = ["u"] + _kelvin_header(res, "T_kelvin") + ["r_g", "r_l"]
    rows = ([u] + _maybe_kelvin_row(res, u) + [g, l]
            for u, g, l in zip(d.u_grid, d.r_g, d.r_l))
    man.add_csv("rates.csv", header, rows)
    man.set("summary", {
        "crossings_u": crossings,
        "crossings_T_kelvin": [res.u_to_kelvin(u) for u in crossings]
        if res.temp_scale else None,
        "n": args.n,
    })
    man.finish()
    print(f"rates: {len(crossings)} crossing(s)"
          + (f" at T = {[round(res.u_to_kelvin(u), 3) for u in crossings]} K"
             if res.temp_scale else ""))
    return EXIT_OK


def _steady_range(args, res: Preset) -> tuple[float, float]:
    if args.Ta and ":" in args.Ta:
        return _kelvin_range(res, args.Ta)
    if args.range:
        return _parse_range(args.range)
    p = res.model
    return p.u_a * 0.96, p.u_a * 1.02


def cmd_steady_branch(args, res: Preset, man: ManifestWriter) -> int:
    p = res.model
    prange = _steady_range(args, res)
    branch = steady.continue_branch(p, args.active, prange, ds0=args.ds0)

    kelvin = _kelvin_header(res, "T_kelvin")
    header = ["param", "x", "u"] + kelvin + ["trace", "det", "stability", "special"]
    special_after = {sp.after_index: sp for sp in branch.specials
                     if sp.after_index is not None}

    def branch_rows():
        for i, pt in enumerate(branch.points):
            note = ""
            if i in special_after:
                sp = special_after[i]
                note = f"{sp.kind} between this row and the next"
            yield ([pt.param_value, pt.state.x, pt.state.u]
                   + _maybe_kelvin_row(res, pt.state.u)
                   + [pt.trace, pt.det, pt.stability, note])

    man.add_csv("branch.csv", header, branch_rows())
    # The parameter is a temperature only when it is the ambient u_a.
    param_is_u = args.active == "u_a"
    sp_header = (["kind", "param"]
                 + (_kelvin_header(res, "param_T_kelvin") if param_is_u else [])
                 + ["x", "u"] + kelvin + ["trace", "det", "l1", "criticality"])

    def special_rows():
        for sp in branch.specials:
            yield ([sp.kind, sp.param_value]
                   + (_maybe_kelvin_row(res, sp.param_value) if param_is_u else [])
                   + [sp.state.x, sp.state.u]
                   + _maybe_kelvin_row(res, sp.state.u)
                   + [sp.trace, sp.det, sp.l1, sp.criticality])

    man.add_csv("specials.csv", sp_header, special_rows())
    man.set("summary", {
        "points": len(branch.points),
        "stop_reason": branch.stop_reason,
        "specials": [{
            "kind": sp.kind, "param": sp.param_value,
            "param_T_kelvin": res.u_to_kelvin(sp.param_value)
            if param_is_u else None,
            "criticality": sp.criticality,
        } for sp in branch.specials],
    })
    man.finish()
    print(f"steady-branch: {len(branch.points)} points, "
          f"{len(branch.specials)} special point(s) [{branch.stop_reason}]")
    return EXIT_OK


def cmd_cycle_branch(args, res: Preset, man: ManifestWriter) -> int:
    p = res.model
    prange = _steady_range(args, res)
    cycles.check_branch_options(args.segments, args.max_orbits)
    branch = steady.continue_branch(p, "u_a", prange)
    hopfs = [sp for sp in branch.specials if sp.kind == "hopf"]
    if not hopfs:
        raise ConvergenceError("cycle-branch: no Hopf point in the range")
    cb = cycles.continue_cycles(p, hopfs[0], prange, m=args.segments,
                                max_orbits=args.max_orbits)

    header = (["param"] + _kelvin_header(res, "param_T_kelvin")
              + ["period", "amplitude", "min_u", "max_u", "multiplier",
                 "stability", "vented"])

    def rows():
        for o in cb.orbits:
            yield ([o.param_value] + _maybe_kelvin_row(res, o.param_value)
                   + [o.period, o.amplitude, o.min_u, o.max_u,
                      o.nontrivial_multiplier, o.stability,
                      bool(o.max_u > p.u_boil)])

    man.add_csv("cycles.csv", header, rows())
    man.set("summary", {
        "orbits": len(cb.orbits),
        "stop_reason": cb.stop_reason,
        "hopf_param": hopfs[0].param_value,
        "cycle_folds": list(cb.cycle_folds),
        "cycle_folds_T_kelvin": [res.u_to_kelvin(v) for v in cb.cycle_folds]
        if res.temp_scale else None,
    })
    man.finish(partial=cb.stop_reason == "corrector failure")
    print(f"cycle-branch: {len(cb.orbits)} orbits, folds at "
          f"{list(cb.cycle_folds)} [{cb.stop_reason}]")
    return EXIT_OK


def cmd_loci(args, res: Preset, man: ManifestWriter) -> int:
    p = res.model
    n_ua, n_f = _parse_grid(args.grid)
    w = loci.default_window(p)
    window = loci.Window(
        _kelvin_range(res, args.Ta_window) if args.Ta_window else w.u_a,
        _parse_range(args.f_window) if args.f_window else w.f)

    hopf = loci.continue_hopf_locus(p, window=window)
    fold = loci.continue_fold_locus(p, window=window)
    loci_map = {"hopf": hopf, "fold": fold}

    kelvin = _kelvin_header(res, "T_a_kelvin")

    def locus_rows(locus):
        for (ua, f_val, x, u), ex in zip(locus.points, locus.extra):
            yield ([locus.kind, ua] + _maybe_kelvin_row(res, ua)
                   + [f_val, x, u, ex])

    header = ["kind", "u_a"] + kelvin + ["f", "x", "u", "other_test_fn"]
    man.add_csv("hopf_locus.csv", header, locus_rows(hopf))
    man.add_csv("fold_locus.csv", header, locus_rows(fold))

    rows = loci.region_map(loci_map, window, n_ua, n_f)
    region_header = ["u_a"] + kelvin + ["f", "regime"]
    man.add_csv("region_map.csv", region_header,
                ([ua] + _maybe_kelvin_row(res, ua) + [f_val, label]
                 for ua, f_val, label in rows))

    man.set("summary", {
        "hopf_points": len(hopf),
        "fold_points": len(fold),
        "fold_f_threshold": fold.f_threshold,
        "fold_empty_reason": fold.empty_reason,
        "oscillatory_cells": sum(1 for _, _, lab in rows if lab == loci.OSCILLATORY),
        "bistable_cells": sum(1 for _, _, lab in rows if lab == loci.BISTABLE),
        "hopf_stop_reasons": list(hopf.stop_reasons),
        "fold_stop_reasons": list(fold.stop_reasons),
    })
    man.finish(partial="corrector failure" in fold.stop_reasons)
    print(f"loci: hopf {len(hopf)} pts, fold {len(fold)} pts, "
          f"f* = {fold.f_threshold}")
    return EXIT_OK


def cmd_simulate(args, res: Preset, man: ManifestWriter) -> int:
    p = res.model
    x0 = args.x0
    u0 = args.u0 if args.u0 is not None else p.u_a
    traj = simulate.integrate(p, (x0, u0), args.tau_end,
                              tol_rel=args.tol_rel, tol_abs=args.tol_abs,
                              n_samples=args.samples)
    runaway = simulate.detect_runaway(traj, p.u_boil)

    man.set("tolerances", {"tol_rel": args.tol_rel, "tol_abs": args.tol_abs})
    kelvin = _kelvin_header(res, "T_kelvin")
    header = ["tau", "x", "u"] + kelvin + ["event"]
    ev_times = {ev.time: ev.kind for ev in traj.events}

    def rows():
        for t, (x, u) in zip(traj.times, traj.states):
            yield ([t, x, u] + _maybe_kelvin_row(res, u)
                   + [ev_times.get(float(t), "")])

    man.add_csv("trajectory.csv", header, rows())
    man.set("summary", {
        "tau_end_reached": float(traj.times[-1]),
        "runaway": None if runaway is None else
        {"tau": runaway.time, "u": runaway.u,
         "T_kelvin": res.u_to_kelvin(runaway.u)},
    })
    man.finish()
    if runaway is not None:
        print(f"simulate: runaway at tau = {runaway.time:.6g}")
        if args.fail_on_runaway:
            return EXIT_RUNAWAY
    else:
        print("simulate: no runaway")
    return EXIT_OK


def cmd_calibrate(args, res: Preset, man: ManifestWriter) -> int:
    if res.temp_scale is None:
        raise ValidationError("temp_scale", "calibration targets are in Kelvin; "
                              "supply a preset or dimensional context")
    template = res.model.with_(sigma=1.0)
    sigma = model.calibrate_sigma(template, args.target_steady, args.target_hopf,
                                  temp_scale=res.temp_scale)
    man.set("summary", {
        "sigma": sigma,
        "ln_sigma": math.log(sigma),
        "target_T_steady": args.target_steady,
        "target_T_hopf": args.target_hopf,
    })
    man.add_json("calibrated_params.json",
                 res.with_overrides(sigma=sigma).to_config())
    man.finish()
    print(f"calibrate: sigma = {sigma:.17g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(sub):
    sub.add_argument("--preset", choices=model.PRESET_NAMES,
                     help="named parameter bundle")
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--out", "-o", help="output directory "
                     "(default $THERMORUN_OUTDIR or ./thermorun_out)")
    for name in PARAM_FLAGS:
        sub.add_argument(f"--{name.replace('_', '-')}", dest=f"param_{name}",
                         type=float, help=f"override dimensionless {name}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="thermorun",
        description="Stability analysis of exothermic flow reactors: rate "
                    "diagrams, steady and periodic branches, two-parameter "
                    "bifurcation loci, and runaway simulation.")
    sp = ap.add_subparsers(dest="command", required=True)

    rates = sp.add_parser("rates", help="heat generation/loss rate diagram")
    _add_common(rates)
    rates.add_argument("--Ta", help="ambient temperature (K)")
    rates.add_argument("--T-window", dest="T_window",
                       help="temperature window lo:hi (K)")
    rates.add_argument("--n", type=int, default=2001, help="grid points")
    rates.set_defaults(func=cmd_rates)

    sb = sp.add_parser("steady-branch", help="steady-state branch vs a parameter")
    _add_common(sb)
    sb.add_argument("--Ta", help="ambient range lo:hi (K) or single value")
    sb.add_argument("--range", help="dimensionless parameter range lo:hi")
    sb.add_argument("--active", default="u_a", choices=steady.ACTIVE_PARAMS)
    sb.add_argument("--ds0", type=float, default=1e-3)
    sb.set_defaults(func=cmd_steady_branch)

    cb = sp.add_parser("cycle-branch", help="periodic-orbit branch from a Hopf")
    _add_common(cb)
    cb.add_argument("--Ta", help="ambient range lo:hi (K)")
    cb.add_argument("--range", help="dimensionless range lo:hi")
    cb.add_argument("--segments", type=int, default=12,
                    help="multiple-shooting segments")
    cb.add_argument("--max-orbits", type=int, default=120)
    cb.set_defaults(func=cmd_cycle_branch)

    lc = sp.add_parser("loci", help="two-parameter Hopf/fold loci and regimes")
    _add_common(lc)
    lc.add_argument("--Ta-window", dest="Ta_window", help="ambient lo:hi (K)")
    lc.add_argument("--f-window", dest="f_window", help="flow-rate lo:hi")
    lc.add_argument("--grid", default="50x50", help="region map grid, e.g. 60x40")
    lc.set_defaults(func=cmd_loci)

    sim = sp.add_parser("simulate", help="time integration with event detection")
    _add_common(sim)
    sim.add_argument("--Ta", help="ambient temperature (K)")
    sim.add_argument("--x0", type=float, default=1.0)
    sim.add_argument("--u0", type=float, default=None,
                     help="initial dimensionless temperature (default ambient)")
    sim.add_argument("--tau-end", dest="tau_end", type=float, default=50.0)
    sim.add_argument("--tol-rel", dest="tol_rel", type=float, default=1e-8)
    sim.add_argument("--tol-abs", dest="tol_abs", type=float, default=1e-10)
    sim.add_argument("--samples", type=int, default=1000)
    sim.add_argument("--fail-on-runaway", action="store_true")
    sim.set_defaults(func=cmd_simulate)

    cal = sp.add_parser("calibrate", help="rate-prefactor calibration")
    _add_common(cal)
    cal.add_argument("--Ta", help="ambient temperature (K)")
    cal.add_argument("--target-steady", dest="target_steady", type=float,
                     default=305.0, help="steady-state temperature target (K)")
    cal.add_argument("--target-hopf", dest="target_hopf", type=float,
                     default=290.15, help="oscillation-onset target (K)")
    cal.set_defaults(func=cmd_calibrate)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    man = ManifestWriter(args.command, resolve_outdir(args.out))
    try:
        res = resolve_inputs(args)
        man.set_inputs(res)
        return args.func(args, res, man)
    except ValidationError as exc:
        code, error = EXIT_CONFIG, f"configuration error: {exc}"
    except (ConvergenceError, CalibrationError, IntegrationFailure) as exc:
        code, error = EXIT_CONVERGENCE, f"convergence failure: {exc}"
    except ThermorunError as exc:
        code, error = EXIT_CONVERGENCE, f"error: {exc}"
    print(error, file=sys.stderr)
    try:
        man.fail(code, error)
    except OSError:
        pass  # the exit code still reports the failure
    return code


if __name__ == "__main__":
    sys.exit(main())
