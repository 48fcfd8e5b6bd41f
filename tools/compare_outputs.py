"""Compare the CLI outputs of two checkouts of thermorun.

    python tools/compare_outputs.py BASE_DIR CHANGE_DIR

Runs each acceptance command below once against ``BASE_DIR/src`` and once
against ``CHANGE_DIR/src``, one subprocess at a time, and compares what they
wrote; the files in ``CONFIGS`` are written into its work directory first.
Then runs ``CHANGE_DIR/perfbench/workloads.py script NAME --seed S --draw D``
for each entry of ``SCRIPTS`` against both ``src`` directories the same way,
so the benchmark scripts' inputs are the same on both sides.  A CSV or JSON
output (a script's ``fingerprint.json`` included) must be byte-identical;
``manifest.json`` must be equal apart from ``wall_time_s``.  Prints one
line per file and exits 1 on any difference or when a command exits
non-zero on either side, 0 otherwise.  For a CSV that differs, the line
says how much it moved: the rows changed, the largest relative difference
of a numeric cell, and whether a non-numeric cell (a label) changed.  Edit
``COMMANDS`` and ``SCRIPTS`` for a partial run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# README's two explicit config examples, rounded mic-tank610 values: a
# params block with temp_scale_K, and a dimensional block alone
# (tests/test_cli.py checks that they stay equal to README's).
CONFIGS = {
    "params.json": {
        "params": {"f": 1.7, "ell": 700.0, "eps": 10.0, "u_a": 0.0379326,
                   "sigma": 4.4e11, "u_boil": 0.0405308},
        "temp_scale_K": 7697.86,
    },
    "dimensional.json": {
        "dimensional": {"V": 42.7, "F": 2.8e14, "c_f": 1.35e4, "Cbar": 1.14e6,
                        "dH": -65100.0, "L": 1.33e22, "T_a": 292.0,
                        "A": 3.9e12, "E": 64000.0},
        "T_boil": 312.0,
        "sigma": 4.4e11,
    },
}
PRESET = ["--preset", "mic-tank610"]
CUMENE = ["--preset", "cumene-hydroperoxide"]
COMMANDS = {
    "rates": ["rates"] + PRESET,
    "steady-branch": ["steady-branch"] + PRESET + ["--Ta", "282:296"],
    # The other continuation parameters, one Hopf point in each range.
    "steady-branch-f": ["steady-branch"] + PRESET + ["--active", "f",
                                                     "--range", "0.85:3.4"],
    "steady-branch-ell": ["steady-branch"] + PRESET + ["--active", "ell",
                                                       "--range", "350:1400"],
    "steady-branch-eps": ["steady-branch"] + PRESET + ["--active", "eps",
                                                       "--range", "5:20"],
    "steady-branch-sigma": ["steady-branch"] + PRESET + [
        "--active", "sigma", "--range", "1.32e11:1.32e12"],
    # At a high flow rate: two steady folds and two Hopf points, one of them
    # within a step of the upper fold.
    "steady-branch-f10": ["steady-branch"] + PRESET + ["--f", "10",
                                                       "--Ta", "250:285"],
    "loci": ["loci"] + PRESET + ["--grid", "40x40"],
    # The CLI's default 50x50 grid, whose row f = 10.138 passes just below
    # the Hopf locus's Bogdanov-Takens end.
    "loci-default": ["loci"] + PRESET,
    "cycle-branch-16": ["cycle-branch"] + PRESET + ["--Ta", "282:296",
                                                    "--max-orbits", "16"],
    "cycle-branch": ["cycle-branch"] + PRESET + ["--Ta", "282:296"],
    # 24 segments: the parameter-sensitivity shoot at m = 24.
    "cycle-branch-24": ["cycle-branch"] + PRESET + ["--Ta", "282:296",
                                                    "--segments", "24",
                                                    "--max-orbits", "8"],
    "calibrate": ["calibrate"] + PRESET,
    "simulate-292": ["simulate"] + PRESET + ["--Ta", "292"],   # runaway
    # Filling from an empty tank to a steady state (x0 = 1 runs away).
    "simulate-286": ["simulate"] + PRESET + ["--Ta", "286", "--x0", "0"],
    # No boiling threshold: the one run of integrate without an event.
    "simulate-no-boil": ["simulate"] + PRESET + ["--Ta", "292",
                                                 "--u-boil", "inf"],
    # The second preset's continuation and loci.
    "steady-branch-cumene": ["steady-branch"] + CUMENE + ["--Ta", "282:296"],
    "loci-cumene": ["loci"] + CUMENE + ["--grid", "40x40"],
    # Up to the 24th orbit, the first one past the cycle fold.
    "cycle-branch-cumene": ["cycle-branch"] + CUMENE + ["--Ta", "282:296",
                                                        "--max-orbits", "24"],
    "rates-config-params": ["rates", "--config", "params.json"],
    "rates-config-dimensional": ["rates", "--config", "dimensional.json"],
}
# The perfbench library scripts, each at three (seed, draw) input sets.
SCRIPTS = {f"{name}-{seed}-{draw}": (name, seed, draw)
           for name in ("attractor-mic", "steady-sweep")
           for seed, draw in ((11, 0), (12, 1), (13, 2))}
VOLATILE = {"wall_time_s"}


def run(checkout: Path, argv: list[str]) -> int:
    """``python ARGV`` with ``checkout/src`` first on the import path."""
    env = dict(os.environ)
    src = str(checkout / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=checkout,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
    return proc.returncode


def json_diff(a, b, path: str = "") -> list[str]:
    """Paths where two JSON values differ, with both values."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            if key in VOLATILE and not path:
                continue
            sub = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                out.append(f"{sub}: only in {'change' if key in b else 'base'}")
            else:
                out += json_diff(a[key], b[key], sub)
        return out
    return [] if a == b else [f"{path}: {a!r} -> {b!r}"]


def _relative(a: str, b: str) -> float | None:
    """|a - b| / max(|a|, |b|) of two numeric cells; None unless both parse."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y:
        return 0.0
    rel = abs(x - y) / max(abs(x), abs(y))
    return rel if math.isfinite(rel) else math.inf


def csv_diff(a: str, b: str) -> str:
    """How far two CSV texts differ, for a pair that is not byte-identical.

    The first row is the header; a changed header counts as a changed label.
    """
    rows_a, rows_b = (list(csv.reader(io.StringIO(t))) for t in (a, b))
    n_a, n_b = max(len(rows_a) - 1, 0), max(len(rows_b) - 1, 0)
    if n_a != n_b:
        return f"bytes differ: {n_a} -> {n_b} rows"
    changed, worst, label = 0, 0.0, rows_a[:1] != rows_b[:1]
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        if ra == rb:
            continue
        changed += 1
        label |= len(ra) != len(rb)
        for ca, cb in zip(ra, rb):
            rel = _relative(ca, cb) if ca != cb else 0.0
            label |= rel is None
            worst = max(worst, rel or 0.0)
    return (f"bytes differ: {changed} of {n_a} rows changed, largest "
            f"relative difference {worst:.3g}, "
            f"{'a label changed' if label else 'no label changed'}")


def compare(base: Path, change: Path) -> list[tuple[str, str]]:
    """(file, verdict) for every file either run wrote; verdict '' = same."""
    rows = []
    for name in sorted({p.name for p in base.iterdir()}
                       | {p.name for p in change.iterdir()}):
        a, b = base / name, change / name
        if not a.exists() or not b.exists():
            rows.append((name, f"only in {'change' if b.exists() else 'base'}"))
        elif name == "manifest.json":
            diffs = json_diff(json.loads(a.read_text()), json.loads(b.read_text()))
            rows.append((name, "; ".join(diffs)))
        elif a.read_bytes() == b.read_bytes():
            rows.append((name, ""))
        else:
            rows.append((name, csv_diff(a.read_text(), b.read_text())
                         if name.endswith(".csv") else "bytes differ"))
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    for root in (args.base, args.change):
        if not (root / "src" / "thermorun").is_dir():
            ap.error(f"{root} has no src/thermorun")
    work = Path(tempfile.mkdtemp(prefix="compare_outputs_"))
    for fname, cfg in CONFIGS.items():
        (work / fname).write_text(json.dumps(cfg, indent=2) + "\n")
    workloads = str(args.change.resolve() / "perfbench" / "workloads.py")
    runs = {name: ["-m", "thermorun.cli",
                   *(str(work / a) if a in CONFIGS else a for a in cmd), "-o"]
            for name, cmd in COMMANDS.items()}
    runs.update({key: [workloads, "script", name, "--seed", str(seed),
                       "--draw", str(draw), "--out"]
                 for key, (name, seed, draw) in SCRIPTS.items()})
    differs = False
    for name, argv in runs.items():
        dirs = {side: work / side / name for side in ("base", "change")}
        codes = {side: run(root.resolve(), argv + [str(dirs[side])])
                 for side, root in (("base", args.base), ("change", args.change))}
        if any(codes.values()):
            print(f"{name}: exit code {codes['base']} -> {codes['change']}")
            differs = True
            continue
        for fname, verdict in compare(dirs["base"], dirs["change"]):
            same = "equal apart from wall_time_s" if fname == "manifest.json" \
                else "byte-identical"
            print(f"{name}/{fname}: {verdict or same}")
            differs |= bool(verdict)
    print(f"outputs in {work}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
