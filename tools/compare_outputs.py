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
non-zero on either side, 0 otherwise.  For a file that differs, the line
says how much it moved: for a CSV, the rows changed and, for each column
that moved, its largest relative difference or that a label in it changed;
for a JSON file, each key that changed with both values and, for numbers,
their relative difference; for both, the largest relative difference of a
number and whether anything else (a label) changed.  For each command
whose two runs wrote a ``manifest.json``, one more line gives both
``wall_time_s``, for information only: it never counts as a difference.
The last lines give the number of lines of the ``.py`` files under
``src/thermorun`` and under ``tests`` in both checkouts, for information
only too.  Edit ``COMMANDS`` and ``SCRIPTS`` for a partial run.
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
    "loci-cumene-default": ["loci"] + CUMENE,
    # A window without the template's flow rate: no Hopf locus at all.
    "loci-f-window": ["loci"] + PRESET + ["--f-window", "5:50", "--grid", "8x8"],
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
VOLATILE = frozenset({"wall_time_s"})


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


def _relative(a, b) -> float | None:
    """|a - b| / max(|a|, |b|) of two numbers or numeric cells; None unless
    both are one (a JSON true or false is a label)."""
    if isinstance(a, bool) or isinstance(b, bool):
        return None
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return None
    if x == y:
        return 0.0
    rel = abs(x - y) / max(abs(x), abs(y))
    return rel if math.isfinite(rel) else math.inf


def json_diff(a, b, path: str = "",
              skip: frozenset[str] = frozenset()) -> list[tuple[str, str, float | None]]:
    """(path, "a -> b", relative difference or None) where two JSON values
    differ; dicts and equal-length lists are compared item by item, and the
    top-level keys in ``skip`` are left out."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            if key in skip and not path:
                continue
            sub = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                out.append((sub, f"only in {'change' if key in b else 'base'}", None))
            else:
                out += json_diff(a[key], b[key], sub)
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b))
                for d in json_diff(x, y, f"{path}[{i}]")]
    if a == b or (a != a and b != b):      # NaN reads back unequal to itself
        return []
    return [(path, f"{a!r} -> {b!r}", _relative(a, b))]


def _moved(worst: float, label: bool) -> str:
    return (f"largest relative difference {worst:.3g}, "
            f"{'a label changed' if label else 'no label changed'}")


def json_verdict(a: str, b: str, skip: frozenset[str] = frozenset()) -> str:
    """How far two JSON texts differ, key by key; '' when their values are
    equal apart from ``skip``."""
    diffs = json_diff(json.loads(a), json.loads(b), skip=skip)
    if not diffs:
        return ""
    worst = max(rel or 0.0 for _, _, rel in diffs)
    label = any(rel is None for _, _, rel in diffs)
    keys = "; ".join(f"{path}: {change}" + ("" if rel is None else f" ({rel:.3g})")
                     for path, change, rel in diffs)
    return f"{len(diffs)} key(s) differ, {_moved(worst, label)}: {keys}"


def csv_diff(a: str, b: str) -> str:
    """How far two CSV texts differ, for a pair that is not byte-identical.

    The first row is the header; a changed header counts as a changed label.
    Each column with a changed cell, named by the base header, is listed
    with its largest relative difference, or "label" if a cell in it is not
    a number on both sides.
    """
    rows_a, rows_b = (list(csv.reader(io.StringIO(t))) for t in (a, b))
    n_a, n_b = max(len(rows_a) - 1, 0), max(len(rows_b) - 1, 0)
    if n_a != n_b:
        return f"bytes differ: {n_a} -> {n_b} rows"
    header = rows_a[0] if rows_a else []
    changed, worst, label = 0, 0.0, rows_a[:1] != rows_b[:1]
    columns: dict[str, float | None] = {}   # None: a label changed
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        if ra == rb:
            continue
        changed += 1
        label |= len(ra) != len(rb)
        for j, (ca, cb) in enumerate(zip(ra, rb)):
            if ca == cb:
                continue
            name = header[j] if j < len(header) else f"column {j + 1}"
            rel, was = _relative(ca, cb), columns.get(name, 0.0)
            label |= rel is None
            worst = max(worst, rel or 0.0)
            columns[name] = None if rel is None or was is None else max(was, rel)
    verdict = f"bytes differ: {changed} of {n_a} rows changed, {_moved(worst, label)}"
    if columns:
        verdict += "; by column: " + ", ".join(
            f"{name} {'label' if rel is None else f'{rel:.3g}'}"
            for name, rel in columns.items())
    return verdict


def compare(base: Path, change: Path) -> list[tuple[str, str]]:
    """(file, verdict) for every file either run wrote; verdict '' = same."""
    rows = []
    for name in sorted({p.name for p in base.iterdir()}
                       | {p.name for p in change.iterdir()}):
        a, b = base / name, change / name
        if not a.exists() or not b.exists():
            rows.append((name, f"only in {'change' if b.exists() else 'base'}"))
        elif name == "manifest.json":
            rows.append((name, json_verdict(a.read_text(), b.read_text(), VOLATILE)))
        elif a.read_bytes() == b.read_bytes():
            rows.append((name, ""))
        elif name.endswith(".csv"):
            rows.append((name, csv_diff(a.read_text(), b.read_text())))
        else:
            verdict = (json_verdict(a.read_text(), b.read_text())
                       if name.endswith(".json") else "")
            rows.append((name, verdict or "bytes differ"))
    return rows


def wall_time(out: Path) -> float | None:
    """The ``wall_time_s`` of the manifest in ``out``, if there is one."""
    manifest = out / "manifest.json"
    if not manifest.exists():
        return None
    return json.loads(manifest.read_text()).get("wall_time_s")


def report(name: str, base: Path, change: Path) -> tuple[list[str], bool]:
    """The lines printed for one command's two output directories, and
    whether any file differs; the wall times are not compared."""
    lines, differs = [], False
    for fname, verdict in compare(base, change):
        same = "equal apart from wall_time_s" if fname == "manifest.json" \
            else "byte-identical"
        lines.append(f"{name}/{fname}: {verdict or same}")
        differs |= bool(verdict)
    base_s, change_s = wall_time(base), wall_time(change)
    if base_s is not None and change_s is not None:
        lines.append(f"{name}: wall_time_s {base_s:.3f} -> {change_s:.3f} "
                     "(not compared)")
    return lines, differs


LINE_COUNTED = ("src/thermorun", "tests")


def line_counts(base: Path, change: Path) -> list[str]:
    """One line per directory of ``LINE_COUNTED``: the lines of its ``.py``
    files, as ``wc -l`` counts them, in both checkouts; never compared."""
    def lines(root: Path) -> int:
        return sum(p.read_bytes().count(b"\n") for p in root.rglob("*.py"))

    return [f"{d}: {lines(base / d)} -> {lines(change / d)} lines (not compared)"
            for d in LINE_COUNTED]


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
        lines, moved = report(name, dirs["base"], dirs["change"])
        print("\n".join(lines))
        differs |= moved
    print("\n".join(line_counts(args.base, args.change)))
    print(f"outputs in {work}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
