"""Deterministic CSV and run-manifest emission.

All floating-point values are written with 17 significant digits through
the locale-independent format machinery, so identical analyses on one build
produce byte-identical files.  The manifest lists every file written along
with the resolved parameters; its wall-time field is the only volatile
entry.  A run that fails leaves a manifest with its exit code and error.
Every file is written to a temporary name in its directory and renamed
into place once complete, so no reader ever sees a partial file.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .model import Preset

OUTDIR_ENV = "THERMORUN_OUTDIR"
MANIFEST_SCHEMA = "thermorun-manifest/1"


def format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


@contextmanager
def _replacing(path: Path):
    """Yield a text file that replaces ``path`` only when the block succeeds.

    On an exception the temporary file is removed and ``path`` is left as
    it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: Path, payload: dict) -> None:
    with _replacing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path: Path, header: list[str], rows) -> int:
    """Write rows with fixed formatting; returns the number of data rows."""
    n = 0
    with _replacing(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")
            n += 1
    return n


def resolve_outdir(explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get(OUTDIR_ENV)
    if env:
        return Path(env)
    return Path("thermorun_out")


class ManifestWriter:
    """Collects outputs and settings for one command run."""

    def __init__(self, command: str, outdir: Path):
        self.command = command
        self.outdir = Path(outdir)
        self.t0 = time.monotonic()
        self.outputs: list[dict] = []
        self.data: dict = {
            "schema": MANIFEST_SCHEMA,
            "tool_version": __version__,
            "command": command,
        }

    def set_inputs(self, pre: Preset):
        """Record a run's resolved inputs, in ``Preset.to_config``'s fields."""
        cfg = pre.to_config()
        for key, entry in (("params", "resolved_params"), ("temp_scale_K", "temp_scale_K"),
                           ("dimensional", "dimensional_params")):
            if key in cfg:
                self.data[entry] = cfg[key]
        if pre.name is not None:
            self.data["preset"] = pre.name

    def set(self, key: str, value):
        self.data[key] = value

    def add_csv(self, name: str, header: list[str], rows) -> Path:
        path = self.outdir / name
        n = write_csv(path, header, rows)
        self.outputs.append({"file": name, "rows": n})
        return path

    def add_json(self, name: str, payload: dict) -> Path:
        path = self.outdir / name
        _write_json(path, payload)
        self.outputs.append({"file": name})
        return path

    def finish(self, partial: bool = False) -> Path:
        self.data["outputs"] = self.outputs
        self.data["partial"] = partial
        return self._write()

    def fail(self, exit_code: int, error: str) -> Path:
        """Record a failed run: its exit code and the error it printed."""
        self.data.update(status="failed", exit_code=exit_code, error=error)
        return self._write()

    def _write(self) -> Path:
        self.data["wall_time_s"] = time.monotonic() - self.t0
        path = self.outdir / "manifest.json"
        _write_json(path, self.data)
        return path
