"""Fold the result records of a set of runs into one performance-history file.

    python3 perfbench/history.py perfbench/history/<commit>.json

Reads every record in ``.perfbench/results/`` (one per workload, seed and
trace mode) and writes their provenance, fingerprints and metrics, plus the
median and quartiles of each end-to-end metric across the seeds.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from run import SCRATCH, summarize


def collect(records: list[dict]) -> dict:
    across: dict = defaultdict(lambda: defaultdict(list))
    results = []
    for r in records:
        prov = r["provenance"]
        results.append({
            "workload": prov["workload"], "seed": prov["seed"], "trace": prov["trace"],
            "attempted": r["attempted"], "failed": r["failed"],
            "fail_frac": r["fail_frac"], "metrics": r["metrics"],
            "fingerprints": r["fingerprints"],
        })
        if not prov["trace"]:
            for name, m in r["metrics"].items():
                across[prov["workload"]][name].append(m["value"])
    first = records[0]["provenance"]
    return {
        "provenance": {k: v for k, v in first.items()
                       if k not in ("workload", "seed", "trace")},
        "seeds_per_workload": {w: len(next(iter(m.values()))) for w, m in across.items()},
        "end_to_end_across_seeds": {
            w: {name: {k: v for k, v in summarize(vals).items() if k != "samples"}
                for name, vals in metrics.items()}
            for w, metrics in sorted(across.items())},
        "layer_map": records[0]["layer_map"],
        "results": sorted(results, key=lambda r: (r["workload"], r["trace"], r["seed"])),
    }


def main(argv: list[str]) -> int:
    records = [json.loads(p.read_text())
               for p in sorted((SCRATCH / "results").glob("*.json"))]
    if len(argv) != 1 or not records:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(collect(records), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
