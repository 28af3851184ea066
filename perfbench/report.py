"""Print every benchmark result recorded under the state directory.

Usage, from the repository root::

    python3 perfbench/report.py [--state .perfbench]

For each workload it prints every end-to-end metric over all untraced runs
that completed (name, unit, median, quartiles, n), then the per-layer table of
the latest traced run of each workload and the manifest it ran under.
Exits 1 when any recorded run crashed, failed a check, wrote to the cache
or produced a digest other than its reference; 2 when nothing is recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

from run import END_TO_END, PER_LAYER, ROOT, quartiles


def _table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [max(len(str(cell)) for cell in column) for column in zip(headers, *rows)]
    lines = ["  ".join(str(cell).ljust(width) for cell, width in zip(headers, widths))]
    lines.append("  ".join("-" * width for width in widths))
    lines.extend("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)) for row in rows)
    return "\n".join(lines)


def _number(value: float) -> str:
    return f"{value:.6g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--state", default=str(ROOT / ".perfbench"), help="the benchmark's state directory")
    args = parser.parse_args()
    paths = sorted(Path(args.state, "results").glob("*.json"), key=lambda path: path.stat().st_mtime)
    results = [json.loads(path.read_text()) for path in paths]
    if not results:
        print(f"no results under {args.state}/results", file=sys.stderr)
        return 2

    samples: Dict[str, Dict[str, List[float]]] = {}
    traced: Dict[str, dict] = {}
    failures: List[str] = []
    for result in results:
        workload = result["workload"]
        for run in result["runs"]:
            for problem in run["problems"]:
                failures.append(f"{workload} seed {result['seed']} {run['label']}: {problem}")
        if result["trace"]:
            traced[workload] = result
            continue
        pooled = samples.setdefault(workload, {name: [] for name in END_TO_END})
        for run in result["runs"]:
            for name in END_TO_END:
                if name in run:
                    pooled[name].append(run[name])

    rows = []
    for workload, pooled in sorted(samples.items()):
        for name, unit in END_TO_END.items():
            if pooled[name]:
                stats = quartiles(pooled[name])
                rows.append(
                    [workload, name, unit, _number(stats["value"]), _number(stats["q1"]), _number(stats["q3"]), stats["n"]]
                )
    print("End-to-end metrics (untraced runs)")
    print(_table(["workload", "metric", "unit", "median", "q1", "q3", "n"], rows))

    if traced:
        names = sorted(traced)
        rows = [
            [name, unit] + [_number(traced[workload]["metrics"][name]["value"]) for workload in names]
            for name, unit in PER_LAYER.items()
        ]
        print("\nPer-layer metrics (latest traced run per workload)")
        print(_table(["metric", "unit"] + names, rows))
        print("\nManifests of those traced runs")
        for workload in names:
            print(f"{workload}: {json.dumps(traced[workload]['manifest'], sort_keys=True)}")

    if failures:
        print(f"\n{len(failures)} failed run(s):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
