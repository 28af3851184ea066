#!/usr/bin/env python
"""Compare the accumulated ``BENCH_*.json`` perf-trajectory artifacts.

Every PR's :mod:`benchmarks.record` run leaves one labelled artifact at the
repo root (``BENCH_pr4.json``, ``BENCH_pr5.json``, ...).  This tool lines
them up: one row per recorded metric, one column per label, so a perf
regression (or win) across the PR history is visible at a glance.

Usage::

    python benchmarks/trajectory.py                  # repo-root artifacts
    python benchmarks/trajectory.py --dir artifacts  # e.g. CI downloads
    python benchmarks/trajectory.py --json           # machine-readable merge
    python benchmarks/trajectory.py --check          # CI regression gate
    python benchmarks/trajectory.py --plot           # trajectory.png artifact

Artifacts recorded by different PRs cover different scenario sets (the
suite grows); missing cells print as ``-``.

``--check`` turns the table into a regression gate: for every headline
*ratio* metric (speedups and payload reductions — dimensionless, so
comparable across runner generations, unlike raw seconds), the newest
artifact must reach at least ``tolerance x`` the best value any earlier
artifact recorded.  The default tolerance (``REPRO_TRAJECTORY_TOLERANCE``,
0.6) leaves the usual noisy-shared-runner headroom; a genuine perf
regression (a 10x speedup collapsing to 1x) still fails loudly.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Metrics promoted into the comparison table, as (scenario, key) pairs;
#: anything numeric not listed here still lands in the --json merge.
HEADLINE_METRICS: Tuple[Tuple[str, str], ...] = (
    ("noise_aware_step", "speedup"),
    ("layer_recompile", "speedup"),
    ("mc_engine", "speedup"),
    ("plain_training", "seconds"),
    ("shared_network_payload", "reduction"),
    ("stream_payload", "reduction"),
    ("drift_timeline", "renull_speedup"),
    ("device_engine", "seconds"),
    ("mesh_megakernel", "speedup"),
    ("fleet_round_trip", "seconds"),
    ("artifact_cache_hit", "reduction"),
    ("artifact_cache_hit", "stream_floor_headroom"),
    ("setup_phases", "import_cli_median_s"),
    ("setup_phases", "synthesis_median_s"),
    ("setup_phases", "import_cli_peak_rss_mb"),
    ("setup_phases", "setup_peak_rss_mb"),
    ("paper_forward", "matrices_median_s"),
    ("paper_forward", "forward_median_s"),
)

#: Metric keys the --check gate enforces: dimensionless ratios only.  Raw
#: seconds depend on the runner and are recorded for context, never gated.
RATIO_KEYS = (
    "speedup",
    "reduction",
    "renull_speedup",
    "stream_floor_headroom",
)

#: Absolute floors the newest artifact must clear whenever it records the
#: metric — hard acceptance criteria, independent of earlier artifacts and
#: of the relative tolerance.  The megakernel floor is the PR 7 acceptance
#: bar: the fused sweep must stay at least 2x the looped reference.  The
#: artifact-cache floors are the PR 9 bars: a warm repeat request must ship
#: at least 3x fewer wire bytes than the cold one, and its per-chunk task
#: payload must stay within 2x of the bare StreamSlice recipe (headroom =
#: ``2 * floor / per_chunk`` staying >= 1).
ABSOLUTE_FLOORS: Dict[Tuple[str, str], float] = {
    ("mesh_megakernel", "speedup"): 2.0,
    ("artifact_cache_hit", "reduction"): 3.0,
    ("artifact_cache_hit", "stream_floor_headroom"): 1.0,
}

#: Fraction of the best earlier value the newest artifact must reach.
DEFAULT_TOLERANCE = float(os.environ.get("REPRO_TRAJECTORY_TOLERANCE", "0.6"))


def _label_sort_key(label: str) -> Tuple[int, str]:
    match = re.fullmatch(r"pr(\d+)", label)
    return (int(match.group(1)) if match else sys.maxsize, label)


def load_artifacts(directory: Path) -> Dict[str, dict]:
    """Label -> report for every ``BENCH_*.json`` under ``directory``."""
    artifacts: Dict[str, dict] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            report = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"skipping {path.name}: {error}", file=sys.stderr)
            continue
        label = report.get("label") or path.stem.replace("BENCH_", "")
        artifacts[label] = report
    return dict(sorted(artifacts.items(), key=lambda item: _label_sort_key(item[0])))


def missing_labels(artifacts: Dict[str, dict]) -> List[str]:
    """PR labels absent from an otherwise contiguous ``prN`` sequence.

    The trajectory is built from one artifact per PR, but not every PR
    records one (PR 8's refactor shipped no benchmark run, so there is no
    ``BENCH_pr8.json``).  A gap is expected history, not an error — the
    comparison simply has fewer columns — but it should be *visible*, or a
    missing upload silently weakens the regression gate's reference set.
    """
    numbers = []
    for label in artifacts:
        match = re.fullmatch(r"pr(\d+)", label)
        if match:
            numbers.append(int(match.group(1)))
    if len(numbers) < 2:
        return []
    present = set(numbers)
    return [
        f"pr{number}"
        for number in range(min(present), max(present) + 1)
        if number not in present
    ]


def metric_rows(artifacts: Dict[str, dict]) -> List[Tuple[str, Dict[str, float]]]:
    """``(metric_name, {label: value})`` rows for the headline metrics."""
    rows = []
    for scenario, key in HEADLINE_METRICS:
        values = {}
        for label, report in artifacts.items():
            value = report.get("scenarios", {}).get(scenario, {}).get(key)
            if isinstance(value, (int, float)):
                values[label] = float(value)
        if values:
            rows.append((f"{scenario}.{key}", values))
    return rows


def format_table(artifacts: Dict[str, dict]) -> str:
    labels = list(artifacts)
    rows = metric_rows(artifacts)
    header = ["metric"] + labels
    table = [header, ["-" * len(cell) for cell in header]]
    for name, values in rows:
        table.append(
            [name] + [f"{values[label]:.2f}" if label in values else "-" for label in labels]
        )
    widths = [max(len(row[col]) for row in table) for col in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)) for row in table
    )


def check_regressions(
    artifacts: Dict[str, dict], tolerance: float = DEFAULT_TOLERANCE
) -> List[str]:
    """Regression findings for the newest artifact, empty when it passes.

    Gates only the dimensionless :data:`RATIO_KEYS` metrics: the newest
    artifact (highest PR label) must reach ``tolerance`` times the best
    value any earlier artifact recorded for the same metric.  Metrics the
    newest artifact does not record are skipped (the scenario suite grows
    over time), as are metrics with no earlier reference.  On top of the
    relative gate, any metric listed in :data:`ABSOLUTE_FLOORS` that the
    newest artifact records must clear its absolute floor outright.
    """
    labels = list(artifacts)
    if not labels:
        return []
    newest = labels[-1]
    failures = []
    for name, values in metric_rows(artifacts):
        if name.rsplit(".", 1)[-1] not in RATIO_KEYS:
            continue
        if newest not in values:
            continue
        scenario, key = name.rsplit(".", 1)
        absolute = ABSOLUTE_FLOORS.get((scenario, key))
        if absolute is not None and values[newest] < absolute:
            failures.append(
                f"{name}: {newest} measured {values[newest]:.2f}, below the "
                f"absolute floor {absolute:.2f}"
            )
        earlier = [value for label, value in values.items() if label != newest]
        if not earlier:
            continue
        reference = max(earlier)
        floor = tolerance * reference
        if values[newest] < floor:
            failures.append(
                f"{name}: {newest} measured {values[newest]:.2f}, below "
                f"{floor:.2f} ({tolerance:.0%} of the best earlier {reference:.2f})"
            )
    return failures


def plot_trajectory(artifacts: Dict[str, dict], output: Path) -> bool:
    """Write the headline-ratio trajectory as a PNG; False without matplotlib.

    One line per ratio metric, one x-tick per artifact label, log-scaled y
    (the ratios span 1x..25x).  Matplotlib is an optional dependency — CI
    runners without it skip the artifact instead of failing the run.
    """
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping --plot", file=sys.stderr)
        return False

    labels = list(artifacts)
    fig, axis = plt.subplots(figsize=(8, 4.5))
    for name, values in metric_rows(artifacts):
        if name.rsplit(".", 1)[-1] not in RATIO_KEYS:
            continue
        xs = [index for index, label in enumerate(labels) if label in values]
        axis.plot(xs, [values[labels[x]] for x in xs], marker="o", label=name)
    axis.set_xticks(range(len(labels)))
    axis.set_xticklabels(labels)
    axis.set_yscale("log")
    axis.set_ylabel("ratio (x, log scale)")
    axis.set_title("perf trajectory: headline ratios per BENCH artifact")
    axis.grid(True, which="both", alpha=0.3)
    axis.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(output, dpi=120)
    plt.close(fig)
    print(f"wrote {output}")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dir",
        type=Path,
        default=REPO_ROOT,
        help="directory holding the BENCH_*.json artifacts (default: repo root)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the merged artifacts as JSON instead of a table",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "regression gate: fail (exit 1) when the newest artifact's ratio "
            "metrics fall below the tolerance of the best earlier artifact"
        ),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=(
            "fraction of the best earlier ratio the newest artifact must reach "
            "(default: REPRO_TRAJECTORY_TOLERANCE or 0.6)"
        ),
    )
    parser.add_argument(
        "--plot",
        nargs="?",
        type=Path,
        const=REPO_ROOT / "trajectory.png",
        default=None,
        metavar="PNG",
        help=(
            "write the headline-ratio trajectory as a PNG (default path: "
            "trajectory.png at the repo root); skipped gracefully when "
            "matplotlib is not installed"
        ),
    )
    args = parser.parse_args(argv)

    artifacts = load_artifacts(args.dir)
    if not artifacts:
        print(f"no BENCH_*.json artifacts under {args.dir}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(artifacts, indent=2))
        return 0
    if args.plot is not None:
        plot_trajectory(artifacts, args.plot)
    gaps = missing_labels(artifacts)
    if gaps:
        print(
            f"warning: no BENCH artifact for {', '.join(gaps)} — that PR "
            f"recorded no benchmark run; comparing across the gap",
            file=sys.stderr,
        )
    print(f"perf trajectory across {len(artifacts)} artifact(s): {', '.join(artifacts)}")
    print()
    print(format_table(artifacts))
    if args.check:
        if not 0.0 < args.tolerance <= 1.0:
            print(f"tolerance must be in (0, 1], got {args.tolerance}", file=sys.stderr)
            return 2
        failures = check_regressions(artifacts, args.tolerance)
        print()
        if failures:
            print("perf regression gate FAILED:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        newest = list(artifacts)[-1]
        print(
            f"perf regression gate passed: {newest} holds >= {args.tolerance:.0%} "
            f"of every earlier headline ratio"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
