"""Command-line interface: ``spnn-repro <experiment> [options]``.

Runs any of the paper's experiments from the shell and prints the same rows
the paper reports.  Results can optionally be saved as JSON for archival.

Examples
--------
::

    spnn-repro list
    spnn-repro fig2
    spnn-repro fig3 --smoke
    spnn-repro exp1 --smoke --output exp1.json
    spnn-repro exp1 --workers 1   # the serial reference (one thread)
    spnn-repro exp1 --workers 4   # shard MC realizations over 4 processes
    spnn-repro yield --smoke      # parametric yield vs sigma (§I motivation)
    spnn-repro robust --smoke     # noise-aware training vs baseline (EXP 3)
    spnn-repro drift --smoke      # temporal drift + recalibration (EXP 4)
    spnn-repro summary            # hardware inventory (1374 phase shifters)

Without ``--workers`` the Monte Carlo realizations of the supporting
experiments run on one thread per available CPU inside this process;
``--workers 1`` runs them serially on the calling thread (the reference)
and ``--workers N`` (N > 1) shards them across N worker processes.  The
samples are bit-identical in every case at the same seed (the child RNG
streams are spawned before any scheduling), so the flag only changes
wall-clock time and memory, never results.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Optional, Sequence

from .experiments.registry import build_registry, get_experiment, list_experiments
from .observability import PrintProgressSink, Stopwatch, observe, use_progress_sink
from .onn.builder import SPNNTrainingConfig, build_trained_spnn
from .utils.serialization import format_table, save_json, to_jsonable


def _print_experiment_list() -> None:
    rows = [[identifier, description] for identifier, description in sorted(list_experiments().items())]
    print(format_table(["experiment", "description"], rows))


def _run_summary(smoke: bool) -> dict:
    """Train/compile the SPNN and print its hardware inventory."""
    training = SPNNTrainingConfig(num_train=600, num_test=200, epochs=20) if smoke else SPNNTrainingConfig()
    task = build_trained_spnn(training)
    summary = task.spnn.hardware_summary()
    summary["baseline_accuracy_percent"] = 100.0 * task.baseline_accuracy
    rows = [[key, value] for key, value in summary.items()]
    print("SPNN hardware inventory (paper: 687 MZIs, 1374 tunable phase shifters)")
    print(format_table(["quantity", "value"], rows))
    return summary


def _record_kernel_table(info: dict) -> Path:
    """Write the kernel part of ``info`` to ``$XDG_CACHE_HOME/spnn-repro``.

    The file, ``cost_table_<digest>.json``, holds which sweep kernels are
    registered on this machine.  Nothing in
    the package reads it back: dispatch is the static order.  It is kept
    because ``perfbench/test_perfbench.py`` checks that the benchmark's warm-up,
    which runs ``info``, leaves such a file in its isolated cache.
    """
    table = {key: info[key] for key in ("platform", "python", "array_backends", "sweep_kernels")}
    digest = hashlib.sha256(json.dumps(table, sort_keys=True).encode("utf-8")).hexdigest()[:12]
    base = os.environ.get("XDG_CACHE_HOME", "").strip() or os.path.join(os.path.expanduser("~"), ".cache")
    return save_json(table, Path(base) / "spnn-repro" / f"cost_table_{digest}.json")


def _run_info() -> dict:
    """Print (and return) the environment diagnostics behind a run.

    Answers the usual "why is my run slow / which kernel ran" questions
    without a debugger: platform, CPU budget, the backend a run without
    ``--workers`` gets, the entry point that pins BLAS threads, the sweep
    kernels and the one dispatch picks, and the ``REPRO_*`` environment
    overrides currently in force.  The kernel part is also recorded in the
    user cache (see ``_record_kernel_table``).
    """
    import platform

    from .arrays.sweep import SWEEP_KERNEL_ENV, select_sweep_kernel, sweep_kernel_names
    from .execution.backends import available_workers, resolve_backend
    from .execution.blas import blas_thread_control
    from .observability import TRACE_ENV

    kernels = list(sweep_kernel_names())
    info: dict = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus_available": available_workers(),
        "cpu_count": os.cpu_count() or 1,
        "thread_budget": available_workers(),
        "default_backend": repr(resolve_backend()),
        "blas_thread_control": blas_thread_control(),
        "array_backends": {"numpy": {"available": True, "sweep_kernels": kernels}},
        "sweep_kernels": {name: {"available": True, "reason": None} for name in kernels},
        # Always null: kept because perfbench/run.py reads report["autotune"].
        "autotune": None,
    }
    info["env_overrides"] = {
        variable: os.environ[variable] for variable in (SWEEP_KERNEL_ENV, TRACE_ENV) if os.environ.get(variable)
    }
    try:
        info["kernel_table"] = str(_record_kernel_table(info))
    except OSError as error:
        info["kernel_table"] = None
        print(f"kernel table not recorded: {error}", file=sys.stderr)

    print("spnn-repro environment diagnostics")
    print(
        format_table(
            ["quantity", "value"],
            [
                ["platform", info["platform"]],
                ["python", info["python"]],
                ["cpus available", info["cpus_available"]],
                ["cpu count", info["cpu_count"]],
                ["thread budget", info["thread_budget"]],
                ["default backend", info["default_backend"]],
                ["blas thread control", info["blas_thread_control"] or "none (cannot pin BLAS threads)"],
                ["array backend", "numpy"],
                ["sweep kernels", ", ".join(kernels)],
                ["dispatched sweep kernel", select_sweep_kernel().name],
            ],
        )
    )
    print()
    if info["env_overrides"]:
        print(
            format_table(
                ["env override", "value"],
                [[variable, value] for variable, value in info["env_overrides"].items()],
            )
        )
    else:
        print("no REPRO_* environment overrides active")
    return info


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spnn-repro",
        description="Reproduce the experiments of 'Modeling Silicon-Photonic Neural Networks under Uncertainties' (DATE 2021).",
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment id (fig2, fig3, exp1, exp2, exp3/robust, yield, "
            "drift/exp4, baseline), 'summary', 'info' or 'list'"
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="use the fast smoke configuration instead of the paper-scale one",
    )
    parser.add_argument(
        "--iterations",
        type=_positive_int,
        default=None,
        help="override the number of Monte Carlo iterations (where applicable)",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help=(
            "1 runs Monte Carlo realizations serially, N > 1 shards them across N "
            "worker processes; default: one thread per available CPU in this process "
            "(bit-identical either way; applies to experiments with a workers knob)"
        ),
    )
    parser.add_argument(
        "--bisect",
        action="store_true",
        help=(
            "refine the max tolerable sigma by bisection after the coarse sweep "
            "(O(log) extra Monte Carlo runs; 'yield' and 'exp3'/'robust' only)"
        ),
    )
    parser.add_argument(
        "--output",
        type=str,
        default=None,
        help="write the result (JSON) to this path",
    )
    parser.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "record an observability trace of the run (spans, worker chunk "
            "frames, kernel dispatches) and write it to PATH as JSONL; "
            "bit-identical results, timing-only overhead"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write the aggregated metrics report (JSON) of the traced run to PATH",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print a heartbeat line as each scheduled chunk group completes",
    )
    parser.add_argument(
        "--backend",
        choices=["serial", "multiprocess"],
        default=None,
        help="execution backend for the Monte Carlo chunks",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``spnn-repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)

    identifier = args.experiment.lower()
    if identifier in ("list", "summary", "info") and args.workers is not None:
        parser.error(f"{identifier!r} does not support --workers")
    if identifier in ("list", "summary", "info") and args.bisect:
        parser.error(f"{identifier!r} does not support --bisect")
    if identifier in ("list", "summary", "info") and args.backend is not None:
        parser.error(f"{identifier!r} does not support --backend")
    if identifier in ("list", "info") and (args.trace or args.metrics_out or args.progress):
        parser.error(f"{identifier!r} does not support --trace/--metrics-out/--progress")
    if identifier == "list":
        _print_experiment_list()
        return 0
    if identifier == "info":
        info = _run_info()
        if args.output:
            save_json(info, args.output)
        return 0
    if identifier == "summary":
        tracing = (
            observe(trace_path=args.trace, metrics_path=args.metrics_out)
            if (args.trace or args.metrics_out)
            else nullcontext()
        )
        progress = use_progress_sink(PrintProgressSink()) if args.progress else nullcontext()
        with tracing, progress:
            summary = _run_summary(args.smoke)
        if args.output:
            save_json(summary, args.output)
        return 0

    spec = get_experiment(identifier)
    config = spec.smoke_config if args.smoke else spec.default_config
    if args.iterations is not None and hasattr(config, "iterations"):
        config = dataclasses.replace(config, iterations=args.iterations)
    if args.backend is not None:
        if not hasattr(config, "backend"):
            parser.error(f"experiment {spec.identifier!r} does not support --backend")
        config = dataclasses.replace(config, backend=args.backend)
    if args.workers is not None:
        if not hasattr(config, "workers"):
            parser.error(f"experiment {spec.identifier!r} does not support --workers")
        config = dataclasses.replace(config, workers=args.workers)
    if args.bisect:
        if not hasattr(config, "bisect"):
            parser.error(f"experiment {spec.identifier!r} does not support --bisect")
        config = dataclasses.replace(config, bisect=True)

    tracing = (
        observe(trace_path=args.trace, metrics_path=args.metrics_out)
        if (args.trace or args.metrics_out)
        else nullcontext()
    )
    progress = use_progress_sink(PrintProgressSink()) if args.progress else nullcontext()
    watch = Stopwatch()
    with tracing, progress:
        result = spec.runner(config)
    elapsed = watch.seconds

    if hasattr(result, "report"):
        print(result.report())
    else:  # pragma: no cover - all current experiments define report()
        print(result)
    print(f"\n[{spec.identifier}] completed in {elapsed:.1f}s")

    if args.output:
        save_json(to_jsonable(result), args.output)
        print(f"result written to {args.output}")
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.metrics_out:
        print(f"metrics report written to {args.metrics_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
