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
    spnn-repro exp1 --workers 4   # shard MC realizations over 4 processes
    spnn-repro yield --smoke      # parametric yield vs sigma (§I motivation)
    spnn-repro robust --smoke     # noise-aware training vs baseline (EXP 3)
    spnn-repro drift --smoke      # temporal drift + recalibration (EXP 4)
    spnn-repro summary            # hardware inventory (1374 phase shifters)
    spnn-repro worker --connect HOST:PORT   # join a sweep fleet as a worker
    spnn-repro yield --smoke --backend fleet --workers 2   # run on the fleet

``--workers N`` shards the Monte Carlo realizations of the supporting
experiments across N worker processes; the samples are bit-identical to the
serial run at the same seed (the child RNG streams are spawned before any
scheduling), so the flag only changes wall-clock time, never results.

``--backend fleet`` (optionally with ``--fleet HOST:PORT`` to pick the
coordinator's bind address) schedules the same chunks over persistent
network workers started with ``spnn-repro worker --connect``; results stay
bit-identical for any fleet size and cache state.
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

    The file, ``cost_table_<digest>.json``, holds which sweep kernels can
    run on this machine and which array backends each serves.  Nothing in
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

    Answers the usual "why is my run slow / which kernel ran / why is the
    GPU path unavailable" questions without a debugger: platform, CPU
    budget, array-backend availability, which sweep kernels can serve each
    backend (with the reason when one cannot run at all), and the
    ``REPRO_*`` environment overrides currently in force.  The kernel
    part is also recorded in the user cache (see ``_record_kernel_table``).
    """
    import platform

    import socket

    from .arrays.namespace import array_backend_names, available_array_backends, get_array_backend
    from .arrays.sweep import SWEEP_KERNEL_ENV, available_sweep_kernels, get_sweep_kernel, sweep_kernel_names
    from .execution.backends import GPU_ARRAY_BACKEND_ENV, available_workers
    from .execution.fleet import FLEET_ADDRESS_ENV, artifact_store, default_fleet_address, parse_address
    from .observability import TRACE_ENV

    info: dict = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus_available": available_workers(),
        "cpu_count": os.cpu_count() or 1,
    }
    usable = available_array_backends()
    backends: dict = {}
    for name in array_backend_names():
        entry: dict = {"available": name in usable}
        if entry["available"]:
            entry["sweep_kernels"] = list(available_sweep_kernels(get_array_backend(name)))
        backends[name] = entry
    info["array_backends"] = backends
    kernels: dict = {}
    for name in sweep_kernel_names():
        kernel = get_sweep_kernel(name)
        kernels[name] = {
            "available": kernel.available(),
            "reason": kernel.unavailable_reason(),
        }
    info["sweep_kernels"] = kernels
    # Fleet diagnostics: can the coordinator's transport actually bind the
    # configured address, and what does the process artifact cache hold?
    fleet_address = default_fleet_address()
    try:
        host, port = parse_address(fleet_address)
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.bind((host, port))
        bindable, bind_error = True, None
    except OSError as error:
        bindable, bind_error = False, f"{type(error).__name__}: {error}"
    except ValueError as error:
        bindable, bind_error = False, str(error)
    info["fleet"] = {
        "coordinator_address": fleet_address,
        "transport_bindable": bindable,
        "transport_error": bind_error,
        "artifact_cache": artifact_store().stats(),
    }
    # Always null: kept because perfbench/run.py reads report["autotune"].
    info["autotune"] = None
    overrides = (SWEEP_KERNEL_ENV, TRACE_ENV, GPU_ARRAY_BACKEND_ENV, FLEET_ADDRESS_ENV)
    info["env_overrides"] = {
        variable: os.environ[variable] for variable in overrides if os.environ.get(variable)
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
            ],
        )
    )
    print()
    print(
        format_table(
            ["array backend", "available", "sweep kernels"],
            [
                [name, "yes" if entry["available"] else "no", ", ".join(entry.get("sweep_kernels", [])) or "-"]
                for name, entry in backends.items()
            ],
        )
    )
    print()
    print(
        format_table(
            ["sweep kernel", "available", "unavailable reason"],
            [
                [name, "yes" if entry["available"] else "no", entry["reason"] or "-"]
                for name, entry in kernels.items()
            ],
        )
    )
    cache = info["fleet"]["artifact_cache"]
    print(
        format_table(
            ["fleet", "value"],
            [
                ["coordinator address", info["fleet"]["coordinator_address"]],
                [
                    "transport bindable",
                    "yes" if bindable else f"no ({bind_error})",
                ],
                [
                    "artifact cache",
                    f"{cache['entries']} entries, {cache['bytes']} bytes "
                    f"({cache['hits']} hits, {cache['misses']} misses)",
                ],
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
            "drift/exp4, baseline), 'summary', 'info', 'list' or 'worker' "
            "(join a sweep fleet; requires --connect)"
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
            "shard Monte Carlo realizations across N worker processes "
            "(bit-identical to the serial run; applies to experiments with a workers knob)"
        ),
    )
    parser.add_argument(
        "--device",
        choices=["cpu", "gpu"],
        default=None,
        help=(
            "run the Monte Carlo realizations on this device: 'gpu' evaluates "
            "chunks device-resident through the CuPy array backend (or the "
            "strict mock stand-in selected by REPRO_GPU_ARRAY_BACKEND on "
            "CPU-only machines); 'cpu' (default) keeps the serial/multiprocess "
            "backends"
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
        choices=["serial", "multiprocess", "gpu", "fleet"],
        default=None,
        help=(
            "execution backend for the Monte Carlo chunks; 'fleet' schedules "
            "over persistent network workers (started with "
            "'spnn-repro worker --connect'), with --workers as the minimum "
            "fleet size to wait for"
        ),
    )
    parser.add_argument(
        "--fleet",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help=(
            "bind the fleet coordinator at this address (implies "
            "--backend fleet; default: REPRO_FLEET_ADDRESS or 127.0.0.1:0)"
        ),
    )
    parser.add_argument(
        "--connect",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help="('worker' only) the fleet coordinator address to serve chunks for",
    )
    return parser


def _run_worker(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """``spnn-repro worker --connect HOST:PORT`` — serve a fleet until EOF."""
    if not args.connect:
        parser.error("'worker' requires --connect HOST:PORT (the coordinator address)")
    for flag, name in (
        (args.workers, "--workers"), (args.device, "--device"),
        (args.bisect, "--bisect"), (args.iterations, "--iterations"),
        (args.backend, "--backend"), (args.fleet, "--fleet"),
        (args.trace, "--trace"), (args.metrics_out, "--metrics-out"),
    ):
        if flag:
            parser.error(f"'worker' does not support {name}")
    from .execution.fleet import run_worker

    print(f"[worker] pid {os.getpid()} connecting to {args.connect}", flush=True)
    chunks = run_worker(args.connect)
    print(f"[worker] coordinator gone; served {chunks} chunk(s)")
    return 0


def _fleet_backend(args: argparse.Namespace):
    """Build the :class:`FleetBackend` behind ``--backend fleet``/``--fleet``."""
    from .execution.fleet import FleetBackend

    backend = FleetBackend(
        address=args.fleet,  # None falls back to REPRO_FLEET_ADDRESS / 127.0.0.1:0
        min_workers=args.workers if args.workers is not None else 1,
    )
    print(
        f"[fleet] coordinator listening at {backend.address} — start workers "
        f"with: spnn-repro worker --connect {backend.address}",
        flush=True,
    )
    return backend


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``spnn-repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)

    identifier = args.experiment.lower()
    if identifier == "worker":
        return _run_worker(parser, args)
    if args.connect is not None:
        parser.error("--connect only applies to the 'worker' command")
    if args.fleet is not None and args.backend is None:
        args.backend = "fleet"
    if args.fleet is not None and args.backend != "fleet":
        parser.error("--fleet only applies to --backend fleet")
    if identifier in ("list", "summary", "info") and args.workers is not None:
        parser.error(f"{identifier!r} does not support --workers")
    if identifier in ("list", "summary", "info") and args.bisect:
        parser.error(f"{identifier!r} does not support --bisect")
    if identifier in ("list", "summary", "info") and args.device is not None:
        parser.error(f"{identifier!r} does not support --device")
    if identifier in ("list", "summary", "info") and args.backend is not None:
        parser.error(f"{identifier!r} does not support --backend/--fleet")
    if identifier in ("list", "info") and (args.trace or args.metrics_out or args.progress):
        parser.error(f"{identifier!r} does not support --trace/--metrics-out/--progress")
    if args.device == "gpu" and args.workers is not None and args.workers > 1:
        parser.error(
            "--device gpu cannot be combined with --workers > 1 "
            "(the GPU executes chunks in order; its concurrency lives in the device kernels)"
        )
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
        if args.device is not None:
            parser.error("--backend cannot be combined with --device (the backend already decided)")
        if args.backend == "fleet":
            # --workers becomes the minimum fleet size (inside the backend
            # instance) rather than a config knob: resolve_backend forbids
            # combining a Backend instance with a separate workers count.
            config = dataclasses.replace(config, backend=_fleet_backend(args))
            args.workers = None
        else:
            config = dataclasses.replace(config, backend=args.backend)
    if args.workers is not None:
        if not hasattr(config, "workers"):
            parser.error(f"experiment {spec.identifier!r} does not support --workers")
        config = dataclasses.replace(config, workers=args.workers)
    if args.device is not None:
        if not hasattr(config, "device"):
            parser.error(f"experiment {spec.identifier!r} does not support --device")
        config = dataclasses.replace(config, device=args.device)
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
