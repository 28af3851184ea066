"""Record the performance trajectory: run key scenarios, write ``BENCH_pr14.json``.

The benchmark suite asserts floors; this script *records* the measured
numbers so the repo carries its own perf history.  It times the load-bearing
scenarios of the current optimization work — the noise-aware training step
(original vs. optimized), the warm vs. exact layer recompile, the batched
vs. looped Monte Carlo engine, the per-chunk payload of the shared-memory
network hosting and of the compact stream recipes, the drift timeline sweep
with its warm re-null price, the device-resident engine behind
``--device gpu``, the fused mesh column-sweep megakernel against the looped
reference, and the distributed fleet — a full round trip over a localhost
2-worker fleet plus the cold-vs-warm transfer bytes of its spec-hash
artifact cache — the two set-up phases every paper-scale CLI run pays
(``import repro.cli`` in a fresh interpreter and the synthetic-MNIST
corpus, with the peak RSS after each), and the stages of one paper-shape
Monte Carlo chunk (draws, hardware matrices, forward) — and writes one
JSON artifact with per-scenario timings and ratios at the repo root.  CI
uploads the file so every run of the pipeline leaves a comparable data
point; compare artifacts across PRs with ``python benchmarks/trajectory.py``
(and gate them with ``--check``).

Usage::

    PYTHONPATH=src python benchmarks/record.py [--output BENCH_pr14.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import numpy as np  # noqa: E402

from bench_noise_aware_training import SPEEDUP_TIMING_EPOCHS, _timed_noise_aware_fit  # noqa: E402
from repro.experiments.exp3_robust_training import train_baseline_model  # noqa: E402
from repro.experiments.registry import get_experiment  # noqa: E402
from repro.mesh.svd_layer import PhotonicLinearLayer  # noqa: E402
from repro.onn.builder import build_trained_spnn, prepare_feature_sets  # noqa: E402
from repro.analysis.monte_carlo import MonteCarloRunner  # noqa: E402
from repro.onn.inference import NetworkAccuracyTrial, monte_carlo_accuracy  # noqa: E402
from repro.variation.models import UncertaintyModel  # noqa: E402

#: Artifact label — bump per PR so the trajectory files line up with history.
LABEL = "pr14"


def _time(fn, repeats: int = 3) -> float:
    """Best-of-N wall-clock seconds of ``fn()`` (min damps scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _spread(name: str, samples) -> dict:
    """Median and interquartile range of repeated wall-clock samples."""
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {f"{name}_median_s": float(median), f"{name}_iqr_s": float(q3 - q1)}


def record_setup_phases(repeats: int = 5) -> dict:
    """The set-up every paper-scale ``spnn-repro`` run pays before its study.

    ``import_cli`` times ``import repro.cli`` inside a fresh interpreter
    (interpreter start-up excluded); ``synthesis`` times the paper-scale
    ``load_synthetic_mnist()`` corpus (4000 train + 1000 test images).
    Raw seconds as median + IQR over ``repeats`` runs, recorded for context
    and never gated.  Next to them, the median peak RSS of a fresh
    interpreter after ``import repro.cli`` and after the paper-scale set-up
    (that corpus plus its FFT features), also never gated.  The peak is
    Linux's ``VmHWM``, not ``ru_maxrss``: a spawned child's ``ru_maxrss``
    starts at its parent's resident size, which here is this process.
    """
    import os
    import subprocess

    from repro.datasets import load_synthetic_mnist

    def fresh(code: str) -> list:
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return [float(value) for value in done.stdout.split()]

    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    imports = [
        fresh("import time; t = time.perf_counter(); import repro.cli; print(time.perf_counter() - t)")[0]
        for _ in range(repeats)
    ]
    rss_code = (
        "def peak_mb():\n"
        "    with open('/proc/self/status') as status:\n"
        "        return next(int(line.split()[1]) for line in status if line.startswith('VmHWM:')) / 1024.0\n"
        "import repro.cli\n"
        "after_import = peak_mb()\n"
        "from repro.datasets import fft_crop_features, load_synthetic_mnist\n"
        "train, test = load_synthetic_mnist()\n"
        "fft_crop_features(train.images), fft_crop_features(test.images)\n"
        "print(after_import, peak_mb())\n"
    )
    import_rss, setup_rss = np.median([fresh(rss_code) for _ in range(repeats)], axis=0)
    synthesis = []
    for _ in range(repeats):
        start = time.perf_counter()
        train, test = load_synthetic_mnist()
        synthesis.append(time.perf_counter() - start)
    return {
        "repeats": repeats,
        "images": len(train) + len(test),
        **_spread("import_cli", imports),
        **_spread("synthesis", synthesis),
        "import_cli_peak_rss_mb": float(import_rss),
        "setup_peak_rss_mb": float(setup_rss),
    }


def record_paper_forward(repeats: int = 5) -> dict:
    """The stages of one paper-shape Monte Carlo chunk, timed separately.

    A random-weight 16-16-16-10 SPNN (no training needed) scores
    ``batch = 250`` realizations on ``samples = 1000`` random complex
    feature vectors: the perturbation draws, the per-layer hardware
    matrices, and the forward of :meth:`SPNN.accuracy_batch` with those
    matrices precomputed.  Raw seconds as median + IQR over ``repeats``
    runs, recorded for context and never gated.
    """
    from repro.onn import SPNN, SPNNArchitecture
    from repro.utils.rng import spawn_rngs
    from repro.variation.sampler import sample_network_perturbation_batch

    samples, batch = 1000, 250
    gen = np.random.default_rng(1)
    architecture = SPNNArchitecture(layer_dims=(16, 16, 16, 10))
    weights = [
        (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / 4.0
        for shape in architecture.weight_shapes()
    ]
    spnn = SPNN(weights, architecture)
    features = gen.standard_normal((samples, 16)) + 1j * gen.standard_normal((samples, 16))
    labels = gen.integers(0, architecture.output_size, samples)
    model = UncertaintyModel.both(0.05)
    draws, matrices, forward = [], [], []
    for _ in range(repeats):
        start = time.perf_counter()
        perturbations = sample_network_perturbation_batch(
            spnn.photonic_layers, model, spawn_rngs(3, batch)
        )
        draws.append(time.perf_counter() - start)
        start = time.perf_counter()
        stacked = spnn.hardware_matrices_batch(perturbations)
        matrices.append(time.perf_counter() - start)
        # Shadow the matrix stage on the instance so only the forward is timed.
        spnn.hardware_matrices_batch = lambda *args, stacked=stacked, **kwargs: stacked
        start = time.perf_counter()
        spnn.accuracy_batch(features, labels, perturbations)
        forward.append(time.perf_counter() - start)
        del spnn.hardware_matrices_batch
    return {
        "dims": list(architecture.layer_dims),
        "samples": samples,
        "batch": batch,
        "repeats": repeats,
        **_spread("draws", draws),
        **_spread("matrices", matrices),
        **_spread("forward", forward),
    }


def record_noise_aware_step(config, train_x, train_y) -> dict:
    """Per-step cost of the original vs. optimized noise-aware training."""
    # warmup
    _timed_noise_aware_fit(config, train_x, train_y, 1, optimized=True)
    original = _timed_noise_aware_fit(
        config, train_x, train_y, SPEEDUP_TIMING_EPOCHS, optimized=False
    )
    optimized = _timed_noise_aware_fit(
        config, train_x, train_y, SPEEDUP_TIMING_EPOCHS, optimized=True
    )
    return {
        "original_step_seconds": original,
        "optimized_step_seconds": optimized,
        "speedup": original / optimized,
    }


def record_layer_recompile() -> dict:
    """Exact layer compile vs. warm in-place retune (16x16, paper-size mesh)."""
    gen = np.random.default_rng(0)
    weight = (gen.standard_normal((16, 16)) + 1j * gen.standard_normal((16, 16))) / 4.0
    moved = weight + 0.01 * (gen.standard_normal((16, 16)) + 1j * gen.standard_normal((16, 16)))
    layer = PhotonicLinearLayer(weight)
    exact = _time(lambda: PhotonicLinearLayer(moved))
    warm = _time(lambda: layer.retune_from_weight(moved))
    return {"exact_seconds": exact, "warm_seconds": warm, "speedup": exact / warm}


def record_mc_engine(config) -> dict:
    """Looped vs. batched Monte Carlo accuracy on a small trained SPNN.

    The scalar reference is pinned to the ``looped`` sweep kernel: the
    ratio measures the batched engine against the fixed original loop, and
    the sweep-kernel registry accelerates the scalar path too — letting the
    reference float with the registry default would shrink the recorded
    ratio every time the kernel layer improves.
    """
    import os

    from repro.arrays import SWEEP_KERNEL_ENV

    task = build_trained_spnn(config.training)
    features = task.test_features[:64]
    labels = task.test_labels[:64]
    model = UncertaintyModel.both(0.01)
    iterations, seed = 200, 7
    oracle = NetworkAccuracyTrial(task.spnn, features, labels, model)
    previous = os.environ.get(SWEEP_KERNEL_ENV)
    os.environ[SWEEP_KERNEL_ENV] = "looped"
    try:
        looped = _time(
            lambda: MonteCarloRunner(iterations=iterations).run(oracle, rng=seed), repeats=1
        )
    finally:
        if previous is None:
            os.environ.pop(SWEEP_KERNEL_ENV, None)
        else:
            os.environ[SWEEP_KERNEL_ENV] = previous
    batched = _time(
        lambda: monte_carlo_accuracy(
            task.spnn, features, labels, model, iterations=iterations, rng=seed
        ),
        repeats=1,
    )
    return {"looped_seconds": looped, "batched_seconds": batched, "speedup": looped / batched}


def record_plain_training(config, train_x, train_y) -> dict:
    """The plain software loop — the denominator of the overhead headline."""
    seconds = _time(lambda: train_baseline_model(train_x, train_y, config), repeats=1)
    return {"seconds": seconds}


def record_shared_network_payload(config) -> dict:
    """Per-chunk task payload: compiled SPNN vs the shared-memory handle."""
    from bench_parallel_scaling import measure_shared_network_payload

    task = build_trained_spnn(config.training)
    return measure_shared_network_payload(task)


def record_stream_payload() -> dict:
    """Per-chunk stream payload: pickled generators vs the seed recipe."""
    from bench_parallel_scaling import measure_stream_payload

    return measure_stream_payload()


def record_drift_timeline(config) -> dict:
    """The drift timeline sweep (EXP 4) plus the warm re-null event price."""
    from repro.experiments.registry import get_experiment

    drift_config = get_experiment("drift").smoke_config
    task = build_trained_spnn(drift_config.training)
    from repro.experiments.drift_experiment import run_drift

    start = time.perf_counter()
    result = run_drift(drift_config, task=task)
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "timelines": result.baseline.timelines,
        "num_steps": result.baseline.num_steps,
        "baseline_mean_accuracy": result.baseline.mean_served_accuracy,
        "recalibrated_mean_accuracy": result.recalibrated.mean_served_accuracy,
        "accuracy_recovered": result.accuracy_recovered,
        "renull_warm_seconds": result.renull_cost.warm_seconds,
        "renull_exact_seconds": result.renull_cost.exact_seconds,
        "renull_speedup": result.renull_cost.speedup,
    }


def record_device_engine(config) -> dict:
    """The device-resident engine (``--device gpu``) vs the serial CPU path.

    On GPU machines this exercises CuPy; CPU-only machines fall back to the
    strict mock namespace, where the value of the record is the invariance
    check (mock results are bit-identical by contract) plus the overhead of
    the seam, not a speedup.
    """
    from repro.arrays import available_array_backends
    from repro.execution import GpuBackend, default_gpu_array_backend

    preferred = default_gpu_array_backend()
    available = available_array_backends()
    array_backend = preferred if preferred in available else "mock_device"

    task = build_trained_spnn(config.training)
    features = task.test_features[:64]
    labels = task.test_labels[:64]
    model = UncertaintyModel.both(0.01)
    kwargs = dict(iterations=200, rng=7)
    serial_samples = monte_carlo_accuracy(task.spnn, features, labels, model, **kwargs)
    backend = GpuBackend(array_backend=array_backend)
    start = time.perf_counter()
    device_samples = monte_carlo_accuracy(
        task.spnn, features, labels, model, backend=backend, **kwargs
    )
    device_seconds = time.perf_counter() - start
    return {
        "array_backend": array_backend,
        "seconds": device_seconds,
        "matches_serial": bool(np.allclose(device_samples, serial_samples)),
        "bit_identical_to_serial": bool(np.array_equal(device_samples, serial_samples)),
    }


def record_mesh_megakernel() -> dict:
    """Direct column-sweep timing: the looped reference vs the fused kernel.

    Times :func:`repro.arrays.apply_column_sweep` alone — the megakernel
    regime the registry optimizes — on a paper-plus-size 32x32 Clements
    mesh with a 2048-realization perturbation batch (the sigma-folded
    Monte Carlo scale: a 4-sigma yield study over 512 draws each lands
    exactly here).  Each kernel gets the whole batch in one call, so the
    fused kernel's internal cache blocking is fully visible against the
    looped reference's column-major streaming.  Also asserts the two
    kernels agree bit for bit on the timed inputs.
    """
    from scipy.stats import unitary_group

    from repro.arrays import active_array_backend, apply_column_sweep, available_sweep_kernels
    from repro.mesh.mesh import MZIMesh
    from repro.utils.rng import spawn_rngs
    from repro.variation.sampler import sample_mesh_perturbation_batch

    n, batch, repeats = 32, 4096, 3
    mesh = MZIMesh.from_unitary(unitary_group.rvs(n, random_state=3), scheme="clements")
    perturbation = sample_mesh_perturbation_batch(
        mesh, UncertaintyModel.both(0.01), spawn_rngs(11, batch)
    )
    backend = active_array_backend()
    stacks, _ = mesh._column_stacks_and_phases(perturbation, backend)
    program = mesh.column_program(backend)
    eye = np.broadcast_to(np.eye(n, dtype=np.complex128), (batch, n, n))
    work = np.empty((batch, n, n), dtype=np.complex128)

    def sweep_seconds(kernel: str) -> float:
        samples = []
        for _ in range(repeats):
            work[...] = eye
            start = time.perf_counter()
            apply_column_sweep(backend, work, stacks, program, kernel=kernel)
            samples.append(time.perf_counter() - start)
        return float(np.median(samples))

    def sweep_result(kernel: str) -> np.ndarray:
        out = eye.copy()
        apply_column_sweep(backend, out, stacks, program, kernel=kernel)
        return out

    bit_identical = bool(np.array_equal(sweep_result("looped"), sweep_result("fused")))
    sweep_seconds("fused")  # warm the fused kernel's column plan
    looped = sweep_seconds("looped")
    fused = sweep_seconds("fused")
    return {
        "n": n,
        "batch": batch,
        "looped_seconds": looped,
        "fused_seconds": fused,
        "speedup": looped / fused,
        "bit_identical": bit_identical,
        "available_kernels": list(available_sweep_kernels(backend)),
    }


def record_fleet_round_trip(config) -> dict:
    """A Monte Carlo accuracy sweep over a localhost 2-worker fleet vs serial.

    The number that matters here is not a speedup (a localhost fleet adds
    socket hops to the same two cores ``--workers 2`` would use) but the
    bit-identity flag and the absolute round-trip price of the distributed
    path: coordinator bind, worker dial-in, dehydrated chunks out, samples
    back in task order.
    """
    from repro.execution.fleet import local_fleet

    task = build_trained_spnn(config.training)
    features = task.test_features[:64]
    labels = task.test_labels[:64]
    model = UncertaintyModel.both(0.01)
    kwargs = dict(iterations=200, rng=7)
    start = time.perf_counter()
    serial_samples = monte_carlo_accuracy(task.spnn, features, labels, model, **kwargs)
    serial_seconds = time.perf_counter() - start
    with local_fleet(workers=2) as fleet:
        start = time.perf_counter()
        fleet_samples = monte_carlo_accuracy(
            task.spnn, features, labels, model, backend=fleet, **kwargs
        )
        fleet_seconds = time.perf_counter() - start
        workers = fleet.server.worker_count
    return {
        "workers": workers,
        "serial_seconds": serial_seconds,
        "seconds": fleet_seconds,
        "bit_identical_to_serial": bool(np.array_equal(fleet_samples, serial_samples)),
    }


def record_artifact_cache_hit(config) -> dict:
    """Cold vs. warm transfer bytes for a repeat request on one fleet.

    The cold request pushes the content-addressed blobs (the pickled trial
    with its compiled network parameters and eval arrays) to each worker
    link; a warm repeat of the same spec ships only digests and seed
    recipes.  ``reduction`` is total cold wire bytes over warm wire bytes
    — the headline the trajectory gate holds at >= 3x.
    ``stream_floor_headroom`` checks the ISSUE's payload bound the same
    way the tests do: warm per-chunk task bytes must stay within 2x of
    what a bare ``(start, TrialRef, (StreamSlice,))`` chunk task pickles to,
    so the ratio ``2 * floor / per_chunk`` must stay >= 1.
    """
    import pickle

    from repro.execution.fleet import TrialRef, local_fleet
    from repro.utils.rng import spawn_slice

    task = build_trained_spnn(config.training)
    features = task.test_features[:64]
    labels = task.test_labels[:64]
    model = UncertaintyModel.both(0.01)
    kwargs = dict(iterations=200, rng=7)

    def wire_bytes(entry: dict) -> int:
        return entry["task_bytes"] + entry["fn_bytes"] + entry["artifact_bytes"]

    with local_fleet(workers=2) as fleet:
        cold_samples = monte_carlo_accuracy(
            task.spnn, features, labels, model, backend=fleet, **kwargs
        )
        cold_bytes = sum(wire_bytes(entry) for entry in fleet.request_log)
        cold_artifact_bytes = sum(
            entry["artifact_bytes"] for entry in fleet.request_log
        )
        warm = fleet.request_log[-1]
        for _ in range(4):  # links warm lazily; a couple of repeats saturate
            warm_samples = monte_carlo_accuracy(
                task.spnn, features, labels, model, backend=fleet, **kwargs
            )
            warm = fleet.request_log[-1]
            if warm["artifact_bytes"] == 0:
                break
        matches = bool(np.array_equal(cold_samples, warm_samples))
    warm_bytes = wire_bytes(warm)
    per_chunk = warm["task_bytes"] / warm["tasks"]
    recipe = spawn_slice(np.random.default_rng(0), kwargs["iterations"])
    floor = len(
        pickle.dumps((0, TrialRef("0" * 32), (recipe,)), protocol=pickle.HIGHEST_PROTOCOL)
    )
    return {
        "workers": 2,
        "cold_bytes": cold_bytes,
        "cold_artifact_bytes": cold_artifact_bytes,
        "warm_bytes": warm_bytes,
        "warm_artifact_bytes": warm["artifact_bytes"],
        "reduction": cold_bytes / warm_bytes,
        "stream_slice_floor_bytes": floor,
        "warm_task_bytes_per_chunk": per_chunk,
        "stream_floor_headroom": (2 * floor) / per_chunk,
        "cold_and_warm_match": matches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / f"BENCH_{LABEL}.json",
        help="where to write the JSON artifact (default: repo root)",
    )
    parser.add_argument(
        "--recorded-at",
        type=float,
        default=None,
        help=(
            "unix timestamp to stamp into the artifact instead of the wall "
            "clock (reproducible artifacts, e.g. for fixture generation)"
        ),
    )
    args = parser.parse_args(argv)

    config = get_experiment("robust").smoke_config
    train_x, train_y, _, _ = prepare_feature_sets(config.training)

    scenarios = {}
    print("recording set-up phases ...")
    scenarios["setup_phases"] = record_setup_phases()
    print("recording paper-shape forward stages ...")
    scenarios["paper_forward"] = record_paper_forward()
    print("recording noise-aware step timings ...")
    scenarios["noise_aware_step"] = record_noise_aware_step(config, train_x, train_y)
    print("recording layer recompile timings ...")
    scenarios["layer_recompile"] = record_layer_recompile()
    print("recording Monte Carlo engine timings ...")
    scenarios["mc_engine"] = record_mc_engine(config)
    print("recording plain training baseline ...")
    scenarios["plain_training"] = record_plain_training(config, train_x, train_y)
    print("recording shared-network payload ...")
    scenarios["shared_network_payload"] = record_shared_network_payload(config)
    print("recording stream payload ...")
    scenarios["stream_payload"] = record_stream_payload()
    print("recording drift timeline sweep ...")
    scenarios["drift_timeline"] = record_drift_timeline(config)
    print("recording device-resident engine ...")
    scenarios["device_engine"] = record_device_engine(config)
    print("recording mesh megakernel sweep ...")
    scenarios["mesh_megakernel"] = record_mesh_megakernel()
    print("recording fleet round trip ...")
    scenarios["fleet_round_trip"] = record_fleet_round_trip(config)
    print("recording artifact cache hit ...")
    scenarios["artifact_cache_hit"] = record_artifact_cache_hit(config)

    report = {
        "schema": 1,
        "label": LABEL,
        "recorded_at_unix": args.recorded_at if args.recorded_at is not None else time.time(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scenarios": scenarios,
        "speedups": {
            name: values["speedup"]
            for name, values in scenarios.items()
            if "speedup" in values
        },
    }

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    for name, ratio in report["speedups"].items():
        print(f"  {name}: {ratio:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
