"""Parallel-scaling benchmark: the Monte Carlo engine across worker processes.

Measures the paper-scale scenario (B=1000 uncertainty realizations of the
16-16-16-10 SPNN) on the serial backend and on the multiprocess backend
with 2 and 4 workers, asserting two things:

* **bit-identity** — the sharded samples equal the serial samples exactly,
  for every worker count (the execution layer's load-bearing guarantee);
* **scaling** — with 4 workers the engine-dominated scenario (64-sample
  evaluation subset, so per-iteration mesh/forward cost dominates) runs at
  least ``REPRO_PARALLEL_SPEEDUP_FLOOR`` (default 1.6x) faster than serial.

The scaling assertion only makes sense where 4 CPUs actually exist, so it
is gated on the process's CPU affinity; single/dual-core boxes (and
severely throttled CI runners) still run the bit-identity checks and
report the measured ratios.
"""

from __future__ import annotations

import os
import pickle
import time

import numpy as np
import pytest

from repro.execution import available_workers
from repro.execution.shared import SharedNetwork, shared_memory_available
from repro.observability import Stopwatch, active, active_collector, observe
from repro.onn import monte_carlo_accuracy
from repro.onn.inference import NetworkAccuracyBatchTrial
from repro.utils.rng import spawn_rngs, spawn_slice
from repro.variation import UncertaintyModel

#: Monte Carlo iterations of the paper's experiments (the acceptance scenario).
PAPER_MC_ITERATIONS = int(os.environ.get("REPRO_PARALLEL_BENCH_ITERATIONS", "1000"))

#: Required 4-worker speedup on a machine with >= 4 CPUs.  1.6x leaves
#: headroom under the ~2.5x a quiet 4-core box measures; CI smoke jobs on
#: shared runners can override it down if wall-clock ratios get noisy.
PARALLEL_SPEEDUP_FLOOR = float(os.environ.get("REPRO_PARALLEL_SPEEDUP_FLOOR", "1.6"))

#: Worker counts swept by the scaling scenario.
WORKER_COUNTS = (2, 4)


def _engine_dominated_scenario(spnn_task):
    """B=1000 on a 64-sample evaluation subset: engine cost dominates."""
    return dict(
        spnn=spnn_task.spnn,
        features=spnn_task.test_features[:64],
        labels=spnn_task.test_labels[:64],
        model=UncertaintyModel.both(0.05),
        iterations=PAPER_MC_ITERATIONS,
        rng=7,
    )


def test_multiprocess_smoke_bit_identical(spnn_task):
    """Fast guard: a small sharded run equals serial exactly (2 workers)."""
    kwargs = {**_engine_dominated_scenario(spnn_task), "iterations": 50}
    serial = monte_carlo_accuracy(**kwargs)
    sharded = monte_carlo_accuracy(workers=2, **kwargs)
    assert np.array_equal(serial, sharded)


def measure_shared_network_payload(spnn_task) -> dict:
    """Per-chunk task payload bytes: compiled SPNN vs shared-memory handle.

    The multiprocess backend pickles the trial into the workers for every
    chunk; hosting the compiled mesh parameters in shared memory
    (:class:`repro.execution.shared.SharedNetwork`) shrinks that payload to
    segment names plus the perturbation-draw generators.  Returns the two
    sizes and their ratio (also recorded in ``BENCH_pr5.json``).
    """
    scenario = _engine_dominated_scenario(spnn_task)
    spnn = scenario["spnn"]
    features, labels = scenario["features"], scenario["labels"]
    model = scenario["model"]
    full_trial = NetworkAccuracyBatchTrial(
        spnn=spnn, features=features, labels=labels, model=model
    )
    full_bytes = len(pickle.dumps(full_trial))
    handle = SharedNetwork.create(spnn)
    try:
        shared_trial = NetworkAccuracyBatchTrial(
            spnn=handle, features=features, labels=labels, model=model
        )
        shared_bytes = len(pickle.dumps(shared_trial))
    finally:
        handle.close()
        handle.unlink()
    return {
        "full_trial_bytes": full_bytes,
        "shared_trial_bytes": shared_bytes,
        "reduction": full_bytes / shared_bytes,
    }


@pytest.mark.skipif(not shared_memory_available(), reason="no shared memory here")
def test_shared_network_payload_reduction(spnn_task):
    """Hosting the mesh parameters must shrink the per-chunk payload a lot.

    On the paper architecture the pickled compiled SPNN is dominated by the
    six tuned meshes (687 MZIs of structural bookkeeping); the shared
    handle carries segment names instead.  A 5x floor leaves generous slack
    under the >20x a paper-size network measures — shrinking below it means
    the handle started dragging compiled state along again.
    """
    payload = measure_shared_network_payload(spnn_task)
    print(
        f"\nper-chunk payload: full {payload['full_trial_bytes']} B, "
        f"shared {payload['shared_trial_bytes']} B "
        f"({payload['reduction']:.1f}x smaller)"
    )
    assert payload["reduction"] >= 5.0


def measure_stream_payload(iterations: int = 250) -> dict:
    """Per-chunk stream payload bytes: pickled generators vs seed recipe.

    A chunk of ``spawn_rngs`` children is fully determined by its parent
    seed plus the spawn-index range, so the scheduler ships the compact
    :class:`repro.utils.rng.StreamSlice` ``(seed, range)`` recipe
    (:func:`repro.utils.rng.spawn_slice`) instead of one pickled generator
    per realization.  Returns both sizes and
    their ratio (also recorded in ``BENCH_pr6.json``).
    """
    generators = tuple(spawn_rngs(7, iterations))
    generator_bytes = len(pickle.dumps(generators))
    compact = spawn_slice(7, iterations)
    compact_bytes = len(pickle.dumps(compact))
    return {
        "iterations": iterations,
        "generator_payload_bytes": generator_bytes,
        "stream_slice_bytes": compact_bytes,
        "reduction": generator_bytes / compact_bytes,
    }


def test_stream_payload_compression():
    """The seed recipe must stay O(100) bytes per chunk and rebuild exactly.

    250 pickled PCG64 generators weigh ~19 KB; the recipe names the same
    seed material in a few hundred bytes no matter how many realizations
    the chunk holds.  A 20x floor (and an absolute 1 KB cap) means the
    compression broke if either regresses.
    """
    payload = measure_stream_payload()
    generators = spawn_rngs(7, payload["iterations"])
    rebuilt = spawn_slice(7, payload["iterations"]).generators()
    assert all(
        original.bit_generator.state == copy.bit_generator.state
        for original, copy in zip(generators, rebuilt)
    ), "rebuilt streams must be bit-identical to the spawned children"
    print(
        f"\nper-chunk streams (B={payload['iterations']}): "
        f"generators {payload['generator_payload_bytes']} B, "
        f"recipe {payload['stream_slice_bytes']} B "
        f"({payload['reduction']:.1f}x smaller)"
    )
    assert payload["stream_slice_bytes"] <= 1024
    assert payload["reduction"] >= 20.0


#: Ceiling on the disabled-instrumentation overhead (fraction of engine time).
NULL_OVERHEAD_CEILING = float(os.environ.get("REPRO_NULL_OVERHEAD_CEILING", "0.02"))


def measure_null_overhead(spnn_task) -> dict:
    """Cost of the *disabled* observability path on the acceptance workload.

    A direct traced-vs-untraced A/B measures noise, not overhead — the
    disabled path is a few hundred no-op calls against seconds of mesh
    math.  So measure it deterministically instead:

    1. one traced run counts exactly how many instrumented-seam visits the
       workload performs (spans opened, ``map_chunks`` reads, frames that
       would not be built, kernel-dispatch collector reads) — counts are
       deterministic for a deterministic workload;
    2. a microbenchmark prices one disabled-seam visit (module-global read
       + no-op span context + collector read, attr kwargs included);
    3. the product, against the measured untraced engine time, is the
       structural overhead bound.
    """
    kwargs = {**_engine_dominated_scenario(spnn_task), "iterations": 50}
    with observe() as recorder:
        traced = monte_carlo_accuracy(**kwargs)
    dispatch_calls = recorder.dispatches.total_calls + sum(
        entry.calls for frame in recorder.frames for entry in frame.dispatches
    )
    # Seam visits of the disabled path: every span site, every map_chunks
    # enablement check (one per frame's chunk), every sweep-dispatch
    # collector read.
    seam_visits = len(recorder.spans) + len(recorder.frames) + dispatch_calls

    repeats = 50_000
    null_recorder = active()  # the NullRecorder — observe() has exited
    assert not null_recorder.enabled
    watch = Stopwatch()
    for _ in range(repeats):
        with active().span("bench", label="mc", iterations=50):
            pass
        active_collector()
    per_visit_seconds = watch.seconds / repeats

    engine_seconds, untraced = _best_of(2, lambda: monte_carlo_accuracy(**kwargs))
    assert np.array_equal(traced, untraced), "tracing must not change samples"
    overhead_seconds = seam_visits * per_visit_seconds
    return {
        "seam_visits": seam_visits,
        "per_visit_seconds": per_visit_seconds,
        "overhead_seconds": overhead_seconds,
        "engine_seconds": engine_seconds,
        "overhead_fraction": overhead_seconds / engine_seconds,
    }


def test_null_recorder_overhead_within_ceiling(spnn_task):
    """Disabled observability must cost < 2% of engine time, structurally."""
    measured = measure_null_overhead(spnn_task)
    print(
        f"\nnull-path overhead: {measured['seam_visits']} seam visits x "
        f"{1e9 * measured['per_visit_seconds']:.0f} ns = "
        f"{1e3 * measured['overhead_seconds']:.3f} ms over "
        f"{measured['engine_seconds']:.2f}s engine time "
        f"({100 * measured['overhead_fraction']:.4f}%)"
    )
    assert measured["overhead_fraction"] <= NULL_OVERHEAD_CEILING


def _best_of(repeats, fn):
    """Minimum wall clock over ``repeats`` runs (de-noises shared runners)."""
    best_seconds, result = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        best_seconds = seconds if best_seconds is None else min(best_seconds, seconds)
    return best_seconds, result


def test_parallel_scaling_wall_clock(spnn_task):
    """Acceptance scenario: serial vs 2- and 4-worker wall clock at B=1000."""
    kwargs = _engine_dominated_scenario(spnn_task)

    # Warm caches / lazy BLAS initialisation outside the measured windows.
    monte_carlo_accuracy(**{**kwargs, "iterations": 20})

    serial_seconds, serial = _best_of(2, lambda: monte_carlo_accuracy(**kwargs))

    speedups = {}
    for workers in WORKER_COUNTS:
        seconds, sharded = _best_of(
            2, lambda workers=workers: monte_carlo_accuracy(workers=workers, **kwargs)
        )
        assert np.array_equal(serial, sharded), (
            f"{workers}-worker samples must be bit-identical to serial"
        )
        speedups[workers] = serial_seconds / seconds
        print(
            f"\nMC B={PAPER_MC_ITERATIONS}: serial {serial_seconds:.2f}s, "
            f"{workers} workers {seconds:.2f}s, speedup {speedups[workers]:.2f}x"
        )

    cpus = available_workers()
    if cpus < max(WORKER_COUNTS):
        pytest.skip(
            f"only {cpus} CPU(s) available — bit-identity verified, "
            f"scaling floor needs >= {max(WORKER_COUNTS)} cores"
        )
    assert speedups[4] >= PARALLEL_SPEEDUP_FLOOR, (
        f"expected >= {PARALLEL_SPEEDUP_FLOOR:.1f}x speedup with 4 workers, "
        f"measured {speedups[4]:.2f}x"
    )
