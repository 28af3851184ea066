"""Distributed fleet sweep: persistent workers + the spec-hash artifact cache.

Demonstrates the fleet execution backend end to end, on localhost:

1. train + compile the paper's 16-16-16-10 SPNN (small corpus for speed),
2. stand up a coordinator plus two persistent worker processes
   (:func:`repro.execution.local_fleet` — the same topology as
   ``spnn-repro yield --fleet HOST:PORT`` with two
   ``spnn-repro worker --connect HOST:PORT`` processes),
3. run a yield sweep over the fleet **twice**: the cold request pushes the
   content-addressed blobs (compiled network parameters, eval arrays, the
   pickled trial) to each worker once; the warm repeat ships only digests
   and per-chunk seed recipes — watch ``request_log`` count the bytes,
4. verify the bit-identity guarantee: fleet samples equal the serial
   samples exactly, whatever the fleet size or cache state,
5. trace the warm run and read the per-host worker load balance from
   :attr:`repro.observability.MetricsReport.worker_imbalance`.

Run with:  python examples/fleet_sweep.py
CLI twin:  spnn-repro worker --connect 127.0.0.1:7461  (x2, then)
           spnn-repro yield --smoke --fleet 127.0.0.1:7461
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis import yield_sweep
from repro.execution import local_fleet
from repro.observability import MetricsReport, observe
from repro.onn import SPNNTrainingConfig, build_trained_spnn

SIGMAS = (0.0, 0.01, 0.025, 0.05)
ITERATIONS = 100  # the paper uses 1000; reduced so the example stays snappy
WORKERS = 2


def _wire_bytes(entries) -> int:
    return sum(e["task_bytes"] + e["fn_bytes"] + e["artifact_bytes"] for e in entries)


def main() -> None:
    print("training + compiling the SPNN (small corpus)...")
    task = build_trained_spnn(SPNNTrainingConfig(num_train=800, num_test=250, epochs=30))
    kwargs = dict(sigmas=SIGMAS, iterations=ITERATIONS, rng=13)

    print("serial reference run...")
    serial = yield_sweep(task.spnn, task.test_features, task.test_labels, workers=1, **kwargs)

    print(f"starting a localhost fleet: coordinator + {WORKERS} workers...")
    with local_fleet(workers=WORKERS) as fleet:
        print(f"coordinator bound at {fleet.address}; workers connected\n")

        start = time.perf_counter()
        cold = yield_sweep(
            task.spnn, task.test_features, task.test_labels, backend=fleet, **kwargs
        )
        cold_seconds = time.perf_counter() - start
        cold_requests = list(fleet.request_log)
        print(
            f"cold run: {cold_seconds:.1f}s, {len(cold_requests)} requests, "
            f"{_wire_bytes(cold_requests):,} wire bytes "
            f"({sum(e['artifact_bytes'] for e in cold_requests):,} of them "
            f"content-addressed artifacts, pushed once per worker)"
        )

        start = time.perf_counter()
        with observe() as recorder:
            warm = yield_sweep(
                task.spnn, task.test_features, task.test_labels, backend=fleet, **kwargs
            )
        warm_seconds = time.perf_counter() - start
        warm_requests = fleet.request_log[len(cold_requests):]
        print(
            f"warm run: {warm_seconds:.1f}s, {len(warm_requests)} requests, "
            f"{_wire_bytes(warm_requests):,} wire bytes "
            f"({sum(e['artifact_bytes'] for e in warm_requests):,} artifact bytes "
            f"— a warm spec travels as hashes + seed recipes)"
        )

    # Bit-identity: the fleet is purely a wall-clock/topology knob.
    for sigma in SIGMAS:
        assert np.array_equal(serial.accuracy_samples[sigma], cold.accuracy_samples[sigma])
        assert np.array_equal(serial.accuracy_samples[sigma], warm.accuracy_samples[sigma])
    print("bit-identity confirmed: cold == warm == serial samples\n")

    # The chunk frames are host-stamped, so the load-balance report groups
    # by machine — on localhost there is one host, in a real fleet one
    # entry per box.
    report = MetricsReport.from_recorder(recorder)
    print(report.render())
    print(f"\nper-host worker imbalance (max/mean busy ratio): {report.worker_imbalance}")


if __name__ == "__main__":
    main()
