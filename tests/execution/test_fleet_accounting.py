"""The coordinator's per-request wire-byte accounting under concurrent links.

Every worker link sends on its own thread.  A cold request pushes the same
artifact to each link that claims a chunk, so the request log must count
every push in full: ``artifact_bytes`` covers ``artifacts_sent`` copies of
the blob, however the sends of the links overlap in time.
"""

from __future__ import annotations

import multiprocessing
import sys
import time

import numpy as np
import pytest

from repro.execution import local_fleet
from repro.execution.fleet import publish_array

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fleet tests fork local workers (test-module evaluators must resolve)",
)


def nbytes_chunk(task):
    start, array = task
    time.sleep(0.02)
    return start, int(array.nbytes)


def test_concurrent_artifact_pushes_are_all_counted():
    array = np.arange(1 << 19, dtype=np.float64)  # 4 MiB: slow enough to overlap
    ref = publish_array(array)
    tasks = [(start, ref) for start in range(12)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch link threads as often as possible
    try:
        with local_fleet(workers=3, timeout=60.0, connect_timeout=30.0) as fleet:
            results = fleet.map(nbytes_chunk, tasks)
            entry = fleet.request_log[-1]
    finally:
        sys.setswitchinterval(interval)
    assert results == [(start, array.nbytes) for start in range(12)]
    assert entry["artifacts_sent"] >= 1
    assert entry["artifact_bytes"] >= entry["artifacts_sent"] * array.nbytes
