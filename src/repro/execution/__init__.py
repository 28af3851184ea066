"""Execution layer: the backends that schedule Monte Carlo chunks on the CPU.

See :mod:`repro.execution.backends` for the serial, thread and
multiprocess backends and the determinism / picklability contracts they
share, :mod:`repro.execution.blas` for the BLAS thread pinning they apply,
and :mod:`repro.execution.shared` for shared-memory hosting of the
evaluation arrays and compiled networks that process workers read.
"""

from .backends import (
    BACKEND_NAMES,
    Backend,
    BackendLike,
    MultiprocessBackend,
    SerialBackend,
    ThreadBackend,
    available_workers,
    gather_with_heartbeat,
    pool_scope,
    resolve_backend,
)
from .shared import (
    SharedArray,
    SharedNetwork,
    is_hosted_array,
    is_hosted_network,
    resolve_array,
    resolve_network,
    shared_eval_arrays,
    shared_memory_available,
    shared_network,
)

__all__ = [
    "Backend",
    "BackendLike",
    "BACKEND_NAMES",
    "SerialBackend",
    "ThreadBackend",
    "MultiprocessBackend",
    "available_workers",
    "gather_with_heartbeat",
    "pool_scope",
    "resolve_backend",
    "SharedArray",
    "SharedNetwork",
    "is_hosted_array",
    "is_hosted_network",
    "resolve_array",
    "resolve_network",
    "shared_eval_arrays",
    "shared_memory_available",
    "shared_network",
]
