"""Execution layer: pluggable backends that schedule Monte Carlo work.

See :mod:`repro.execution.backends` for the protocol and the determinism /
picklability contracts shared by every backend,
:mod:`repro.execution.shared` for shared-memory hosting of the (otherwise
per-chunk re-pickled) evaluation arrays, and
:mod:`repro.execution.fleet` for the distributed sweep fleet (network
backend, persistent workers, spec-hash artifact cache).
"""

from .backends import (
    BACKEND_NAMES,
    DEVICE_NAMES,
    Backend,
    BackendLike,
    GpuBackend,
    MultiprocessBackend,
    SerialBackend,
    ThreadBackend,
    available_workers,
    default_gpu_array_backend,
    gather_with_heartbeat,
    pool_scope,
    resolve_backend,
)
from .fleet import (
    FleetBackend,
    FleetRequestError,
    FleetServer,
    artifact_store,
    local_fleet,
    run_worker,
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
    "DEVICE_NAMES",
    "SerialBackend",
    "ThreadBackend",
    "MultiprocessBackend",
    "GpuBackend",
    "FleetBackend",
    "FleetRequestError",
    "FleetServer",
    "artifact_store",
    "available_workers",
    "default_gpu_array_backend",
    "gather_with_heartbeat",
    "local_fleet",
    "pool_scope",
    "resolve_backend",
    "run_worker",
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
