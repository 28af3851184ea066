"""Execution layer: the backends that schedule Monte Carlo chunks on the CPU.

See :mod:`repro.execution.backends` for the serial, thread and
multiprocess backends and the determinism / picklability contracts they
share, :mod:`repro.execution.blas` for the BLAS thread pinning they apply,
and :mod:`repro.execution.hosting` for the fork-inherited hosting of the
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
from .hosting import Hosted, hosted_inputs, resolve_array, resolve_network

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
    "Hosted",
    "hosted_inputs",
    "resolve_array",
    "resolve_network",
]
