"""Device-agnostic array layer: the pluggable ``xp`` namespace seam.

See :mod:`repro.arrays.namespace` for the backend protocol, registry and
active-backend context, :mod:`repro.arrays.kernels` for the namespace-
generic out-buffer kernels of the numerics hot paths,
:mod:`repro.arrays.sweep` for the column-sweep kernel registry (packed
column programs, fused/numba/cupy megakernels), and
:mod:`repro.arrays.mock` / :mod:`repro.arrays.cupy_backend` for the strict
conformance backend and the optional GPU backend.
"""

from . import kernels
from .cupy_backend import CupyArrayBackend
from .mock import MockArray, MockArrayBackend, MockNamespace
from .sweep import (
    SWEEP_KERNEL_ENV,
    ColumnProgram,
    FusedSweepKernel,
    LoopedSweepKernel,
    SweepKernel,
    apply_column_sweep,
    available_sweep_kernels,
    get_sweep_kernel,
    register_sweep_kernel,
    select_sweep_kernel,
    sweep_kernel_names,
    _register_optional_kernels,
)
from .namespace import (
    HOST_BACKEND,
    ArrayBackend,
    NumpyArrayBackend,
    active_array_backend,
    array_backend_names,
    available_array_backends,
    backend_of,
    get_array_backend,
    get_namespace,
    register_array_backend,
    to_host,
    use_array_backend,
)

register_array_backend("mock_device", MockArrayBackend)
register_array_backend("cupy", CupyArrayBackend)
_register_optional_kernels()

__all__ = [
    "kernels",
    "ColumnProgram",
    "SweepKernel",
    "LoopedSweepKernel",
    "FusedSweepKernel",
    "SWEEP_KERNEL_ENV",
    "apply_column_sweep",
    "available_sweep_kernels",
    "get_sweep_kernel",
    "register_sweep_kernel",
    "select_sweep_kernel",
    "sweep_kernel_names",
    "ArrayBackend",
    "NumpyArrayBackend",
    "CupyArrayBackend",
    "MockArray",
    "MockArrayBackend",
    "MockNamespace",
    "HOST_BACKEND",
    "active_array_backend",
    "array_backend_names",
    "available_array_backends",
    "backend_of",
    "get_array_backend",
    "get_namespace",
    "register_array_backend",
    "to_host",
    "use_array_backend",
]
