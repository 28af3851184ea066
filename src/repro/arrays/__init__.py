"""Array kernels of the numerics hot paths (NumPy, host memory).

See :mod:`repro.arrays.kernels` for the out-buffer kernels of the forward
pass and the MZI block components, and :mod:`repro.arrays.sweep` for the
column-sweep kernel registry (packed column programs, the ``fused``
megakernel and the ``looped`` reference).
"""

from . import kernels
from .sweep import (
    SWEEP_KERNEL_ENV,
    ColumnProgram,
    FusedSweepKernel,
    LoopedSweepKernel,
    SweepKernel,
    apply_column_sweep,
    get_sweep_kernel,
    register_sweep_kernel,
    select_sweep_kernel,
    sweep_kernel_names,
)

__all__ = [
    "kernels",
    "ColumnProgram",
    "SweepKernel",
    "LoopedSweepKernel",
    "FusedSweepKernel",
    "SWEEP_KERNEL_ENV",
    "apply_column_sweep",
    "get_sweep_kernel",
    "register_sweep_kernel",
    "select_sweep_kernel",
    "sweep_kernel_names",
]
