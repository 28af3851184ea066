"""CuPy ``RawKernel`` column sweep: the whole mesh in one device launch.

On the CuPy backend the looped (and even the fused) sweep still issues
O(columns) kernel launches per matrix build; for paper-sized meshes the
launch latency dwarfs the arithmetic.  This kernel replays the entire
column sweep as **one** launch per batch chunk: one CUDA block per
realization, threads striding over the (device, mode) work items of a
column, ``__syncthreads()`` between columns — the barrier encodes the
propagation-order dependence, while devices within a column touch
disjoint matrix rows so the intra-column updates are race-free.  This is
the record-once/replay-as-one-kernel idiom (cf. drjit's
``JitFlag.LoopRecord``) with the recording done ahead of time by the
packed :class:`~repro.arrays.sweep.ColumnProgram`.

Like every CuPy path in this repo the kernel is import-guarded: without
CuPy (or a CUDA device, or a working NVRTC) it reports unavailable and
the registry serves the ``fused`` kernel instead; a compile failure at
first use also degrades to ``fused`` rather than aborting a sweep.
Results follow the CuPy tolerance contract (allclose at fixed seeds; the
scalar complex arithmetic is the same ``a*t + b*u`` sequence, but device
rounding is not byte-pinned the way the host path is).
"""

from __future__ import annotations

import numpy as np

from .cupy_backend import _cupy, _device_usable
from .kernels import block_components
from .sweep import ColumnProgram, FusedSweepKernel, SweepKernel

__all__ = ["CupyRawSweepKernel", "SWEEP_KERNEL_SOURCE"]

#: Threads per block; one block serves one batch realization.  128 (4
#: warps) suits this memory-bound sweep (guide: common block sizes).
_BLOCK_THREADS = 128

SWEEP_KERNEL_SOURCE = r"""
#include <cupy/complex.cuh>

extern "C" __global__ void mzi_column_sweep(
    complex<double>* __restrict__ matrices,
    const complex<double>* __restrict__ b00,
    const complex<double>* __restrict__ b01,
    const complex<double>* __restrict__ b10,
    const complex<double>* __restrict__ b11,
    const long long* __restrict__ top,
    const long long* __restrict__ bottom,
    const long long* __restrict__ starts,
    const long long num_columns,
    const long long num_devices,
    const long long n
) {
    const long long batch_index = blockIdx.x;
    complex<double>* matrix = matrices + batch_index * n * n;
    const long long component_base = batch_index * num_devices;
    for (long long column = 0; column < num_columns; ++column) {
        const long long start = starts[column];
        const long long work = (starts[column + 1] - start) * n;
        for (long long item = threadIdx.x; item < work; item += blockDim.x) {
            const long long device = start + item / n;
            const long long j = item % n;
            const long long top_row = top[device];
            const long long bottom_row = bottom[device];
            const complex<double> t = matrix[top_row * n + j];
            const complex<double> b = matrix[bottom_row * n + j];
            const long long c = component_base + device;
            matrix[top_row * n + j] = b00[c] * t + b01[c] * b;
            matrix[bottom_row * n + j] = b10[c] * t + b11[c] * b;
        }
        // Propagation-order dependence: later columns read rows this
        // column wrote.  Within a column rows are disjoint, so the
        // barrier between columns is the only synchronization needed.
        __syncthreads();
    }
}
"""


class CupyRawSweepKernel(SweepKernel):
    """One-launch-per-chunk CUDA sweep; CuPy backend only."""

    name = "cupy_raw"
    #: A device wants one launch per column over the whole batch — host-side
    #: chunk loops only multiply launch overhead.
    blocks_internally = True

    def __init__(self) -> None:
        self._raw_kernel = None
        self._compile_failed = False
        self._fallback = FusedSweepKernel()

    def _probe(self):
        if _device_usable():
            return True, None
        reason = "cupy is not installed" if _cupy is None else "no usable CUDA device"
        return False, reason

    def supports(self, backend) -> bool:
        return backend.name == "cupy"

    def _compiled(self):  # pragma: no cover - requires a CUDA device
        if self._raw_kernel is None and not self._compile_failed:
            try:
                self._raw_kernel = _cupy.RawKernel(SWEEP_KERNEL_SOURCE, "mzi_column_sweep")
                self._raw_kernel.compile()
            except Exception:
                # No NVRTC / unsupported arch: degrade to the fused
                # elementwise path instead of failing the sweep.
                self._raw_kernel = None
                self._compile_failed = True
        return self._raw_kernel

    def _indices(self, program: ColumnProgram):  # pragma: no cover - requires CUDA
        cached = program.cache.get(self.name)
        if cached is None:
            cached = (
                _cupy.asarray(np.ascontiguousarray(program.top, dtype=np.int64)),
                _cupy.asarray(np.ascontiguousarray(program.bottom, dtype=np.int64)),
                _cupy.asarray(np.ascontiguousarray(program.starts, dtype=np.int64)),
            )
            program.cache[self.name] = cached
        return cached

    def run(self, backend, matrices, components, program: ColumnProgram) -> None:
        # pragma: no cover - requires a CUDA device
        kernel = self._compiled()
        if kernel is None:
            self._fallback.run(backend, matrices, components, program)
            return
        n = program.n
        num_devices = program.num_devices
        if num_devices == 0:
            return
        work = matrices.reshape((-1, n, n))
        if not work.flags.c_contiguous:
            work = _cupy.ascontiguousarray(work)
        batch = work.shape[0]
        lead = matrices.shape[:-2]
        flat_components = []
        for component in block_components(components):
            expanded = _cupy.broadcast_to(component, lead + component.shape[-1:])
            flat = _cupy.ascontiguousarray(
                expanded.reshape((batch, num_devices)), dtype=_cupy.complex128
            )
            flat_components.append(flat)
        top, bottom, starts = self._indices(program)
        kernel(
            (batch,),
            (_BLOCK_THREADS,),
            (
                work,
                flat_components[0],
                flat_components[1],
                flat_components[2],
                flat_components[3],
                top,
                bottom,
                starts,
                np.int64(program.num_columns),
                np.int64(num_devices),
                np.int64(n),
            ),
        )
        if work.data.ptr != matrices.data.ptr:
            matrices[...] = work.reshape(matrices.shape)
