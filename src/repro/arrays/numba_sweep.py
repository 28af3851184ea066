"""Optional numba-jitted column-sweep kernel (host arrays only).

Registered with the sweep-kernel registry unconditionally but
``available()`` only when :mod:`numba` imports — the container images
used in CI do not ship it, so every consumer must (and does) degrade
gracefully to the ``fused`` kernel.

The jitted sweep runs the exact same per-element float operations as the
reference (``b00*top + b01*bottom`` / ``b10*top + b11*bottom`` per mode
pair), prange-parallel over the batch axis only — columns stay
sequential (they carry the propagation-order data dependence) and
devices within a column touch disjoint rows, so the loop nest is
race-free.  Complex multiply/add lower to the same non-fused scalar
arithmetic NumPy's ufuncs execute, so results are expected bit-identical
on the host backend; the registry conformance suite asserts exact
equality whenever numba is importable.

This module intentionally lives *outside* the numpy-seam lint lists: it
is host-only accelerator glue that needs direct ``numpy`` (and numba)
imports, never device namespaces.
"""

from __future__ import annotations

import threading
from typing import Dict

import numpy as np

from .kernels import block_components
from .sweep import ColumnProgram, SweepKernel

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit, prange

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the CI/container default
    HAVE_NUMBA = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        raise RuntimeError("numba is not installed")

    prange = range  # type: ignore[assignment]


__all__ = ["HAVE_NUMBA", "NumbaSweepKernel"]

#: One jitted launch at a time.  The prange loop already spans every CPU,
#: and the thread backend calls the kernel from several threads at once:
#: numba's workqueue threading layer aborts the process on concurrent
#: launches, and the omp/tbb layers would start one full-width pool per
#: launch and oversubscribe the cores.
_LAUNCH = threading.Lock()


if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed

    @njit(parallel=True, cache=True)
    def _sweep_jit(matrices, b00, b01, b10, b11, top, bottom, starts):
        batch = matrices.shape[0]
        n = matrices.shape[2]
        columns = starts.shape[0] - 1
        for index in prange(batch):
            for column in range(columns):
                for device in range(starts[column], starts[column + 1]):
                    top_row = top[device]
                    bottom_row = bottom[device]
                    c00 = b00[index, device]
                    c01 = b01[index, device]
                    c10 = b10[index, device]
                    c11 = b11[index, device]
                    for j in range(n):
                        t = matrices[index, top_row, j]
                        b = matrices[index, bottom_row, j]
                        matrices[index, top_row, j] = c00 * t + c01 * b
                        matrices[index, bottom_row, j] = c10 * t + c11 * b


class NumbaSweepKernel(SweepKernel):
    """prange-over-batch jitted sweep; host backend only, bit-exact."""

    name = "numba"
    #: prange parallelizes over the whole batch axis — external chunking
    #: would only shrink the parallel grain, so callers hand it everything.
    blocks_internally = True

    def _probe(self):
        return HAVE_NUMBA, None if HAVE_NUMBA else "numba is not installed"

    def supports(self, backend) -> bool:
        return bool(backend.is_host)

    def _indices(self, program: ColumnProgram) -> Dict[str, np.ndarray]:
        cached = program.cache.get(self.name)
        if cached is None:
            cached = {
                "top": np.ascontiguousarray(program.top, dtype=np.int64),
                "bottom": np.ascontiguousarray(program.bottom, dtype=np.int64),
                "starts": np.ascontiguousarray(program.starts, dtype=np.int64),
            }
            program.cache[self.name] = cached
        return cached

    def run(self, backend, matrices, components, program: ColumnProgram) -> None:
        if not HAVE_NUMBA:  # pragma: no cover - guarded by available()
            raise RuntimeError("the numba sweep kernel requires numba")
        n = program.n
        lead = matrices.shape[:-2]
        # reshape silently copies (and ascontiguousarray explicitly copies)
        # when the batch slice is not a flat C view; shares_memory below
        # detects that and writes the swept values back.
        work = matrices.reshape((-1, n, n))
        if not work.flags["C_CONTIGUOUS"]:  # pragma: no cover - defensive
            work = np.ascontiguousarray(work)
        batch = work.shape[0]
        # Unpack the (CA, CB) stacks, broadcast 1-D components across the
        # batch and force contiguity (the stack views are strided, and the
        # mesh broadcasts with stride-0 views when only the output phase
        # screen was perturbed; the jitted loop wants real strides).
        flat_components = []
        for component in block_components(components):
            expanded = np.broadcast_to(component, lead + component.shape[-1:])
            flat = np.ascontiguousarray(expanded.reshape((batch, -1)))
            flat_components.append(flat)
        indices = self._indices(program)
        with _LAUNCH:
            _sweep_jit(
                work,
                flat_components[0],
                flat_components[1],
                flat_components[2],
                flat_components[3],
                indices["top"],
                indices["bottom"],
                indices["starts"],
            )
        if work is not matrices and not np.shares_memory(work, matrices):
            matrices[...] = work.reshape(matrices.shape)
