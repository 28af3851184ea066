"""Column-sweep kernel registry: packed programs and the fused mesh megakernel.

The mesh column sweep is the innermost hot loop of every Monte Carlo
trial, yield sweep, drift timeline, and noise-aware training step: apply
``~n`` columns of 2x2 MZI blocks to a (batch of) ``n x n`` matrices.  The
reference implementation (:func:`repro.arrays.kernels.apply_mzi_blocks`)
is a Python loop over columns, each iteration doing two fancy-indexed
gathers and two scatters that allocate fresh temporaries.

This module makes the sweep pluggable:

* :class:`ColumnProgram` — the per-mesh structure "compiled" once into
  packed flat index arrays (column-sorted top/bottom row indices plus
  column spans), replacing the per-call list-of-triples ``groups``
  structure.  Programs are built once by the mesh.
* :class:`SweepKernel` implementations behind a small registry:

  - ``looped`` — the reference sweep (bit-exact legacy arithmetic).
  - ``fused``  — hand-fused out-buffer sweep: three elementwise out-ops
    per column through preallocated capacity-tracked scratch buffers
    (zero per-column allocation, exact same float op sequence as
    ``looped``), cache-blocked over the batch axis.

* :func:`apply_column_sweep` — the dispatch used by
  :meth:`repro.mesh.mesh.MZIMesh.matrix_batch`: pick the first kernel in
  the static order ``fused > looped`` (or honor the ``REPRO_SWEEP_KERNEL``
  environment override) and run it.  The choice never depends on measured
  timings.

Every kernel must be *conformant*: bit-identical to ``looped`` (same ufunc
sequence).  The registry conformance suite in ``tests/arrays`` enforces
this for every registered kernel.
"""

from __future__ import annotations

import os
import threading
import weakref
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..observability.dispatch import active_collector
from ..observability.recorder import perf_seconds

__all__ = [
    "ColumnProgram",
    "SweepKernel",
    "LoopedSweepKernel",
    "FusedSweepKernel",
    "SWEEP_KERNEL_ENV",
    "register_sweep_kernel",
    "get_sweep_kernel",
    "sweep_kernel_names",
    "select_sweep_kernel",
    "apply_column_sweep",
]

#: Environment override for kernel selection (exact registry name).
SWEEP_KERNEL_ENV = "REPRO_SWEEP_KERNEL"

#: Precomputed index tuples selecting a column block's top/bottom rows of
#: the ``(..., m, 2, n)`` pair view (keepdims so components broadcast).
_TOP = (Ellipsis, slice(0, 1), slice(None))
_BOTTOM = (Ellipsis, slice(1, 2), slice(None))

#: Matrix elements per cache block of the fused host sweep: one block of
#: stacked matrices (~256 KiB complex128) stays L2-resident across *all*
#: columns, so the batch streams through memory once per sweep instead of
#: once per column.
_HOST_BLOCK_ELEMENTS = 16384


@dataclass(frozen=True)
class ColumnProgram:
    """Packed flat-index form of a mesh's column-sweep structure.

    Built once per mesh — no index rebuilding on the per-call hot path.
    All index arrays are in *column-sorted propagation order* (the mesh's
    stable column permutation), so per-column work is a contiguous slice.

    Attributes
    ----------
    n:
        Matrix dimension (number of modes).
    perm:
        ``(M,)`` column-sorted propagation permutation over devices; the
        mesh gathers its real device parameters by it before computing
        the block components, which therefore come out in column order.
    top, bottom:
        ``(M,)`` matrix row indices of each device's upper/lower mode, in
        column-sorted order.
    rows:
        ``(2M,)`` packed gather/scatter row map: for each column ``c``
        spanning ``[s, e)`` the block ``rows[2s:2e]`` interleaves the
        column's mode pairs — ``t0, b0, t1, b1, ...`` — one fancy gather
        and one fancy scatter per column instead of two of each.
    spans:
        Each column's ``[start, stop)`` range into ``perm``/``top``/
        ``bottom`` as plain int pairs — a tuple so the per-column loop
        never converts array scalars.
    bases:
        One entry per column: the first matrix row of the column's
        contiguous row block when its interleaved rows are exactly
        ``base, base + 1, ..., base + 2m - 1`` (every Clements column;
        most Reck columns), else ``None``.  Conforming columns skip the
        gather/scatter entirely — the fused kernel updates a reshaped
        *view* of the matrices and writes back with one contiguous copy.
    """

    n: int
    perm: object
    top: object
    bottom: object
    rows: object
    spans: Tuple[Tuple[int, int], ...]
    bases: Tuple[Optional[int], ...]

    @property
    def num_devices(self) -> int:
        return self.spans[-1][1] if self.spans else 0

    @property
    def num_columns(self) -> int:
        return len(self.spans)

    @property
    def max_column_devices(self) -> int:
        """Widest column (devices), sizing the fused scratch buffers."""
        return max((stop - start for start, stop in self.spans), default=0)


class SweepKernel:
    """One strategy for executing a packed column sweep.

    Subclasses implement :meth:`run`; ``matrices`` is ``(..., n, n)``,
    ``components`` the packed ``(CA, CB)`` pair of ``(..., M, 2)`` block
    component stacks *in column-sorted order*
    (:func:`~repro.arrays.kernels.block_components` unpacks them), and
    ``program`` the mesh's :class:`ColumnProgram`.  The sweep updates
    ``matrices`` in place and must be bit-identical to the ``looped``
    reference.
    """

    #: Registry name (also the ``REPRO_SWEEP_KERNEL`` override value).
    name: str = ""

    #: Whether the kernel manages its own lead-axis blocking.  Callers
    #: (``MZIMesh.matrix_batch``) hand such kernels the *whole* batch in
    #: one call instead of chunking externally for cache residency.
    blocks_internally: bool = False

    def run(self, matrices, components, program: ColumnProgram) -> None:
        raise NotImplementedError

    def __call__(self, matrices, components, program: ColumnProgram) -> None:
        self.run(matrices, components, program)

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return f"{type(self).__name__}(name={self.name!r})"


class LoopedSweepKernel(SweepKernel):
    """The legacy reference sweep: per-column gathers with fresh temporaries.

    Delegates to :func:`repro.arrays.kernels.apply_mzi_blocks` — the
    byte-for-byte historical arithmetic every other kernel is measured
    against, and the denominator of the ``mesh_megakernel`` benchmark.
    """

    name = "looped"

    def run(self, matrices, components, program: ColumnProgram) -> None:
        from .kernels import apply_mzi_blocks

        apply_mzi_blocks(matrices, components, program)


class _SweepState(threading.local):
    """The fused kernel's mutable state, created afresh in each thread."""

    def __init__(self) -> None:
        #: Capacity-tracked scratch per ``(role, dtype)``.
        self.scratch: Dict[tuple, object] = {}
        # Per-(program, shape, dtype) column plans.  Keyed by
        # id(program) with a weakref guard against id reuse; kept here
        # (not on the program) so pickling a mesh to worker processes
        # never ships megabytes of scratch views.
        self.plans: Dict[int, tuple] = {}


class FusedSweepKernel(SweepKernel):
    """Hand-fused out-buffer sweep: zero per-column allocation.

    Per column the reference does two fancy gathers, four multiplies, two
    adds and two scatters, every one allocating a fresh temporary.  This
    kernel collapses that to (at most) four NumPy calls per column:

    * The block components arrive packed in two ``(..., M, 2)`` stacks
      — ``CA = [b00 | b10]``, ``CB = [b01 | b11]`` — so one broadcast
      multiply produces *both* row updates of every device: ``new = CA *
      top + CB * bottom`` evaluated as two multiplies and one add into
      preallocated contiguous scratch.
    * Columns whose interleaved mode rows form a contiguous block
      (``program.bases``; every Clements column) need no gather at all:
      the update reads a reshaped ``(..., m, 2, n)`` *view* of the
      matrices and writes back with a single block copy.  Non-conforming
      columns (some Reck diagonals) gather/scatter through the packed
      ``rows`` map with one ``take`` and one fancy assignment.

    The kernel additionally blocks the leading batch axis so one block's
    matrices (and scratch) stay cache-resident across *all* columns of the sweep — the whole batch streams through memory
    once instead of once per column.  Batch rows are independent and the
    per-row arithmetic is unchanged, so blocking never changes a value;
    at Monte Carlo scale (thousands of stacked realizations) it is where
    most of the megakernel speedup comes from.

    The per-element float op sequence — a component multiply per matrix
    element and one add — is exactly the reference's (broadcast multiply
    is elementwise; no reductions anywhere), so results are bit-identical
    (ufunc-with-``out`` equals ufunc-then-copy).  Scratch lives per
    ``(thread, role, dtype)`` and grows only when a request outgrows it;
    threads and processes never share buffers, and the sweep never reads
    a scratch cell it did not just write.
    """

    name = "fused"
    blocks_internally = True

    def __init__(self) -> None:
        # One registry instance serves every thread of the process, so its
        # mutable state is per thread: two threads sweeping at once must
        # never write into each other's scratch.
        self._local = _SweepState()

    def _buffer(self, role: str, shape, dtype):
        """Capacity-tracked scratch view of ``shape`` for ``role``."""
        size = 1
        for extent in shape:
            size *= int(extent)
        key = (role, str(dtype))
        scratch = self._local.scratch
        flat = scratch.get(key)
        if flat is None or flat.shape[0] < size:
            flat = np.empty((size,), dtype)
            scratch[key] = flat
        return flat[:size].reshape(shape)

    def _plan(self, program: ColumnProgram, lead, comp_lead, dtype):
        """The per-column execution plan for one (program, shape) pairing.

        Each entry packs everything the hot loop needs per column as
        precomputed index tuples and preallocated scratch views: only the
        matrix-block view itself must be rebuilt per call (the matrices
        array changes identity between calls).  Scratch views are written
        before they are read within every sweep, so plans stay correct
        even if a later, larger sweep reallocates a backing.
        """
        by_program = self._local.plans
        entry = by_program.get(id(program))
        if entry is not None:
            ref, plans = entry
            if ref() is not program:
                entry = None
        if entry is None:
            plans = {}
            by_program[id(program)] = (weakref.ref(program), plans)
        key = (lead, comp_lead, str(dtype))
        plan = plans.get(key)
        if plan is not None:
            return plan
        n = program.n
        rows = program.rows
        # Warm the shared backings to the widest column up front; the
        # per-column views below then never reallocate.  Columns reuse
        # one backing per role (each view is fully written before it is
        # read within its own column).
        width = program.max_column_devices
        self._buffer("updated", lead + (width, 2, n), dtype)
        self._buffer("scratch", lead + (width, 2, n), dtype)
        if any(base is None for base in program.bases):
            self._buffer("gathered", lead + (width, 2, n), dtype)
        plan = []
        for (start, stop), base in zip(program.spans, program.bases):
            m = stop - start
            xshape = lead + (m, 2, n)
            ca_index = (Ellipsis, slice(start, stop), slice(None), None)
            new = self._buffer("updated", xshape, dtype)
            tmp = self._buffer("scratch", xshape, dtype)
            if base is None:
                block_rows = rows[2 * start : 2 * stop]
                block = self._buffer("gathered", lead + (2 * m, n), dtype)
                x = block.reshape(xshape)
                plan.append((None, None, ca_index, block_rows, block, x, new, tmp))
            else:
                plan.append(((base, base + 2 * m), xshape, ca_index, None, None, None, new, tmp))
        plan = tuple(plan)
        plans[key] = plan
        return plan

    def run(self, matrices, components, program: ColumnProgram) -> None:
        # CA[..., i, :] = (b00, b10) and CB[..., i, :] = (b01, b11), so the
        # per-column views below broadcast one multiply over both output
        # rows of a device.
        ca, cb = components
        lead = tuple(matrices.shape[:-2])
        comp_lead = tuple(ca.shape[:-2])
        if program.num_devices == 0:
            return
        dtype = matrices.dtype
        block = self._lead_block(lead, comp_lead, program.n)
        if block is None:
            self._sweep(matrices, ca, cb, program, lead, comp_lead, dtype)
            return
        for start in range(0, lead[0], block):
            stop = min(start + block, lead[0])
            self._sweep(
                matrices[start:stop],
                ca[start:stop],
                cb[start:stop],
                program,
                (stop - start,),
                (stop - start,),
                dtype,
            )

    @staticmethod
    def _lead_block(lead, comp_lead, n: int):
        """Batch rows per cache block, or ``None`` to sweep in one pass.

        Only for the stacked ``(B, n, n)`` layout with fully batched
        components — broadcasting component stacks cannot be sliced along
        the batch axis.
        """
        if len(lead) != 1 or comp_lead != lead:
            return None
        block = max(1, _HOST_BLOCK_ELEMENTS // max(1, n * n))
        return block if lead[0] > block else None

    def _sweep(self, matrices, ca, cb, program, lead, comp_lead, dtype) -> None:
        multiply = np.multiply
        add = np.add
        for span, xshape, ca_index, block_rows, block, gx, new, tmp in self._plan(
            program, lead, comp_lead, dtype
        ):
            if span is not None:
                # Contiguous row block: read through a reshaped view and
                # write the final add straight back into the matrices —
                # the add reads only scratch, so no aliasing hazard.
                x = matrices[..., span[0] : span[1], :].reshape(xshape)
                multiply(ca[ca_index], x[_TOP], out=new)
                multiply(cb[ca_index], x[_BOTTOM], out=tmp)
                add(new, tmp, out=x)
            else:
                # Non-conforming column: gather the interleaved rows into
                # scratch, update in place there, scatter back once.
                # mode="clip": take-with-out under the default mode="raise"
                # buffers through a temporary that costs more than the
                # gather; program rows are always in bounds, so clip never
                # changes a value.
                np.take(matrices, block_rows, axis=-2, out=block, mode="clip")
                multiply(ca[ca_index], gx[_TOP], out=new)
                multiply(cb[ca_index], gx[_BOTTOM], out=tmp)
                add(new, tmp, out=gx)
                matrices[..., block_rows, :] = block


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #

_KERNELS: Dict[str, SweepKernel] = {}

#: Selection preference when no override is set.
_DEFAULT_ORDER: Tuple[str, ...] = ("fused", "looped")


def register_sweep_kernel(kernel: SweepKernel) -> SweepKernel:
    """Add ``kernel`` to the registry (replacing any same-named entry)."""
    if not kernel.name:
        raise ConfigurationError("sweep kernels must carry a non-empty name")
    _KERNELS[kernel.name] = kernel
    return kernel


def get_sweep_kernel(name: str) -> SweepKernel:
    """Registered kernel by exact name."""
    try:
        return _KERNELS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown sweep kernel {name!r}; registered: {sweep_kernel_names()}"
        ) from None


def sweep_kernel_names() -> Tuple[str, ...]:
    """Names of every registered kernel."""
    return tuple(_KERNELS)


def select_sweep_kernel() -> SweepKernel:
    """The kernel the sweep runs: env override or the static preference.

    ``REPRO_SWEEP_KERNEL`` names a registered kernel and fails loudly when
    it is unknown — a silent fallback would hide a misconfigured run.
    Without the override, the first registered kernel in the preference
    order ``fused > looped`` wins; ``looped`` is the safety net and test
    oracle.  Every kernel is conformant with the ``looped`` reference, so
    the choice affects time, never results.
    """
    override = os.environ.get(SWEEP_KERNEL_ENV)
    if override:
        return get_sweep_kernel(override)
    for name in _DEFAULT_ORDER:
        kernel = _KERNELS.get(name)
        if kernel is not None:
            return kernel
    raise ConfigurationError("no sweep kernel is registered")  # pragma: no cover


def apply_column_sweep(
    matrices,
    components,
    program: ColumnProgram,
    kernel: Optional[object] = None,
) -> None:
    """Run the column sweep on ``matrices`` in place with the best kernel.

    ``components`` is the packed ``(CA, CB)`` stack pair in column-sorted
    order and ``program`` the mesh's :class:`ColumnProgram`.  ``kernel``
    optionally pins a
    registry name (or passes a :class:`SweepKernel` instance through),
    otherwise :func:`select_sweep_kernel` decides.

    When a dispatch collector is installed
    (:mod:`repro.observability.dispatch`), each call records
    ``(kernel, n, batch, columns, seconds)`` — shapes and wall
    time only, never the array contents, so recording cannot perturb
    results.  Without a collector the instrumentation is one module-global
    read per call.
    """
    if kernel is None:
        selected = select_sweep_kernel()
    elif isinstance(kernel, SweepKernel):
        selected = kernel
    else:
        selected = get_sweep_kernel(kernel)
    collector = active_collector()
    if collector is None:
        selected(matrices, components, program)
        return
    batch = 1
    for extent in matrices.shape[:-2]:
        batch *= int(extent)
    started = perf_seconds()
    selected(matrices, components, program)
    collector.record(
        selected.name, program.n, batch, program.num_columns, perf_seconds() - started
    )


register_sweep_kernel(LoopedSweepKernel())
register_sweep_kernel(FusedSweepKernel())

