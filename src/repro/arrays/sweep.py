"""Column-sweep kernel registry: packed programs and fused mesh megakernels.

The mesh column sweep is the innermost hot loop of every Monte Carlo
trial, yield sweep, drift timeline, and noise-aware training step: apply
``~n`` columns of 2x2 MZI blocks to a (batch of) ``n x n`` matrices.  The
reference implementation (:func:`repro.arrays.kernels.apply_mzi_blocks`)
is a Python loop over columns, each iteration doing two fancy-indexed
gathers and two scatters that allocate fresh temporaries.

This module makes the sweep pluggable:

* :class:`ColumnProgram` — the per-mesh structure "compiled" once into
  packed flat index arrays (column-sorted top/bottom row indices plus
  column boundary offsets), replacing the per-call list-of-triples
  ``groups`` structure.  Programs are built by the mesh, converted per
  array backend once, and cached in the existing per-backend mesh cache.
* :class:`SweepKernel` implementations behind a small registry:

  - ``looped`` — the reference sweep (bit-exact legacy arithmetic).
  - ``fused``  — hand-fused out-buffer sweep: three elementwise out-ops
    per column through preallocated capacity-tracked scratch buffers
    (zero per-column allocation, exact same float op sequence as
    ``looped``), cache-blocked over the batch axis on host namespaces.
  - ``numba``  — optional prange-jitted host kernel
    (:mod:`repro.arrays.numba_sweep`); registered only when importable.
  - ``cupy_raw`` — a CUDA ``RawKernel`` replaying the whole sweep as one
    device launch per batch chunk (:mod:`repro.arrays.cupy_sweep`), with
    graceful fallback to ``fused`` when compilation is unavailable.

* :func:`apply_column_sweep` — the dispatch used by
  :meth:`repro.mesh.mesh.MZIMesh.matrix_batch`: pick the first available
  kernel in the static order ``cupy_raw > numba > fused > looped`` for the
  active backend (or honor the ``REPRO_SWEEP_KERNEL`` environment
  override) and run it.  The choice never depends on measured timings.

Every kernel must be *conformant*: bit-identical to ``looped`` on host
and mock backends (same ufunc sequence), allclose on CuPy (same math,
device rounding).  The registry conformance suite in ``tests/arrays``
enforces this for every registered kernel.

Like :mod:`repro.arrays.kernels`, this module never imports NumPy: all
array work goes through the backend's ``xp`` namespace or operators, so
one implementation serves every registered backend.
"""

from __future__ import annotations

import os
import threading
import weakref
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

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
    "available_sweep_kernels",
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

    Built once per mesh (host arrays), converted at most once per array
    backend via :meth:`to_backend`, and cached by the mesh — no index
    rebuilding on the per-call hot path.  All index arrays are in
    *column-sorted propagation order* (the mesh's stable column
    permutation), so per-column work is a contiguous slice.

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
    starts:
        ``(C + 1,)`` column boundary offsets into ``perm``/``top``/
        ``bottom`` (host array; kernels that need it on device stash a
        converted copy in :attr:`cache`).
    spans:
        ``starts`` as plain ``(start, stop)`` int pairs — a tuple so the
        per-column loop never converts array scalars.
    bases:
        One entry per column: the first matrix row of the column's
        contiguous row block when its interleaved rows are exactly
        ``base, base + 1, ..., base + 2m - 1`` (every Clements column;
        most Reck columns), else ``None``.  Conforming columns skip the
        gather/scatter entirely — the fused kernel updates a reshaped
        *view* of the matrices and writes back with one contiguous copy.
    cache:
        Kernel-private per-program scratch (contiguous index copies,
        compiled launch parameters, ...), keyed by kernel name.
    """

    n: int
    perm: object
    top: object
    bottom: object
    rows: object
    starts: object
    spans: Tuple[Tuple[int, int], ...]
    bases: Tuple[Optional[int], ...]
    cache: Dict[object, object] = field(default_factory=dict, repr=False, compare=False)

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

    def to_backend(self, backend) -> "ColumnProgram":
        """This program with its gather/scatter index arrays on ``backend``.

        Host backends index with the original arrays; device namespaces
        index with their own array type.  ``starts``/``spans`` stay host
        side (pure scheduling metadata).  The mesh caches the result per
        backend name, so conversion happens at most once per backend.
        """
        if backend.is_host:
            return self
        return ColumnProgram(
            n=self.n,
            perm=backend.asarray(self.perm),
            top=backend.asarray(self.top),
            bottom=backend.asarray(self.bottom),
            rows=backend.asarray(self.rows),
            starts=self.starts,
            spans=self.spans,
            bases=self.bases,
        )


class SweepKernel:
    """One strategy for executing a packed column sweep.

    Subclasses implement :meth:`run`; ``matrices`` is ``(..., n, n)``,
    ``components`` the packed ``(CA, CB)`` pair of ``(..., M, 2)`` block
    component stacks *in column-sorted order*
    (:func:`~repro.arrays.kernels.block_components` unpacks them), and
    ``program`` a :class:`ColumnProgram` already converted for
    ``backend``.  The sweep updates ``matrices`` in place and must be
    conformant with the ``looped`` reference (bit-identical on host/mock
    namespaces, allclose on CuPy).
    """

    #: Registry name (also the ``REPRO_SWEEP_KERNEL`` override value).
    name: str = ""

    #: Whether the kernel manages its own lead-axis blocking.  Callers
    #: (``MZIMesh.matrix_batch``) hand such kernels the *whole* batch in
    #: one call instead of chunking externally for cache residency — the
    #: kernel blocks (or launches) however suits its execution model.
    blocks_internally: bool = False

    #: Memoized ``(available, reason)`` probe result; availability cannot
    #: change mid-process (deps don't materialize after import), so the
    #: probe — which may import numba or touch the CUDA driver — runs at
    #: most once per kernel instance.
    _availability: Optional[Tuple[bool, Optional[str]]] = None

    def _probe(self) -> Tuple[bool, Optional[str]]:
        """One-shot availability probe: ``(available, unavailable_reason)``.

        Subclasses with real dependencies override *this* (not
        :meth:`available`) so the memoization in :meth:`availability`
        covers every probe path uniformly.
        """
        return True, None

    def availability(self) -> Tuple[bool, Optional[str]]:
        """Cached ``(available, reason)`` — the probe runs at most once."""
        if self._availability is None:
            ok, reason = self._probe()
            self._availability = (ok, reason if not ok else None)
        return self._availability

    def refresh_availability(self) -> None:
        """Drop the memoized probe (tests simulating changed environments)."""
        self._availability = None

    def available(self) -> bool:
        """Whether the kernel can run in this process (deps importable)."""
        return self.availability()[0]

    def unavailable_reason(self) -> Optional[str]:
        """Why :meth:`available` is ``False``, or ``None`` when it is not.

        Diagnostics (``spnn-repro info``) surface this so a user can tell
        a missing dependency from a broken one without reading source.
        """
        return self.availability()[1]

    def supports(self, backend) -> bool:
        """Whether the kernel can serve ``backend``'s arrays."""
        return True

    def run(self, backend, matrices, components, program: ColumnProgram) -> None:
        raise NotImplementedError

    def __call__(self, backend, matrices, components, program: ColumnProgram) -> None:
        self.run(backend, matrices, components, program)

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return f"{type(self).__name__}(name={self.name!r})"


class LoopedSweepKernel(SweepKernel):
    """The legacy reference sweep: per-column gathers with fresh temporaries.

    Delegates to :func:`repro.arrays.kernels.apply_mzi_blocks` — the
    byte-for-byte historical arithmetic every other kernel is measured
    against, and the denominator of the ``mesh_megakernel`` benchmark.
    """

    name = "looped"

    def run(self, backend, matrices, components, program: ColumnProgram) -> None:
        from .kernels import apply_mzi_blocks

        apply_mzi_blocks(matrices, components, program)


class _SweepState(threading.local):
    """The fused kernel's mutable state, created afresh in each thread."""

    def __init__(self) -> None:
        #: Capacity-tracked scratch per ``(backend, role, dtype)``.
        self.scratch: Dict[tuple, object] = {}
        # Per-(program, backend, shape, dtype) column plans.  Keyed by
        # id(program) with a weakref guard against id reuse; kept here
        # (not in ``program.cache``) so pickling a mesh to worker processes
        # never ships megabytes of scratch views.
        self.plans: Dict[int, tuple] = {}
        # Whether the backend's take() accepts mode= (NumPy does; CuPy
        # does not).  mode="clip" matters: NumPy's take-with-out buffers
        # through a temporary under the default mode="raise", which costs
        # more than the gather itself.  Program indices are mesh-generated
        # and always in bounds, so clip never changes a value.
        self.take_accepts_mode: Dict[str, bool] = {}


class FusedSweepKernel(SweepKernel):
    """Hand-fused out-buffer sweep: zero per-column allocation.

    Per column the reference does two fancy gathers, four multiplies, two
    adds and two scatters, every one allocating a fresh temporary.  This
    kernel collapses that to (at most) four namespace calls per column:

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

    On host namespaces the kernel additionally blocks the leading batch
    axis so one block's matrices (and scratch) stay cache-resident across
    *all* columns of the sweep — the whole batch streams through memory
    once instead of once per column.  Batch rows are independent and the
    per-row arithmetic is unchanged, so blocking never changes a value;
    at Monte Carlo scale (thousands of stacked realizations) it is where
    most of the megakernel speedup comes from.

    The per-element float op sequence — a component multiply per matrix
    element and one add — is exactly the reference's (broadcast multiply
    is elementwise; no reductions anywhere), so results are bit-identical
    on any namespace where ufunc-with-``out`` equals ufunc-then-copy
    (all of ours).  Scratch lives per ``(thread, backend, role, dtype)``,
    capacity-tracked like the workspace arena; threads, processes and
    backends never share buffers, and the sweep never reads a scratch
    cell it did not just write.
    """

    name = "fused"
    blocks_internally = True

    def __init__(self) -> None:
        # One registry instance serves every thread of the process, so its
        # mutable state is per thread: two threads sweeping at once must
        # never write into each other's scratch.
        self._local = _SweepState()

    def _take(self, xp, backend_name: str, source, rows, out) -> None:
        accepts_mode = self._local.take_accepts_mode
        if accepts_mode.get(backend_name, True):
            try:
                xp.take(source, rows, axis=-2, out=out, mode="clip")
                return
            except TypeError:
                accepts_mode[backend_name] = False
        xp.take(source, rows, axis=-2, out=out)

    def _buffer(self, backend, role: str, shape, dtype):
        """Capacity-tracked scratch view of ``shape`` for ``role``."""
        size = 1
        for extent in shape:
            size *= int(extent)
        key = (backend.name, role, str(dtype))
        scratch = self._local.scratch
        flat = scratch.get(key)
        if flat is None or flat.shape[0] < size:
            flat = backend.empty((size,), dtype)
            scratch[key] = flat
        return flat[:size].reshape(shape)

    def _plan(self, backend, program: ColumnProgram, lead, comp_lead, dtype):
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
        key = (backend.name, lead, comp_lead, str(dtype))
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
        self._buffer(backend, "updated", lead + (width, 2, n), dtype)
        self._buffer(backend, "scratch", lead + (width, 2, n), dtype)
        if any(base is None for base in program.bases):
            self._buffer(backend, "gathered", lead + (width, 2, n), dtype)
        plan = []
        for (start, stop), base in zip(program.spans, program.bases):
            m = stop - start
            xshape = lead + (m, 2, n)
            ca_index = (Ellipsis, slice(start, stop), slice(None), None)
            new = self._buffer(backend, "updated", xshape, dtype)
            tmp = self._buffer(backend, "scratch", xshape, dtype)
            if base is None:
                block_rows = rows[2 * start : 2 * stop]
                block = self._buffer(backend, "gathered", lead + (2 * m, n), dtype)
                x = block.reshape(xshape)
                plan.append((None, None, ca_index, block_rows, block, x, new, tmp))
            else:
                plan.append(((base, base + 2 * m), xshape, ca_index, None, None, None, new, tmp))
        plan = tuple(plan)
        plans[key] = plan
        return plan

    def run(self, backend, matrices, components, program: ColumnProgram) -> None:
        # CA[..., i, :] = (b00, b10) and CB[..., i, :] = (b01, b11), so the
        # per-column views below broadcast one multiply over both output
        # rows of a device.
        ca, cb = components
        lead = tuple(matrices.shape[:-2])
        comp_lead = tuple(ca.shape[:-2])
        if program.num_devices == 0:
            return
        dtype = matrices.dtype
        block = self._lead_block(backend, lead, comp_lead, program.n)
        if block is None:
            self._sweep(backend, matrices, ca, cb, program, lead, comp_lead, dtype)
            return
        for start in range(0, lead[0], block):
            stop = min(start + block, lead[0])
            self._sweep(
                backend,
                matrices[start:stop],
                ca[start:stop],
                cb[start:stop],
                program,
                (stop - start,),
                (stop - start,),
                dtype,
            )

    @staticmethod
    def _lead_block(backend, lead, comp_lead, n: int):
        """Batch rows per cache block, or ``None`` to sweep in one pass.

        Host only (a device wants one launch per column, not one per
        block), and only for the stacked ``(B, n, n)`` layout with fully
        batched components — broadcasting component stacks cannot be
        sliced along the batch axis.
        """
        if not backend.is_host or len(lead) != 1 or comp_lead != lead:
            return None
        block = max(1, _HOST_BLOCK_ELEMENTS // max(1, n * n))
        return block if lead[0] > block else None

    def _sweep(self, backend, matrices, ca, cb, program, lead, comp_lead, dtype) -> None:
        xp = backend.xp
        multiply = xp.multiply
        add = xp.add
        name = backend.name
        for span, xshape, ca_index, block_rows, block, gx, new, tmp in self._plan(
            backend, program, lead, comp_lead, dtype
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
                self._take(xp, name, matrices, block_rows, block)
                multiply(ca[ca_index], gx[_TOP], out=new)
                multiply(cb[ca_index], gx[_BOTTOM], out=tmp)
                add(new, tmp, out=gx)
                matrices[..., block_rows, :] = block


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #

_KERNELS: Dict[str, SweepKernel] = {}

#: Selection preference when no override is set; filtered by
#: ``available()``/``supports()`` per backend, so e.g. ``cupy_raw`` only
#: ever serves the CuPy backend and ``numba`` only host arrays.
_DEFAULT_ORDER: Tuple[str, ...] = ("cupy_raw", "numba", "fused", "looped")


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
    """Names of every registered kernel (available or not)."""
    return tuple(_KERNELS)


def available_sweep_kernels(backend=None) -> Tuple[str, ...]:
    """Names of the kernels that can run now (optionally for ``backend``)."""
    return tuple(
        name
        for name, kernel in _KERNELS.items()
        if kernel.available() and (backend is None or kernel.supports(backend))
    )


def select_sweep_kernel(backend) -> SweepKernel:
    """The kernel serving ``backend``: env override or best available.

    ``REPRO_SWEEP_KERNEL`` names a registered kernel and fails loudly when
    it is unknown, unavailable (dependency missing) or unsupported on the
    active backend — a silent fallback would hide a misconfigured run.
    Without the override, the first available kernel in the preference
    order ``cupy_raw > numba > fused > looped`` that supports the backend
    wins; ``fused`` is the universal default, ``looped`` the safety net
    and test oracle.  Every candidate is conformant with the ``looped``
    reference, so the choice affects time, never results.
    """
    override = os.environ.get(SWEEP_KERNEL_ENV)
    if override:
        kernel = get_sweep_kernel(override)
        if not kernel.available():
            raise ConfigurationError(
                f"sweep kernel {override!r} ({SWEEP_KERNEL_ENV}) is not available "
                f"in this environment; available: {available_sweep_kernels()}"
            )
        if not kernel.supports(backend):
            raise ConfigurationError(
                f"sweep kernel {override!r} ({SWEEP_KERNEL_ENV}) does not support "
                f"array backend {backend.name!r}; "
                f"available here: {available_sweep_kernels(backend)}"
            )
        return kernel
    for name in _DEFAULT_ORDER:
        kernel = _KERNELS.get(name)
        if kernel is not None and kernel.available() and kernel.supports(backend):
            return kernel
    raise ConfigurationError(
        f"no sweep kernel supports array backend {backend.name!r}"
    )  # pragma: no cover - looped supports everything


def apply_column_sweep(
    backend,
    matrices,
    components,
    program: ColumnProgram,
    kernel: Optional[object] = None,
) -> None:
    """Run the column sweep on ``matrices`` in place with the best kernel.

    ``components`` is the packed ``(CA, CB)`` stack pair in column-sorted
    order and ``program`` already converted for ``backend``
    (:meth:`ColumnProgram.to_backend`); the mesh builds both, once per
    call and once per backend respectively.  ``kernel`` optionally pins a
    registry name (or passes a :class:`SweepKernel` instance through),
    otherwise :func:`select_sweep_kernel` decides.

    When a dispatch collector is installed
    (:mod:`repro.observability.dispatch`), each call records
    ``(kernel, backend, n, batch, columns, seconds)`` — shapes and wall
    time only, never the array contents, so recording cannot perturb
    results.  Without a collector the instrumentation is one module-global
    read per call.
    """
    if kernel is None:
        selected = select_sweep_kernel(backend)
    elif isinstance(kernel, SweepKernel):
        selected = kernel
    else:
        selected = get_sweep_kernel(kernel)
    collector = active_collector()
    if collector is None:
        selected(backend, matrices, components, program)
        return
    batch = 1
    for extent in matrices.shape[:-2]:
        batch *= int(extent)
    started = perf_seconds()
    selected(backend, matrices, components, program)
    collector.record(
        selected.name, backend.name, program.n, batch, program.num_columns,
        perf_seconds() - started,
    )


register_sweep_kernel(LoopedSweepKernel())
register_sweep_kernel(FusedSweepKernel())


def _register_optional_kernels() -> None:
    """Register the numba and cupy kernels (import-guarded wrappers).

    The wrapper modules themselves import their heavy dependency lazily
    and report ``available() == False`` when it is missing, so merely
    registering them is always safe — selection skips unavailable
    kernels and the env override fails with a clear message.
    """
    from .cupy_sweep import CupyRawSweepKernel
    from .numba_sweep import NumbaSweepKernel

    register_sweep_kernel(NumbaSweepKernel())
    register_sweep_kernel(CupyRawSweepKernel())
