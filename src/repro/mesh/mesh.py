"""Programmable MZI mesh: nominal settings plus uncertainty injection.

:class:`MZIMesh` is the layer-level object of the paper's hierarchy
(§III-C): a physical arrangement of MZIs (each with two phase shifters and
two beam splitters) that realizes a target unitary.  It knows the nominal
tuning of every device and can evaluate the matrix it *actually* implements
when per-device perturbations — phase errors and splitter imbalance — are
applied.

Two evaluation paths are provided: :meth:`MZIMesh.matrix` for a single
realization and :meth:`MZIMesh.matrix_batch` for a stack of ``B``
realizations at once (:class:`MeshPerturbationBatch`).  The batched path
loops once over the MZIs and applies each 2x2 block to all ``B`` matrices
with a stacked matmul, which NumPy evaluates with the same per-slice kernel
as the 2-D product — the batched result is bit-identical to evaluating the
``B`` realizations one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..arrays.kernels import block_components
from ..arrays.sweep import ColumnProgram, apply_column_sweep, select_sweep_kernel
from ..exceptions import ShapeError, VariationModelError
from ..photonics import constants
from ..photonics.mzi import mzi_transfer_components
from ._batch import PerturbationBatchFields, ensure_batch_field
from .clements import clements_decompose
from .decomposition import MeshDecomposition, MZIConfig
from .reck import reck_decompose


#: Complex matrix elements per chunk of the batched column sweep — sized so
#: one chunk of transfer matrices (~plus its gathered row temporaries) fits
#: comfortably in a typical L2 cache.
_APPLY_CHUNK_ELEMENTS = 32768


@dataclass
class MeshPerturbation:
    """Per-device perturbations applied to a mesh.

    All arrays are indexed by the mesh's MZI propagation index.  Missing
    (``None``) fields mean "no perturbation" for that parameter.

    Attributes
    ----------
    delta_theta, delta_phi:
        Additive phase errors [rad] on the internal / input phase shifter of
        each MZI.
    delta_r_in, delta_r_out:
        Additive reflectance errors on the first / second beam splitter of
        each MZI (the deviation of ``r`` from its nominal ``1/sqrt(2)``).
    delta_output_phase:
        Additive phase errors [rad] on the output phase screen.
    """

    delta_theta: Optional[np.ndarray] = None
    delta_phi: Optional[np.ndarray] = None
    delta_r_in: Optional[np.ndarray] = None
    delta_r_out: Optional[np.ndarray] = None
    delta_output_phase: Optional[np.ndarray] = None

    @classmethod
    def none(cls, num_mzis: int, n_modes: int) -> "MeshPerturbation":
        """An explicit all-zeros perturbation (useful as an accumulator)."""
        return cls(
            delta_theta=np.zeros(num_mzis),
            delta_phi=np.zeros(num_mzis),
            delta_r_in=np.zeros(num_mzis),
            delta_r_out=np.zeros(num_mzis),
            delta_output_phase=np.zeros(n_modes),
        )

    def validate(self, num_mzis: int, n_modes: int) -> None:
        """Check array lengths against the mesh dimensions."""
        for name, expected in (
            ("delta_theta", num_mzis),
            ("delta_phi", num_mzis),
            ("delta_r_in", num_mzis),
            ("delta_r_out", num_mzis),
            ("delta_output_phase", n_modes),
        ):
            value = getattr(self, name)
            if value is None:
                continue
            value = np.asarray(value, dtype=np.float64)
            if value.shape != (expected,):
                raise ShapeError(f"{name} must have shape ({expected},), got {value.shape}")
            setattr(self, name, value)

    def masked(self, mzi_mask: np.ndarray) -> "MeshPerturbation":
        """Return a copy where perturbations outside ``mzi_mask`` are zeroed.

        ``mzi_mask`` is a boolean array over MZI indices; the output-phase
        perturbation is preserved unchanged.  Used for zonal experiments.
        """
        mzi_mask = np.asarray(mzi_mask, dtype=bool)

        def _mask(values: Optional[np.ndarray]) -> Optional[np.ndarray]:
            if values is None:
                return None
            if values.shape != mzi_mask.shape:
                raise ShapeError(f"mask shape {mzi_mask.shape} does not match values {values.shape}")
            return np.where(mzi_mask, values, 0.0)

        return MeshPerturbation(
            delta_theta=_mask(self.delta_theta),
            delta_phi=_mask(self.delta_phi),
            delta_r_in=_mask(self.delta_r_in),
            delta_r_out=_mask(self.delta_r_out),
            delta_output_phase=None if self.delta_output_phase is None else self.delta_output_phase.copy(),
        )

    def scaled(self, factor: float) -> "MeshPerturbation":
        """Return a copy with every perturbation multiplied by ``factor``."""

        def _scale(values: Optional[np.ndarray]) -> Optional[np.ndarray]:
            return None if values is None else factor * values

        return MeshPerturbation(
            delta_theta=_scale(self.delta_theta),
            delta_phi=_scale(self.delta_phi),
            delta_r_in=_scale(self.delta_r_in),
            delta_r_out=_scale(self.delta_r_out),
            delta_output_phase=_scale(self.delta_output_phase),
        )


@dataclass
class MeshPerturbationBatch(PerturbationBatchFields):
    """A stack of ``B`` per-device mesh perturbations with a leading batch axis.

    Every array carries the Monte Carlo batch axis first: the per-MZI fields
    have shape ``(B, num_mzis)`` and ``delta_output_phase`` has shape
    ``(B, n_modes)``.  ``None`` fields mean "no perturbation" for that
    parameter in every realization.  Stacking, batch-size inference and
    single-realization slicing come from :class:`PerturbationBatchFields`.
    """

    delta_theta: Optional[np.ndarray] = None
    delta_phi: Optional[np.ndarray] = None
    delta_r_in: Optional[np.ndarray] = None
    delta_r_out: Optional[np.ndarray] = None
    delta_output_phase: Optional[np.ndarray] = None

    _FIELDS = ("delta_theta", "delta_phi", "delta_r_in", "delta_r_out", "delta_output_phase")
    _SINGLE_CLS = MeshPerturbation

    def validate(self, num_mzis: int, n_modes: int) -> None:
        """Check array shapes ``(B, ...)`` against the mesh dimensions.

        Fields go through the historical float64 conversion (see
        :func:`repro.mesh._batch.ensure_batch_field`).
        """
        batch = self.batch_size
        for name, expected in (
            ("delta_theta", num_mzis),
            ("delta_phi", num_mzis),
            ("delta_r_in", num_mzis),
            ("delta_r_out", num_mzis),
            ("delta_output_phase", n_modes),
        ):
            setattr(self, name, ensure_batch_field(getattr(self, name), (batch, expected), name))


class MZIMesh:
    """A mesh of MZIs realizing (approximately) a target unitary matrix.

    Parameters
    ----------
    decomposition:
        Result of :func:`~repro.mesh.clements.clements_decompose` or
        :func:`~repro.mesh.reck.reck_decompose` describing the nominal
        device settings and physical layout.

    Notes
    -----
    The mesh evaluates its transfer matrix by applying each MZI's 2x2 block
    to the growing ``N x N`` matrix in propagation order, then the output
    phase screen.  With no perturbation this reproduces the target unitary
    to numerical precision; with perturbations it gives the *faulty* matrix
    whose impact the paper studies.
    """

    def __init__(self, decomposition: MeshDecomposition):
        self.decomposition = decomposition
        self.n = decomposition.n
        self.configs: List[MZIConfig] = list(decomposition.configs)
        self.output_phases = np.asarray(decomposition.output_phases, dtype=np.float64).copy()
        # Cached nominal parameter arrays (propagation order).
        self._modes = np.array([c.mode for c in self.configs], dtype=np.int64)
        self._columns = np.array([c.column for c in self.configs], dtype=np.int64)
        self._thetas = np.array([c.theta for c in self.configs], dtype=np.float64)
        self._phis = np.array([c.phi for c in self.configs], dtype=np.float64)
        # Every splitter is nominally ideal, so this is also in column order.
        self._column_r = np.full(len(self.configs), constants.IDEAL_SPLITTER_AMPLITUDE)
        # MZIs grouped by physical column, preserving propagation order within
        # each group.  Column assignment guarantees that devices sharing a
        # column act on disjoint mode pairs and that devices sharing a mode
        # keep their propagation order across columns, so applying the blocks
        # column by column performs the exact same per-row updates as the
        # strict propagation-order loop.
        self._column_groups = [
            np.flatnonzero(self._columns == column) for column in range(self.num_columns)
        ]
        # Column-sorted (stable) propagation permutation: every sweep path
        # gathers the real device parameters by it once, so the block
        # components come out in column order and slice per column.
        # Devices *within* a column act on disjoint mode pairs, so their
        # relative order is free; sorting each column by mode makes the
        # fused kernel's contiguous-block fast path apply wherever the
        # physics allows (every Clements column, most Reck columns)
        # without changing a single output value.
        self._column_groups = [
            group[np.argsort(self._modes[group], kind="stable")]
            for group in self._column_groups
        ]
        self._column_perm = (
            np.concatenate(self._column_groups) if self.num_mzis else np.zeros(0, dtype=np.int64)
        )
        self._set_column_phases()
        boundaries = np.cumsum([0] + [len(group) for group in self._column_groups])
        # The packed flat-index column program: the sweep structure
        # "compiled" once per mesh (column-sorted top/bottom row indices,
        # interleaved gather/scatter row map, column boundaries, contiguous
        # block bases) and consumed by every registered sweep kernel — no
        # per-call index rebuilding.
        sorted_modes = self._modes[self._column_perm]
        spans = tuple((int(s), int(e)) for s, e in zip(boundaries[:-1], boundaries[1:]))
        rows = np.empty(2 * self.num_mzis, dtype=np.int64)
        rows[0::2] = sorted_modes
        rows[1::2] = sorted_modes + 1
        bases = []
        for start, stop in spans:
            block = rows[2 * start : 2 * stop]
            base = int(block[0]) if block.size else 0
            contiguous = block.size and np.array_equal(
                block, np.arange(base, base + block.size)
            )
            bases.append(base if contiguous else None)
        self._column_program = ColumnProgram(
            n=self.n,
            perm=self._column_perm,
            top=sorted_modes,
            bottom=sorted_modes + 1,
            rows=rows,
            spans=spans,
            bases=tuple(bases),
        )

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_unitary(cls, unitary: np.ndarray, scheme: str = "clements", atol: float = 1e-8) -> "MZIMesh":
        """Compile a unitary matrix into a mesh using the requested scheme."""
        scheme = scheme.lower()
        if scheme == "clements":
            return cls(clements_decompose(unitary, atol=atol))
        if scheme == "reck":
            return cls(reck_decompose(unitary, atol=atol))
        raise VariationModelError(f"unknown mesh scheme {scheme!r}; expected 'clements' or 'reck'")

    # ------------------------------------------------------------------ #
    # structural queries
    # ------------------------------------------------------------------ #
    @property
    def num_mzis(self) -> int:
        return len(self.configs)

    @property
    def num_phase_shifters(self) -> int:
        """Tunable phase shifters inside MZIs (2 per device), excluding the output screen."""
        return 2 * self.num_mzis

    @property
    def num_columns(self) -> int:
        return int(self._columns.max()) + 1 if self.num_mzis else 0

    @property
    def num_rows(self) -> int:
        """Number of MZI row positions (mode pairs), ``n - 1``."""
        return self.n - 1

    @property
    def scheme(self) -> str:
        return self.decomposition.scheme

    def thetas(self) -> np.ndarray:
        return self._thetas.copy()

    def phis(self) -> np.ndarray:
        return self._phis.copy()

    def modes(self) -> np.ndarray:
        return self._modes.copy()

    def columns(self) -> np.ndarray:
        return self._columns.copy()

    def grid_positions(self) -> List[Tuple[int, int]]:
        """``(column, row)`` grid coordinates of each MZI, in propagation order.

        The row coordinate is the upper mode index of the device, so the
        layout matches the mesh diagrams in the paper (Fig. 1 and Fig. 3).
        """
        return [(int(col), int(mode)) for col, mode in zip(self._columns, self._modes)]

    def mzi_at(self, column: int, mode: int) -> Optional[int]:
        """Propagation index of the MZI at grid position ``(column, mode)``, if any."""
        matches = np.flatnonzero((self._columns == column) & (self._modes == mode))
        return int(matches[0]) if matches.size else None

    # ------------------------------------------------------------------ #
    # in-place retuning (incremental recompilation)
    # ------------------------------------------------------------------ #
    def retune(self, thetas: np.ndarray, phis: np.ndarray, output_phases: np.ndarray) -> None:
        """Re-tune every phase in place, keeping the physical layout.

        The mode/column structure of a Clements (or Reck) mesh depends only
        on ``n``, so a mesh compiled once can realize any other unitary of
        the same size by updating just its phase settings — this is what
        makes incremental recompilation of a slowly moving weight matrix
        cheap (see :func:`repro.mesh.clements.clements_phases`).  The cached
        column grouping, propagation permutation and mode arrays are all
        reused; ``configs`` and ``decomposition`` are rebuilt so structural
        consumers (zone maps, per-MZI reports) stay consistent.

        Parameters
        ----------
        thetas, phis:
            New phase angles [rad] in propagation order, length ``num_mzis``.
        output_phases:
            New output phase screen, length ``n``.
        """
        thetas = np.asarray(thetas, dtype=np.float64)
        phis = np.asarray(phis, dtype=np.float64)
        output_phases = np.asarray(output_phases, dtype=np.float64)
        if thetas.shape != (self.num_mzis,) or phis.shape != (self.num_mzis,):
            raise ShapeError(
                f"thetas/phis must have shape ({self.num_mzis},), "
                f"got {thetas.shape} and {phis.shape}"
            )
        if output_phases.shape != (self.n,):
            raise ShapeError(f"output_phases must have shape ({self.n},), got {output_phases.shape}")
        self._thetas = thetas.copy()
        self._phis = phis.copy()
        self._set_column_phases()
        self.output_phases = output_phases.copy()
        self.configs = [
            MZIConfig(mode=c.mode, theta=float(t), phi=float(p), column=c.column, index=c.index)
            for c, t, p in zip(self.configs, thetas, phis)
        ]
        self.decomposition = MeshDecomposition(
            n=self.n,
            configs=self.configs,
            output_phases=self.output_phases,
            scheme=self.decomposition.scheme,
        )

    def _set_column_phases(self) -> None:
        """Cache the nominal phases in column-sorted order (the sweep's order)."""
        self._column_thetas = self._thetas[self._column_perm]
        self._column_phis = self._phis[self._column_perm]

    # ------------------------------------------------------------------ #
    # matrix evaluation
    # ------------------------------------------------------------------ #
    def ideal_matrix(self) -> np.ndarray:
        """The nominal (unperturbed) unitary implemented by the mesh."""
        return self.matrix(None)

    def matrix(self, perturbation: Optional[MeshPerturbation] = None) -> np.ndarray:
        """Transfer matrix of the mesh under an optional perturbation.

        Parameters
        ----------
        perturbation:
            Per-device parameter deviations; ``None`` evaluates the nominal
            mesh.

        Returns
        -------
        numpy.ndarray
            The ``n x n`` complex transfer matrix.  It is unitary in the
            nominal case and (slightly) non-unitary only through asymmetric
            splitter imperfections, matching the physics of lossless but
            imbalanced couplers.
        """
        if perturbation is not None:
            perturbation.validate(self.num_mzis, self.n)
        stacks, output_phases = self._column_stacks_and_phases(perturbation)
        matrix = np.eye(self.n, dtype=np.complex128)
        apply_column_sweep(matrix, stacks, self._column_program)
        return np.exp(1j * output_phases)[:, np.newaxis] * matrix

    def _column_stacks_and_phases(self, perturbation):
        """Perturbed block components in column order, and the output phases.

        Shared by both evaluation paths.  ``perturbation`` may be a
        :class:`MeshPerturbation` (1-D fields) or a
        :class:`MeshPerturbationBatch` (2-D fields, leading batch axis).
        Each field is gathered into column-sorted order and added to the
        column-ordered nominal parameters (``nominal + delta`` elementwise,
        so the same values as adding in propagation order and permuting
        after), and the block components are written straight into the
        packed ``(CA, CB)`` stacks the sweep kernels take
        (:func:`~repro.arrays.kernels.block_components`): the complex
        components are never gathered or copied.  Unperturbed families
        stay at their ``(M,)`` nominal shape and broadcast.
        """
        perm = self._column_perm
        thetas = self._column_thetas
        phis = self._column_phis
        r_in = self._column_r
        r_out = r_in
        output_phases = self.output_phases

        def shifted(nominal, delta):
            column_delta = np.asarray(delta)[..., perm]
            return np.add(nominal, column_delta, out=column_delta)

        if perturbation is not None:
            if perturbation.delta_theta is not None:
                thetas = shifted(thetas, perturbation.delta_theta)
            if perturbation.delta_phi is not None:
                phis = shifted(phis, perturbation.delta_phi)
            if perturbation.delta_r_in is not None:
                r_in = np.clip(shifted(r_in, perturbation.delta_r_in), 0.0, 1.0)
            if perturbation.delta_r_out is not None:
                r_out = np.clip(shifted(r_out, perturbation.delta_r_out), 0.0, 1.0)
            if perturbation.delta_output_phase is not None:
                output_phases = output_phases + np.asarray(perturbation.delta_output_phase)
        lead = max((p.shape[:-1] for p in (thetas, phis, r_in, r_out)), key=len)
        shape = tuple(lead) + (self.num_mzis, 2)
        stacks = (np.empty(shape, np.complex128), np.empty(shape, np.complex128))
        mzi_transfer_components(thetas, phis, r_in, r2=r_out, out=block_components(stacks))
        return stacks, output_phases

    def column_program(self) -> ColumnProgram:
        """The packed column program every sweep kernel takes."""
        return self._column_program

    def perturbed_matrix(self, perturbation: MeshPerturbation) -> np.ndarray:
        """Alias of :meth:`matrix` that makes call sites more readable."""
        return self.matrix(perturbation)

    def matrix_batch(
        self,
        perturbation: Optional[MeshPerturbationBatch] = None,
        batch_size: Optional[int] = None,
    ) -> np.ndarray:
        """Transfer matrices of ``B`` perturbation realizations at once.

        Parameters
        ----------
        perturbation:
            Stacked per-device deviations with leading batch axis ``B``;
            ``None`` replicates the nominal mesh ``batch_size`` times.
        batch_size:
            Required when ``perturbation`` is ``None``; otherwise it must
            match the perturbation's batch size when given.

        Returns
        -------
        numpy.ndarray
            Complex array of shape ``(B, n, n)``, bit-identical to stacking
            ``B`` calls of :meth:`matrix` on the individual realizations.
        """
        if perturbation is None:
            if batch_size is None:
                raise ValueError("batch_size is required when perturbation is None")
            if batch_size < 1:
                raise ValueError(f"batch_size must be >= 1, got {batch_size}")
            nominal = self.matrix(None)
            return np.broadcast_to(nominal, (batch_size,) + nominal.shape).copy()

        perturbation.validate(self.num_mzis, self.n)
        batch = perturbation.batch_size
        if batch_size is not None and batch_size != batch:
            raise ShapeError(f"batch_size {batch_size} does not match perturbation batch {batch}")

        # (B, num_mzis, 2) column-ordered component stacks; unperturbed
        # parameter families broadcast.
        stacks, output_phases = self._column_stacks_and_phases(perturbation)
        if stacks[0].ndim == 2:  # only the output phase screen was perturbed
            stacks = tuple(np.broadcast_to(s, (batch,) + s.shape) for s in stacks)
        matrices = np.empty((batch, self.n, self.n), np.complex128)
        matrices[...] = np.eye(self.n, dtype=np.complex128)
        # A kernel that blocks internally (the fused megakernel) takes the
        # whole batch in one call; otherwise chunk the batch axis here so
        # the per-chunk matrices and gathered rows stay cache-resident
        # during the column sweep.
        program = self._column_program
        kernel = select_sweep_kernel()
        if kernel.blocks_internally:
            apply_column_sweep(matrices, stacks, program, kernel=kernel)
        else:
            chunk = max(1, _APPLY_CHUNK_ELEMENTS // max(1, self.n * self.n))
            for start in range(0, batch, chunk):
                stop = min(start + chunk, batch)
                apply_column_sweep(
                    matrices[start:stop],
                    tuple(s[start:stop] for s in stacks),
                    program,
                    kernel=kernel,
                )
        phases = np.exp(1j * output_phases)
        if phases.ndim == 1:
            phases = phases[None]
        return phases[:, :, None] * matrices

    # ------------------------------------------------------------------ #
    # summaries
    # ------------------------------------------------------------------ #
    def phase_statistics(self) -> Dict[str, float]:
        """Summary statistics of the tuned phases (used in reports/tests)."""
        all_phases = np.concatenate([self._thetas, self._phis])
        return {
            "mean_theta": float(self._thetas.mean()) if self.num_mzis else 0.0,
            "mean_phi": float(self._phis.mean()) if self.num_mzis else 0.0,
            "max_phase": float(all_phases.max()) if self.num_mzis else 0.0,
            "min_phase": float(all_phases.min()) if self.num_mzis else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return (
            f"MZIMesh(n={self.n}, scheme={self.scheme!r}, num_mzis={self.num_mzis}, "
            f"columns={self.num_columns})"
        )
