"""SVD-based photonic linear layer: ``M = U @ Sigma @ V^H`` in hardware.

This is the paper's construction of a fully connected layer (§II-B, Fig. 1):
the complex weight matrix is factored with an SVD, the two unitary factors
are compiled onto Clements MZI meshes, and the singular values are realized
by an MZI-attenuator bank plus a global optical gain ``beta``.  The layer
can evaluate the matrix it implements both nominally and under per-device
uncertainties, which is what turns weight matrices into *faulty* weight
matrices during the Monte Carlo experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..exceptions import ConfigurationError, DecompositionError, ShapeError
from ..observability.recorder import active as _active_recorder
from ..utils.linalg import svd_decompose
from ..utils.validation import as_complex_array
from .clements import clements_phases
from .diagonal import DiagonalPerturbation, DiagonalPerturbationBatch, DiagonalStage
from .mesh import MeshPerturbation, MeshPerturbationBatch, MZIMesh


@dataclass
class LayerPerturbation:
    """Perturbations for all three stages of one photonic linear layer."""

    u: Optional[MeshPerturbation] = None
    v: Optional[MeshPerturbation] = None
    sigma: Optional[DiagonalPerturbation] = None

    @classmethod
    def none(cls) -> "LayerPerturbation":
        return cls()


@dataclass
class LayerPerturbationBatch:
    """Stacked perturbations (leading batch axis ``B``) for one photonic layer."""

    u: Optional[MeshPerturbationBatch] = None
    v: Optional[MeshPerturbationBatch] = None
    sigma: Optional[DiagonalPerturbationBatch] = None

    @property
    def batch_size(self) -> int:
        for stage in (self.u, self.v, self.sigma):
            if stage is not None:
                return stage.batch_size
        raise ShapeError("empty LayerPerturbationBatch has no batch size")

    @classmethod
    def stack(
        cls,
        perturbations: Sequence[LayerPerturbation],
        workspace=None,
        workspace_key=None,
    ) -> "LayerPerturbationBatch":
        """Stack per-iteration :class:`LayerPerturbation` draws into a batch.

        A stage that is ``None`` in every realization stays ``None``;
        stages present in only some realizations get all-``None`` placeholder
        rows, which the stage-level ``stack`` zero-fills field by field.
        ``workspace``/``workspace_key`` optionally back the stacked arrays
        with reusable buffers (see
        :meth:`~repro.mesh._batch.PerturbationBatchFields.stack`); the
        stage name is appended to the key so the three stages never alias.
        """
        perturbations = list(perturbations)
        if not perturbations:
            raise ValueError("cannot stack an empty sequence of perturbations")
        u_stages = [p.u for p in perturbations]
        v_stages = [p.v for p in perturbations]
        sigma_stages = [p.sigma for p in perturbations]
        return cls(
            u=None
            if all(s is None for s in u_stages)
            else MeshPerturbationBatch.stack(
                [s if s is not None else MeshPerturbation() for s in u_stages],
                workspace=workspace,
                workspace_key=(workspace_key, "u"),
            ),
            v=None
            if all(s is None for s in v_stages)
            else MeshPerturbationBatch.stack(
                [s if s is not None else MeshPerturbation() for s in v_stages],
                workspace=workspace,
                workspace_key=(workspace_key, "v"),
            ),
            sigma=None
            if all(s is None for s in sigma_stages)
            else DiagonalPerturbationBatch.stack(
                [s if s is not None else DiagonalPerturbation() for s in sigma_stages],
                workspace=workspace,
                workspace_key=(workspace_key, "sigma"),
            ),
        )

    def realizations(self, window: slice) -> "LayerPerturbationBatch":
        """The realizations in ``window`` as a batch; fields are views."""
        return LayerPerturbationBatch(
            u=None if self.u is None else self.u.realizations(window),
            v=None if self.v is None else self.v.realizations(window),
            sigma=None if self.sigma is None else self.sigma.realizations(window),
        )

    def realization(self, index: int) -> LayerPerturbation:
        """The single-realization perturbation at batch position ``index``."""
        return LayerPerturbation(
            u=None if self.u is None else self.u.realization(index),
            v=None if self.v is None else self.v.realization(index),
            sigma=None if self.sigma is None else self.sigma.realization(index),
        )


class PhotonicLinearLayer:
    """Hardware realization of one complex fully connected layer.

    Parameters
    ----------
    weight:
        Complex weight matrix of shape ``(out_features, in_features)`` — the
        software-trained weights to compile onto hardware.
    scheme:
        Mesh topology used for the unitary factors (``"clements"`` by
        default, ``"reck"`` for the ablation baseline).

    Notes
    -----
    The layer computes ``y = M @ x`` for column vectors, or equivalently
    ``Y = X @ M.T`` for batches of row vectors, where ``M`` is the
    (possibly perturbed) hardware matrix ``U @ Sigma @ V^H``.
    """

    def __init__(self, weight: np.ndarray, scheme: str = "clements"):
        weight = as_complex_array(weight, "weight")
        if weight.ndim != 2:
            raise ShapeError(f"weight must be 2-D, got shape {weight.shape}")
        self.weight = weight.copy()
        self.out_features, self.in_features = weight.shape
        self.scheme = scheme

        u, s, vh = svd_decompose(weight)
        self.mesh_u = MZIMesh.from_unitary(u, scheme=scheme)
        self.mesh_v = MZIMesh.from_unitary(vh, scheme=scheme)
        self.diagonal = DiagonalStage(s, shape=(self.out_features, self.in_features))
        # Cached factors of the last compile: the warm-start basis for
        # incremental recompiles (see retune_from_weight).
        self._svd = (u, s, vh)

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    @property
    def num_mzis(self) -> int:
        """Total MZIs in the layer (two unitary meshes plus the Sigma bank)."""
        return self.mesh_u.num_mzis + self.mesh_v.num_mzis + self.diagonal.num_mzis

    @property
    def num_phase_shifters(self) -> int:
        """Total tunable phase shifters inside MZIs (2 per MZI)."""
        return 2 * self.num_mzis

    @property
    def gain(self) -> float:
        """The global optical amplification ``beta`` of the Sigma stage."""
        return self.diagonal.gain

    def hardware_summary(self) -> Dict[str, int]:
        """Per-stage MZI counts (useful for reports and the paper's 1374 figure)."""
        return {
            "u_mzis": self.mesh_u.num_mzis,
            "v_mzis": self.mesh_v.num_mzis,
            "sigma_mzis": self.diagonal.num_mzis,
            "total_mzis": self.num_mzis,
            "phase_shifters": self.num_phase_shifters,
        }

    # ------------------------------------------------------------------ #
    # incremental recompilation
    # ------------------------------------------------------------------ #
    def retune_from_weight(self, weight: np.ndarray, max_error: float = 1e-7) -> bool:
        """Warm-started in-place recompile of the layer onto new weights.

        Instead of rebuilding the layer from scratch (fresh SVD, two fully
        validated mesh decompositions, new stage objects), this

        1. **rotation-updates the cached SVD**: with ``U, Vh`` from the last
           compile, the core ``C = U^H W V`` is decomposed (for a slowly
           moving ``W`` it is nearly diagonal, so the new factors
           ``U' = U P`` and ``V'^H = Q^H V^H`` stay continuously connected
           to the cached basis — no arbitrary column-phase jumps between
           steps) — an *exact* SVD of ``W``, assembled in the old basis;
        2. re-derives the Clements phases through the trusted fast path
           (:func:`~repro.mesh.clements.clements_phases`) and retunes the
           cached meshes and the attenuator bank **in place**, reusing
           every piece of structural bookkeeping; and
        3. validates the result against ``weight`` with one vectorized
           reconstruction (``max |M_nominal - W| <= max_error``).

        Returns ``True`` on success.  On ``False`` the warm start diverged
        (or the layer uses a non-Clements scheme) and the layer state is
        **unspecified** — the caller must rebuild the layer exactly, which
        is precisely the fallback :class:`repro.training.injector.NoiseInjector`
        implements.
        """
        with _active_recorder().span(
            "mesh/retune", rows=self.out_features, cols=self.in_features
        ) as span:
            if self.scheme != "clements" or self._svd is None:
                span.set("outcome", "not-warm-startable")
                return False
            weight = as_complex_array(weight, "weight")
            if weight.shape != (self.out_features, self.in_features):
                raise ShapeError(
                    f"weight must have shape {(self.out_features, self.in_features)}, got {weight.shape}"
                )
            u_prev, _, vh_prev = self._svd
            core = u_prev.conj().T @ weight @ vh_prev.conj().T
            try:
                p, s, qh = np.linalg.svd(core, full_matrices=True)
            except np.linalg.LinAlgError:  # pragma: no cover - LAPACK non-convergence
                span.set("outcome", "svd-failed")
                return False
            u = u_prev @ p
            vh = qh @ vh_prev
            try:
                self.mesh_u.retune(*clements_phases(u))
                self.mesh_v.retune(*clements_phases(vh))
                self.diagonal.retune(s)
            except (DecompositionError, ConfigurationError):
                span.set("outcome", "retune-failed")
                return False
            self.weight = weight.copy()
            self._svd = (u, s, vh)
            if self.reconstruction_error() > max_error:
                span.set("outcome", "validation-failed")
                return False
            span.set("outcome", "warm")
            return True

    # ------------------------------------------------------------------ #
    # matrix evaluation
    # ------------------------------------------------------------------ #
    def matrix(self, perturbation: Optional[LayerPerturbation] = None) -> np.ndarray:
        """The complex matrix the hardware implements under a perturbation."""
        if perturbation is None:
            perturbation = LayerPerturbation.none()
        u = self.mesh_u.matrix(perturbation.u)
        v = self.mesh_v.matrix(perturbation.v)
        amplitudes = self.diagonal.gain * self.diagonal.attenuations(perturbation.sigma)
        return self._scale_columns(u, amplitudes) @ v

    def _scale_columns(self, u: np.ndarray, amplitudes: np.ndarray, out=None) -> np.ndarray:
        """``u @ Sigma`` evaluated as column scaling.

        ``Sigma`` is (rectangular) diagonal, so the product scales the first
        ``k`` columns of ``u`` and zeroes the rest — bit-identical to the
        dense matmul (the skipped terms are exact zeros) at a fraction of
        the cost.  ``u`` may carry a leading batch axis.  ``out`` optionally
        supplies the destination buffer (fully overwritten).
        """
        k = self.diagonal.num_mzis
        rows, cols = self.diagonal.shape
        amplitudes = np.asarray(amplitudes)
        if out is None:
            scaled = np.zeros(u.shape[:-2] + (rows, cols), dtype=np.complex128)
        else:
            scaled = out
            scaled[...] = 0.0
        scaled[..., :, :k] = u[..., :, :k] * amplitudes[..., None, :]
        return scaled

    def matrix_batch(
        self,
        perturbation: Optional[LayerPerturbationBatch] = None,
        batch_size: Optional[int] = None,
        workspace=None,
        workspace_key: Optional[object] = None,
    ) -> np.ndarray:
        """Hardware matrices of ``B`` perturbation realizations, ``(B, out, in)``.

        Bit-identical to stacking ``B`` calls of :meth:`matrix` on the
        individual realizations (the stacked matmuls evaluate each batch
        slice with the same kernel as the 2-D products).  With a
        ``workspace`` (plus a key unique to this layer within the
        evaluation) every stage — the two unitary sweeps, the column
        scaling and the final stacked matmul — writes into reusable arena
        buffers end to end, eliminating the per-call intermediates; values
        are bit-identical either way and the result stays valid until the
        next workspace-backed call under the same key.
        """
        if perturbation is None:
            if batch_size is None:
                raise ValueError("batch_size is required when perturbation is None")
            batch = int(batch_size)
        else:
            batch = perturbation.batch_size
            if batch_size is not None and batch_size != batch:
                raise ShapeError(
                    f"batch_size {batch_size} does not match perturbation batch {batch}"
                )
        u_pert = perturbation.u if perturbation is not None else None
        v_pert = perturbation.v if perturbation is not None else None
        sigma_pert = perturbation.sigma if perturbation is not None else None
        u = self.mesh_u.matrix_batch(
            u_pert, batch_size=batch, workspace=workspace, workspace_key=(workspace_key, "u")
        )
        v = self.mesh_v.matrix_batch(
            v_pert, batch_size=batch, workspace=workspace, workspace_key=(workspace_key, "v")
        )
        if sigma_pert is None:
            amplitudes = self.diagonal.gain * self.diagonal.attenuations(None)
        else:
            amplitudes = self.diagonal.gain * self.diagonal.attenuations_batch(sigma_pert)
        if workspace is None:
            return self._scale_columns(u, amplitudes) @ v
        rows, cols = self.diagonal.shape
        scaled = self._scale_columns(
            u,
            amplitudes,
            out=workspace.buffer((workspace_key, "svd/scaled"), (batch, rows, cols), np.complex128),
        )
        out = workspace.buffer(
            (workspace_key, "svd/matrix"), (batch, rows, int(v.shape[-1])), np.complex128
        )
        return np.matmul(scaled, v, out=out)

    def ideal_matrix(self) -> np.ndarray:
        """Nominal hardware matrix (equals ``weight`` to numerical precision)."""
        return self.matrix(None)

    def reconstruction_error(self) -> float:
        """Max absolute difference between the nominal hardware matrix and the weights."""
        return float(np.max(np.abs(self.ideal_matrix() - self.weight)))

    # ------------------------------------------------------------------ #
    # application
    # ------------------------------------------------------------------ #
    def forward(self, inputs: np.ndarray, perturbation: Optional[LayerPerturbation] = None) -> np.ndarray:
        """Apply the (possibly perturbed) layer to a batch of complex inputs.

        Parameters
        ----------
        inputs:
            Array of shape ``(batch, in_features)`` or ``(in_features,)``.
        perturbation:
            Optional per-device uncertainty realization.
        """
        inputs = as_complex_array(inputs, "inputs")
        matrix = self.matrix(perturbation)
        if inputs.ndim == 1:
            if inputs.shape[0] != self.in_features:
                raise ShapeError(f"expected input length {self.in_features}, got {inputs.shape[0]}")
            return matrix @ inputs
        if inputs.ndim == 2:
            if inputs.shape[1] != self.in_features:
                raise ShapeError(
                    f"expected inputs of shape (batch, {self.in_features}), got {inputs.shape}"
                )
            return inputs @ matrix.T
        raise ShapeError(f"inputs must be 1-D or 2-D, got shape {inputs.shape}")

    __call__ = forward

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return (
            f"PhotonicLinearLayer(out={self.out_features}, in={self.in_features}, "
            f"scheme={self.scheme!r}, mzis={self.num_mzis})"
        )
