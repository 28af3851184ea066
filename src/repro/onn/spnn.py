"""System-level SPNN model: trained software network + photonic hardware twin.

The paper's SPNN (§III-D) is a fully connected feedforward network with two
hidden layers of 16 complex-valued neurons:

* input features: 16 complex values (4x4 center crop of the shifted FFT),
* linear layers of sizes 16x16, 16x16 and 16x10, each realized in hardware
  as ``U @ Sigma @ V^H`` MZI meshes (Clements design) with a gain stage,
* the non-linear Softplus applied to the modulus after each hidden linear
  layer,
* a squared-modulus intensity measurement after the output layer, followed
  by LogSoftMax.

:class:`SPNN` owns both views of this network: the *software* view (the
complex weight matrices, as trained) and the *hardware* view (the compiled
meshes), and evaluates inference through either one — with or without
uncertainty realizations — so that the accuracy impact of variations can be
measured exactly as in the paper's EXP 1 / EXP 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arrays import kernels as _kernels
from ..exceptions import ConfigurationError, ShapeError
from ..mesh.svd_layer import LayerPerturbation, LayerPerturbationBatch, PhotonicLinearLayer
from ..utils.validation import as_complex_array

#: Network perturbation: one entry per linear layer (None = that layer ideal).
NetworkPerturbation = List[Optional[LayerPerturbation]]

#: Batched network perturbation: one stacked entry per linear layer
#: (None = that layer ideal in every realization).
NetworkPerturbationBatch = List[Optional[LayerPerturbationBatch]]

#: Activation bytes of one forward sub-chunk of :meth:`SPNN.accuracy_batch`
#: (complex128 at the widest layer): small enough that a sub-chunk's
#: activations stay cache-resident from one layer pass to the next.
FORWARD_CHUNK_BYTES = 512 * 1024


def stack_network_perturbations(
    realizations: Sequence[NetworkPerturbation],
) -> NetworkPerturbationBatch:
    """Stack per-iteration network perturbations into a leading batch axis.

    ``realizations[b][l]`` is realization ``b`` of layer ``l``; the result
    has one :class:`LayerPerturbationBatch` per layer (or ``None`` when the
    layer is unperturbed in every realization).
    """
    realizations = list(realizations)
    if not realizations:
        raise ValueError("cannot stack an empty sequence of network perturbations")
    num_layers = len(realizations[0])
    if any(len(r) != num_layers for r in realizations):
        raise ShapeError("all network perturbations must cover the same number of layers")
    batch: NetworkPerturbationBatch = []
    for layer_index in range(num_layers):
        stages = [r[layer_index] for r in realizations]
        if all(stage is None for stage in stages):
            batch.append(None)
        else:
            batch.append(
                LayerPerturbationBatch.stack(
                    [stage if stage is not None else LayerPerturbation.none() for stage in stages]
                )
            )
    return batch


@dataclass(frozen=True)
class SPNNArchitecture:
    """Architecture of the paper's SPNN.

    Parameters
    ----------
    layer_dims:
        Neuron counts per layer including input and output, e.g.
        ``(16, 16, 16, 10)`` for the paper's two-hidden-layer network.
    softplus_beta:
        Sharpness of the modulus-Softplus activation.
    scheme:
        Mesh topology used when compiling to hardware.
    """

    layer_dims: Tuple[int, ...] = (16, 16, 16, 10)
    softplus_beta: float = 1.0
    scheme: str = "clements"

    def __post_init__(self) -> None:
        if len(self.layer_dims) < 2:
            raise ConfigurationError("layer_dims must contain at least input and output sizes")
        if any(d < 1 for d in self.layer_dims):
            raise ConfigurationError(f"all layer dimensions must be >= 1, got {self.layer_dims}")
        if self.softplus_beta <= 0:
            raise ConfigurationError(f"softplus_beta must be positive, got {self.softplus_beta}")

    @property
    def num_linear_layers(self) -> int:
        return len(self.layer_dims) - 1

    @property
    def input_size(self) -> int:
        return self.layer_dims[0]

    @property
    def output_size(self) -> int:
        return self.layer_dims[-1]

    def weight_shapes(self) -> List[Tuple[int, int]]:
        """``(out, in)`` shapes of every linear layer."""
        return [
            (self.layer_dims[i + 1], self.layer_dims[i]) for i in range(self.num_linear_layers)
        ]


class SPNN:
    """Silicon-photonic neural network: weights plus compiled MZI hardware.

    Parameters
    ----------
    weights:
        Complex weight matrices, one per linear layer, each of shape
        ``(out, in)`` and consistent with ``architecture.layer_dims``.
    architecture:
        Network architecture description.
    compile_hardware:
        When ``True`` (default) the weight matrices are immediately
        decomposed onto MZI meshes.  Pass ``False`` to delay compilation
        (e.g. while the software model is still being trained) and call
        :meth:`compile` later.
    """

    def __init__(
        self,
        weights: Sequence[np.ndarray],
        architecture: SPNNArchitecture = SPNNArchitecture(),
        compile_hardware: bool = True,
    ):
        expected_shapes = architecture.weight_shapes()
        if len(weights) != len(expected_shapes):
            raise ConfigurationError(
                f"expected {len(expected_shapes)} weight matrices, got {len(weights)}"
            )
        self.architecture = architecture
        self.weights: List[np.ndarray] = []
        for index, (weight, shape) in enumerate(zip(weights, expected_shapes)):
            weight = as_complex_array(weight, f"weights[{index}]")
            if weight.shape != shape:
                raise ShapeError(
                    f"weights[{index}] must have shape {shape}, got {weight.shape}"
                )
            self.weights.append(weight.copy())
        self.photonic_layers: List[PhotonicLinearLayer] = []
        if compile_hardware:
            self.compile()

    # ------------------------------------------------------------------ #
    # hardware compilation
    # ------------------------------------------------------------------ #
    def compile(self) -> "SPNN":
        """Decompose every weight matrix onto MZI meshes (idempotent)."""
        self.photonic_layers = [
            PhotonicLinearLayer(weight, scheme=self.architecture.scheme) for weight in self.weights
        ]
        return self

    @property
    def is_compiled(self) -> bool:
        return len(self.photonic_layers) == len(self.weights)

    def _require_compiled(self) -> None:
        if not self.is_compiled:
            raise ConfigurationError("SPNN hardware is not compiled; call compile() first")

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    @property
    def num_linear_layers(self) -> int:
        return len(self.weights)

    def hardware_summary(self) -> Dict[str, int]:
        """MZI and phase-shifter counts across the whole network.

        For the paper's (16, 16, 16, 10) architecture this reports 687 MZIs
        and 1374 tunable phase shifters, matching the number quoted in the
        abstract.
        """
        self._require_compiled()
        total_mzis = sum(layer.num_mzis for layer in self.photonic_layers)
        per_layer = [layer.hardware_summary() for layer in self.photonic_layers]
        return {
            "num_linear_layers": self.num_linear_layers,
            "total_mzis": total_mzis,
            "total_phase_shifters": 2 * total_mzis,
            "unitary_mzis": sum(p["u_mzis"] + p["v_mzis"] for p in per_layer),
            "sigma_mzis": sum(p["sigma_mzis"] for p in per_layer),
        }

    def unitary_meshes(self) -> List[Tuple[str, "object"]]:
        """The six unitary multipliers with their paper-style names.

        Returns pairs like ``("U_L0", mesh)`` / ``("VH_L0", mesh)`` in layer
        order — the objects indexed by the EXP 2 heatmaps (Fig. 5a-f).
        """
        self._require_compiled()
        named = []
        for index, layer in enumerate(self.photonic_layers):
            named.append((f"U_L{index}", layer.mesh_u))
            named.append((f"VH_L{index}", layer.mesh_v))
        return named

    # ------------------------------------------------------------------ #
    # inference: software (ideal weights)
    # ------------------------------------------------------------------ #
    def forward_software(self, features: np.ndarray) -> np.ndarray:
        """Log-probabilities using the ideal (trained) weight matrices."""
        return self._forward_with_matrices(features, self.weights)

    # ------------------------------------------------------------------ #
    # inference: hardware (compiled meshes, optional uncertainties)
    # ------------------------------------------------------------------ #
    def hardware_matrices(
        self, perturbations: Optional[NetworkPerturbation] = None
    ) -> List[np.ndarray]:
        """The matrices the hardware implements under a perturbation realization."""
        self._require_compiled()
        if perturbations is None:
            perturbations = [None] * self.num_linear_layers
        if len(perturbations) != self.num_linear_layers:
            raise ConfigurationError(
                f"expected {self.num_linear_layers} layer perturbations, got {len(perturbations)}"
            )
        return [
            layer.matrix(perturbation)
            for layer, perturbation in zip(self.photonic_layers, perturbations)
        ]

    def forward_hardware(
        self,
        features: np.ndarray,
        perturbations: Optional[NetworkPerturbation] = None,
    ) -> np.ndarray:
        """Log-probabilities using the compiled hardware (optionally perturbed)."""
        matrices = self.hardware_matrices(perturbations)
        return self._forward_with_matrices(features, matrices)

    # ------------------------------------------------------------------ #
    # inference: batched hardware (B uncertainty realizations at once)
    # ------------------------------------------------------------------ #
    def hardware_matrices_batch(
        self,
        perturbations: Optional[NetworkPerturbationBatch] = None,
        batch_size: Optional[int] = None,
    ) -> List[np.ndarray]:
        """Per-layer hardware matrices for ``B`` realizations, each ``(B, out, in)``."""
        self._require_compiled()
        if perturbations is None:
            perturbations = [None] * self.num_linear_layers
        if len(perturbations) != self.num_linear_layers:
            raise ConfigurationError(
                f"expected {self.num_linear_layers} layer perturbations, got {len(perturbations)}"
            )
        if batch_size is None:
            for perturbation in perturbations:
                if perturbation is not None:
                    batch_size = perturbation.batch_size
                    break
            else:
                raise ValueError("batch_size is required when every layer perturbation is None")
        return [
            layer.matrix_batch(perturbation, batch_size=batch_size)
            for layer, perturbation in zip(self.photonic_layers, perturbations)
        ]

    def forward_hardware_batch(
        self,
        features: np.ndarray,
        perturbations: Optional[NetworkPerturbationBatch] = None,
        batch_size: Optional[int] = None,
    ) -> np.ndarray:
        """Log-probabilities for ``B`` uncertainty realizations at once.

        Parameters
        ----------
        features:
            Evaluation set of shape ``(samples, input_size)`` (or a single
            1-D feature vector), shared by every realization.
        perturbations:
            One stacked perturbation per layer (``None`` = ideal layer);
            produced by :func:`stack_network_perturbations` or the
            ``*_batch`` samplers.
        batch_size:
            Required when ``perturbations`` is ``None`` or all-``None``.

        Returns
        -------
        numpy.ndarray
            Log-probabilities of shape ``(B, samples, output_size)``,
            bit-identical to stacking ``B`` :meth:`forward_hardware` calls
            on the individual realizations.
        """
        matrices = self.hardware_matrices_batch(perturbations, batch_size=batch_size)
        return self._forward_batch_with_matrices(self._validated_features(features), matrices)

    def _validated_features(self, features: np.ndarray) -> np.ndarray:
        features = as_complex_array(features, "features")
        if features.ndim == 1:
            features = features[np.newaxis, :]
        if features.ndim != 2 or features.shape[1] != self.architecture.input_size:
            raise ShapeError(
                f"features must have shape (batch, {self.architecture.input_size}), got {features.shape}"
            )
        return features

    def _forward_batch_with_matrices(
        self, features: np.ndarray, matrices: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Forward pass of validated ``(samples, n)`` features through stacked matrices."""
        modulus = self._modulus_batch_with_matrices(features, matrices)
        return _kernels.log_softmax(modulus**2)

    def _modulus_batch_with_matrices(
        self, features: np.ndarray, matrices: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Batched counterpart of :meth:`_modulus_with_matrices`, ``(B, samples, out)``.

        Each realization's layer product is the very BLAS call of the
        single-realization path (the stacked matmul loops over the leading
        axis with the same operand layouts), which keeps the two
        bit-identical on every shape.  Carrying the activations
        feature-major, or stacking products across realizations, changes
        which BLAS micro-kernel computes an entry and with it the last bit.
        Buffers are fresh per call and Softplus runs in place over the
        modulus.
        """
        beta = self.architecture.softplus_beta
        activations = features  # (samples, n) broadcasts over B
        for matrix in matrices[:-1]:
            modulus = np.abs(_kernels.matmul_transposed(activations, matrix))
            activations = _kernels.softplus(modulus, beta=beta, out=modulus)
        return np.abs(_kernels.matmul_transposed(activations, matrices[-1]))

    def accuracy_batch(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        perturbations: Optional[NetworkPerturbationBatch] = None,
        batch_size: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> np.ndarray:
        """Classification accuracy per realization, shape ``(B,)``.

        The perturbed hardware matrices are evaluated for the whole batch at
        once (they are small), while the forward pass over the evaluation
        set runs in sub-chunks of ``chunk_size`` realizations so the
        activations stay cache-resident; the size is picked from
        :data:`FORWARD_CHUNK_BYTES` when omitted.  Chunking does not change
        the results.
        """
        if chunk_size is not None and (
            isinstance(chunk_size, bool) or not isinstance(chunk_size, Integral) or chunk_size < 1
        ):
            raise ValueError(f"chunk_size must be a positive integer, got {chunk_size!r}")
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
        if labels.size == 0:
            raise ConfigurationError("cannot compute accuracy on an empty dataset")
        features = self._validated_features(features)
        if features.shape[0] != labels.shape[0]:
            raise ShapeError(
                f"features batch {features.shape[0]} does not match labels {labels.shape}"
            )
        matrices = self.hardware_matrices_batch(perturbations, batch_size=batch_size)
        batch = int(matrices[0].shape[0])
        if chunk_size is None:
            chunk_size = self._forward_chunk_size(features.shape[0])
        accuracies = np.empty(batch, dtype=np.float64)
        for start in range(0, batch, chunk_size):
            stop = min(start + chunk_size, batch)
            # argmax over the output modulus equals argmax over the published
            # log-probabilities (see _modulus_with_matrices), so the
            # normalization is skipped on this hot path.
            modulus = self._modulus_batch_with_matrices(
                features, [matrix[start:stop] for matrix in matrices]
            )
            predictions = np.argmax(modulus, axis=-1)
            accuracies[start:stop] = np.mean(predictions == labels[None, :], axis=1)
        return accuracies

    def _forward_chunk_size(self, num_samples: int) -> int:
        """Realizations per forward sub-chunk (activations near :data:`FORWARD_CHUNK_BYTES`)."""
        width = max(self.architecture.layer_dims)
        bytes_per_realization = max(1, num_samples) * width * 16  # complex128
        return max(1, FORWARD_CHUNK_BYTES // bytes_per_realization)

    # ------------------------------------------------------------------ #
    # shared forward pass
    # ------------------------------------------------------------------ #
    def _forward_with_matrices(self, features: np.ndarray, matrices: Sequence[np.ndarray]) -> np.ndarray:
        single = np.asarray(features).ndim == 1
        modulus = self._modulus_with_matrices(self._validated_features(features), matrices)
        log_probs = _kernels.log_softmax(modulus**2)
        return log_probs[0] if single else log_probs

    def _modulus_with_matrices(self, features: np.ndarray, matrices: Sequence[np.ndarray]) -> np.ndarray:
        """Output-field modulus of validated ``(samples, n)`` features.

        The modulus is the monotonic core of the readout: the published
        log-probabilities are ``log_softmax(modulus**2)``, and both squaring
        and log-softmax preserve per-row ``argmax`` exactly (floating-point
        squaring of non-negative values and subtracting a per-row constant
        are monotone), so prediction/accuracy helpers can consume the
        modulus directly and skip the normalization work.
        """
        activations = features
        last = len(matrices) - 1
        for index, matrix in enumerate(matrices):
            activations = _kernels.matmul_transposed(activations, matrix)
            if index != last:
                modulus = np.abs(activations)
                activations = _kernels.softplus(modulus, beta=self.architecture.softplus_beta)
        return np.abs(activations)

    # ------------------------------------------------------------------ #
    # prediction / accuracy helpers
    # ------------------------------------------------------------------ #
    def predict(
        self,
        features: np.ndarray,
        perturbations: Optional[NetworkPerturbation] = None,
        use_hardware: bool = True,
    ) -> np.ndarray:
        """Predicted class indices.

        Returns a ``(batch,)`` array for 2-D features and a scalar (0-D
        array) for a single 1-D feature vector, mirroring the shape
        convention of the forward passes.
        """
        if use_hardware:
            log_probs = self.forward_hardware(features, perturbations)
        else:
            log_probs = self.forward_software(features)
        return np.argmax(log_probs, axis=-1)

    def accuracy(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        perturbations: Optional[NetworkPerturbation] = None,
        use_hardware: bool = True,
    ) -> float:
        """Classification accuracy on ``(features, labels)``.

        Accepts a scalar label together with a single 1-D feature vector.
        """
        labels = np.asarray(labels, dtype=np.int64)
        single = np.asarray(features).ndim == 1
        matrices: Sequence[np.ndarray] = (
            self.hardware_matrices(perturbations) if use_hardware else self.weights
        )
        modulus = self._modulus_with_matrices(self._validated_features(features), matrices)
        # argmax over the modulus equals argmax over the log-probabilities
        # (see _modulus_with_matrices), matching predict() exactly.
        predictions = np.argmax(modulus, axis=-1)
        if single:
            predictions = predictions[0]
        if np.ndim(predictions) == 0 and labels.shape == (1,):
            predictions = np.asarray(predictions)[np.newaxis]
        if np.shape(predictions) != labels.shape:
            raise ShapeError(
                f"predictions shape {np.shape(predictions)} does not match labels {labels.shape}"
            )
        if labels.size == 0:
            raise ConfigurationError("cannot compute accuracy on an empty dataset")
        return float(np.mean(predictions == labels))

    def hardware_fidelity(self) -> float:
        """Max |difference| between nominal hardware matrices and the weights."""
        self._require_compiled()
        return max(layer.reconstruction_error() for layer in self.photonic_layers)

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return (
            f"SPNN(layer_dims={self.architecture.layer_dims}, "
            f"compiled={self.is_compiled})"
        )
