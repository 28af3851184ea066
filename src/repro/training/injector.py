"""Noise injection: turning variation models into training-time weight noise.

The Monte Carlo experiments perturb a *finished* network; noise-aware
training needs the same perturbations *while the weights are still moving*.
:class:`NoiseInjector` bridges the two worlds: it periodically compiles the
current software weights onto photonic hardware (SVD + Clements, exactly the
mapping the finished network will undergo), draws ``K`` perturbation
realizations per training step from the existing :mod:`repro.variation`
models, and hands back the *effective weight offsets*

.. math::

    \\Delta W_k = M(\\text{hardware} \\mid \\text{perturbation}_k) - M(\\text{hardware} \\mid \\text{nominal})

so the trainer can optimize the expected loss over the hardware the weights
will actually become.  The offsets are stacked along a leading batch axis
``(K, out, in)`` — the same vectorization the batched Monte Carlo engine
uses — so one forward pass evaluates all ``K`` draws at once.

Reproducibility: the injector consumes its own generator through
:func:`repro.utils.rng.spawn_rngs` (one child stream per draw, exactly like
the Monte Carlo engine), so a fixed seed reproduces the injected noise
sequence bit for bit no matter how the surrounding evaluation is scheduled.

The draws are the paper's i.i.d. Gaussian model
(:func:`~repro.variation.sampler.sample_network_perturbation_batch`), the
same static sampler the Monte Carlo engine uses.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..mesh.svd_layer import LayerPerturbationBatch, PhotonicLinearLayer
from ..utils.rng import RNGLike, ensure_rng, spawn_rngs
from ..variation.models import UncertaintyModel
from ..variation.sampler import sample_network_perturbation_batch
from .workspace import VectorizedWorkspace


class NoiseInjector:
    """Draws training-time weight offsets from a hardware variation model.

    Parameters
    ----------
    model:
        Base component-level uncertainty model (the *target* sigma; the
        per-epoch schedule scales it).
    draws:
        Number of perturbation realizations ``K`` per training step.  The
        trainer averages the loss over the draws, giving a ``K``-sample
        estimator of the expected loss under variations.
    recompile_every:
        Training steps between hardware recompilations of the moving
        weights (SVD + mesh decomposition, the expensive part).  1 tracks
        the weights exactly; larger values reuse the perturbation geometry
        of a slightly stale snapshot — the offsets stay well-calibrated
        because the decomposition changes slowly between optimizer steps.
    scheme:
        Mesh topology used for the snapshot compilation.
    rng:
        Seed or generator for the injected noise (independent of the
        trainer's batch-shuffling stream).
    incremental:
        Recompile snapshots **incrementally**: instead of rebuilding every
        :class:`~repro.mesh.svd_layer.PhotonicLinearLayer` from scratch,
        the cached layers are warm-started in place
        (:meth:`~repro.mesh.svd_layer.PhotonicLinearLayer.retune_from_weight`:
        rotation-updated SVD in the cached basis + trusted fast Clements
        phase re-nulling + structural reuse).  Every incremental recompile
        is validated by reconstruction (``<= 1e-7``) and falls back to the
        exact path when the warm start diverges; ``drift_threshold``
        additionally promotes a refresh to an exact recompile when the
        weights jumped far since the previous snapshot (warm starts are
        built for the small moves between optimizer steps).  Off by
        default — the
        incremental snapshot is numerically equivalent but not bit-identical
        to a fresh compile, so the default training path stays byte-stable.
    drift_threshold:
        Maximum relative Frobenius move ``|W - W_snapshot| / |W_snapshot|``
        since the previous snapshot (the worst layer counts) tolerated
        before an incremental refresh is promoted to an exact one.
    reuse_draws:
        Amortize the ``K`` perturbation draws over the recompile window:
        the offsets depend only on the compiled snapshot and the scheduled
        sigma — not on the minibatch — so one draw per window is a valid
        estimator of the same expected loss with the per-step sampling and
        stacked mesh evaluation removed.  The cache is invalidated by every
        recompile; a sigma-scale change (a
        :class:`~repro.training.schedule.PerturbationSchedule` epoch
        boundary) rescales the cached draws in place (the Gaussian
        perturbations are exactly proportional to the jointly scaled
        sigmas).  Off by default (fresh draws every step).  In this mode the returned
        offset arrays are owned by the injector and valid until the next
        ``weight_offsets`` call.
    workspace:
        Optional :class:`~repro.training.workspace.VectorizedWorkspace`
        supplying reusable offset buffers on the non-amortized path
        (amortized draws already recycle their own cache).  Purely an
        allocation optimization; values are bit-identical.
    """

    def __init__(
        self,
        model: UncertaintyModel,
        draws: int = 1,
        recompile_every: int = 1,
        scheme: str = "clements",
        rng: RNGLike = None,
        incremental: bool = False,
        drift_threshold: float = 1.0,
        reuse_draws: bool = False,
        workspace: Optional[VectorizedWorkspace] = None,
    ):
        if draws < 1:
            raise ConfigurationError(f"draws must be >= 1, got {draws}")
        if recompile_every < 1:
            raise ConfigurationError(f"recompile_every must be >= 1, got {recompile_every}")
        if drift_threshold <= 0:
            raise ConfigurationError(f"drift_threshold must be positive, got {drift_threshold}")
        self.model = model
        self.draws = int(draws)
        self.recompile_every = int(recompile_every)
        self.scheme = scheme
        self.rng = ensure_rng(rng)
        self.incremental = bool(incremental)
        self.drift_threshold = float(drift_threshold)
        self.reuse_draws = bool(reuse_draws)
        self.workspace = workspace
        self._layers: List[PhotonicLinearLayer] = []
        self._nominal: List[np.ndarray] = []
        self._steps_since_compile: Optional[int] = None  # None = no snapshot yet
        #: Weights of the previous snapshot (the drift-threshold anchor).
        self._anchor_weights: List[np.ndarray] = []
        # Amortized-draw cache: offsets + the perturbation batches that
        # produced them, keyed by the sigma scale they were drawn at.
        self._cached_offsets: Optional[List[np.ndarray]] = None
        self._cached_batches: Optional[List[Optional[LayerPerturbationBatch]]] = None
        self._cached_scale: Optional[float] = None
        #: Exact recompiles / warm recompiles performed (observability).
        self.exact_recompiles = 0
        self.incremental_recompiles = 0

    # ------------------------------------------------------------------ #
    # snapshot management
    # ------------------------------------------------------------------ #
    @property
    def snapshot_layers(self) -> List[PhotonicLinearLayer]:
        """The photonic layers of the current hardware snapshot (may be empty)."""
        return list(self._layers)

    def refresh_snapshot(self, weights: Sequence[np.ndarray]) -> None:
        """Recompile the hardware snapshot from the given weight matrices."""
        self._layers = [PhotonicLinearLayer(weight, scheme=self.scheme) for weight in weights]
        self._nominal = [layer.ideal_matrix() for layer in self._layers]
        self._steps_since_compile = 0
        self._anchor_weights = [np.array(weight, dtype=np.complex128, copy=True) for weight in weights]
        self._invalidate_draw_cache()
        self.exact_recompiles += 1

    def _relative_drift(self, weights: Sequence[np.ndarray]) -> float:
        """Worst-layer relative Frobenius move since the previous snapshot."""
        drift = 0.0
        for weight, anchor in zip(weights, self._anchor_weights):
            denominator = float(np.linalg.norm(anchor))
            if denominator == 0.0:
                return float("inf")
            drift = max(drift, float(np.linalg.norm(weight - anchor)) / denominator)
        return drift

    def _refresh_snapshot_incremental(self, weights: Sequence[np.ndarray]) -> None:
        """Warm-start the cached layers in place; exact recompile on any doubt."""
        if (
            len(self._layers) != len(weights)
            or not self._anchor_weights
            or any(
                layer.weight.shape != np.shape(weight)
                for layer, weight in zip(self._layers, weights)
            )
            or self._relative_drift(weights) > self.drift_threshold
        ):
            self.refresh_snapshot(weights)
            return
        for layer, weight in zip(self._layers, weights):
            if not layer.retune_from_weight(weight):
                # The warm start diverged; rebuild the whole snapshot
                # exactly (retune leaves the failed layer unspecified).
                self.refresh_snapshot(weights)
                return
        self._nominal = [layer.ideal_matrix() for layer in self._layers]
        self._steps_since_compile = 0
        self._anchor_weights = [np.array(weight, dtype=np.complex128, copy=True) for weight in weights]
        self._invalidate_draw_cache()
        self.incremental_recompiles += 1

    def _maybe_refresh(self, weights: Sequence[np.ndarray]) -> None:
        if (
            self._steps_since_compile is None
            or self._steps_since_compile >= self.recompile_every
            or len(self._layers) != len(weights)
        ):
            if self.incremental and self._steps_since_compile is not None:
                self._refresh_snapshot_incremental(weights)
            else:
                self.refresh_snapshot(weights)

    # ------------------------------------------------------------------ #
    # amortized-draw cache
    # ------------------------------------------------------------------ #
    def _invalidate_draw_cache(self) -> None:
        self._cached_offsets = None
        self._cached_batches = None
        self._cached_scale = None

    # ------------------------------------------------------------------ #
    # offset sampling
    # ------------------------------------------------------------------ #
    def weight_offsets(
        self, weights: Sequence[np.ndarray], sigma_scale: float = 1.0
    ) -> Optional[List[np.ndarray]]:
        """``K`` stacked effective-weight offsets per layer, or ``None``.

        Parameters
        ----------
        weights:
            Current software weight matrices, one per linear layer.
        sigma_scale:
            Schedule multiplier applied to the base model's sigmas; 0 (or a
            null base model) skips the draw entirely and returns ``None``
            (train this step noise-free).

        Returns
        -------
        list of numpy.ndarray or None
            One ``(K, out, in)`` complex offset array per layer: realization
            ``k`` of layer ``l`` is ``perturbed_matrix - nominal_matrix`` of
            the current hardware snapshot, to be *added* to the live weight.
        """
        if sigma_scale < 0:
            raise ConfigurationError(f"sigma_scale must be non-negative, got {sigma_scale}")
        scaled = self.model.with_sigma(
            self.model.sigma_phs * sigma_scale, self.model.sigma_bes * sigma_scale
        )
        if sigma_scale == 0.0 or scaled.is_null:
            # Still age the snapshot so the recompile cadence counts real
            # optimizer steps, not just noisy ones (a ramp's early epochs
            # must not freeze the snapshot at the initial weights).
            if self._steps_since_compile is not None:
                self._steps_since_compile += 1
            return None
        self._maybe_refresh(weights)
        offsets = self._resolve_offsets(scaled, sigma_scale)
        self._steps_since_compile += 1
        return offsets

    def _resolve_offsets(self, scaled: UncertaintyModel, sigma_scale: float) -> List[np.ndarray]:
        """The per-step offsets: fresh, cached or rescaled draws."""
        if not self.reuse_draws:
            return self._draw_offsets(scaled, use_workspace=True)
        if self._cached_offsets is not None and sigma_scale == self._cached_scale:
            # Same window, same schedule level: the draws only depend on the
            # snapshot and the sigma, both unchanged — reuse them verbatim.
            return self._cached_offsets
        if self._cached_offsets is not None:
            # A new schedule level: the Gaussian fields are exactly linear in
            # the jointly scaled sigmas, so rescaling the cached draws equals
            # drawing the same standard normals at the new level.
            self._rescale_draw_cache(sigma_scale / self._cached_scale)
            self._cached_scale = float(sigma_scale)
            return self._cached_offsets
        # New window: one fresh draw serves every step until the next
        # recompile.
        batches = self._sample_batches(scaled)
        self._cached_batches = batches
        self._cached_offsets = self._offsets_from_batches(batches, use_workspace=False)
        self._cached_scale = float(sigma_scale)
        return self._cached_offsets

    # ------------------------------------------------------------------ #
    # draw internals
    # ------------------------------------------------------------------ #
    def _sample_batches(self, scaled: UncertaintyModel) -> List[Optional[LayerPerturbationBatch]]:
        generators = spawn_rngs(self.rng, self.draws)
        return sample_network_perturbation_batch(self._layers, scaled, generators)

    def _offsets_from_batches(
        self,
        batches: Sequence[Optional[LayerPerturbationBatch]],
        use_workspace: bool,
    ) -> List[np.ndarray]:
        offsets: List[np.ndarray] = []
        workspace = self.workspace if use_workspace else None
        for index, (layer, nominal, batch) in enumerate(zip(self._layers, self._nominal, batches)):
            if workspace is not None:
                out = workspace.buffer(
                    ("injector/offsets", index), (self.draws,) + nominal.shape, np.complex128
                )
                if batch is None:
                    out[...] = 0.0
                else:
                    np.subtract(layer.matrix_batch(batch, batch_size=self.draws), nominal, out=out)
                offsets.append(out)
            elif batch is None:
                offsets.append(np.zeros((self.draws,) + nominal.shape, dtype=np.complex128))
            else:
                offsets.append(layer.matrix_batch(batch, batch_size=self.draws) - nominal)
        return offsets

    def _draw_offsets(self, scaled: UncertaintyModel, use_workspace: bool) -> List[np.ndarray]:
        return self._offsets_from_batches(self._sample_batches(scaled), use_workspace)

    def _rescale_draw_cache(self, ratio: float) -> None:
        """Scale the cached perturbation batches in place and re-evaluate."""
        for batch in self._cached_batches:
            if batch is None:
                continue
            for stage in (batch.u, batch.v, batch.sigma):
                if stage is not None:
                    stage.scale_in_place(ratio)
        for index, (layer, nominal, batch) in enumerate(
            zip(self._layers, self._nominal, self._cached_batches)
        ):
            if batch is None:
                self._cached_offsets[index][...] = 0.0
            else:
                np.subtract(
                    layer.matrix_batch(batch, batch_size=self.draws),
                    nominal,
                    out=self._cached_offsets[index],
                )

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return (
            f"NoiseInjector(draws={self.draws}, recompile_every={self.recompile_every}, "
            f"sigma_phs={self.model.sigma_phs}, sigma_bes={self.model.sigma_bes}, "
            f"incremental={self.incremental}, reuse_draws={self.reuse_draws})"
        )
