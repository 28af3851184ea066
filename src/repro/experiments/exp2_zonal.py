"""EXP 2 (Fig. 5) — SPNN accuracy loss under zonal perturbations.

Reproduces the paper's localized-uncertainty experiment: each of the six
unitary multipliers (U and V^H of the three linear layers) is partitioned
into zones of 2x2 MZIs; one zone at a time receives elevated uncertainty
(``sigma = 0.1``) while the whole rest of the network keeps the background
level (``sigma = 0.05``); the diagonal (Sigma) stages are error-free.  For
every zone the mean accuracy loss over the Monte Carlo iterations is
recorded, producing one heatmap per unitary multiplier (Fig. 5a-f).

The qualitative result to reproduce: losses hover around the global-
uncertainty loss, but some zones consistently reduce it while others
exacerbate it, and the critical zones are scattered irregularly — i.e.
criticality depends on device position and tuned values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.monte_carlo import MonteCarloRunner
from ..execution import (
    BackendLike,
    pool_scope,
    resolve_array,
    resolve_backend,
    resolve_network,
    shared_eval_arrays,
    shared_network,
)
from ..mesh.mesh import MZIMesh
from ..mesh.svd_layer import LayerPerturbationBatch
from ..onn.builder import SPNNTask, SPNNTrainingConfig, build_trained_spnn
from ..onn.inference import network_chunk_size
from ..onn.spnn import SPNN, NetworkPerturbationBatch
from ..utils.rng import RNGLike, ensure_rng
from ..utils.serialization import format_table
from ..variation.models import UncertaintyModel
from ..variation.sampler import sample_mesh_perturbation_batch
from ..variation.zones import Zone, ZoneGrid


@dataclass(frozen=True)
class Exp2Config:
    """Configuration of the zonal-perturbation study."""

    zone_sigma: float = 0.10
    background_sigma: float = 0.05
    zone_rows: int = 2
    zone_cols: int = 2
    iterations: int = 1000
    seed: int = 11
    #: Realizations per batched chunk (bounds peak memory, and the work-unit
    #: granularity when sharding across workers); None = the trial's own
    #: working-set hint (``preferred_chunk_size()``).
    chunk_size: Optional[int] = None
    #: Execution backend for each zone's Monte Carlo run: ``workers=N``
    #: shards realization chunks across N processes, bit-identical to serial.
    backend: BackendLike = None
    workers: Optional[int] = None
    #: Training configuration used only when no pre-built task is supplied.
    training: SPNNTrainingConfig = field(default_factory=SPNNTrainingConfig)


@dataclass
class ZonalHeatmap:
    """Accuracy-loss heatmap for one unitary multiplier."""

    mesh_name: str
    zone_shape: Tuple[int, int]
    accuracy_loss: np.ndarray  # (zone_rows, zone_cols), NaN for empty zones
    zone_counts: np.ndarray

    def finite_losses(self) -> np.ndarray:
        return self.accuracy_loss[np.isfinite(self.accuracy_loss)]

    @property
    def max_loss(self) -> float:
        finite = self.finite_losses()
        return float(finite.max()) if finite.size else float("nan")

    @property
    def min_loss(self) -> float:
        finite = self.finite_losses()
        return float(finite.min()) if finite.size else float("nan")

    @property
    def spread(self) -> float:
        return self.max_loss - self.min_loss


@dataclass
class Exp2Result:
    """Zonal heatmaps for all unitary multipliers plus reference numbers."""

    config: Exp2Config
    nominal_accuracy: float
    global_loss: float
    heatmaps: Dict[str, ZonalHeatmap]

    def report(self) -> str:
        headers = ["unitary", "zones", "min loss [%]", "max loss [%]", "spread [%]"]
        rows = []
        for name, heatmap in self.heatmaps.items():
            rows.append(
                [
                    name,
                    int(np.isfinite(heatmap.accuracy_loss).sum()),
                    100.0 * heatmap.min_loss,
                    100.0 * heatmap.max_loss,
                    100.0 * heatmap.spread,
                ]
            )
        header = (
            f"EXP 2 (Fig. 5) — accuracy loss under zonal perturbations "
            f"(zone sigma {self.config.zone_sigma}, background {self.config.background_sigma}, "
            f"{self.config.iterations} MC iterations)\n"
            f"nominal accuracy {100.0 * self.nominal_accuracy:.2f}%, "
            f"global-uncertainty loss at background sigma: {100.0 * self.global_loss:.2f}% "
            "(paper reference: 69.98%)"
        )
        return f"{header}\n{format_table(headers, rows)}"


def _sample_zonal_network_perturbation_batch(
    spnn: SPNN,
    target_mesh_name: str,
    sigma_map: np.ndarray,
    background: UncertaintyModel,
    generators,
) -> NetworkPerturbationBatch:
    """One stacked realization per generator, with a per-MZI sigma map on one mesh.

    Every unitary mesh receives background-level perturbations except the
    target mesh, whose per-MZI sigmas follow ``sigma_map``; Sigma stages are
    left error-free (as in the paper's EXP 2).  Each generator is consumed
    mesh by mesh (U then V^H per layer).
    """
    perturbations: NetworkPerturbationBatch = []
    for layer_index, layer in enumerate(spnn.photonic_layers):
        u_map = sigma_map if f"U_L{layer_index}" == target_mesh_name else None
        v_map = sigma_map if f"VH_L{layer_index}" == target_mesh_name else None
        u_pert = sample_mesh_perturbation_batch(
            layer.mesh_u, background, generators,
            sigma_phs_per_mzi=u_map, sigma_bes_per_mzi=u_map,
        )
        v_pert = sample_mesh_perturbation_batch(
            layer.mesh_v, background, generators,
            sigma_phs_per_mzi=v_map, sigma_bes_per_mzi=v_map,
        )
        perturbations.append(LayerPerturbationBatch(u=u_pert, v=v_pert, sigma=None))
    return perturbations


@dataclass(frozen=True, eq=False)
class ZonalAccuracyBatchTrial:
    """Batched zonal Monte Carlo trial (picklable for process backends)."""

    spnn: object
    features: object
    labels: object
    target_mesh_name: str
    sigma_map: np.ndarray
    background: UncertaintyModel

    def preferred_chunk_size(self) -> int:
        """The network trials' chunk hint (:func:`~repro.onn.inference.network_chunk_size`)."""
        return network_chunk_size(self.spnn)

    def __call__(self, generators) -> np.ndarray:
        generators = list(generators)
        spnn = resolve_network(self.spnn)
        batch = _sample_zonal_network_perturbation_batch(
            spnn, self.target_mesh_name, self.sigma_map, self.background, generators
        )
        return spnn.accuracy_batch(
            resolve_array(self.features),
            resolve_array(self.labels),
            batch,
            batch_size=len(generators),
        )


def run_exp2(
    config: Exp2Config = Exp2Config(),
    task: Optional[SPNNTask] = None,
    rng: RNGLike = None,
    mesh_names: Optional[List[str]] = None,
) -> Exp2Result:
    """Run the EXP 2 zonal study.

    Parameters
    ----------
    config:
        Zone sizes, sigmas and Monte Carlo iterations.
    task:
        Pre-built SPNN task; built from ``config.training`` when omitted.
    rng:
        Seed (defaults to ``config.seed``).
    mesh_names:
        Restrict the study to a subset of the six unitary multipliers
        (useful for fast benchmark runs); defaults to all of them.
    """
    if task is None:
        task = build_trained_spnn(config.training)
    gen = ensure_rng(rng if rng is not None else config.seed)
    spnn = task.spnn
    features, labels = task.test_features, task.test_labels
    # One backend for the whole zone sweep (54 small Monte Carlo runs on the
    # paper architecture); its worker pool survives across zones.
    backend = resolve_backend(config.backend, config.workers)
    runner = MonteCarloRunner(
        iterations=config.iterations,
        chunk_size=config.chunk_size,
        backend=backend,
    )
    background = UncertaintyModel.both(config.background_sigma, perturb_sigma_stage=False)

    nominal_accuracy = spnn.accuracy(features, labels, use_hardware=True)

    # Hosted once per sweep for sharding backends: the eval set and the
    # compiled mesh parameters cross the process boundary per worker, not
    # per chunk (bit-identical results; see repro.execution.shared).
    network_hosting = shared_network(backend, spnn)
    eval_hosting = shared_eval_arrays(backend, features, labels)

    def _run_zonal(target_mesh_name: str, sigma_map: np.ndarray, label: str):
        """One batched Monte Carlo run of the zonal sampler."""
        batch_trial = ZonalAccuracyBatchTrial(
            spnn=hosted_network, features=hosted_features, labels=hosted_labels,
            target_mesh_name=target_mesh_name, sigma_map=sigma_map, background=background,
        )
        return runner.run_batched(batch_trial, rng=gen, label=label)

    with pool_scope(backend), eval_hosting as (hosted_features, hosted_labels), network_hosting as hosted_network:
        # Reference: global uncertainty at the background sigma (Sigma error-free),
        # the number the paper compares every zone against (69.98% loss).
        global_result = _run_zonal("", np.zeros(0), label="global-background")
        global_loss = nominal_accuracy - global_result.mean

        named_meshes = dict(spnn.unitary_meshes())
        if mesh_names is None:
            mesh_names = list(named_meshes.keys())

        heatmaps: Dict[str, ZonalHeatmap] = {}
        for mesh_name in mesh_names:
            if mesh_name not in named_meshes:
                raise KeyError(f"unknown unitary mesh {mesh_name!r}; available: {sorted(named_meshes)}")
            mesh: MZIMesh = named_meshes[mesh_name]
            grid = ZoneGrid(mesh, zone_rows=config.zone_rows, zone_cols=config.zone_cols)
            losses = np.full(grid.shape, np.nan)
            counts = grid.occupancy_matrix()
            for zone in grid.zones():
                sigma_map = grid.sigma_map(zone, config.zone_sigma, config.background_sigma)
                result = _run_zonal(
                    mesh_name, sigma_map, label=f"{mesh_name}[{zone.row_index},{zone.col_index}]"
                )
                losses[zone.row_index, zone.col_index] = nominal_accuracy - result.mean
            heatmaps[mesh_name] = ZonalHeatmap(
                mesh_name=mesh_name,
                zone_shape=grid.shape,
                accuracy_loss=losses,
                zone_counts=counts,
            )
    return Exp2Result(
        config=config,
        nominal_accuracy=nominal_accuracy,
        global_loss=float(global_loss),
        heatmaps=heatmaps,
    )
