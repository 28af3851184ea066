"""Experiment Fig. 3 — layer-level RVD under single-MZI perturbations.

Reproduces the paper's Fig. 3: for four randomly generated 5x5 unitary
matrices compiled onto Clements meshes (10 MZIs each), perturb one MZI at a
time with ``sigma_PhS = sigma_BeS = 0.05`` Gaussian uncertainties, run 1000
Monte Carlo iterations per device, and report the average RVD.  The
qualitative claims to reproduce: the average RVD differs markedly across
MZIs of the same mesh, and the pattern differs across unitaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..analysis.critical import CriticalityReport, per_mzi_rvd_criticality
from ..execution import BackendLike
from ..mesh.mesh import MZIMesh
from ..utils.linalg import random_unitary
from ..utils.rng import RNGLike, ensure_rng
from ..utils.serialization import format_table
from ..variation.models import UncertaintyModel


@dataclass(frozen=True)
class Fig3Config:
    """Configuration of the layer-level RVD study."""

    matrix_size: int = 5
    num_matrices: int = 4
    sigma: float = 0.05
    iterations: int = 1000
    seed: int = 42
    #: Execution backend for the per-MZI study: ``workers=N`` shards the
    #: devices across N processes, bit-identical to serial.
    backend: BackendLike = None
    workers: Optional[int] = None


@dataclass
class Fig3Result:
    """Per-MZI average RVD for every random unitary."""

    config: Fig3Config
    reports: List[CriticalityReport]
    #: The compiled meshes; left out of the JSON output (the RVD table and
    #: the config's seed reproduce them).
    meshes: List[MZIMesh] = field(metadata={"json": False})

    def rvd_table(self) -> np.ndarray:
        """Array of shape ``(num_matrices, num_mzis)`` with the average RVD values."""
        return np.stack([report.as_array() for report in self.reports])

    def spread_per_matrix(self) -> np.ndarray:
        """Max-min average RVD across MZIs, per unitary (non-uniformity evidence)."""
        return np.array([report.spread for report in self.reports])

    def report(self) -> str:
        table = self.rvd_table()
        headers = ["unitary"] + [f"MZI {i + 1}" for i in range(table.shape[1])] + ["spread"]
        rows = []
        for index in range(table.shape[0]):
            rows.append([f"U{index + 1}"] + list(table[index]) + [self.spread_per_matrix()[index]])
        header = (
            f"Fig. 3 — average RVD with one MZI under variations at a time "
            f"(sigma_PhS = sigma_BeS = {self.config.sigma}, {self.config.iterations} MC iterations)"
        )
        return f"{header}\n{format_table(headers, rows)}"


def run_fig3(config: Fig3Config = Fig3Config(), rng: RNGLike = None) -> Fig3Result:
    """Run the single-MZI RVD study on freshly drawn Haar-random unitaries."""
    gen = ensure_rng(rng if rng is not None else config.seed)
    model = UncertaintyModel.both(config.sigma)
    reports: List[CriticalityReport] = []
    meshes: List[MZIMesh] = []
    for _ in range(config.num_matrices):
        unitary = random_unitary(config.matrix_size, rng=gen)
        mesh = MZIMesh.from_unitary(unitary, scheme="clements")
        report = per_mzi_rvd_criticality(
            mesh, model, iterations=config.iterations, rng=gen,
            backend=config.backend, workers=config.workers,
        )
        reports.append(report)
        meshes.append(mesh)
    return Fig3Result(config=config, reports=reports, meshes=meshes)
