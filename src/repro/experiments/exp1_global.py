"""EXP 1 (Fig. 4) — SPNN accuracy under global random uncertainties.

Reproduces the paper's system-level experiment: sweep the normalized
uncertainty level ``sigma`` and, for each value, run Monte Carlo iterations
where every MZI of the SPNN receives Gaussian perturbations; record the mean
inferencing accuracy on the test set.  Three cases are evaluated, exactly as
in the paper:

* ``"phs"``  — uncertainties only in the phase shifters (sigma_BeS = 0),
* ``"bes"``  — uncertainties only in the beam splitters (sigma_PhS = 0),
* ``"both"`` — equal normalized uncertainties in both component families.

Headline numbers from the paper to compare against (synthetic-data shapes,
see EXPERIMENTS.md): accuracy collapses steeply with sigma, saturating below
the 10% random-guess level around sigma ~ 0.075, the loss at sigma = 0.05
(both) is ~70%, and phase-shifter uncertainties hurt more than beam-splitter
uncertainties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis import monte_carlo
from ..analysis.monte_carlo import MonteCarloResult
from ..analysis.statistics import summarize
from ..execution import BackendLike, resolve_backend
from ..onn.builder import SPNNTask, SPNNTrainingConfig, build_trained_spnn
from ..onn.inference import NetworkAccuracyBatchTrial
from ..onn.spnn import SPNN
from ..utils.rng import RNGLike, ensure_rng, spawn_slice
from ..utils.serialization import format_table
from ..variation.models import UncertaintyModel

#: The three component-uncertainty cases of EXP 1.
EXP1_CASES = ("phs", "bes", "both")

#: Default sigma sweep (the paper sweeps 0.005 ... 0.15 and plots 0 ... 0.15).
DEFAULT_SIGMAS = (0.0, 0.005, 0.01, 0.025, 0.05, 0.075, 0.1, 0.15)


def uncertainty_model_for_case(case: str, sigma: float, perturb_sigma_stage: bool = True) -> UncertaintyModel:
    """Build the :class:`UncertaintyModel` for one EXP 1 case at one sigma."""
    return UncertaintyModel.for_case(case, sigma, perturb_sigma_stage=perturb_sigma_stage)


@dataclass(frozen=True)
class Exp1Config:
    """Configuration of the global-uncertainty sweep."""

    sigmas: Tuple[float, ...] = DEFAULT_SIGMAS
    cases: Tuple[str, ...] = EXP1_CASES
    iterations: int = 1000
    perturb_sigma_stage: bool = True
    seed: int = 7
    #: Realizations per batched chunk (bounds peak memory, and the work-unit
    #: granularity when sharding across workers); None = the trial's own
    #: working-set hint (``preferred_chunk_size()``).
    chunk_size: Optional[int] = None
    #: Execution backend for each (case, sigma) Monte Carlo run: ``workers=N``
    #: shards realization chunks across N processes, bit-identical to serial.
    backend: BackendLike = None
    workers: Optional[int] = None
    #: Training configuration used only when no pre-built task is supplied.
    training: SPNNTrainingConfig = field(default_factory=SPNNTrainingConfig)


@dataclass
class Exp1Result:
    """Mean accuracy per (case, sigma) plus the nominal accuracy."""

    config: Exp1Config
    nominal_accuracy: float
    results: Dict[str, List[MonteCarloResult]]

    def mean_accuracy(self, case: str) -> np.ndarray:
        """Mean accuracy per sigma for one case (same order as ``config.sigmas``)."""
        return np.array([r.mean for r in self.results[case]])

    def accuracy_loss(self, case: str) -> np.ndarray:
        """Accuracy loss (nominal minus mean accuracy) per sigma, in fraction."""
        return self.nominal_accuracy - self.mean_accuracy(case)

    def loss_at_sigma(self, case: str, sigma: float) -> float:
        """Accuracy loss for one case at the closest swept sigma value."""
        sigmas = np.asarray(self.config.sigmas)
        index = int(np.argmin(np.abs(sigmas - sigma)))
        return float(self.accuracy_loss(case)[index])

    def saturation_sigma(self, case: str, threshold: float = 0.10) -> Optional[float]:
        """Smallest swept sigma at which the mean accuracy falls below ``threshold``."""
        means = self.mean_accuracy(case)
        for sigma, mean in zip(self.config.sigmas, means):
            if mean < threshold:
                return float(sigma)
        return None

    def report(self) -> str:
        """Table of mean accuracy [%] per case and sigma (the Fig. 4 series)."""
        headers = ["sigma"] + [f"acc_{case} [%]" for case in self.config.cases]
        rows = []
        for index, sigma in enumerate(self.config.sigmas):
            row = [sigma]
            for case in self.config.cases:
                row.append(100.0 * self.results[case][index].mean)
            rows.append(row)
        header = (
            f"EXP 1 (Fig. 4) — mean SPNN accuracy vs sigma "
            f"({self.config.iterations} MC iterations, nominal accuracy "
            f"{100.0 * self.nominal_accuracy:.2f}%)"
        )
        footer_lines = []
        if "both" in self.config.cases:
            footer_lines.append(
                f"accuracy loss at sigma=0.05 (both): {100.0 * self.loss_at_sigma('both', 0.05):.2f}% "
                "(paper: 69.98%)"
            )
            saturation = self.saturation_sigma("both")
            footer_lines.append(
                "accuracy falls below 10% (random guess) at sigma = "
                f"{saturation if saturation is not None else '>max swept'} (paper: ~0.075)"
            )
        return "\n".join([header, format_table(headers, rows)] + footer_lines)


def run_exp1(
    config: Exp1Config = Exp1Config(),
    task: Optional[SPNNTask] = None,
    rng: RNGLike = None,
) -> Exp1Result:
    """Run the EXP 1 sweep.

    Parameters
    ----------
    config:
        Sweep configuration (sigmas, cases, Monte Carlo iterations).
    task:
        Pre-built :class:`SPNNTask` (trained + compiled network with its
        test set).  Built from ``config.training`` when omitted.
    rng:
        Seed for the Monte Carlo streams (defaults to ``config.seed``).
    """
    if task is None:
        task = build_trained_spnn(config.training)
    gen = ensure_rng(rng if rng is not None else config.seed)
    spnn: SPNN = task.spnn
    features, labels = task.test_features, task.test_labels
    backend = resolve_backend(config.backend, config.workers)
    nominal_accuracy = spnn.accuracy(features, labels, use_hardware=True)
    grid = [
        (case, sigma, uncertainty_model_for_case(case, sigma, config.perturb_sigma_stage))
        for case in config.cases
        for sigma in config.sigmas
    ]
    # One stream per non-null (case, sigma) in grid order, and the whole
    # grid as one sweep, so a pool never drains between points.
    swept = [model for _, _, model in grid if not model.is_null]
    streams = [spawn_slice(gen, config.iterations) for _ in swept]
    with monte_carlo.sweep_scope(backend, features, labels, spnn) as (x, y, network):
        parts = [
            (NetworkAccuracyBatchTrial(spnn=network, features=x, labels=y, model=model), stream)
            for model, stream in zip(swept, streams)
        ]
        evaluator = monte_carlo.evaluate_batch_chunk
        samples = iter(monte_carlo.run_sweep(backend, evaluator, parts, config.chunk_size, label="mc"))
    results: Dict[str, List[MonteCarloResult]] = {case: [] for case in config.cases}
    for case, sigma, model in grid:
        values = np.full(config.iterations, nominal_accuracy) if model.is_null else next(samples)
        results[case].append(
            MonteCarloResult(samples=values, summary=summarize(values), label=f"{case}@{sigma}")
        )
    return Exp1Result(config=config, nominal_accuracy=nominal_accuracy, results=results)
