"""EXP 4 — serving a drifting SPNN: accuracy over time and recalibration.

The paper models *fabrication-time* uncertainties: every Monte Carlo
realization is a frozen device.  A deployed silicon-photonic accelerator
additionally drifts *in time* — thermal crosstalk wanders the phase
settings, aging random-walks them — and its operator chooses a
recalibration (re-nulling) policy.  This experiment extends the paper's
framework along that axis:

1. advance a fleet of independent device timelines under a temporal
   perturbation process (:mod:`repro.variation.process`: Ornstein–Uhlenbeck
   thermal drift, random-walk aging, deterministic ramp, or the degenerate
   i.i.d. process for cross-checking) through the vectorized timeline sweep
   (:func:`repro.analysis.timeline.timeline_sweep`);
2. serve every timeline twice from its one drift trajectory — without
   maintenance, and under a
   :class:`~repro.analysis.recalibration.RecalibrationPolicy` — in a single
   sweep, so the served-accuracy-vs-time curves are exactly paired
   (re-nulling consumes no randomness, so both policies see identical
   drift);
3. price the policy with the measured warm-retune cost of one
   recalibration event (:func:`~repro.analysis.recalibration.
   measure_renull_cost`), reporting served accuracy vs recalibration
   budget.

Like every sweep in the repo, the timelines shard across threads (the
default) or worker processes (``--workers N``) with bit-identical curves
at a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..analysis.recalibration import RecalibrationPolicy, RenullCost, measure_renull_cost
from ..analysis.timeline import TimelineSweepResult, timeline_sweep
from ..execution import BackendLike
from ..onn.builder import SPNNTask, SPNNTrainingConfig, build_trained_spnn
from ..utils.rng import RNGLike
from ..utils.serialization import format_table
from ..variation.models import UncertaintyModel
from ..variation.process import build_process


@dataclass(frozen=True)
class DriftConfig:
    """Configuration of the drift / recalibration experiment."""

    #: Temporal perturbation process: "ou", "walk", "ramp" or "iid"
    #: (:data:`~repro.variation.process.PROCESS_NAMES`).
    process: str = "ou"
    #: OU correlation time (steps) and step duration, walk step scale and
    #: ramp rate — only the knobs of the chosen process are consulted.
    correlation_time: float = 25.0
    dt: float = 1.0
    step_scale: float = 0.1
    rate: float = 0.05
    #: Normalized component sigma and which families it hits ("phs"
    #: recommended: re-nulling compensates phases, not splitters).
    sigma: float = 0.05
    case: str = "phs"
    #: Timeline horizon (steps) and fleet size (independent timelines).
    num_steps: int = 60
    timelines: int = 200
    #: Recalibration policy knobs; all ``None`` disarms a trigger.  The
    #: baseline (no-maintenance) sweep always runs alongside.
    recalibrate_every: Optional[int] = 10
    drift_threshold: Optional[float] = None
    accuracy_threshold: Optional[float] = None
    seed: int = 17
    #: Timelines per scheduled chunk; None = automatic (memory-derived).
    chunk_size: Optional[int] = None
    #: Execution backend knobs, identical to the other sweeps: ``None``
    #: runs timeline chunks on one thread per CPU, ``workers=1`` serially,
    #: ``workers=N`` shards them across N processes — bit-identical.
    backend: BackendLike = None
    workers: Optional[int] = None
    #: Repeats of the renull-cost measurement (best-of).
    cost_repeats: int = 3
    #: Training configuration used only when no pre-built task is supplied.
    training: SPNNTrainingConfig = field(default_factory=SPNNTrainingConfig)

    def policy(self) -> RecalibrationPolicy:
        """The armed recalibration policy (possibly null)."""
        return RecalibrationPolicy(
            every=self.recalibrate_every,
            drift_threshold=self.drift_threshold,
            accuracy_threshold=self.accuracy_threshold,
        )


@dataclass
class DriftExperimentResult:
    """Paired baseline / recalibrated timeline sweeps plus the event price."""

    baseline: TimelineSweepResult
    recalibrated: TimelineSweepResult
    renull_cost: RenullCost
    config: DriftConfig

    @property
    def accuracy_recovered(self) -> float:
        """Mean served accuracy gained by the policy over no maintenance."""
        return self.recalibrated.mean_served_accuracy - self.baseline.mean_served_accuracy

    @property
    def renull_seconds_per_timeline(self) -> float:
        """Measured warm-retune seconds one timeline spends recalibrating."""
        return self.recalibrated.recalibrations_per_timeline * self.renull_cost.warm_seconds

    def report(self) -> str:
        base_curve = self.baseline.served_accuracy_curve()
        recal_curve = self.recalibrated.served_accuracy_curve()
        recal_rate = self.recalibrated.recalibration_curve()
        steps = self.baseline.num_steps
        stride = max(1, steps // 12)
        picks = list(range(0, steps, stride))
        if picks[-1] != steps - 1:
            picks.append(steps - 1)
        rows = [
            [
                step,
                100.0 * float(base_curve[step]),
                100.0 * float(recal_curve[step]),
                100.0 * float(recal_rate[step]),
            ]
            for step in picks
        ]
        policy = self.config.policy()
        header = (
            f"EXP 4 — {self.baseline.timelines} device timelines x {steps} steps under "
            f"process {self.baseline.process!r} "
            f"(sigma={self.config.sigma:g} {self.config.case}, "
            f"nominal {100.0 * self.baseline.nominal_accuracy:.2f}%)"
        )
        lines = [
            header,
            format_table(
                ["step", "no recal [%]", "with recal [%]", "recal events [% fleet]"],
                rows,
            ),
            (
                f"policy {policy}: mean served accuracy "
                f"{100.0 * self.recalibrated.mean_served_accuracy:.2f}% vs "
                f"{100.0 * self.baseline.mean_served_accuracy:.2f}% without maintenance "
                f"(+{100.0 * self.accuracy_recovered:.2f} points)"
            ),
            (
                f"budget: {self.recalibrated.recalibrations_per_timeline:.2f} re-nulls per "
                f"timeline x {self.renull_cost.warm_seconds * 1e3:.2f} ms warm retune "
                f"= {self.renull_seconds_per_timeline * 1e3:.2f} ms downtime per timeline "
                f"(exact recompile would cost {self.renull_cost.speedup:.1f}x more)"
            ),
        ]
        return "\n".join(lines)


def run_drift(
    config: DriftConfig = DriftConfig(),
    task: Optional[SPNNTask] = None,
    rng: RNGLike = None,
) -> DriftExperimentResult:
    """Run the paired baseline / recalibrated drift sweeps.

    Parameters
    ----------
    config:
        Experiment configuration (process, policy, fleet size, backend).
    task:
        Pre-built :class:`SPNNTask` (trained + compiled network with its
        test set).  Built from ``config.training`` when omitted.
    rng:
        Seed for the drift trajectories (defaults to ``config.seed``).
        Both policies are served from the same trajectories in one sweep,
        so the curves are exactly paired and their difference isolates
        the policy's effect.
    """
    if task is None:
        task = build_trained_spnn(config.training)
    policy = config.policy()
    model = UncertaintyModel.for_case(config.case, config.sigma)
    process = build_process(
        config.process,
        correlation_time=config.correlation_time,
        dt=config.dt,
        step_scale=config.step_scale,
        rate=config.rate,
    )
    baseline, recalibrated = timeline_sweep(
        task.spnn,
        task.test_features,
        task.test_labels,
        model,
        process,
        num_steps=config.num_steps,
        timelines=config.timelines,
        policies=(None, policy),
        rng=rng if rng is not None else config.seed,
        chunk_size=config.chunk_size,
        backend=config.backend,
        workers=config.workers,
    )
    cost = measure_renull_cost(task.spnn.photonic_layers, repeats=config.cost_repeats)
    return DriftExperimentResult(
        baseline=baseline,
        recalibrated=recalibrated,
        renull_cost=cost,
        config=config,
    )
