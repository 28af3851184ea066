"""Yield experiment — the paper's §I motivation as a runnable artifact.

The paper's framework exists to "identify critical components during design
time ... for improving the yield" (§I).  This experiment closes that loop:
sweep the normalized uncertainty level, estimate the parametric yield of
the trained SPNN at each level (fraction of fabricated networks meeting an
accuracy spec within a margin of the nominal accuracy), and report the
maximum tolerable sigma for a target yield.

The sweep runs end to end on the batched Monte Carlo engine and, with
``workers=N`` (or ``spnn-repro yield --workers N``), shards each level's
realizations across worker processes — bit-identical to the serial run at
the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..analysis.yield_analysis import (
    YieldSweepResult,
    bisect_max_tolerable_sigma,
    yield_sweep,
)
from ..execution import BackendLike
from ..onn.builder import SPNNTask, SPNNTrainingConfig, build_trained_spnn
from ..utils.rng import RNGLike, ensure_rng, spawn_rngs
from .exp1_global import DEFAULT_SIGMAS

#: Default sigma sweep: the EXP 1 levels, where the paper's accuracy cliff lives.
DEFAULT_YIELD_SIGMAS = DEFAULT_SIGMAS


@dataclass(frozen=True)
class YieldConfig:
    """Configuration of the yield-vs-sigma sweep."""

    sigmas: Tuple[float, ...] = DEFAULT_YIELD_SIGMAS
    #: The design yields when its accuracy stays within this margin of nominal.
    accuracy_margin: float = 0.05
    #: Absolute accuracy spec; overrides ``accuracy_margin`` when set.
    accuracy_threshold: Optional[float] = None
    target_yield: float = 0.9
    iterations: int = 1000
    #: Which component families are uncertain ("phs", "bes" or "both").
    case: str = "both"
    perturb_sigma_stage: bool = True
    seed: int = 13
    #: Realizations per batched chunk (bounds peak memory, and the work-unit
    #: granularity when sharding across workers); None = the trial's own
    #: working-set hint (``preferred_chunk_size()``).
    chunk_size: Optional[int] = None
    #: Execution backend for each sigma's Monte Carlo run: ``workers=N``
    #: shards realization chunks across N processes, bit-identical to serial.
    backend: BackendLike = None
    workers: Optional[int] = None
    #: ``"gpu"`` runs the realizations device-resident (CuPy, or the strict
    #: mock stand-in via REPRO_GPU_ARRAY_BACKEND); ``"cpu"``/None keeps the
    #: CPU backends above.  CLI: ``spnn-repro yield --device gpu``.
    device: Optional[str] = None
    #: Refine the max tolerable sigma by bisection after the coarse sweep
    #: (O(log) extra Monte Carlo runs; CLI: ``spnn-repro yield --bisect``).
    bisect: bool = False
    #: Bracket resolution of the bisection refinement (absolute sigma).
    bisect_tolerance: float = 5e-4
    #: Training configuration used only when no pre-built task is supplied.
    training: SPNNTrainingConfig = field(default_factory=SPNNTrainingConfig)


def run_yield(
    config: YieldConfig = YieldConfig(),
    task: Optional[SPNNTask] = None,
    rng: RNGLike = None,
) -> YieldSweepResult:
    """Run the yield sweep on a trained SPNN.

    Parameters
    ----------
    config:
        Sweep configuration (sigmas, spec, Monte Carlo iterations, workers).
    task:
        Pre-built :class:`SPNNTask` (trained + compiled network with its
        test set).  Built from ``config.training`` when omitted.
    rng:
        Seed for the Monte Carlo streams (defaults to ``config.seed``).
    """
    if task is None:
        task = build_trained_spnn(config.training)
    # The default (no-bisect) run feeds the seed straight into the sweep,
    # keeping its samples bit-identical to every earlier release; only the
    # opt-in bisect mode splits off an independent refinement stream.
    sweep_stream = rng if rng is not None else config.seed
    bisect_stream = None
    if config.bisect:
        sweep_stream, bisect_stream = spawn_rngs(ensure_rng(sweep_stream), 2)
    sweep = yield_sweep(
        task.spnn,
        task.test_features,
        task.test_labels,
        sigmas=config.sigmas,
        accuracy_threshold=config.accuracy_threshold,
        accuracy_margin=config.accuracy_margin,
        target_yield=config.target_yield,
        iterations=config.iterations,
        case=config.case,
        perturb_sigma_stage=config.perturb_sigma_stage,
        rng=sweep_stream,
        chunk_size=config.chunk_size,
        backend=config.backend,
        workers=config.workers,
        device=config.device,
    )
    if config.bisect:
        lo = sweep.max_tolerable_sigma or 0.0
        hi = max(sweep.sigmas)
        if hi > lo:
            sweep.bisection = bisect_max_tolerable_sigma(
                task.spnn,
                task.test_features,
                task.test_labels,
                accuracy_threshold=sweep.accuracy_threshold,
                sigma_hi=hi,
                sigma_lo=lo,
                tolerance=config.bisect_tolerance,
                target_yield=config.target_yield,
                iterations=config.iterations,
                case=config.case,
                perturb_sigma_stage=config.perturb_sigma_stage,
                rng=bisect_stream,
                chunk_size=config.chunk_size,
                backend=config.backend,
                workers=config.workers,
                device=config.device,
            )
    return sweep
