"""EXP 3 — robustness recovery through noise-aware (variation-injected) training.

EXP 1 measures how SPNN accuracy collapses under component-level
uncertainties; this experiment closes the loop and *mitigates* the collapse.
For each trained sigma it builds two networks on identical data, identical
initialization and identical batch order:

* a **baseline** model trained with the paper's ordinary software loop, and
* a **noise-aware** model trained with
  :class:`~repro.training.noise_aware.NoiseAwareTrainer`: every minibatch
  loss is averaged over ``K`` hardware-calibrated perturbation draws of the
  effective weight matrices, with the injected sigma following a
  :class:`~repro.training.schedule.PerturbationSchedule` (default: a
  curriculum that first learns the task noise-free and then hardens it at
  increasing sigma).

Both models are then characterized exactly like the paper characterizes its
network: Monte Carlo hardware accuracy over an evaluation sigma sweep
(vectorized engine, ``workers=N`` shards across processes, bit-identical to
serial) and a parametric yield sweep against a shared accuracy spec.  The
headline numbers are the **accuracy recovery** at the trained sigma and the
**max-tolerable-sigma improvement** for the target yield.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.yield_analysis import (
    SigmaBisectionResult,
    YieldSweepResult,
    bisect_max_tolerable_sigma,
    yield_sweep,
)
from ..analysis.monte_carlo import sweep_scope
from ..execution import BackendLike, resolve_backend
from ..nn.optim import Adam
from ..nn.trainer import TrainerConfig
from ..onn.builder import (
    SPNNTrainingConfig,
    build_software_model,
    prepare_feature_sets,
    spnn_from_model,
    train_software_model,
)
from ..onn.spnn import SPNN
from ..training.injector import NoiseInjector
from ..training.noise_aware import NoiseAwareTrainer
from ..training.schedule import PerturbationSchedule
from ..utils.rng import RNGLike, ensure_rng, spawn_rngs
from ..utils.serialization import format_table
from ..variation.models import UncertaintyModel

#: Key under which the baseline model's results are stored.
BASELINE = "baseline"


def _default_schedule() -> PerturbationSchedule:
    """Default hardening curriculum: learn the task first, then shake it.

    Half the epochs train noise-free (reaching the baseline's solution
    basin), then the injected sigma steps to 50% and finally 100% of the
    target — empirically the most reliable way to keep nominal accuracy
    while gaining robustness (from-scratch full-sigma injection fails to
    learn at all once the variation-induced matrix error rivals the
    weights).
    """
    return PerturbationSchedule.curriculum((0.0, 0.0, 0.5, 1.0))


@dataclass(frozen=True)
class Exp3Config:
    """Configuration of the robust-training experiment."""

    #: Sigmas to harden against (one noise-aware model is trained per value).
    train_sigmas: Tuple[float, ...] = (0.0075, 0.01)
    #: Component-uncertainty case (EXP 1 naming: "phs" / "bes" / "both").
    case: str = "both"
    #: Perturbation draws per minibatch (the K of the expected-loss estimator).
    draws: int = 8
    #: Training steps between hardware recompilations inside the injector.
    recompile_every: int = 5
    #: Per-epoch sigma scaling of the injected noise.
    schedule: PerturbationSchedule = field(default_factory=_default_schedule)
    #: Sigmas of the Monte Carlo evaluation sweep (0.0 = nominal shortcut).
    eval_sigmas: Tuple[float, ...] = (0.0, 0.0025, 0.005, 0.0075, 0.01, 0.015)
    #: Monte Carlo iterations per (model, sigma) evaluation point.
    iterations: int = 1000
    #: Yield spec: accuracy must stay within this margin of the *baseline*
    #: nominal accuracy (shared spec so max-tolerable sigmas are comparable).
    accuracy_margin: float = 0.05
    target_yield: float = 0.9
    seed: int = 17
    #: Seed of the injected training noise (independent of data/init seeds).
    noise_seed: int = 12345
    #: Amortize the K perturbation draws over each recompile window (the
    #: injector's ``reuse_draws`` mode — a different but equally valid noise
    #: stream, several times cheaper per step).
    reuse_draws: bool = True
    #: Recompile the injector's hardware snapshot incrementally (warm-started
    #: SVD + in-place mesh retune, exact fallback on drift).
    incremental_recompile: bool = True
    #: Refine each model's max tolerable sigma by bisection after the coarse
    #: sweep (O(log) extra Monte Carlo runs instead of a finer grid).
    bisect: bool = False
    #: Bracket resolution of the bisection refinement (absolute sigma).
    bisect_tolerance: float = 5e-4
    #: Realizations per batched evaluation chunk; None = the trial's own
    #: working-set hint (``preferred_chunk_size()``).
    chunk_size: Optional[int] = None
    #: Execution backend for the evaluation sweeps: ``workers=N`` shards the
    #: Monte Carlo chunks across N processes, bit-identical to serial.
    backend: BackendLike = None
    workers: Optional[int] = None
    training: SPNNTrainingConfig = field(
        default_factory=lambda: SPNNTrainingConfig(epochs=40)
    )

    def __post_init__(self) -> None:
        if not self.train_sigmas:
            raise ValueError("train_sigmas must not be empty")
        if any(sigma <= 0 for sigma in self.train_sigmas):
            raise ValueError(f"train_sigmas must be positive, got {self.train_sigmas}")
        if len(set(self.train_sigmas)) != len(self.train_sigmas):
            raise ValueError(f"train_sigmas must be unique, got {self.train_sigmas}")
        if not self.eval_sigmas:
            raise ValueError("eval_sigmas must not be empty")
        if len(set(self.eval_sigmas)) != len(self.eval_sigmas):
            raise ValueError(f"eval_sigmas must be unique, got {self.eval_sigmas}")
        missing = set(self.train_sigmas) - set(self.eval_sigmas)
        if missing:
            # Fail fast: the recovery report needs the baseline evaluated at
            # every trained sigma, and the run costs minutes to hours.
            raise ValueError(
                f"every trained sigma must appear in eval_sigmas; missing {sorted(missing)}"
            )
        if not 0.0 <= self.accuracy_margin <= 1.0:
            raise ValueError(f"accuracy_margin must be in [0, 1], got {self.accuracy_margin}")
        if not 0.0 < self.target_yield <= 1.0:
            raise ValueError(f"target_yield must be in (0, 1], got {self.target_yield}")
        if self.case.lower() not in UncertaintyModel.CASES:
            raise ValueError(
                f"unknown uncertainty case {self.case!r}; expected one of {UncertaintyModel.CASES}"
            )


def robust_label(sigma: float) -> str:
    """Result key of the noise-aware model hardened at ``sigma``."""
    return f"robust@{sigma:g}"


@dataclass
class Exp3Result:
    """Baseline vs. noise-aware models across the evaluation sigma sweep."""

    config: Exp3Config
    #: Nominal (variation-free) hardware accuracy per model key.
    nominal_accuracy: Dict[str, float]
    #: ``accuracy_samples[model][eval_sigma]`` -> ``(iterations,)`` samples.
    accuracy_samples: Dict[str, Dict[float, np.ndarray]] = field(repr=False)
    #: Parametric yield sweep per model (shared accuracy spec).
    yields: Dict[str, YieldSweepResult] = field(repr=False, default_factory=dict)
    #: Bisection-refined max tolerable sigma per model (``config.bisect``).
    bisections: Dict[str, SigmaBisectionResult] = field(repr=False, default_factory=dict)

    # ------------------------------------------------------------------ #
    def model_keys(self) -> List[str]:
        return [BASELINE] + [robust_label(sigma) for sigma in self.config.train_sigmas]

    def mean_accuracy(self, key: str, sigma: float) -> float:
        """Mean Monte Carlo hardware accuracy of one model at one eval sigma."""
        return float(np.mean(self.accuracy_samples[key][sigma]))

    def recovery_at(self, train_sigma: float) -> float:
        """Accuracy recovered at the trained sigma (robust mean - baseline mean)."""
        key = robust_label(train_sigma)
        if key not in self.accuracy_samples:
            raise KeyError(f"no robust model trained at sigma {train_sigma}")
        if train_sigma not in self.accuracy_samples[BASELINE]:
            raise KeyError(f"sigma {train_sigma} was not part of the evaluation sweep")
        return self.mean_accuracy(key, train_sigma) - self.mean_accuracy(BASELINE, train_sigma)

    def max_tolerable_sigma(self, key: str) -> Optional[float]:
        """Largest evaluated sigma at which the model still meets the yield target."""
        return self.yields[key].max_tolerable_sigma

    def refined_max_tolerable_sigma(self, key: str) -> Optional[float]:
        """Bisection-refined max tolerable sigma (falls back to the grid value).

        The fallback also covers a bisection whose fresh Monte Carlo probe
        failed the grid's borderline passing sigma (refined ``None``): the
        coarse estimate remains the best available answer.
        """
        if key in self.bisections and self.bisections[key].max_tolerable_sigma is not None:
            return self.bisections[key].max_tolerable_sigma
        return self.max_tolerable_sigma(key)

    def max_tolerable_improvement(self, train_sigma: float) -> Optional[float]:
        """Gain in max tolerable sigma of the robust model over the baseline.

        ``None`` when either model never meets the yield target (no
        tolerable sigma to compare).
        """
        base = self.max_tolerable_sigma(BASELINE)
        robust = self.max_tolerable_sigma(robust_label(train_sigma))
        if base is None or robust is None:
            return None
        return float(robust - base)

    def report(self) -> str:
        """Accuracy table per eval sigma plus recovery / yield footers."""
        keys = self.model_keys()
        headers = ["sigma"] + [f"acc_{key} [%]" for key in keys]
        rows = []
        for sigma in self.config.eval_sigmas:
            rows.append([sigma] + [100.0 * self.mean_accuracy(key, sigma) for key in keys])
        header = (
            f"EXP 3 — noise-aware training vs. baseline "
            f"(case {self.config.case!r}, K={self.config.draws} draws/batch, "
            f"{self.config.iterations} MC iterations per point)\n"
            + ", ".join(
                f"nominal {key}: {100.0 * self.nominal_accuracy[key]:.2f}%" for key in keys
            )
        )
        footer_lines = []
        for sigma in self.config.train_sigmas:
            footer_lines.append(
                f"accuracy recovery at trained sigma {sigma:g}: "
                f"{100.0 * self.recovery_at(sigma):+.2f}% "
                f"({100.0 * self.mean_accuracy(BASELINE, sigma):.2f}% -> "
                f"{100.0 * self.mean_accuracy(robust_label(sigma), sigma):.2f}%)"
            )
        base_max = self.max_tolerable_sigma(BASELINE)
        footer_lines.append(
            f"max tolerable sigma (yield >= {100.0 * self.config.target_yield:.0f}%): "
            f"baseline {base_max if base_max is not None else 'none'}"
            + "".join(
                f", {robust_label(sigma)} "
                f"{self.max_tolerable_sigma(robust_label(sigma)) if self.max_tolerable_sigma(robust_label(sigma)) is not None else 'none'}"
                for sigma in self.config.train_sigmas
            )
        )
        if self.bisections:
            refined = []
            for key in self.model_keys():
                if key not in self.bisections:
                    continue
                bisection = self.bisections[key]
                value = bisection.max_tolerable_sigma
                refined.append(
                    f"{key} {value:.4f}" if value is not None else f"{key} none"
                )
                refined[-1] += f" ({bisection.num_probes} probes)"
            footer_lines.append(
                "bisection-refined max tolerable sigma: " + ", ".join(refined)
            )
        return "\n".join([header, format_table(headers, rows)] + footer_lines)


# --------------------------------------------------------------------------- #
# training helpers
# --------------------------------------------------------------------------- #


def train_baseline_model(
    features: np.ndarray,
    labels: np.ndarray,
    config: Exp3Config,
):
    """The ordinary software training run — exactly the builder's pipeline."""
    return train_software_model(features, labels, config.training)


def train_noise_aware_model(
    features: np.ndarray,
    labels: np.ndarray,
    config: Exp3Config,
    train_sigma: float,
):
    """One noise-aware training run hardened at ``train_sigma``.

    Uses the same init/batch-order seed as the baseline run so the *only*
    difference between the two models is the injected noise.
    """
    training = config.training
    gen = ensure_rng(training.seed)
    model = build_software_model(training.architecture, rng=gen)
    injector = NoiseInjector(
        UncertaintyModel.for_case(config.case, train_sigma),
        draws=config.draws,
        recompile_every=config.recompile_every,
        scheme=training.architecture.scheme,
        rng=config.noise_seed,
        incremental=config.incremental_recompile,
        reuse_draws=config.reuse_draws,
    )
    trainer = NoiseAwareTrainer(
        model,
        Adam(model.parameters(), lr=training.learning_rate),
        injector,
        schedule=config.schedule,
        config=TrainerConfig(epochs=training.epochs, batch_size=training.batch_size),
        rng=gen,
    )
    history = trainer.fit(features, labels)
    return model, history


# --------------------------------------------------------------------------- #
# experiment runner
# --------------------------------------------------------------------------- #


def run_exp3(config: Exp3Config = Exp3Config(), rng: RNGLike = None) -> Exp3Result:
    """Run the robust-training experiment end to end.

    Parameters
    ----------
    config:
        Experiment configuration (trained sigmas, injection parameters,
        evaluation sweep, backend knobs).
    rng:
        Seed for the Monte Carlo evaluation streams (defaults to
        ``config.seed``).  Training uses ``config.training.seed`` and
        ``config.noise_seed`` and is unaffected by the execution backend,
        so the whole result is bit-identical for every worker count.
    """
    train_x, train_y, test_x, test_y = prepare_feature_sets(config.training)
    architecture = config.training.architecture

    # ------------------------------------------------------------------ #
    # training: baseline once, one noise-aware model per trained sigma
    # ------------------------------------------------------------------ #
    spnns: Dict[str, SPNN] = {}
    base_model, _ = train_baseline_model(train_x, train_y, config)
    spnns[BASELINE] = spnn_from_model(base_model, architecture)
    for sigma in config.train_sigmas:
        robust_model, _ = train_noise_aware_model(train_x, train_y, config, sigma)
        spnns[robust_label(sigma)] = spnn_from_model(robust_model, architecture)

    nominal = {
        key: spnn.accuracy(test_x, test_y, use_hardware=True) for key, spnn in spnns.items()
    }
    # Shared yield spec anchored at the *baseline* nominal accuracy so the
    # max-tolerable sigmas of all models answer the same question.
    accuracy_threshold = max(0.0, nominal[BASELINE] - config.accuracy_margin)

    # ------------------------------------------------------------------ #
    # evaluation: MC accuracy sweep per model, one persistent worker pool
    # ------------------------------------------------------------------ #
    gen = ensure_rng(rng if rng is not None else config.seed)
    backend = resolve_backend(config.backend, config.workers)
    # One independent stream per (model, eval sigma) — plus one bisection
    # stream per model — spawned up front so the samples do not depend on
    # evaluation order or scheduling.
    model_streams = spawn_rngs(gen, 2 * len(spnns))

    accuracy_samples: Dict[str, Dict[float, np.ndarray]] = {}
    yields: Dict[str, YieldSweepResult] = {}
    bisections: Dict[str, SigmaBisectionResult] = {}
    # One hosting of the eval set serves every model's sweep (and
    # bisection).  Each model's sweep hosts its network on top, so a
    # sharded pool is re-forked once per model to inherit it.
    with sweep_scope(backend, test_x, test_y) as (eval_x, eval_y, _):
        for index, (key, spnn) in enumerate(spnns.items()):
            # yield_sweep spawns one child stream per sigma from its stream
            # and runs the vectorized engine on the shared backend — one
            # sweep call per model delivers both the samples and the yield
            # curve.
            sweep = yield_sweep(
                spnn,
                eval_x,
                eval_y,
                sigmas=config.eval_sigmas,
                accuracy_threshold=accuracy_threshold,
                target_yield=config.target_yield,
                iterations=config.iterations,
                case=config.case,
                rng=model_streams[2 * index],
                chunk_size=config.chunk_size,
                backend=backend,
            )
            accuracy_samples[key] = sweep.accuracy_samples
            yields[key] = sweep
            if config.bisect:
                # Bracket from the coarse sweep: refine between the largest
                # passing and the largest evaluated sigma at O(log) cost.
                lo = sweep.max_tolerable_sigma or 0.0
                hi = max(config.eval_sigmas)
                if hi > lo:
                    bisections[key] = bisect_max_tolerable_sigma(
                        spnn,
                        eval_x,
                        eval_y,
                        accuracy_threshold=accuracy_threshold,
                        sigma_hi=hi,
                        sigma_lo=lo,
                        tolerance=config.bisect_tolerance,
                        target_yield=config.target_yield,
                        iterations=config.iterations,
                        case=config.case,
                        rng=model_streams[2 * index + 1],
                        chunk_size=config.chunk_size,
                        backend=backend,
                    )

    return Exp3Result(
        config=config,
        nominal_accuracy=nominal,
        accuracy_samples=accuracy_samples,
        yields=yields,
        bisections=bisections,
    )
