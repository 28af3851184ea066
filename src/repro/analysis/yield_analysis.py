"""Yield analysis: turning Monte Carlo accuracy samples into design metrics.

The paper motivates its framework by the need to "identify critical
components during design time ... for improving the yield" (§I).  This
module provides the missing last step: given Monte Carlo accuracy samples
(from :func:`repro.onn.inference.monte_carlo_accuracy` or the EXP 1 runner),
compute the *parametric yield* — the fraction of fabricated networks that
would still meet an accuracy specification — and sweep it against the
uncertainty level to find the maximum tolerable sigma for a target yield.

:func:`yield_sweep` runs that sweep end to end: one part per non-null
sigma, all evaluated by the batched trial through a single
:func:`~repro.analysis.monte_carlo.run_sweep`.  :func:`bisect_max_tolerable_sigma`
refines the answer, one sweep per probe.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..execution import BackendLike, resolve_backend
from ..execution.hosting import resolve_array, resolve_network
from ..observability.recorder import active as _active_recorder
from ..utils.rng import RNGLike, spawn_slice
from . import monte_carlo
from ..utils.serialization import format_table
from ..variation.models import UncertaintyModel


@dataclass(frozen=True)
class YieldEstimate:
    """Estimated yield at one uncertainty level.

    Attributes
    ----------
    accuracy_threshold:
        Minimum acceptable accuracy (the "spec").
    yield_fraction:
        Fraction of Monte Carlo samples meeting the spec.
    mean_accuracy:
        Mean accuracy of the samples (for context).
    samples:
        Number of Monte Carlo samples the estimate is based on.
    """

    accuracy_threshold: float
    yield_fraction: float
    mean_accuracy: float
    samples: int

    @property
    def standard_error(self) -> float:
        """Binomial standard error of the yield estimate."""
        p, n = self.yield_fraction, self.samples
        if n <= 1:
            return float("inf")
        return float(np.sqrt(p * (1.0 - p) / n))

    def wilson_interval(self, confidence: float = 0.95) -> Tuple[float, float]:
        """Wilson score interval of the yield at two-sided ``confidence``.

        Unlike the Wald interval behind :attr:`standard_error`, it keeps a
        non-zero width at 0% and 100% yield and its coverage stays close to
        nominal near the ends.  Pure stdlib: the yield path imports no
        scipy.
        """
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        p, n = self.yield_fraction, self.samples
        if n < 1:
            return 0.0, 1.0
        z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
        z2n = z * z / n
        center = (p + z2n / 2.0) / (1.0 + z2n)
        half = z * math.sqrt(p * (1.0 - p) / n + z2n / (4.0 * n)) / (1.0 + z2n)
        return max(0.0, center - half), min(1.0, center + half)


def estimate_yield(accuracies: Sequence[float], accuracy_threshold: float) -> YieldEstimate:
    """Fraction of uncertainty realizations whose accuracy meets the spec.

    Parameters
    ----------
    accuracies:
        Monte Carlo accuracy samples in ``[0, 1]``.
    accuracy_threshold:
        Minimum acceptable accuracy in ``[0, 1]``.
    """
    samples = np.asarray(accuracies, dtype=np.float64)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("accuracies must be a non-empty 1-D sequence")
    if not 0.0 <= accuracy_threshold <= 1.0:
        raise ValueError(f"accuracy_threshold must be in [0, 1], got {accuracy_threshold}")
    meeting = float(np.mean(samples >= accuracy_threshold))
    return YieldEstimate(
        accuracy_threshold=float(accuracy_threshold),
        yield_fraction=meeting,
        mean_accuracy=float(samples.mean()),
        samples=int(samples.size),
    )


def yield_vs_sigma(
    accuracy_samples_per_sigma: Dict[float, Sequence[float]],
    accuracy_threshold: float,
) -> Dict[float, YieldEstimate]:
    """Yield estimate for every uncertainty level in a sweep.

    ``accuracy_samples_per_sigma`` maps the normalized sigma to the Monte
    Carlo accuracy samples collected at that level (e.g. from an EXP 1 run:
    ``{sigma: result.samples for sigma, result in zip(config.sigmas, results['both'])}``).
    """
    return {
        float(sigma): estimate_yield(samples, accuracy_threshold)
        for sigma, samples in accuracy_samples_per_sigma.items()
    }


def max_tolerable_sigma(
    accuracy_samples_per_sigma: Dict[float, Sequence[float]],
    accuracy_threshold: float,
    target_yield: float = 0.9,
) -> Optional[float]:
    """Largest swept sigma whose estimated yield still meets ``target_yield``.

    Returns ``None`` when no swept level (including the smallest) meets the
    target — i.e. the design is not manufacturable at the required spec.
    """
    if not 0.0 < target_yield <= 1.0:
        raise ValueError(f"target_yield must be in (0, 1], got {target_yield}")
    estimates = yield_vs_sigma(accuracy_samples_per_sigma, accuracy_threshold)
    passing = [sigma for sigma, estimate in estimates.items() if estimate.yield_fraction >= target_yield]
    return max(passing) if passing else None


# --------------------------------------------------------------------------- #
# end-to-end sigma sweep on the batched Monte Carlo engine
# --------------------------------------------------------------------------- #


def _accuracy_trial(hosted, model: UncertaintyModel):
    """One sigma's batched accuracy trial on a sweep's hosted inputs.

    ``hosted`` is the ``(features, labels, network)`` triple that
    :func:`~repro.analysis.monte_carlo.sweep_scope` yields.
    """
    # Imported lazily: the analysis package must stay importable before the
    # onn package (which itself imports the Monte Carlo engine) is built.
    from ..onn.inference import NetworkAccuracyBatchTrial

    features, labels, network = hosted
    return NetworkAccuracyBatchTrial(spnn=network, features=features, labels=labels, model=model)


@dataclass
class YieldSweepResult:
    """Parametric yield of one design across an uncertainty sweep."""

    sigmas: Tuple[float, ...]
    accuracy_threshold: float
    target_yield: float
    nominal_accuracy: float
    iterations: int
    case: str
    estimates: Dict[float, YieldEstimate]
    accuracy_samples: Dict[float, np.ndarray] = field(repr=False, default_factory=dict)
    #: Optional bisection refinement of the max tolerable sigma (attached by
    #: callers that run :func:`bisect_max_tolerable_sigma` after the sweep).
    bisection: Optional["SigmaBisectionResult"] = field(default=None, repr=False)

    @property
    def max_tolerable_sigma(self) -> Optional[float]:
        """Largest swept sigma whose yield still meets ``target_yield``."""
        passing = [
            sigma
            for sigma, estimate in self.estimates.items()
            if estimate.yield_fraction >= self.target_yield
        ]
        return max(passing) if passing else None

    def yield_curve(self) -> np.ndarray:
        """Yield fraction per sigma, in sweep order."""
        return np.array([self.estimates[sigma].yield_fraction for sigma in self.sigmas])

    def report(self) -> str:
        """Table of yield and mean accuracy per sigma plus the design verdict."""
        headers = ["sigma", "yield [%]", "mean acc [%]", "95% Wilson CI [%]"]
        rows = []
        for sigma in self.sigmas:
            estimate = self.estimates[sigma]
            low, high = estimate.wilson_interval()
            rows.append(
                [
                    sigma,
                    100.0 * estimate.yield_fraction,
                    100.0 * estimate.mean_accuracy,
                    f"{100.0 * low:.2f}-{100.0 * high:.2f}",
                ]
            )
        header = (
            f"Yield sweep (§I) — parametric yield vs uncertainty level "
            f"(case {self.case!r}, {self.iterations} MC iterations per sigma)\n"
            f"accuracy spec >= {100.0 * self.accuracy_threshold:.2f}% "
            f"(nominal {100.0 * self.nominal_accuracy:.2f}%), "
            f"target yield {100.0 * self.target_yield:.0f}%"
        )
        max_sigma = self.max_tolerable_sigma
        footer = (
            f"max tolerable sigma for >= {100.0 * self.target_yield:.0f}% yield: "
            f"{max_sigma if max_sigma is not None else 'none (design misses the spec at every swept sigma)'}"
        )
        sections = [header, format_table(headers, rows), footer]
        if self.bisection is not None:
            refined = self.bisection.max_tolerable_sigma
            sections.append(
                f"bisection refinement ({self.bisection.num_probes} probes): "
                f"max tolerable sigma {refined if refined is not None else 'none'}"
            )
        return "\n".join(sections)


def yield_sweep(
    spnn,
    features: np.ndarray,
    labels: np.ndarray,
    sigmas: Sequence[float],
    accuracy_threshold: Optional[float] = None,
    accuracy_margin: float = 0.05,
    target_yield: float = 0.9,
    iterations: int = 1000,
    case: str = "both",
    perturb_sigma_stage: bool = True,
    rng: RNGLike = None,
    chunk_size: Optional[int] = None,
    backend: BackendLike = None,
    workers: Optional[int] = None,
) -> YieldSweepResult:
    """Sweep the uncertainty level and estimate the parametric yield at each.

    Every sigma runs ``iterations`` realizations through the batched Monte
    Carlo engine (:func:`repro.onn.inference.monte_carlo_accuracy`) — and,
    with ``workers=N``, through the multiprocess execution backend, with
    samples bit-identical to the serial run at the same seed.  Each sweep
    position gets its own independent child stream spawned from ``rng``,
    so samples never leak between sigmas; note the streams are assigned
    positionally, so reordering or extending the sigma list changes the
    draws a given sigma receives.

    Every non-null sigma is one part of a single
    :func:`~repro.analysis.monte_carlo.run_sweep`, so the whole sweep is
    one ``map`` and no pool drains between sigmas.  Samples are
    bit-identical to a per-sigma loop of
    :func:`~repro.onn.inference.monte_carlo_accuracy` on the same streams,
    at every worker count.

    Parameters
    ----------
    spnn:
        Compiled :class:`~repro.onn.spnn.SPNN` under test.
    features, labels:
        Evaluation set — plain arrays, or
        :class:`~repro.execution.hosting.Hosted` tokens hosted by a
        caller that sweeps several designs over one worker pool (EXP 3).
        Plain arrays are hosted for the duration of the sweep when the
        backend shards across processes, so the forked workers read the
        eval set from inherited memory instead of a pickle per chunk.
    sigmas:
        Normalized uncertainty levels to sweep (``0.0`` short-circuits to
        the nominal accuracy without Monte Carlo work).
    accuracy_threshold:
        Absolute accuracy spec in ``[0, 1]``; when omitted it defaults to
        ``nominal_accuracy - accuracy_margin`` (the design must stay within
        ``accuracy_margin`` of its nominal accuracy to count as yielding).
    target_yield:
        Yield fraction the design must sustain (default 90%).
    iterations:
        Monte Carlo iterations per sigma (1000 in the paper).
    case:
        Which component families are uncertain: ``"phs"``, ``"bes"`` or
        ``"both"`` (the EXP 1 cases).
    rng:
        Seed for the sweep; defaults to a fresh seed.
    chunk_size, backend, workers:
        Forwarded to the Monte Carlo engine (see
        :func:`repro.onn.inference.monte_carlo_accuracy`).
    """
    sigmas = tuple(float(sigma) for sigma in sigmas)
    if not sigmas:
        raise ValueError("yield_sweep requires at least one sigma")
    if any(sigma < 0 for sigma in sigmas):
        raise ValueError(f"sigmas must be non-negative, got {sigmas}")
    if len(set(sigmas)) != len(sigmas):
        raise ValueError(f"sigmas must be unique (estimates are keyed by sigma), got {sigmas}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if not 0.0 <= accuracy_margin <= 1.0:
        raise ValueError(f"accuracy_margin must be in [0, 1], got {accuracy_margin}")
    if not 0.0 < target_yield <= 1.0:
        raise ValueError(f"target_yield must be in (0, 1], got {target_yield}")
    if case.lower() not in UncertaintyModel.CASES:
        raise ValueError(f"unknown uncertainty case {case!r}; expected one of {UncertaintyModel.CASES}")

    nominal_accuracy = resolve_network(spnn).accuracy(
        resolve_array(features), resolve_array(labels), use_hardware=True
    )
    if accuracy_threshold is None:
        accuracy_threshold = max(0.0, nominal_accuracy - accuracy_margin)
    if not 0.0 <= accuracy_threshold <= 1.0:
        raise ValueError(f"accuracy_threshold must be in [0, 1], got {accuracy_threshold}")

    streams = spawn_slice(rng, len(sigmas))
    models = [
        UncertaintyModel.for_case(case, sigma, perturb_sigma_stage=perturb_sigma_stage)
        for sigma in sigmas
    ]
    resolved = resolve_backend(backend, workers)
    sweep_span = _active_recorder().span(
        "yield/sweep",
        sigmas=len(sigmas),
        iterations=iterations,
        case=case.lower(),
        parallelism=resolved.parallelism,
    )
    with sweep_span, monte_carlo.sweep_scope(resolved, features, labels, spnn) as hosted:
        parts = [
            (_accuracy_trial(hosted, model), streams.child_slice(index, iterations))
            for index, model in enumerate(models)
            if not model.is_null
        ]
        # Looked up at call time, so a wrapper installed on the module
        # after import still sees every chunk.
        evaluator = monte_carlo.evaluate_batch_chunk
        samples = iter(monte_carlo.run_sweep(resolved, evaluator, parts, chunk_size, label="yield"))
    samples_per_sigma = {
        sigma: np.full(iterations, nominal_accuracy) if model.is_null else next(samples)
        for sigma, model in zip(sigmas, models)
    }
    estimates = yield_vs_sigma(samples_per_sigma, accuracy_threshold)
    return YieldSweepResult(
        sigmas=sigmas,
        accuracy_threshold=float(accuracy_threshold),
        target_yield=float(target_yield),
        nominal_accuracy=float(nominal_accuracy),
        iterations=int(iterations),
        case=case.lower(),
        estimates=estimates,
        accuracy_samples=samples_per_sigma,
    )


# --------------------------------------------------------------------------- #
# bisection refinement of the max tolerable sigma
# --------------------------------------------------------------------------- #


@dataclass
class SigmaBisectionResult:
    """Bisection-refined maximum tolerable sigma of one design.

    ``max_tolerable_sigma`` is the largest *probed* sigma whose estimated
    yield meets the target (``None`` when even the lower bracket edge
    fails); ``upper_bound`` is the smallest probed sigma known to fail
    (``None`` when even the upper bracket edge passes).  The final bracket
    width is the resolution of the answer.
    """

    target_yield: float
    accuracy_threshold: float
    iterations: int
    case: str
    max_tolerable_sigma: Optional[float]
    upper_bound: Optional[float]
    #: Yield estimate at every probed sigma, in probe order.
    probes: Dict[float, YieldEstimate]

    @property
    def resolution(self) -> Optional[float]:
        """Width of the final bracket (``None`` for degenerate brackets)."""
        if self.max_tolerable_sigma is None or self.upper_bound is None:
            return None
        return float(self.upper_bound - self.max_tolerable_sigma)

    @property
    def num_probes(self) -> int:
        return len(self.probes)

    def report(self) -> str:
        """One-design bisection summary table."""
        headers = ["probed sigma", "yield [%]", "mean acc [%]"]
        rows = [
            [sigma, 100.0 * estimate.yield_fraction, 100.0 * estimate.mean_accuracy]
            for sigma, estimate in self.probes.items()
        ]
        max_sigma = self.max_tolerable_sigma
        footer = (
            f"max tolerable sigma (bisection, {self.num_probes} probes): "
            f"{max_sigma if max_sigma is not None else 'none (fails at the lower bracket edge)'}"
        )
        if self.resolution is not None:
            footer += f" (+{self.resolution:g} bracket)"
        return "\n".join([format_table(headers, rows), footer])


def bisect_max_tolerable_sigma(
    spnn,
    features,
    labels,
    accuracy_threshold: float,
    sigma_hi: float,
    sigma_lo: float = 0.0,
    tolerance: float = 5e-4,
    target_yield: float = 0.9,
    iterations: int = 1000,
    case: str = "both",
    perturb_sigma_stage: bool = True,
    rng: RNGLike = None,
    chunk_size: Optional[int] = None,
    backend: BackendLike = None,
    workers: Optional[int] = None,
) -> SigmaBisectionResult:
    """Refine the maximum tolerable sigma by bisection on the yield curve.

    A coarse grid answers "which swept sigma still yields" at a cost of one
    Monte Carlo run per grid point; this refines the answer to ``tolerance``
    with ``O(log((sigma_hi - sigma_lo) / tolerance))`` runs instead of a
    finer grid.  The parametric yield is monotonically non-increasing in
    sigma (more variation never helps), which is what makes the bracket
    [largest passing, smallest failing] well defined.

    The bracket edges are probed first: if ``sigma_hi`` passes the answer
    is ``sigma_hi`` (the bracket never contained the threshold), and if
    ``sigma_lo`` fails the design misses the spec everywhere
    (``max_tolerable_sigma`` is ``None``; a ``sigma_lo`` of 0 counts as
    passing by construction when the nominal accuracy meets the spec).

    Every probe draws its Monte Carlo samples from an independent child
    stream spawned from ``rng`` up front, so the probed values are
    reproducible; the worker pool (if any) and the eval-set
    hosting persist across all probes.
    """
    if not 0.0 <= sigma_lo < sigma_hi:
        raise ValueError(f"need 0 <= sigma_lo < sigma_hi, got [{sigma_lo}, {sigma_hi}]")
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if not 0.0 <= accuracy_threshold <= 1.0:
        raise ValueError(f"accuracy_threshold must be in [0, 1], got {accuracy_threshold}")
    if not 0.0 < target_yield <= 1.0:
        raise ValueError(f"target_yield must be in (0, 1], got {target_yield}")
    if case.lower() not in UncertaintyModel.CASES:
        raise ValueError(f"unknown uncertainty case {case!r}; expected one of {UncertaintyModel.CASES}")

    # Upper bound on the probes actually needed: the two bracket edges plus
    # the halvings down to the tolerance, plus slack for the floating-point
    # halving leaving the bracket marginally above the tolerance for one
    # extra iteration when range/tolerance is a near-power of two.
    # Spawning the streams up front keeps every probe's samples independent
    # of how the bracket evolves; unconsumed streams are free.
    max_probes = 4 + max(1, int(np.ceil(np.log2(max(2.0, (sigma_hi - sigma_lo) / tolerance)))))
    streams = spawn_slice(rng, max_probes)
    drawn = itertools.count()

    probes: Dict[float, YieldEstimate] = {}
    nominal_accuracy = resolve_network(spnn).accuracy(
        resolve_array(features), resolve_array(labels), use_hardware=True
    )

    resolved = resolve_backend(backend, workers)
    bisect_span = _active_recorder().span(
        "yield/bisect",
        iterations=iterations,
        case=case.lower(),
        parallelism=resolved.parallelism,
    )
    with bisect_span, monte_carlo.sweep_scope(resolved, features, labels, spnn) as hosted:

        def probe(sigma: float) -> bool:
            model = UncertaintyModel.for_case(case, sigma, perturb_sigma_stage=perturb_sigma_stage)
            if model.is_null:
                samples = np.full(iterations, nominal_accuracy)
            else:
                part = (
                    _accuracy_trial(hosted, model),
                    streams.child_slice(next(drawn), iterations),
                )
                [samples] = monte_carlo.run_sweep(
                    resolved, monte_carlo.evaluate_batch_chunk, [part], chunk_size, label="bisect"
                )
            estimate = estimate_yield(samples, accuracy_threshold)
            probes[float(sigma)] = estimate
            return estimate.yield_fraction >= target_yield

        if probe(sigma_hi):
            return SigmaBisectionResult(
                target_yield=float(target_yield),
                accuracy_threshold=float(accuracy_threshold),
                iterations=int(iterations),
                case=case.lower(),
                max_tolerable_sigma=float(sigma_hi),
                upper_bound=None,
                probes=probes,
            )
        if not probe(sigma_lo):
            return SigmaBisectionResult(
                target_yield=float(target_yield),
                accuracy_threshold=float(accuracy_threshold),
                iterations=int(iterations),
                case=case.lower(),
                max_tolerable_sigma=None,
                upper_bound=float(sigma_lo),
                probes=probes,
            )
        lo, hi = float(sigma_lo), float(sigma_hi)
        while hi - lo > tolerance:
            mid = 0.5 * (lo + hi)
            if probe(mid):
                lo = mid
            else:
                hi = mid

    return SigmaBisectionResult(
        target_yield=float(target_yield),
        accuracy_threshold=float(accuracy_threshold),
        iterations=int(iterations),
        case=case.lower(),
        max_tolerable_sigma=lo,
        upper_bound=hi,
        probes=probes,
    )
