"""Yield analysis: turning Monte Carlo accuracy samples into design metrics.

The paper motivates its framework by the need to "identify critical
components during design time ... for improving the yield" (§I).  This
module provides the missing last step: given Monte Carlo accuracy samples
(from :func:`repro.onn.inference.monte_carlo_accuracy` or the EXP 1 runner),
compute the *parametric yield* — the fraction of fabricated networks that
would still meet an accuracy specification — and sweep it against the
uncertainty level to find the maximum tolerable sigma for a target yield.

:func:`yield_sweep` drives that sweep end to end through the batched Monte
Carlo engine (and, with ``workers=N``, through the multiprocess execution
backend) so the yield curve of a design is one call away.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from contextlib import nullcontext

from ..execution import BackendLike, pool_scope, resolve_backend
from ..observability import map_chunks
from ..observability.recorder import active as _active_recorder
from ..execution.shared import (
    is_hosted_array,
    is_hosted_network,
    resolve_array,
    resolve_network,
    shared_eval_arrays,
    shared_network,
)
from ..utils.rng import RNGLike, StreamSlice, spawn_rngs, spawn_slice
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


def _folded_tasks(
    network,
    eval_features,
    eval_labels,
    sigmas: Tuple[float, ...],
    streams: StreamSlice,
    case: str,
    perturb_sigma_stage: bool,
    iterations: int,
    chunk_size: Optional[int],
    resolved,
    use_workspace: bool,
) -> Tuple[list, Dict[float, slice], Optional[int]]:
    """Every sigma's Monte Carlo rows as one task list, the sigma axis folded in.

    A per-sigma loop would run one batched Monte Carlo pass — one
    scheduling barrier, one ``backend.map`` — per uncertainty level.  This
    folds the sigma axis into the leading Monte Carlo batch axis instead:
    all non-null sigmas' ``iterations`` realizations form one task list
    whose chunks may freely mix sigmas, each row scaled by its own level's
    physical stds (the ``*_std_rows`` fields of
    :class:`~repro.onn.inference.NetworkAccuracyBatchTrial`), so worker
    pools stay saturated across sigma boundaries.  Returns the tasks, each
    non-null sigma's row range and the chunk size.

    Bit-identity with the per-sigma loop: ``streams`` is the recipe of the
    sweep's per-sigma streams, and each sigma's rows are exactly the
    children :class:`~repro.analysis.monte_carlo.MonteCarloRunner` would
    spawn from that stream (``streams.child_slice``); a chunk carries one
    :class:`~repro.utils.rng.StreamSlice` per sigma stream it touches.
    Each row consumes only its own stream, per-row scaling performs the
    same float multiply as the scalar path, and the vectorized engine's
    samples are chunk-composition invariant.  Null sigmas get no rows;
    their streams are never built, which cannot shift another sigma's
    draws.
    """
    from ..onn.inference import NetworkAccuracyBatchTrial
    from .monte_carlo import plan_chunk_size

    row_streams: list = []
    phase_blocks: list = []
    splitter_blocks: list = []
    row_slices: Dict[float, slice] = {}
    gating_model = None
    for index, sigma in enumerate(sigmas):
        model = UncertaintyModel.for_case(case, sigma, perturb_sigma_stage=perturb_sigma_stage)
        if model.is_null:
            continue
        if gating_model is None:
            gating_model = model
        row_slices[sigma] = slice(len(row_streams) * iterations, (len(row_streams) + 1) * iterations)
        row_streams.append(streams.child_slice(index, iterations))
        phase_blocks.append(np.full(iterations, model.phase_std))
        splitter_blocks.append(np.full(iterations, model.splitter_std))
    rows = len(row_streams) * iterations
    if rows == 0:
        return [], row_slices, None
    phase_rows = np.concatenate(phase_blocks)[:, None]
    splitter_rows = np.concatenate(splitter_blocks)[:, None]
    base_trial = NetworkAccuracyBatchTrial(
        spnn=network,
        features=eval_features,
        labels=eval_labels,
        model=gating_model,
        use_workspace=use_workspace,
    )
    chunk = plan_chunk_size(rows, resolved, chunk_size, base_trial)
    tasks = []
    for start in range(0, rows, chunk):
        stop = min(start + chunk, rows)
        chunk_trial = replace(
            base_trial,
            phase_std_rows=phase_rows[start:stop],
            splitter_std_rows=splitter_rows[start:stop],
        )
        parts = tuple(
            row_streams[k][max(0, start - k * iterations) : stop - k * iterations]
            for k in range(start // iterations, (stop - 1) // iterations + 1)
        )
        tasks.append((start, chunk_trial, parts))
    return tasks, row_slices, chunk


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
        headers = ["sigma", "yield [%]", "mean acc [%]", "std err [%]"]
        rows = []
        for sigma in self.sigmas:
            estimate = self.estimates[sigma]
            rows.append(
                [
                    sigma,
                    100.0 * estimate.yield_fraction,
                    100.0 * estimate.mean_accuracy,
                    100.0 * estimate.standard_error,
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
    device: Optional[str] = None,
    use_workspace: bool = False,
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

    The sigma axis is *folded* into the Monte Carlo batch axis
    (:func:`_folded_tasks`): the whole sweep is one task list
    scheduled through a single ``backend.map`` pass, with each realization
    row scaled by its own sigma's physical stds.  Samples are bit-identical
    to a per-sigma loop of :func:`~repro.onn.inference.monte_carlo_accuracy`
    on the same streams, at every worker count.

    Parameters
    ----------
    spnn:
        Compiled :class:`~repro.onn.spnn.SPNN` under test.
    features, labels:
        Evaluation set — plain arrays, or
        :class:`~repro.execution.shared.SharedArray` handles hosted by a
        caller that sweeps several designs over one worker pool (EXP 3).
        Plain arrays are hosted in shared memory automatically for the
        duration of the sweep when the backend shards across processes, so
        the eval set is pickled into each worker once instead of once per
        chunk.
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
    device:
        ``"gpu"`` runs every sigma's realizations device-resident through
        the :class:`~repro.execution.GpuBackend` (CuPy, or the strict mock
        stand-in on CPU-only machines); ``"cpu"``/``None`` keeps the CPU
        backends selected by ``backend``/``workers``.
    use_workspace:
        Recycle the vectorized engine's scratch buffers through each
        process's workspace arena (bit-identical; allocation reuse only).
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
    # One backend for the whole sweep.  The eval arrays *and* the compiled
    # mesh parameters are hosted in shared memory for the same scope (unless
    # the caller already hosts them), so they cross the process boundary
    # once per worker, not once per chunk — the per-chunk payload shrinks to
    # the perturbation draws.
    resolved = resolve_backend(backend, workers, device)
    already_hosted = is_hosted_array(features) or is_hosted_array(labels)
    hosting = (
        nullcontext((features, labels))
        if already_hosted
        else shared_eval_arrays(resolved, features, labels)
    )
    network_hosting = (
        nullcontext(spnn) if is_hosted_network(spnn) else shared_network(resolved, spnn)
    )
    sweep_span = _active_recorder().span(
        "yield/sweep",
        sigmas=len(sigmas),
        iterations=iterations,
        case=case.lower(),
        parallelism=resolved.parallelism,
    )
    with sweep_span, pool_scope(resolved), hosting as (
        eval_features,
        eval_labels,
    ), network_hosting as network:
        tasks, row_slices, chunk = _folded_tasks(
            network,
            eval_features,
            eval_labels,
            sigmas,
            streams,
            case,
            perturb_sigma_stage,
            iterations,
            chunk_size,
            resolved,
            use_workspace,
        )
        folded = np.empty(len(row_slices) * iterations, dtype=np.float64)
        if tasks:
            # Looked up at call time, so a wrapper installed on the module
            # after import still sees every chunk.
            from .monte_carlo import evaluate_batch_chunk

            with _active_recorder().span(
                "yield/folded_mc",
                rows=folded.size,
                sigmas=len(row_slices),
                chunks=len(tasks),
                chunk_size=chunk,
            ):
                for start, values in map_chunks(resolved, evaluate_batch_chunk, tasks, label="yield"):
                    folded[start : start + len(values)] = values
    samples_per_sigma = {
        sigma: np.full(iterations, nominal_accuracy) for sigma in sigmas if sigma not in row_slices
    }
    samples_per_sigma.update((sigma, folded[rows]) for sigma, rows in row_slices.items())
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
    device: Optional[str] = None,
    use_workspace: bool = False,
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
    reproducible; the worker pool (if any) and the shared-memory eval
    hosting persist across all probes.
    """
    # Imported lazily: the analysis package must stay importable before the
    # onn package (which itself imports the Monte Carlo engine) is built.
    from ..onn.inference import monte_carlo_accuracy

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
    streams = iter(spawn_rngs(rng, max_probes))

    probes: Dict[float, YieldEstimate] = {}
    nominal_accuracy = resolve_network(spnn).accuracy(
        resolve_array(features), resolve_array(labels), use_hardware=True
    )

    resolved = resolve_backend(backend, workers, device)
    already_hosted = is_hosted_array(features) or is_hosted_array(labels)
    hosting = (
        nullcontext((features, labels))
        if already_hosted
        else shared_eval_arrays(resolved, features, labels)
    )
    network_hosting = (
        nullcontext(spnn) if is_hosted_network(spnn) else shared_network(resolved, spnn)
    )
    bisect_span = _active_recorder().span(
        "yield/bisect",
        iterations=iterations,
        case=case.lower(),
        parallelism=resolved.parallelism,
    )
    with bisect_span, pool_scope(resolved), hosting as (
        eval_features,
        eval_labels,
    ), network_hosting as network:

        def probe(sigma: float) -> bool:
            model = UncertaintyModel.for_case(case, sigma, perturb_sigma_stage=perturb_sigma_stage)
            if model.is_null:
                samples = np.full(iterations, nominal_accuracy)
            else:
                samples = monte_carlo_accuracy(
                    network,
                    eval_features,
                    eval_labels,
                    model,
                    iterations=iterations,
                    rng=next(streams),
                    chunk_size=chunk_size,
                    backend=resolved,
                    use_workspace=use_workspace,
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
