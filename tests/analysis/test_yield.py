"""Tests for the yield-analysis helpers and the end-to-end yield sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.yield_analysis import (
    YieldEstimate,
    estimate_yield,
    max_tolerable_sigma,
    yield_sweep,
    yield_vs_sigma,
)
from repro.onn import monte_carlo_accuracy
from repro.utils.rng import spawn_rngs
from repro.variation import UncertaintyModel


def _per_sigma_loop(spnn, features, labels, sigmas, iterations, rng, chunk_size=None):
    """The unfolded reference: one ``monte_carlo_accuracy`` run per sigma."""
    nominal = spnn.accuracy(features, labels, use_hardware=True)
    samples = {}
    for sigma, stream in zip(sigmas, spawn_rngs(rng, len(sigmas))):
        model = UncertaintyModel.both(sigma)
        if model.is_null:
            samples[sigma] = np.full(iterations, nominal)
            continue
        samples[sigma] = monte_carlo_accuracy(
            spnn, features, labels, model, iterations=iterations, rng=stream,
            chunk_size=chunk_size,
        )
    return samples


def test_estimate_yield_basic_fraction():
    estimate = estimate_yield([0.9, 0.8, 0.4, 0.95], accuracy_threshold=0.75)
    assert estimate.yield_fraction == pytest.approx(0.75)
    assert estimate.mean_accuracy == pytest.approx(np.mean([0.9, 0.8, 0.4, 0.95]))
    assert estimate.samples == 4


def test_estimate_yield_all_or_nothing():
    assert estimate_yield([0.9, 0.95], 0.5).yield_fraction == 1.0
    assert estimate_yield([0.1, 0.2], 0.5).yield_fraction == 0.0


def test_estimate_yield_threshold_inclusive():
    assert estimate_yield([0.8], 0.8).yield_fraction == 1.0


def test_estimate_yield_standard_error():
    estimate = estimate_yield([1.0, 0.0, 1.0, 0.0], 0.5)
    assert estimate.standard_error == pytest.approx(np.sqrt(0.5 * 0.5 / 4))
    single = estimate_yield([1.0], 0.5)
    assert single.standard_error == float("inf")


@pytest.mark.parametrize("p", [0.02, 0.5, 0.98])
def test_wilson_interval_covers_the_true_yield(p):
    """Empirical coverage of the 95% interval on synthetic Bernoulli trials."""
    n, replicates = 1000, 2000
    successes = np.random.default_rng(17).binomial(n, p, replicates)
    covered = 0
    for k in successes:
        low, high = YieldEstimate(0.5, k / n, 0.5, n).wilson_interval()
        covered += low <= p <= high
    assert covered / replicates >= 0.93


@pytest.mark.parametrize("samples", [1, 10, 1000])
def test_wilson_interval_has_width_at_zero_and_full_yield(samples):
    """Where the Wald error reads 0 (0/n and n/n), the interval stays open."""
    none = estimate_yield([0.1] * samples, 0.5)
    every = estimate_yield([0.9] * samples, 0.5)
    low, high = none.wilson_interval()
    assert low == pytest.approx(0.0, abs=1e-15) and high > 0.0
    low, high = every.wilson_interval()
    assert low < 1.0 and high == 1.0
    wide, narrow = none.wilson_interval(0.99), none.wilson_interval(0.9)
    assert wide[1] > narrow[1]
    with pytest.raises(ValueError):
        none.wilson_interval(1.0)


def test_estimate_yield_validation():
    with pytest.raises(ValueError):
        estimate_yield([], 0.5)
    with pytest.raises(ValueError):
        estimate_yield([0.5], 1.5)
    with pytest.raises(ValueError):
        estimate_yield(np.zeros((2, 2)), 0.5)


def test_yield_vs_sigma_monotone_example():
    sweep = {
        0.0: [0.95, 0.96, 0.97],
        0.05: [0.9, 0.4, 0.5],
        0.1: [0.1, 0.12, 0.11],
    }
    estimates = yield_vs_sigma(sweep, accuracy_threshold=0.8)
    assert estimates[0.0].yield_fraction == 1.0
    assert estimates[0.05].yield_fraction == pytest.approx(1 / 3)
    assert estimates[0.1].yield_fraction == 0.0


def test_max_tolerable_sigma():
    sweep = {
        0.0: [0.95, 0.96],
        0.025: [0.9, 0.92],
        0.05: [0.5, 0.85],
        0.1: [0.1, 0.2],
    }
    assert max_tolerable_sigma(sweep, accuracy_threshold=0.8, target_yield=0.9) == 0.025
    assert max_tolerable_sigma(sweep, accuracy_threshold=0.8, target_yield=0.4) == 0.05
    assert max_tolerable_sigma(sweep, accuracy_threshold=0.99, target_yield=0.9) is None
    with pytest.raises(ValueError):
        max_tolerable_sigma(sweep, 0.8, target_yield=0.0)


class TestYieldSweep:
    @pytest.fixture(scope="class")
    def sweep(self, small_task):
        return yield_sweep(
            small_task.spnn,
            small_task.test_features[:80],
            small_task.test_labels[:80],
            sigmas=(0.0, 0.01, 0.1),
            iterations=6,
            rng=3,
        )

    def test_sweep_covers_every_sigma(self, sweep):
        assert sweep.sigmas == (0.0, 0.01, 0.1)
        assert set(sweep.estimates) == {0.0, 0.01, 0.1}
        assert all(samples.shape == (6,) for samples in sweep.accuracy_samples.values())

    def test_zero_sigma_short_circuits_to_nominal(self, sweep):
        assert np.all(sweep.accuracy_samples[0.0] == sweep.nominal_accuracy)
        assert sweep.estimates[0.0].yield_fraction == 1.0

    def test_yield_degrades_with_sigma(self, sweep):
        curve = sweep.yield_curve()
        assert curve[0] >= curve[-1]
        assert sweep.estimates[0.1].mean_accuracy <= sweep.nominal_accuracy

    def test_default_threshold_tracks_nominal(self, sweep):
        assert sweep.accuracy_threshold == pytest.approx(
            max(0.0, sweep.nominal_accuracy - 0.05)
        )

    def test_max_tolerable_sigma_consistent_with_helper(self, sweep):
        expected = max_tolerable_sigma(
            sweep.accuracy_samples, sweep.accuracy_threshold, sweep.target_yield
        )
        assert sweep.max_tolerable_sigma == expected

    def test_report_mentions_spec_and_verdict(self, sweep):
        report = sweep.report()
        assert "Yield sweep" in report
        assert "max tolerable sigma" in report
        assert "MC iterations" in report
        assert "95% Wilson CI" in report

    def test_worker_sharding_bit_identical(self, small_task):
        kwargs = dict(sigmas=(0.05,), iterations=6, rng=9)
        features, labels = small_task.test_features[:40], small_task.test_labels[:40]
        serial = yield_sweep(small_task.spnn, features, labels, **kwargs)
        sharded = yield_sweep(small_task.spnn, features, labels, workers=2, **kwargs)
        assert np.array_equal(
            serial.accuracy_samples[0.05], sharded.accuracy_samples[0.05]
        )

    def test_folded_bit_identical_to_per_sigma_loop(self, small_task):
        """The single folded device pass IS the per-sigma loop, bit for bit."""
        kwargs = dict(sigmas=(0.0, 0.02, 0.05), iterations=6, rng=13)
        features, labels = small_task.test_features[:40], small_task.test_labels[:40]
        folded = yield_sweep(small_task.spnn, features, labels, **kwargs)
        per_sigma = _per_sigma_loop(small_task.spnn, features, labels, **kwargs)
        for sigma in kwargs["sigmas"]:
            assert np.array_equal(folded.accuracy_samples[sigma], per_sigma[sigma])

    @settings(max_examples=15, deadline=None)
    @given(
        sigmas=st.lists(st.sampled_from([0.0, 0.01, 0.02, 0.05, 0.08]), min_size=1, max_size=4),
        iterations=st.integers(1, 6),
        chunk_size=st.sampled_from([None, 1, 3]),
        seed=st.integers(0, 2**16),
    )
    def test_folded_equals_per_sigma_loop_property(
        self, small_task, sigmas, iterations, chunk_size, seed
    ):
        """Any sweep folds to the per-sigma loop on the same spawned streams."""
        features, labels = small_task.test_features[:24], small_task.test_labels[:24]
        kwargs = dict(
            sigmas=tuple(sigmas), iterations=iterations, rng=seed, chunk_size=chunk_size
        )
        if len(set(sigmas)) != len(sigmas):
            # Estimates are keyed by sigma, so a repeated level is refused.
            with pytest.raises(ValueError, match="unique"):
                yield_sweep(small_task.spnn, features, labels, **kwargs)
            return
        folded = yield_sweep(small_task.spnn, features, labels, **kwargs)
        per_sigma = _per_sigma_loop(small_task.spnn, features, labels, **kwargs)
        for sigma in sigmas:
            assert np.array_equal(folded.accuracy_samples[sigma], per_sigma[sigma])

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_folded_bit_identical_at_every_worker_count(self, small_task, workers):
        """Sigma folding shards over one long batch; workers never change it."""
        kwargs = dict(sigmas=(0.0, 0.02, 0.05), iterations=6, rng=13)
        features, labels = small_task.test_features[:40], small_task.test_labels[:40]
        serial = yield_sweep(small_task.spnn, features, labels, **kwargs)
        sharded = yield_sweep(
            small_task.spnn, features, labels, workers=workers, **kwargs
        )
        for sigma in kwargs["sigmas"]:
            assert np.array_equal(
                serial.accuracy_samples[sigma], sharded.accuracy_samples[sigma]
            )

    def test_folded_chunks_crossing_sigma_boundaries(self, small_task):
        """A chunk size coprime to the per-sigma block changes nothing."""
        kwargs = dict(sigmas=(0.02, 0.05), iterations=6, rng=17, case="phs")
        features, labels = small_task.test_features[:40], small_task.test_labels[:40]
        reference = yield_sweep(small_task.spnn, features, labels, **kwargs)
        chunked = yield_sweep(
            small_task.spnn, features, labels, chunk_size=5, **kwargs
        )
        for sigma in kwargs["sigmas"]:
            assert np.array_equal(
                reference.accuracy_samples[sigma], chunked.accuracy_samples[sigma]
            )

    def test_validation(self, small_task):
        features, labels = small_task.test_features[:10], small_task.test_labels[:10]
        with pytest.raises(ValueError):
            yield_sweep(small_task.spnn, features, labels, sigmas=())
        with pytest.raises(ValueError):
            yield_sweep(small_task.spnn, features, labels, sigmas=(-0.1,))
        with pytest.raises(ValueError):
            yield_sweep(small_task.spnn, features, labels, sigmas=(0.05,), iterations=0)
        with pytest.raises(ValueError):
            yield_sweep(
                small_task.spnn, features, labels, sigmas=(0.05,), iterations=2, case="nope"
            )
        with pytest.raises(ValueError):
            yield_sweep(
                small_task.spnn, features, labels, sigmas=(0.05,), iterations=2,
                target_yield=0.0,
            )


def test_yield_from_exp1_style_samples(small_task):
    """End-to-end: yield of the trained SPNN at a mild vs severe sigma."""
    from repro.onn import monte_carlo_accuracy
    from repro.variation import UncertaintyModel

    features, labels = small_task.test_features[:80], small_task.test_labels[:80]
    mild = monte_carlo_accuracy(small_task.spnn, features, labels, UncertaintyModel.both(0.005), iterations=5, rng=0)
    severe = monte_carlo_accuracy(small_task.spnn, features, labels, UncertaintyModel.both(0.1), iterations=5, rng=0)
    threshold = small_task.baseline_accuracy - 0.25
    mild_yield = estimate_yield(mild, threshold).yield_fraction
    severe_yield = estimate_yield(severe, threshold).yield_fraction
    assert mild_yield >= severe_yield
    assert severe_yield <= 0.5
