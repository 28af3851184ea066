"""Timeline sweep + recalibration policies: invariance and edge cases."""

import numpy as np
import pytest

from repro.analysis.recalibration import (
    RecalibrationPolicy,
    RenullCost,
    measure_renull_cost,
    renull_network,
)
from repro.analysis.timeline import timeline_sweep
from repro.variation.models import UncertaintyModel
from repro.variation.process import (
    IIDGaussianProcess,
    OrnsteinUhlenbeckProcess,
    RandomWalkProcess,
    build_process,
)


def _sweep(small_task, policy=None, **overrides):
    """The sweep of one policy."""
    kwargs = dict(
        model=UncertaintyModel.phase_only(0.08),
        process=OrnsteinUhlenbeckProcess(correlation_time=4.0),
        num_steps=5,
        timelines=12,
        rng=5,
    )
    kwargs.update(overrides)
    [result] = timeline_sweep(
        small_task.spnn,
        small_task.test_features,
        small_task.test_labels,
        policies=(policy,),
        **kwargs,
    )
    return result


class TestWorkerInvariance:
    @pytest.fixture(scope="class")
    def serial(self, small_task):
        policy = RecalibrationPolicy(every=3, drift_threshold=0.9)
        return _sweep(small_task, policy=policy)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_bit_identical_to_serial(self, small_task, serial, workers):
        policy = RecalibrationPolicy(every=3, drift_threshold=0.9)
        sharded = _sweep(small_task, policy=policy, workers=workers)
        np.testing.assert_array_equal(sharded.accuracy, serial.accuracy)
        np.testing.assert_array_equal(sharded.recalibrations, serial.recalibrations)

    def test_chunk_size_bit_identical_to_serial(self, small_task, serial):
        policy = RecalibrationPolicy(every=3, drift_threshold=0.9)
        chunked = _sweep(small_task, policy=policy, chunk_size=5)
        np.testing.assert_array_equal(chunked.accuracy, serial.accuracy)
        np.testing.assert_array_equal(chunked.recalibrations, serial.recalibrations)


class TestPolicyEdgeCases:
    def test_null_policy_matches_no_policy(self, small_task):
        """An all-disarmed policy is exactly the no-maintenance baseline."""
        baseline = _sweep(small_task, policy=None)
        null_policy = _sweep(small_task, policy=RecalibrationPolicy())
        assert RecalibrationPolicy().is_null
        np.testing.assert_array_equal(null_policy.accuracy, baseline.accuracy)
        assert baseline.total_recalibrations == 0
        assert null_policy.total_recalibrations == 0

    def test_never_triggered_threshold_matches_baseline(self, small_task):
        """A drift threshold nothing reaches must not change a single draw."""
        baseline = _sweep(small_task, policy=None)
        unreachable = _sweep(
            small_task, policy=RecalibrationPolicy(drift_threshold=1e6)
        )
        np.testing.assert_array_equal(unreachable.accuracy, baseline.accuracy)
        assert unreachable.total_recalibrations == 0

    def test_every_step_renull_serves_nominal_accuracy(self, small_task):
        """Re-nulling every step under phase-only drift restores nominal.

        ``every=1`` fires at step 0 too (the fabrication-draw re-null), so
        every tunable phase is compensated before every serve and the
        device serves its drift-free accuracy at every single step.
        """
        result = _sweep(
            small_task,
            policy=RecalibrationPolicy(every=1),
            process=RandomWalkProcess(step_scale=0.5),
        )
        assert result.recalibrations.all()
        np.testing.assert_allclose(
            result.accuracy, result.nominal_accuracy, atol=1e-12
        )

    def test_accuracy_trigger_lags_one_step(self, small_task):
        """Reactive maintenance reacts to *served* traffic: step 0 never fires."""
        result = _sweep(
            small_task,
            policy=RecalibrationPolicy(accuracy_threshold=1.0),
            process=RandomWalkProcess(step_scale=0.5),
        )
        assert not result.recalibrations[:, 0].any()
        # Served accuracy stays below 100%, so every later step re-nulls.
        assert (result.accuracy < 1.0).all()
        assert result.recalibrations[:, 1:].all()

    def test_recalibration_recovers_served_accuracy(self, small_task):
        """Scheduled re-nulling beats the no-maintenance baseline under aging."""
        process = RandomWalkProcess(step_scale=0.6)
        baseline = _sweep(small_task, process=process, num_steps=8)
        recal = _sweep(
            small_task,
            process=process,
            num_steps=8,
            policy=RecalibrationPolicy(every=2),
        )
        assert recal.mean_served_accuracy > baseline.mean_served_accuracy
        assert recal.total_recalibrations == 4 * recal.timelines


class TestValidation:
    def test_sweep_rejects_bad_arguments(self, small_task):
        for bad in (
            dict(num_steps=0),
            dict(timelines=0),
            dict(chunk_size=0),
        ):
            with pytest.raises(ValueError):
                _sweep(small_task, **bad)

    def test_policy_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            RecalibrationPolicy(every=0)
        with pytest.raises(ValueError):
            RecalibrationPolicy(drift_threshold=0.0)
        with pytest.raises(ValueError):
            RecalibrationPolicy(accuracy_threshold=1.5)

    def test_scheduled_includes_step_zero(self):
        policy = RecalibrationPolicy(every=3)
        assert policy.scheduled(0)
        assert not policy.scheduled(1)
        assert policy.scheduled(3)
        assert not RecalibrationPolicy().scheduled(0)


class TestResultSurface:
    @pytest.fixture(scope="class")
    def result(self, small_task):
        return _sweep(
            small_task,
            process=build_process("walk", step_scale=0.4),
            policy=RecalibrationPolicy(every=2),
        )

    def test_shapes_and_metadata(self, result):
        assert result.accuracy.shape == (12, 5)
        assert result.recalibrations.shape == (12, 5)
        assert result.timelines == 12 and result.num_steps == 5
        assert result.process == "walk"
        assert 0.0 < result.nominal_accuracy <= 1.0

    def test_curves_and_scalars(self, result):
        curve = result.served_accuracy_curve()
        assert curve.shape == (5,)
        assert result.mean_served_accuracy == pytest.approx(float(curve.mean()))
        assert result.final_step_accuracy == pytest.approx(float(curve[-1]))
        recal_curve = result.recalibration_curve()
        # every=2 over 5 steps: steps 0, 2, 4 re-null the whole fleet.
        np.testing.assert_allclose(recal_curve, [1.0, 0.0, 1.0, 0.0, 1.0])
        assert result.recalibrations_per_timeline == pytest.approx(3.0)

    def test_report_smoke(self, result):
        report = result.report()
        assert "12 device timelines" in report
        assert "'walk'" in report
        assert "recalibrations per timeline" in report


class TestRenullMachinery:
    def test_renull_network_restores_weights(self, small_task):
        layers, report = renull_network(small_task.spnn.photonic_layers)
        assert report.layers == len(layers) == len(small_task.spnn.photonic_layers)
        assert report.warm_retunes + report.exact_recompiles == report.layers
        for layer in layers:
            np.testing.assert_allclose(layer.matrix(), layer.weight, atol=1e-6)

    def test_measure_renull_cost(self, small_task):
        cost = measure_renull_cost(small_task.spnn.photonic_layers, repeats=1)
        assert isinstance(cost, RenullCost)
        assert cost.warm_seconds > 0 and cost.exact_seconds > 0
        assert cost.layers == len(small_task.spnn.photonic_layers)
        assert "warm re-null" in cost.report()
        with pytest.raises(ValueError):
            measure_renull_cost(small_task.spnn.photonic_layers, repeats=0)


class TestProcessDefaultsThroughSweep:
    def test_iid_process_gives_independent_steps(self, small_task):
        """The i.i.d. process redraws per step: step 0 equals a fresh draw
        of the legacy static Monte Carlo on the same streams (covered in
        depth by tests/variation/test_processes.py); here just check the
        sweep runs it end to end with sane output."""
        result = _sweep(small_task, process=IIDGaussianProcess(), num_steps=2)
        assert result.process == "iid"
        assert np.isfinite(result.accuracy).all()
        assert (result.accuracy >= 0.0).all() and (result.accuracy <= 1.0).all()


class TestChunkHint:
    def test_hint_does_not_depend_on_the_eval_set_size(self, small_task):
        """Each step's forward runs in fixed sub-chunks, so only state counts."""
        from repro.analysis.timeline import AccuracyTimelineTrial

        trial = AccuracyTimelineTrial(
            spnn=small_task.spnn,
            features=small_task.test_features[:10],
            labels=small_task.test_labels[:10],
            model=UncertaintyModel.phase_only(0.08),
            process=OrnsteinUhlenbeckProcess(correlation_time=4.0),
            num_steps=2,
        )
        full = AccuracyTimelineTrial(
            spnn=small_task.spnn,
            features=small_task.test_features,
            labels=small_task.test_labels,
            model=trial.model,
            process=trial.process,
            num_steps=2,
        )
        assert trial.preferred_chunk_size() == full.preferred_chunk_size() > 1
