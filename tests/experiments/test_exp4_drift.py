"""EXP 4 (drift + recalibration): registry wiring and the paired sweeps."""

import numpy as np
import pytest

from repro.experiments.drift_experiment import DriftConfig, run_drift
from repro.experiments.registry import EXPERIMENT_ALIASES, get_experiment


@pytest.fixture(scope="module")
def drift_result(small_task):
    config = DriftConfig(
        process="walk",
        step_scale=0.5,
        sigma=0.08,
        num_steps=6,
        timelines=8,
        recalibrate_every=3,
        cost_repeats=1,
    )
    return run_drift(config, task=small_task)


class TestRegistryWiring:
    def test_drift_registered_with_exp4_alias(self):
        spec = get_experiment("drift")
        assert EXPERIMENT_ALIASES["exp4"] == "drift"
        assert get_experiment("exp4").identifier == spec.identifier == "drift"
        assert "EXP 4" in spec.paper_reference

    def test_smoke_config_is_small(self):
        smoke = get_experiment("drift").smoke_config
        assert isinstance(smoke, DriftConfig)
        assert smoke.num_steps <= 20 and smoke.timelines <= 32
        assert smoke.training.num_train <= 1000


class TestPairedSweeps:
    def test_baseline_and_recalibrated_are_exactly_paired(self, small_task):
        """Same seed + no-randomness re-nulling: identical curves until the
        first recalibration event diverges them."""
        config = DriftConfig(
            process="walk",
            step_scale=0.5,
            sigma=0.08,
            num_steps=4,
            timelines=6,
            recalibrate_every=None,  # null policy: both sweeps identical
            cost_repeats=1,
        )
        result = run_drift(config, task=small_task)
        np.testing.assert_array_equal(
            result.baseline.accuracy, result.recalibrated.accuracy
        )
        assert result.accuracy_recovered == pytest.approx(0.0)

    def test_recalibration_recovers_accuracy(self, drift_result):
        assert drift_result.accuracy_recovered > 0.0
        assert drift_result.baseline.total_recalibrations == 0
        # every=3 over 6 steps: the whole fleet re-nulls at steps 0 and 3.
        assert drift_result.recalibrated.recalibrations_per_timeline == pytest.approx(2.0)

    def test_budget_accounting(self, drift_result):
        cost = drift_result.renull_cost
        assert cost.warm_seconds > 0 and cost.exact_seconds > 0
        expected = (
            drift_result.recalibrated.recalibrations_per_timeline * cost.warm_seconds
        )
        assert drift_result.renull_seconds_per_timeline == pytest.approx(expected)

    def test_report_smoke(self, drift_result):
        report = drift_result.report()
        assert "EXP 4" in report
        assert "no recal [%]" in report
        assert "re-nulls per" in report

    def test_generator_rng_still_pairs_the_sweeps(self, small_task):
        config = DriftConfig(
            process="ou",
            sigma=0.05,
            num_steps=3,
            timelines=4,
            recalibrate_every=None,
            cost_repeats=1,
        )
        result = run_drift(config, task=small_task, rng=np.random.default_rng(23))
        np.testing.assert_array_equal(
            result.baseline.accuracy, result.recalibrated.accuracy
        )

    def test_seed_sequence_rng_still_pairs_the_sweeps(self, small_task):
        config = DriftConfig(
            process="ou",
            sigma=0.05,
            num_steps=3,
            timelines=4,
            recalibrate_every=None,
            cost_repeats=1,
        )
        result = run_drift(
            config, task=small_task, rng=np.random.SeedSequence(23)
        )
        np.testing.assert_array_equal(
            result.baseline.accuracy, result.recalibrated.accuracy
        )


def _tuned_phases(layer) -> dict:
    """Copies of every tuned phase and singular value of a compiled layer."""
    return {
        "u_thetas": layer.mesh_u.thetas(),
        "u_phis": layer.mesh_u.phis(),
        "u_output_phases": layer.mesh_u.output_phases.copy(),
        "v_thetas": layer.mesh_v.thetas(),
        "v_phis": layer.mesh_v.phis(),
        "v_output_phases": layer.mesh_v.output_phases.copy(),
        "singular_values": layer.diagonal.singular_values.copy(),
    }


class TestNoSideEffects:
    def test_second_study_on_one_task_is_byte_equal(self, small_task):
        """Pricing a re-null works on copies: the task's layers keep their
        phases bit for bit, so a second study repeats the first exactly."""
        layers = small_task.spnn.photonic_layers
        before = [_tuned_phases(layer) for layer in layers]
        config = DriftConfig(
            process="ou", sigma=0.05, num_steps=4, timelines=6, recalibrate_every=2,
            cost_repeats=1,
        )
        first = run_drift(config, task=small_task)
        second = run_drift(config, task=small_task)
        for label in ("baseline", "recalibrated"):
            one, two = getattr(first, label), getattr(second, label)
            assert one.accuracy.tobytes() == two.accuracy.tobytes()
            assert one.recalibrations.tobytes() == two.recalibrations.tobytes()
        for layer, parameters in zip(layers, before):
            after = _tuned_phases(layer)
            for name, values in parameters.items():
                assert after[name].tobytes() == values.tobytes(), name


class TestOnePassStudy:
    """Both policies are served from one trajectory per chunk."""

    CHUNKS, CHUNK, TIMELINES, STEPS = 2, 4, 6, 4

    def _counted_run(self, small_task, monkeypatch, case):
        from repro.onn.spnn import SPNN
        from repro.variation.process import DriftState

        advances, rows = [], []
        advance, accuracy_batch = DriftState.advance, SPNN.accuracy_batch

        def counted_advance(state):
            advances.append(state.batch_size)
            return advance(state)

        def counted_accuracy_batch(spnn, *args, **kwargs):
            served = accuracy_batch(spnn, *args, **kwargs)
            rows.append(len(served))
            return served

        monkeypatch.setattr(DriftState, "advance", counted_advance)
        monkeypatch.setattr(SPNN, "accuracy_batch", counted_accuracy_batch)
        config = DriftConfig(
            process="ou", sigma=0.05, case=case, num_steps=self.STEPS,
            timelines=self.TIMELINES, recalibrate_every=2, chunk_size=self.CHUNK,
            workers=1, cost_repeats=1,
        )
        result = run_drift(config, task=small_task)
        # Per chunk and step: the baseline's call, then the schedule's.
        calls = np.array(rows).reshape(self.CHUNKS, self.STEPS, 2)
        return advances, calls, result

    def test_each_chunk_advances_once_per_step(self, small_task, monkeypatch):
        advances, _, _ = self._counted_run(small_task, monkeypatch, "phs")
        assert len(advances) == self.CHUNKS * self.STEPS
        assert sum(advances) == self.TIMELINES * self.STEPS

    def _full_chunks(self):
        """``accuracy_batch`` rows of every call when nothing is shared."""
        rows = np.array([self.CHUNK, self.TIMELINES - self.CHUNK])[:, None, None]
        return np.broadcast_to(rows, (self.CHUNKS, self.STEPS, 2)).copy()

    def test_a_fully_renulled_phase_only_chunk_evaluates_one_row(self, small_task, monkeypatch):
        _, calls, result = self._counted_run(small_task, monkeypatch, "phs")
        expected = self._full_chunks()
        expected[:, 0::2, 1] = 1  # the schedule's steps 0 and 2
        np.testing.assert_array_equal(calls, expected)
        assert result.recalibrated.recalibrations[:, 0::2].all()

    def test_splitter_drift_evaluates_the_full_chunk(self, small_task, monkeypatch):
        _, calls, _ = self._counted_run(small_task, monkeypatch, "both")
        np.testing.assert_array_equal(calls, self._full_chunks())
