"""Perturbation-process seam: i.i.d. equivalence, temporal laws, re-nulling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mesh.svd_layer import PhotonicLinearLayer
from repro.utils.rng import spawn_rngs
from repro.variation.models import UncertaintyModel
from repro.variation.process import (
    PROCESS_NAMES,
    DriftRampProcess,
    IIDGaussianProcess,
    OrnsteinUhlenbeckProcess,
    RandomWalkProcess,
    build_process,
)
from repro.variation.sampler import sample_network_perturbation_batch


def _layers(seed=3, sizes=((6, 6), (6, 6))):
    gen = np.random.default_rng(seed)
    layers = []
    for out_dim, in_dim in sizes:
        weight = (
            gen.standard_normal((out_dim, in_dim))
            + 1j * gen.standard_normal((out_dim, in_dim))
        ) / 3.0
        layers.append(PhotonicLinearLayer(weight))
    return layers


def _tiny_layers(seed=5):
    """One 2x2 layer (single-MZI meshes): cheap enough for statistics."""
    return _layers(seed=seed, sizes=((2, 2),))


def _flat_fields(batches):
    """Every non-None array field of a per-layer batch list, in order."""
    fields = []
    for batch in batches:
        if batch is None:
            continue
        for stage in (batch.u, batch.v, batch.sigma):
            if stage is None:
                continue
            for name in stage._FIELDS:
                value = getattr(stage, name)
                if value is not None:
                    fields.append(np.asarray(value))
    return fields


def _assert_batches_equal(left, right):
    left_fields, right_fields = _flat_fields(left), _flat_fields(right)
    assert len(left_fields) == len(right_fields)
    for a, b in zip(left_fields, right_fields):
        np.testing.assert_array_equal(a, b)


class TestIIDEquivalence:
    def test_state_step0_matches_legacy_sampler(self):
        """Every process starts at the fabrication draw = the legacy batch."""
        layers = _layers()
        model = UncertaintyModel.both(0.05)
        for process in (
            IIDGaussianProcess(),
            OrnsteinUhlenbeckProcess(),
            RandomWalkProcess(),
            DriftRampProcess(),
        ):
            state = process.init_state(layers, model, spawn_rngs(0, 4))
            state.advance()
            legacy = sample_network_perturbation_batch(layers, model, spawn_rngs(0, 4))
            _assert_batches_equal(state.realize(), legacy)

    def test_iid_state_every_step_matches_fresh_draws(self):
        """The i.i.d. process is memoryless: step t equals a fresh draw."""
        layers = _layers()
        model = UncertaintyModel.both(0.05)
        state = IIDGaussianProcess().init_state(layers, model, spawn_rngs(0, 3))
        reference = [g for g in spawn_rngs(0, 3)]
        for _ in range(3):
            state.advance()
            legacy = sample_network_perturbation_batch(layers, model, reference)
            _assert_batches_equal(state.realize(), legacy)


class TestChunkInvariance:
    @pytest.mark.parametrize("process_name", PROCESS_NAMES)
    def test_timelines_split_into_chunks_bit_identical(self, process_name):
        """Chunking the timeline axis never changes any step's realization."""
        layers = _layers()
        model = UncertaintyModel.both(0.04)
        process = build_process(process_name, step_scale=0.3, rate=0.1)
        steps = 4
        full_state = process.init_state(layers, model, spawn_rngs(7, 6))
        generators = spawn_rngs(7, 6)
        chunk_states = [
            process.init_state(layers, model, generators[:2]),
            process.init_state(layers, model, generators[2:]),
        ]
        for _ in range(steps):
            full_state.advance()
            for state in chunk_states:
                state.advance()
            full_fields = _flat_fields(full_state.realize())
            chunk_fields = [
                _flat_fields(state.realize()) for state in chunk_states
            ]
            for index, full in enumerate(full_fields):
                stacked = np.concatenate(
                    [fields[index] for fields in chunk_fields], axis=0
                )
                np.testing.assert_array_equal(full, stacked)


class TestTemporalLaws:
    def _phase_draws(self, process, steps, timelines=2000, sigma=0.05, seed=11):
        """Normalized delta_theta of the U mesh at every step, (T, B) stack."""
        layers = _tiny_layers()
        model = UncertaintyModel.phase_only(sigma)
        state = process.init_state(layers, model, spawn_rngs(seed, timelines))
        track = []
        for _ in range(steps):
            state.advance()
            batch = state.realize()[0]
            track.append(np.asarray(batch.u.delta_theta)[:, 0] / model.phase_std)
        return np.stack(track)

    def test_ou_is_stationary_with_lag1_autocorrelation_rho(self):
        process = OrnsteinUhlenbeckProcess(correlation_time=5.0, dt=1.0)
        track = self._phase_draws(process, steps=12)
        late = track[6:]
        # Stationary N(0, 1) marginal at every step.
        assert abs(float(late.var()) - 1.0) < 0.1
        assert abs(float(late.mean())) < 0.05
        lag1 = np.corrcoef(track[8], track[9])[0, 1]
        assert abs(float(lag1) - process.rho) < 0.06

    def test_walk_variance_grows_linearly(self):
        scale = 0.5
        process = RandomWalkProcess(step_scale=scale)
        track = self._phase_draws(process, steps=9)
        for step in (0, 4, 8):
            expected = 1.0 + step * scale**2
            measured = float(track[step].var())
            assert abs(measured - expected) < 0.2 * expected

    def test_ramp_is_deterministic_after_init(self):
        rate = 0.07
        ramp_track = self._phase_draws(DriftRampProcess(rate=rate), steps=5, timelines=8)
        iid_step0 = self._phase_draws(IIDGaussianProcess(), steps=1, timelines=8)[0]
        for step in range(5):
            np.testing.assert_allclose(
                ramp_track[step], iid_step0 + step * rate, rtol=0, atol=1e-12
            )

    def test_ramp_consumes_no_rng_after_init(self):
        layers = _tiny_layers()
        model = UncertaintyModel.phase_only(0.05)
        generators = spawn_rngs(3, 4)
        state = DriftRampProcess().init_state(layers, model, generators)
        for _ in range(4):
            state.advance()
        reference = spawn_rngs(3, 4)
        ref_state = DriftRampProcess().init_state(layers, model, reference)
        ref_state.advance()  # only the init draw touches the streams
        assert all(
            a.bit_generator.state == b.bit_generator.state
            for a, b in zip(generators, reference)
        )


class TestRenull:
    def _advanced_state(self, process, model=None, timelines=6, steps=3, seed=13):
        layers = _layers()
        model = model if model is not None else UncertaintyModel.phase_only(0.06)
        state = process.init_state(layers, model, spawn_rngs(seed, timelines))
        for _ in range(steps):
            state.advance()
        return state

    def test_renull_zeroes_drift_and_realization(self):
        state = self._advanced_state(RandomWalkProcess(step_scale=0.4))
        assert float(np.min(state.drift_rms())) > 0.0
        state.renull()
        np.testing.assert_allclose(np.asarray(state.drift_rms()), 0.0, atol=1e-15)
        for field in _flat_fields(state.realize()):
            np.testing.assert_allclose(field, 0.0, atol=1e-15)

    def test_renull_masked_rows_only(self):
        state = self._advanced_state(RandomWalkProcess(step_scale=0.4))
        before = np.asarray(state.drift_rms()).copy()
        mask = np.zeros(6, dtype=bool)
        mask[1] = mask[4] = True
        state.renull(rows=mask)
        after = np.asarray(state.drift_rms())
        np.testing.assert_allclose(after[mask], 0.0, atol=1e-15)
        np.testing.assert_array_equal(after[~mask], before[~mask])

    def test_drift_resumes_after_renull(self):
        state = self._advanced_state(RandomWalkProcess(step_scale=0.4))
        state.renull()
        state.advance()
        assert float(np.min(state.drift_rms())) > 0.0

    def test_splitter_only_model_has_no_tunable_drift(self):
        """Splitter errors are fabrication, not tunable: nothing to re-null."""
        state = self._advanced_state(
            RandomWalkProcess(step_scale=0.4),
            model=UncertaintyModel.splitter_only(0.06),
        )
        np.testing.assert_allclose(np.asarray(state.drift_rms()), 0.0, atol=1e-15)
        before = _flat_fields(state.realize())
        state.renull()  # no tunable slices -> a no-op, not an error
        after = _flat_fields(state.realize())
        for left, right in zip(before, after):
            np.testing.assert_array_equal(left, right)


class TestBuildProcess:
    def test_names_map_to_types(self):
        assert isinstance(build_process("iid"), IIDGaussianProcess)
        assert isinstance(build_process("ou"), OrnsteinUhlenbeckProcess)
        assert isinstance(build_process("walk"), RandomWalkProcess)
        assert isinstance(build_process("ramp"), DriftRampProcess)
        assert set(PROCESS_NAMES) == {"iid", "ou", "walk", "ramp"}

    def test_knobs_are_forwarded(self):
        ou = build_process("OU", correlation_time=9.0, dt=0.5)
        assert ou.correlation_time == 9.0 and ou.dt == 0.5
        assert build_process("walk", step_scale=0.25).step_scale == 0.25
        assert build_process("ramp", rate=0.02).rate == 0.02

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown perturbation process"):
            build_process("brownian-bridge")

    def test_linearity_flags(self):
        """Only the deterministic ramp draws nothing after the fabrication draw."""
        assert not DriftRampProcess().uses_noise_after_init
        assert IIDGaussianProcess().uses_noise_after_init


class TestParameterValidation:
    @pytest.mark.parametrize(
        "make",
        [
            lambda bad: OrnsteinUhlenbeckProcess(correlation_time=bad),
            lambda bad: OrnsteinUhlenbeckProcess(dt=bad),
            lambda bad: RandomWalkProcess(step_scale=bad),
            lambda bad: DriftRampProcess(rate=bad),
        ],
        ids=["ou-correlation_time", "ou-dt", "walk-step_scale", "ramp-rate"],
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameters_rejected(self, make, bad):
        with pytest.raises(ValueError, match="finite"):
            make(bad)

    def test_finite_parameters_accepted(self):
        assert DriftRampProcess(rate=-0.05).rate == -0.05
        assert RandomWalkProcess(step_scale=0.0).step_scale == 0.0
