"""Tunable-only re-null compensation against a full-width oracle, as bytes.

:class:`~repro.variation.process.DriftState` keeps compensation only for
its ``spec.tunable`` column ranges.  The oracle below is the full-width
form: a ``(B, length)`` buffer per stage whose untouched columns stay
``+0.0`` and whose whole width is subtracted at realization time.  Every
process, under every policy kind, must realize the same bytes and serve
the same accuracies either way (``.tobytes()``, so signed zeros count).
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.recalibration import RecalibrationPolicy
from repro.analysis.timeline import AccuracyTimelineTrial
from repro.onn.spnn import SPNN, SPNNArchitecture
from repro.utils.rng import spawn_rngs
from repro.variation.models import UncertaintyModel
from repro.variation.process import PROCESS_NAMES, DriftState, build_process


class FullWidthState(DriftState):
    """The full-width compensation oracle."""

    def _effective(self, index):
        compensation = self.compensation[index]
        return self.z[index] if compensation is None else self.z[index] - compensation

    def renull(self, rows=None):
        for index, spec in enumerate(self.specs):
            if spec is None or not spec.tunable:
                continue
            z = self.z[index]
            if self.compensation[index] is None:
                self.compensation[index] = np.zeros(z.shape)
            for start, stop in spec.tunable:
                if rows is None:
                    self.compensation[index][:, start:stop] = z[:, start:stop]
                else:
                    self.compensation[index][rows, start:stop] = z[rows, start:stop]


def _full_width(process):
    """``process`` with the oracle state (same class, same parameters)."""

    class Oracle(type(process)):
        def init_state(self, layers, model, generators):
            return FullWidthState(self, layers, model, generators)

    return Oracle(**dataclasses.asdict(process))


def _fields(batches):
    for batch in batches:
        for stage in (batch.u, batch.v, batch.sigma):
            if stage is not None:
                for name in stage._FIELDS:
                    yield name, getattr(stage, name)


def _spnn():
    gen = np.random.default_rng(8)
    architecture = SPNNArchitecture(layer_dims=(5, 4, 3))
    weights = [
        (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / 3.0
        for shape in architecture.weight_shapes()
    ]
    return SPNN(weights, architecture).compile()


SPNN_UNDER_TEST = _spnn()
FEATURES = np.random.default_rng(9).standard_normal((24, 5)) + 0j
#: Nominal predictions as labels: drifted timelines then fall below the
#: accuracy threshold one by one, so its re-nulls are row-masked too.
LABELS = SPNN_UNDER_TEST.predict(FEATURES, use_hardware=True)

MODELS = {
    "phs": UncertaintyModel.phase_only(0.06),
    "both": UncertaintyModel.both(0.06),
    "phs+screen": UncertaintyModel.phase_only(0.06, perturb_output_phases=True),
    "bes": UncertaintyModel.splitter_only(0.06),
}

POLICIES = {
    "schedule": RecalibrationPolicy(every=2),
    "drift-threshold": RecalibrationPolicy(drift_threshold=0.9),
    "accuracy-threshold": RecalibrationPolicy(accuracy_threshold=0.9),
}


class TestTunableOnlyCompensation:
    @settings(max_examples=40, deadline=None)
    @given(
        process=st.sampled_from(PROCESS_NAMES),
        case=st.sampled_from(sorted(MODELS)),
        batch=st.integers(1, 12),
        seed=st.integers(0, 2**16),
        masks=st.lists(st.lists(st.booleans(), min_size=12, max_size=12), min_size=1, max_size=5),
    )
    def test_row_masked_renulls_realize_the_oracle_bytes(self, process, case, batch, seed, masks):
        drift = build_process(process, correlation_time=3.0, step_scale=0.4, rate=0.3)
        layers, model = SPNN_UNDER_TEST.photonic_layers, MODELS[case]
        state = drift.init_state(layers, model, spawn_rngs(seed, batch))
        oracle = _full_width(drift).init_state(layers, model, spawn_rngs(seed, batch))
        for step, mask in enumerate(masks):
            state.advance()
            oracle.advance()
            rows = np.array(mask[:batch])
            if step % 2 == 0:
                rows = None if rows.all() else rows
                state.renull(rows)
                oracle.renull(rows)
            assert state.drift_rms().tobytes() == oracle.drift_rms().tobytes()
            for (name, got), (_, want) in zip(_fields(state.realize()), _fields(oracle.realize())):
                assert (got is None) == (want is None), name
                if got is not None:
                    assert got.tobytes() == want.tobytes(), name

    @settings(max_examples=30, deadline=None)
    @given(
        process=st.sampled_from(PROCESS_NAMES),
        case=st.sampled_from(sorted(MODELS)),
        policy=st.sampled_from(sorted(POLICIES)),
        batch=st.integers(1, 10),
        seed=st.integers(0, 2**16),
    )
    def test_served_accuracy_and_events_equal_the_oracle(self, process, case, policy, batch, seed):
        drift = build_process(process, correlation_time=3.0, step_scale=0.4, rate=0.3)
        runs = [
            AccuracyTimelineTrial(
                spnn=SPNN_UNDER_TEST,
                features=FEATURES,
                labels=LABELS,
                model=MODELS[case],
                process=candidate,
                num_steps=5,
                policies=(POLICIES[policy],),
            )(spawn_rngs(seed, batch))
            for candidate in (drift, _full_width(drift))
        ]
        (accuracy, events), (oracle_accuracy, oracle_events) = runs
        assert accuracy.tobytes() == oracle_accuracy.tobytes()
        assert events.tobytes() == oracle_events.tobytes()
