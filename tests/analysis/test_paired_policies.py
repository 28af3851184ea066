"""One drift trajectory serving several policies, against single-policy sweeps.

:func:`~repro.analysis.timeline.timeline_sweep` serves every policy of
``policies`` from one :class:`~repro.variation.process.DriftState` per
chunk, through a :meth:`~repro.variation.process.DriftState.view` each,
and evaluates a fully re-nulled chunk once when the model's fields are
all tunable.  The oracle below is the single-policy loop: its own state,
advanced per policy, every step served for every timeline.  Accuracy and
events must match it byte for byte whatever the process, the policy mix,
the model, the chunk size and the backend.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.recalibration import RecalibrationPolicy
from repro.analysis.timeline import timeline_sweep
from repro.execution import MultiprocessBackend, SerialBackend, ThreadBackend
from repro.onn.spnn import SPNN, SPNNArchitecture
from repro.utils.rng import spawn_rngs
from repro.variation.models import UncertaintyModel
from repro.variation.process import PROCESS_NAMES, build_process


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
#: Nominal predictions as labels: drifted timelines fall below the accuracy
#: threshold one by one, so its re-nulls are row-masked too.
LABELS = SPNN_UNDER_TEST.predict(FEATURES, use_hardware=True)

MODELS = {
    "phs": UncertaintyModel.for_case("phs", 0.06),
    "bes": UncertaintyModel.for_case("bes", 0.06),
    "both": UncertaintyModel.for_case("both", 0.06),
}

POLICIES = {
    "none": None,
    "null": RecalibrationPolicy(),
    "schedule": RecalibrationPolicy(every=2),
    "every-step": RecalibrationPolicy(every=1),
    "drift-threshold": RecalibrationPolicy(drift_threshold=0.9),
    "accuracy-threshold": RecalibrationPolicy(accuracy_threshold=0.9),
    "schedule+drift": RecalibrationPolicy(every=3, drift_threshold=1.1),
    "all-triggers": RecalibrationPolicy(every=4, drift_threshold=1.0, accuracy_threshold=0.8),
}


def single_policy_sweep(model, process, num_steps, policy, generators):
    """The single-policy timeline loop: own state, every timeline served."""
    policy = policy if policy is not None else RecalibrationPolicy()
    state = process.init_state(SPNN_UNDER_TEST.photonic_layers, model, generators)
    batch_size = len(generators)
    accuracy = np.empty((batch_size, num_steps), dtype=np.float64)
    events = np.zeros((batch_size, num_steps), dtype=bool)
    pending = np.zeros(batch_size, dtype=bool)
    for step in range(num_steps):
        state.advance()
        mask = pending.copy()
        if policy.scheduled(step):
            mask[:] = True
        if policy.drift_threshold is not None:
            mask |= state.drift_rms() >= policy.drift_threshold
        if mask.all():
            state.renull()
        elif mask.any():
            state.renull(rows=mask)
        events[:, step] = mask
        accuracy[:, step] = SPNN_UNDER_TEST.accuracy_batch(
            FEATURES, LABELS, state.realize(), batch_size=batch_size
        )
        if policy.accuracy_threshold is not None:
            pending = accuracy[:, step] < policy.accuracy_threshold
        else:
            pending[:] = False
    return accuracy, events


@pytest.fixture(scope="module")
def backends():
    """One backend of each kind; the 2-worker process pool lives for the module."""
    with MultiprocessBackend(workers=2) as process:
        yield {"serial": SerialBackend(), "thread": ThreadBackend(2), "process": process}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    process=st.sampled_from(PROCESS_NAMES),
    case=st.sampled_from(sorted(MODELS)),
    policies=st.lists(st.sampled_from(sorted(POLICIES)), min_size=1, max_size=3),
    timelines=st.integers(1, 9),
    num_steps=st.integers(1, 6),
    chunk=st.one_of(st.none(), st.integers(1, 10)),
    backend=st.sampled_from(["serial", "thread", "process"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_multi_policy_sweep_equals_single_policy_sweeps(
    backends, process, case, policies, timelines, num_steps, chunk, backend, seed
):
    drift = build_process(process, correlation_time=3.0, step_scale=0.4, rate=0.3)
    model = MODELS[case]
    armed = [POLICIES[name] for name in policies]
    results = timeline_sweep(
        SPNN_UNDER_TEST,
        FEATURES,
        LABELS,
        model,
        drift,
        num_steps=num_steps,
        timelines=timelines,
        policies=armed,
        rng=seed,
        chunk_size=chunk,
        backend=backends[backend],
    )
    assert len(results) == len(armed)
    for name, policy, result in zip(policies, armed, results):
        accuracy, events = single_policy_sweep(
            model, drift, num_steps, policy, spawn_rngs(seed, timelines)
        )
        assert result.policy is policy
        assert result.accuracy.tobytes() == accuracy.tobytes(), name
        assert result.recalibrations.tobytes() == events.tobytes(), name


def test_a_sweep_needs_a_policy():
    with pytest.raises(ValueError, match="at least one policy"):
        timeline_sweep(
            SPNN_UNDER_TEST,
            FEATURES,
            LABELS,
            MODELS["phs"],
            build_process("ou"),
            num_steps=2,
            timelines=2,
            policies=(),
        )
