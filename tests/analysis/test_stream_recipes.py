"""Chunk schedulers built on stream recipes against a materialized oracle.

The Monte Carlo runner, the folded yield sweep and the timeline sweep
never spawn generators up front: each chunk carries the
:class:`~repro.utils.rng.StreamSlice` recipes of its rows and builds its
own generators.  The properties here check, on the serial, thread and
process backends and for int, ``SeedSequence`` and ``Generator`` parents,
that the samples equal those of the generators ``spawn_rngs`` would have
spawned, whatever the chunk size (1, sizes that straddle sigma boundaries,
sizes above the run), and that a stateful parent is left exactly where
``spawn_rngs`` leaves it.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.monte_carlo import MonteCarloRunner
from repro.analysis.timeline import AccuracyTimelineTrial, timeline_sweep
from repro.analysis.yield_analysis import _folded_tasks, yield_sweep
from repro.execution import MultiprocessBackend, SerialBackend, ThreadBackend
from repro.experiments.exp1_global import DEFAULT_SIGMAS
from repro.onn import SPNNArchitecture
from repro.onn.inference import NetworkAccuracyBatchTrial
from repro.onn.spnn import SPNN
from repro.utils.rng import spawn_rngs, spawn_slice
from repro.variation.models import UncertaintyModel
from repro.variation.process import OrnsteinUhlenbeckProcess

PARENTS = {
    "int": lambda seed: seed,
    "seed_sequence": lambda seed: np.random.SeedSequence(seed),
    "generator": lambda seed: np.random.default_rng(seed),
}

SETTINGS = settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def normal_trial(generator):
    return generator.standard_normal()


def normal_batch_trial(generators):
    return np.array([generator.standard_normal() for generator in generators])


def _next_children(parent):
    """Raw outputs of the next two children spawned from ``parent``."""
    return [child.bit_generator.random_raw(2).tolist() for child in spawn_rngs(parent, 2)]


@pytest.fixture(scope="module")
def backends():
    """One backend of each kind; the process pool lives for the module."""
    with MultiprocessBackend(workers=2) as process:
        yield {"serial": SerialBackend(), "thread": ThreadBackend(2), "process": process}


@pytest.fixture(scope="module")
def eval_task(small_task):
    return small_task.spnn, small_task.test_features[:24], small_task.test_labels[:24]


@SETTINGS
@given(
    kind=st.sampled_from(sorted(PARENTS)),
    seed=st.integers(0, 2**32 - 1),
    iterations=st.integers(1, 30),
    chunk=st.one_of(st.none(), st.integers(1, 40)),
    backend=st.sampled_from(["serial", "thread", "process"]),
)
def test_runner_matches_spawned_generators(backends, kind, seed, iterations, chunk, backend):
    oracle_parent, parent = PARENTS[kind](seed), PARENTS[kind](seed)
    expected = normal_batch_trial(spawn_rngs(oracle_parent, iterations))
    runner = MonteCarloRunner(iterations=iterations, chunk_size=chunk, backend=backends[backend])
    assert runner.run_batched(normal_batch_trial, rng=parent).samples.tobytes() == expected.tobytes()
    assert _next_children(parent) == _next_children(oracle_parent)
    # The scalar route names the same streams.
    scalar = runner.run(normal_trial, rng=PARENTS[kind](seed)).samples
    assert scalar.tobytes() == expected.tobytes()


@SETTINGS
@given(
    kind=st.sampled_from(sorted(PARENTS)),
    seed=st.integers(0, 2**32 - 1),
    iterations=st.integers(1, 9),
    chunk=st.sampled_from(["none", "one", "under", "over", "straddle", "all", "beyond"]),
    backend=st.sampled_from(["serial", "thread", "process"]),
)
def test_folded_yield_sweep_matches_spawned_generators(
    backends, eval_task, kind, seed, iterations, chunk, backend
):
    spnn, features, labels = eval_task
    sigmas = (0.02, 0.0, 0.05, 0.1)
    rows = 3 * iterations
    chunk_size = {
        "none": None,
        "one": 1,
        "under": max(1, iterations - 1),
        "over": iterations + 1,
        "straddle": iterations + iterations // 2 + 1,
        "all": rows,
        "beyond": rows + 5,
    }[chunk]
    oracle_parent, parent = PARENTS[kind](seed), PARENTS[kind](seed)
    result = yield_sweep(
        spnn,
        features,
        labels,
        sigmas,
        iterations=iterations,
        rng=parent,
        chunk_size=chunk_size,
        backend=backends[backend],
    )
    nominal = spnn.accuracy(features, labels, use_hardware=True)
    for sigma, stream in zip(sigmas, spawn_rngs(oracle_parent, len(sigmas))):
        model = UncertaintyModel.for_case("both", sigma, perturb_sigma_stage=True)
        if model.is_null:
            expected = np.full(iterations, nominal)
        else:
            trial = NetworkAccuracyBatchTrial(spnn=spnn, features=features, labels=labels, model=model)
            expected = trial(spawn_rngs(stream, iterations))
        assert result.accuracy_samples[sigma].tobytes() == expected.tobytes(), sigma
    assert _next_children(parent) == _next_children(oracle_parent)


@SETTINGS
@given(
    kind=st.sampled_from(sorted(PARENTS)),
    seed=st.integers(0, 2**32 - 1),
    timelines=st.integers(1, 7),
    chunk=st.one_of(st.none(), st.integers(1, 9)),
    backend=st.sampled_from(["serial", "thread", "process"]),
)
def test_timeline_sweeps_match_spawned_generators(
    backends, eval_task, kind, seed, timelines, chunk, backend
):
    spnn, features, labels = eval_task
    model = UncertaintyModel.phase_only(0.05)
    kwargs = dict(process=OrnsteinUhlenbeckProcess(correlation_time=3.0), num_steps=3)
    scheduling = dict(timelines=timelines, chunk_size=chunk, backend=backends[backend])
    oracle_parent, parent = PARENTS[kind](seed), PARENTS[kind](seed)
    [swept] = timeline_sweep(spnn, features, labels, model, rng=parent, **kwargs, **scheduling)
    trial = AccuracyTimelineTrial(spnn=spnn, features=features, labels=labels, model=model, **kwargs)
    (accuracy,), (events,) = trial(spawn_rngs(oracle_parent, timelines))
    assert swept.accuracy.tobytes() == accuracy.tobytes()
    assert swept.recalibrations.tobytes() == events.tobytes()
    assert _next_children(parent) == _next_children(oracle_parent)


def test_scheduling_a_paper_yield_sweep_stays_small():
    """The 7,000-row folded task list costs no generators up front."""
    generator = np.random.default_rng(1)
    architecture = SPNNArchitecture(layer_dims=(16, 16, 16, 10))
    weights = [
        (generator.standard_normal(shape) + 1j * generator.standard_normal(shape)) / 4.0
        for shape in architecture.weight_shapes()
    ]
    spnn = SPNN(weights, architecture).compile()
    features = generator.standard_normal((1000, 16)) + 1j * generator.standard_normal((1000, 16))
    labels = generator.integers(0, 10, 1000)
    args = (spnn, features, labels, DEFAULT_SIGMAS)
    tail = ("both", True, 1000, None, MultiprocessBackend(workers=2), False)
    tracemalloc.start()
    try:
        tasks, row_slices, _ = _folded_tasks(*args, spawn_slice(13, len(DEFAULT_SIGMAS)), *tail)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(row_slices) * 1000 == 7000
    assert sum(sum(len(part) for part in task[2]) for task in tasks) == 7000
    assert peak <= 1_000_000, peak
