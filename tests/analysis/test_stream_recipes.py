"""Chunk schedulers built on stream recipes against a materialized oracle.

Every sweep goes through :func:`~repro.analysis.monte_carlo.run_sweep`,
which never spawns generators up front: each chunk carries the
:class:`~repro.utils.rng.StreamSlice` recipe of its rows and builds its
own generators.  The properties here check, on the serial, thread and
process backends and for int, ``SeedSequence`` and ``Generator`` parents,
that the samples equal those of the generators ``spawn_rngs`` would have
spawned, whatever the parts and the chunk size (1, sizes that straddle
part boundaries, sizes above the sweep), that a stateful parent is left
exactly where ``spawn_rngs`` leaves it, and that the runner, yield and
timeline front ends wire their streams the same way.
"""

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.monte_carlo import (
    MonteCarloRunner,
    evaluate_batch_chunk,
    run_sweep,
    sweep_tasks,
)
from repro.analysis.timeline import AccuracyTimelineTrial, timeline_sweep
from repro.analysis.yield_analysis import yield_sweep
from repro.execution import MultiprocessBackend, SerialBackend, ThreadBackend
from repro.experiments.exp1_global import DEFAULT_SIGMAS
from repro.observability import observe
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


@dataclass(frozen=True)
class ScaledNormalTrial:
    """Picklable batch trial: one scaled standard normal per generator."""

    scale: float

    def __call__(self, generators):
        return self.scale * np.array([generator.standard_normal() for generator in generators])


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
    # run_many gives label i the children of the i-th stream spawned from rng.
    trials = {"a": normal_batch_trial, "b": normal_batch_trial}
    many = runner.run_many(trials, rng=PARENTS[kind](seed), batched=True)
    for result, stream in zip(many.values(), spawn_rngs(PARENTS[kind](seed), 2)):
        assert result.samples.tobytes() == normal_batch_trial(spawn_rngs(stream, iterations)).tobytes()


@SETTINGS
@given(
    kind=st.sampled_from(sorted(PARENTS)),
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 12), min_size=1, max_size=4),
    layout=st.sampled_from(["children", "consecutive"]),
    chunk=st.sampled_from(["none", "one", "straddle", "beyond"]),
    backend=st.sampled_from(["serial", "thread", "process"]),
)
def test_sweep_matches_spawned_generators(backends, kind, seed, sizes, layout, chunk, backend):
    """Any parts, any chunking, any backend: the materialized oracle's samples.

    ``children`` names part ``k``'s rows as the children of the ``k``-th
    stream spawned from the parent (the runner's ``run_many``, the yield
    sweep, bisection); ``consecutive`` spawns each part's rows straight
    from the parent in part order (EXP 1, EXP 2).
    """
    rows = sum(sizes)
    chunk_size = {"none": None, "one": 1, "straddle": sizes[0] + 1, "beyond": rows + 5}[chunk]
    oracle_parent, parent = PARENTS[kind](seed), PARENTS[kind](seed)
    trials = [ScaledNormalTrial(float(index + 1)) for index in range(len(sizes))]
    if layout == "children":
        streams = spawn_slice(parent, len(sizes))
        slices = [streams.child_slice(index, size) for index, size in enumerate(sizes)]
        oracle_streams = spawn_rngs(oracle_parent, len(sizes))
        oracle = [spawn_rngs(stream, size) for stream, size in zip(oracle_streams, sizes)]
    else:
        slices = [spawn_slice(parent, size) for size in sizes]
        oracle = [spawn_rngs(oracle_parent, size) for size in sizes]
    with observe() as rec:
        results = run_sweep(
            backends[backend], evaluate_batch_chunk, list(zip(trials, slices)), chunk_size, label="prop"
        )
    assert len(results) == len(sizes)
    for trial, generators, samples in zip(trials, oracle, results):
        assert samples.tobytes() == trial(generators).tobytes()
    assert _next_children(parent) == _next_children(oracle_parent)
    # The frames are exactly a contiguous cover of the flat row space, and
    # the span's plan rebuilds them.
    frames = [(frame.start, frame.count) for frame in rec.frames]
    position = 0
    for start, count in frames:
        assert start == position and count >= 1
        position += count
    assert position == rows
    (plan,) = [span.attrs for span in rec.spans if span.name == "mc/run"]
    expected, offset = [], 0
    for part_rows, part_chunk in zip(plan["part_rows"], plan["part_chunk_sizes"]):
        expected += [
            (offset + start, min(part_chunk, part_rows - start)) for start in range(0, part_rows, part_chunk)
        ]
        offset += part_rows
    assert frames == expected
    assert plan["part_rows"] == sizes and plan["chunks"] == len(frames)


@SETTINGS
@given(
    kind=st.sampled_from(sorted(PARENTS)),
    seed=st.integers(0, 2**32 - 1),
    iterations=st.integers(1, 9),
    chunk=st.sampled_from(["none", "one", "under", "over", "straddle", "all", "beyond"]),
    backend=st.sampled_from(["serial", "thread", "process"]),
)
def test_yield_sweep_matches_spawned_generators(
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
    """The 7,000-row task list of a paper yield sweep costs no generators up front."""
    generator = np.random.default_rng(1)
    architecture = SPNNArchitecture(layer_dims=(16, 16, 16, 10))
    weights = [
        (generator.standard_normal(shape) + 1j * generator.standard_normal(shape)) / 4.0
        for shape in architecture.weight_shapes()
    ]
    spnn = SPNN(weights, architecture).compile()
    features = generator.standard_normal((1000, 16)) + 1j * generator.standard_normal((1000, 16))
    labels = generator.integers(0, 10, 1000)
    streams = spawn_slice(13, len(DEFAULT_SIGMAS))
    tracemalloc.start()
    try:
        parts = [
            (
                NetworkAccuracyBatchTrial(
                    spnn=spnn, features=features, labels=labels, model=UncertaintyModel.both(sigma)
                ),
                streams.child_slice(index, 1000),
            )
            for index, sigma in enumerate(DEFAULT_SIGMAS)
            if sigma > 0.0
        ]
        tasks, _ = sweep_tasks(MultiprocessBackend(workers=2), parts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(parts) * 1000 == 7000
    assert sum(sum(len(part) for part in task[2]) for task in tasks) == 7000
    assert peak <= 1_000_000, peak
