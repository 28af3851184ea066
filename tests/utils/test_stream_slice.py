"""StreamSlice: compact ``(seed, range)`` recipes for spawned child streams."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import materialize_streams, spawn_rngs, spawn_slice


def _states(generators):
    """The first raw outputs of each stream (consumes them)."""
    return [generator.bit_generator.random_raw(4).tolist() for generator in generators]


#: Parents of every kind ``spawn_rngs`` accepts, built fresh per call so a
#: stateful one can be compared against an identical twin.
PARENTS = {
    "int": lambda seed: seed,
    "seed_sequence": lambda seed: np.random.SeedSequence(seed),
    "generator": lambda seed: np.random.default_rng(seed),
    "philox_generator": lambda seed: np.random.Generator(np.random.Philox(seed)),
}


class TestRoundTrip:
    def test_rebuilt_generators_bit_identical(self):
        generators = spawn_rngs(42, 8)
        slice_ = spawn_slice(42, 8)
        assert len(slice_) == 8
        rebuilt = slice_.generators()
        for original, copy in zip(generators, rebuilt):
            assert original.bit_generator.state == copy.bit_generator.state
            np.testing.assert_array_equal(
                original.standard_normal(16), copy.standard_normal(16)
            )

    def test_sub_run_keeps_spawn_offsets(self):
        """A chunk from the middle of a spawn run replays its exact streams."""
        generators = spawn_rngs(7, 10)
        slice_ = spawn_slice(7, 10)[4:8]
        assert slice_.first == 4 and slice_.count == 4
        assert _states(slice_.generators()) == _states(generators[4:8])

    def test_pickle_round_trip_small(self):
        generators = spawn_rngs(3, 250)
        slice_ = spawn_slice(3, 250)
        payload = pickle.dumps(slice_)
        # The whole point: O(100) bytes per chunk, not per generator.
        assert len(payload) < 1024
        assert len(payload) < len(pickle.dumps(generators)) / 20
        assert _states(pickle.loads(payload).generators()) == _states(generators)

    def test_materialize_streams_concatenates_parts(self):
        parent = spawn_slice(11, 2)
        parts = (parent.child_slice(0, 3)[1:], parent.child_slice(1, 3)[:2])
        streams = spawn_rngs(11, 2)
        expected = spawn_rngs(streams[0], 3)[1:] + spawn_rngs(streams[1], 3)[:2]
        assert _states(materialize_streams(parts)) == _states(expected)

    def test_only_contiguous_slices(self):
        with pytest.raises(TypeError):
            spawn_slice(1, 6)[::2]
        with pytest.raises(TypeError):
            spawn_slice(1, 6)[2]

    def test_rejects_what_spawn_rngs_rejects(self):
        with pytest.raises(ValueError):
            spawn_slice(0, -1)
        with pytest.raises(TypeError):
            spawn_slice("not-a-seed", 2)
        with pytest.raises(IndexError):
            spawn_slice(0, 2).child_slice(2, 1)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(PARENTS)),
    seed=st.integers(0, 2**32 - 1),
    before=st.integers(0, 5),
    count=st.integers(0, 40),
    window=st.tuples(st.integers(-45, 45), st.integers(-45, 45)),
    child=st.integers(0, 39),
    grandchildren=st.integers(0, 6),
)
def test_round_trips_over_arbitrary_spawn_ranges(
    kind, seed, before, count, window, child, grandchildren
):
    """Any window of any recipe names exactly ``spawn_rngs``'s children.

    Both parents first spawn ``before`` children, so stateful parents start
    mid-count; afterwards their next children agree as well.
    """
    oracle_parent, parent = PARENTS[kind](seed), PARENTS[kind](seed)
    spawn_rngs(oracle_parent, before)
    spawn_rngs(parent, before)
    oracle = spawn_rngs(oracle_parent, count)
    recipe = spawn_slice(parent, count)
    assert len(recipe) == count
    start, stop = window
    expected = _states(oracle)[start:stop]
    assert _states(recipe[start:stop].generators()) == expected
    restored = pickle.loads(pickle.dumps(recipe[start:stop]))
    assert _states(restored.generators()) == expected
    if child < count:
        assert _states(recipe.child_slice(child, grandchildren).generators()) == _states(
            spawn_rngs(oracle[child], grandchildren)
        )
    assert _states(spawn_rngs(parent, 2)) == _states(spawn_rngs(oracle_parent, 2))
