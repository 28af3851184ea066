"""Tests for RNG handling helpers."""

import numpy as np
import pytest

from repro.utils.rng import ensure_rng, spawn_rngs, standard_normal_rows


def test_ensure_rng_from_seed_is_reproducible():
    a = ensure_rng(42).standard_normal(5)
    b = ensure_rng(42).standard_normal(5)
    assert np.allclose(a, b)


def test_ensure_rng_passthrough_generator():
    gen = np.random.default_rng(0)
    assert ensure_rng(gen) is gen


def test_ensure_rng_none_gives_generator():
    assert isinstance(ensure_rng(None), np.random.Generator)


def test_ensure_rng_accepts_seed_sequence():
    seq = np.random.SeedSequence(3)
    gen = ensure_rng(seq)
    assert isinstance(gen, np.random.Generator)


def test_ensure_rng_rejects_bad_type():
    with pytest.raises(TypeError):
        ensure_rng("not-a-seed")


def test_spawn_rngs_count_and_independence():
    children = spawn_rngs(0, 4)
    assert len(children) == 4
    draws = [gen.standard_normal() for gen in children]
    assert len(set(np.round(draws, 12))) == 4


def test_spawn_rngs_reproducible_from_seed():
    first = [g.standard_normal() for g in spawn_rngs(7, 3)]
    second = [g.standard_normal() for g in spawn_rngs(7, 3)]
    assert np.allclose(first, second)


def test_spawn_rngs_rejects_negative_count():
    with pytest.raises(ValueError):
        spawn_rngs(0, -1)


def test_spawn_rngs_zero_count():
    assert spawn_rngs(0, 0) == []


def test_spawn_rngs_uses_seed_sequence_spawning():
    """Regression: children must come from SeedSequence.spawn(), not from
    int64 draws of the parent (which had a birthday-collision risk)."""
    children = spawn_rngs(123, 3)
    reference = [np.random.default_rng(c) for c in np.random.SeedSequence(123).spawn(3)]
    for child, ref in zip(children, reference):
        assert np.array_equal(child.standard_normal(4), ref.standard_normal(4))


def test_spawn_rngs_from_seed_sequence_object():
    seq = np.random.SeedSequence(9)
    first = [g.standard_normal() for g in spawn_rngs(seq, 2)]
    # Spawning again from the same (stateful) SeedSequence yields fresh streams.
    second = [g.standard_normal() for g in spawn_rngs(seq, 2)]
    assert not np.allclose(first, second)


def test_spawn_rngs_generator_parent_gives_fresh_children_per_call():
    parent = np.random.default_rng(5)
    first = [g.standard_normal() for g in spawn_rngs(parent, 2)]
    second = [g.standard_normal() for g in spawn_rngs(parent, 2)]
    assert not np.allclose(first, second)


def test_spawn_rngs_rejects_bad_type():
    with pytest.raises(TypeError):
        spawn_rngs("not-a-seed", 2)


def test_standard_normal_rows_bit_identical_to_plain_draws():
    gens = [np.random.default_rng(seed) for seed in (1, 2, 3)]
    rows = standard_normal_rows(gens, 6)
    expected = np.stack([np.random.default_rng(seed).standard_normal(6) for seed in (1, 2, 3)])
    np.testing.assert_array_equal(rows, expected)


def test_standard_normal_rows_fills_the_out_buffer():
    out = np.empty((1, 4))
    result = standard_normal_rows([np.random.default_rng(9)], 4, out=out)
    assert result is out
    np.testing.assert_array_equal(out[0], np.random.default_rng(9).standard_normal(4))


def test_standard_normal_rows_consume_each_stream_like_a_plain_draw():
    gens = spawn_rngs(4, 3)
    standard_normal_rows(gens, 5)
    for gen, reference in zip(gens, spawn_rngs(4, 3)):
        reference.standard_normal(5)
        np.testing.assert_array_equal(gen.standard_normal(3), reference.standard_normal(3))


def test_standard_normal_rows_zero_length_leaves_streams_untouched():
    gens = spawn_rngs(5, 2)
    rows = standard_normal_rows(gens, 0)
    assert rows.shape == (2, 0)
    for gen, reference in zip(gens, spawn_rngs(5, 2)):
        assert gen.standard_normal() == reference.standard_normal()


def test_standard_normal_rows_without_generators_is_empty():
    rows = standard_normal_rows([], 4)
    assert rows.shape == (0, 4) and rows.dtype == np.float64
