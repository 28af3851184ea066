"""Random-number-generator helpers.

Every stochastic routine in the library accepts a ``rng`` argument that may
be ``None``, an integer seed, or a :class:`numpy.random.Generator`.  This
module centralizes the conversion so that Monte Carlo experiments are
reproducible end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

RNGLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(rng: RNGLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``rng``.

    Parameters
    ----------
    rng:
        ``None`` for a freshly seeded generator, an ``int`` seed, a
        :class:`numpy.random.SeedSequence`, or an existing generator (which
        is returned unchanged).

    Examples
    --------
    >>> gen = ensure_rng(1234)
    >>> float(gen.standard_normal()) == float(ensure_rng(1234).standard_normal())
    True
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, (int, np.integer, np.random.SeedSequence)):
        return np.random.default_rng(rng)
    raise TypeError(
        f"rng must be None, an int seed, a SeedSequence or a Generator, got {type(rng)!r}"
    )


def spawn_rngs(rng: RNGLike, count: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``count`` independent child generators.

    Used by the Monte Carlo engine so that each iteration draws from an
    independent stream regardless of evaluation order.  Children are derived
    with :meth:`numpy.random.SeedSequence.spawn`, the mechanism NumPy
    provides for collision-free stream splitting: each child gets a distinct
    spawn key that is mixed into the seed material, so no two children can
    collide no matter how many are spawned.

    Repeated calls with the same *stateful* parent (a ``Generator`` or
    ``SeedSequence`` object) yield fresh, still-independent children, while
    repeated calls with the same ``int`` seed reproduce the same children.

    .. note:: **Compatibility.** Earlier versions derived child seeds by
       drawing int64 values from the parent generator
       (``parent.integers(0, 2**63 - 1)``).  That scheme had a
       birthday-collision risk between "independent" streams (~1e-7 already
       at one million children) and could never produce the top seed value.
       The spawn-based derivation fixes both, but the concrete sample values
       of every seeded Monte Carlo run shift relative to those versions.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(rng, np.random.Generator):
        return list(rng.spawn(count))
    if isinstance(rng, np.random.SeedSequence):
        sequence = rng
    elif rng is None or isinstance(rng, (int, np.integer)):
        sequence = np.random.SeedSequence(rng)
    else:
        raise TypeError(
            f"rng must be None, an int seed, a SeedSequence or a Generator, got {type(rng)!r}"
        )
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


# --------------------------------------------------------------------------- #
# child-stream recipes for scheduled chunks
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class StreamSlice:
    """Picklable ``(seed, range)`` recipe for a run of spawned child streams.

    A run of ``spawn_rngs`` children is fully determined by the parent's
    seed material plus the range of spawn indices: NumPy derives child
    ``i`` of a parent :class:`~numpy.random.SeedSequence` as
    ``SeedSequence(entropy, spawn_key=parent.spawn_key + (i,))``.  The
    schedulers build one recipe per run with :func:`spawn_slice`, slice it
    per chunk (``recipe[start:stop]``) and let the chunk's evaluator build
    its generators (:meth:`generators`), bit-identical to the ones
    ``spawn_rngs`` returns.  A chunk therefore carries O(100) bytes of
    stream payload whatever its size, and no generator exists before its
    chunk runs.
    """

    entropy: object
    spawn_key: Tuple[int, ...]
    first: int
    count: int
    pool_size: int = 4
    bit_generator: str = "PCG64"

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, window: slice) -> "StreamSlice":
        """The recipe of ``generators()[window]`` (a step-1 slice)."""
        if not isinstance(window, slice) or window.step not in (None, 1):
            raise TypeError("StreamSlice supports only contiguous slices")
        start, stop, _ = window.indices(self.count)
        return replace(self, first=self.first + start, count=max(0, stop - start))

    def child_slice(self, index: int, count: int) -> "StreamSlice":
        """Recipe of ``spawn_rngs(self.generators()[index], count)``.

        The children of a freshly built stream: its seed sequence has
        spawned nothing yet, so they are spawn indices ``0 .. count - 1``
        under its own spawn key, with the same bit generator.
        """
        if not 0 <= index < self.count:
            raise IndexError(f"stream {index} is outside a slice of {self.count}")
        return replace(self, spawn_key=self.spawn_key + (self.first + index,), first=0, count=count)

    def generators(self) -> List[np.random.Generator]:
        """Materialize the child generators, bit-identical to ``spawn_rngs``'s."""
        bit_generator_cls = getattr(np.random, self.bit_generator)
        return [
            np.random.Generator(
                bit_generator_cls(
                    np.random.SeedSequence(
                        self.entropy, spawn_key=self.spawn_key + (index,), pool_size=self.pool_size
                    )
                )
            )
            for index in range(self.first, self.first + self.count)
        ]


def spawn_slice(rng: RNGLike, count: int) -> StreamSlice:
    """The recipe of ``spawn_rngs(rng, count)``, without building generators.

    ``slice.generators()`` returns generators bit-identical to what
    ``spawn_rngs(rng, count)`` would have returned, and a stateful parent
    (a ``Generator`` or ``SeedSequence`` object) has its spawn counter
    advanced by ``count`` exactly as that call advances it, so the next
    ``spawn_rngs`` from the same parent returns the same children either
    way.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    bit_generator = "PCG64"
    if isinstance(rng, np.random.Generator):
        sequence = rng.bit_generator.seed_seq
        bit_generator = type(rng.bit_generator).__name__
    elif isinstance(rng, np.random.SeedSequence):
        sequence = rng
    elif rng is None or isinstance(rng, (int, np.integer)):
        sequence = np.random.SeedSequence(rng)
    else:
        raise TypeError(
            f"rng must be None, an int seed, a SeedSequence or a Generator, got {type(rng)!r}"
        )
    first = int(sequence.n_children_spawned)
    if isinstance(rng, (np.random.Generator, np.random.SeedSequence)):
        # NumPy keeps the counter read-only: spawning (and dropping) the
        # children is the only way to move it.
        sequence.spawn(count)
    return StreamSlice(
        entropy=sequence.entropy,
        spawn_key=tuple(sequence.spawn_key),
        first=first,
        count=int(count),
        pool_size=int(sequence.pool_size),
        bit_generator=bit_generator,
    )


def materialize_streams(parts: Sequence[StreamSlice]) -> List[np.random.Generator]:
    """A chunk's generators, from its recipes in row order."""
    return [generator for part in parts for generator in part.generators()]


def standard_normal_rows(
    generators: Sequence[np.random.Generator], length: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """A ``(B, length)`` standard-normal matrix, row ``b`` drawn from stream ``b``.

    ``standard_normal(out=row)`` consumes each stream exactly like a plain
    ``standard_normal(length)`` call, so the rows are bit-identical to
    per-stream draws.  ``out`` optionally supplies the destination buffer.
    """
    draws = out
    if draws is None:
        draws = np.empty((len(generators), length), dtype=np.float64)
    if length:
        for row, gen in zip(draws, generators):
            gen.standard_normal(out=row)
    return draws
