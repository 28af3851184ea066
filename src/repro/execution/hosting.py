"""Fork-inherited hosting of a sweep's read-only inputs for process backends.

The multiprocess backend pickles every task payload into its workers.  For
Monte Carlo trials the payload would include the evaluation set and the
compiled network, re-serialized for *every chunk*.  The backend forks its
workers (it pins the ``fork`` start method), so they inherit the parent's
memory instead: :func:`hosted_inputs` registers the inputs in a
process-local table under fresh tokens before the pool forks, tasks carry
only a :class:`Hosted` token, and a worker resolves it from the table it
inherited, reading the parent's objects copy-on-write.  Nothing is copied,
mapped or left behind in ``/dev/shm``.

A worker sees the table as it was when it forked.  The backend records the
:func:`hosting_generation` of its persistent pool at that moment and
replaces a pool whose workers are older than a newer hosting before its
next ``map``, so nested scopes and user-held pools resolve every live
token.

Consumers resolve either form with :func:`resolve_array` and
:func:`resolve_network`, which is what the Monte Carlo trial dataclasses
do, so the same trial code runs on plain inputs and on tokens with
bit-identical results (a token resolves to the very object registered).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from ..exceptions import HostingError
from ..observability.recorder import active as _active_recorder

#: The process-local table: token -> hosted object.  Forked workers inherit
#: a copy of it as it was when they started.
_TABLE: dict = {}

#: Token source; tokens are never reused, so a newer hosting always has a
#: larger token than any a pool's workers could have inherited.
_TOKENS = itertools.count(1)


@dataclass(frozen=True)
class Hosted:
    """Picklable handle to an input hosted for forked workers: its token."""

    token: int

    @property
    def value(self):
        """The hosted object, from this process's (inherited) table."""
        try:
            return _TABLE[self.token]
        except KeyError:
            raise HostingError(
                f"hosted input #{self.token} is not in this process's table: its hosting "
                "scope has exited, or this worker was forked before it was hosted"
            ) from None


def hosting_generation() -> int:
    """The newest live token (0 when nothing is hosted).

    A worker forked at generation ``g`` resolves every token up to ``g``
    that is still live; a pool forked before a larger generation must be
    replaced before it serves that hosting's tasks.
    """
    return max(_TABLE, default=0)


#: What array-consuming trial code accepts: a plain ndarray or a token.
ArrayLike = Union[np.ndarray, Hosted]


def resolve_array(value: ArrayLike) -> np.ndarray:
    """The ndarray behind ``value`` (a plain array or a :class:`Hosted` token)."""
    if isinstance(value, Hosted):
        return value.value
    return np.asarray(value)


def resolve_network(value):
    """The :class:`~repro.onn.spnn.SPNN` behind ``value`` (plain or a token)."""
    if isinstance(value, Hosted):
        return value.value
    return value


def _nbytes(value) -> int:
    """Array bytes of a hosted input (a network counts its weight matrices)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    return sum(int(np.asarray(weight).nbytes) for weight in value.weights)


def _backend_shards(backend) -> bool:
    """Whether ``backend`` actually crosses a process boundary."""
    from .backends import MultiprocessBackend

    # The serial and thread backends (and a 1-worker multiprocess backend)
    # evaluate in this process, where the plain inputs already are.
    return isinstance(backend, MultiprocessBackend) and backend.parallelism > 1


@contextmanager
def hosted_inputs(backend, *values) -> Iterator[tuple]:
    """Register ``values`` for ``backend``'s forked workers during a sweep.

    Yields one value per input: a :class:`Hosted` token when ``backend``
    shards tasks across processes, the input unchanged otherwise.  ``None``
    and inputs a caller already hosted pass through as they are, so scopes
    nest.  The tokens leave the table on exit.
    """
    fresh = [index for index, value in enumerate(values) if value is not None and not isinstance(value, Hosted)]
    if not fresh or not _backend_shards(backend):
        yield values
        return
    with _active_recorder().span("hosting", objects=len(fresh)) as span:
        handles = {}
        for index in fresh:
            handles[index] = Hosted(next(_TOKENS))
            _TABLE[handles[index].token] = values[index]
        span.set("bytes", sum(_nbytes(values[index]) for index in fresh))
    try:
        yield tuple(handles.get(index, value) for index, value in enumerate(values))
    finally:
        for handle in handles.values():
            del _TABLE[handle.token]
