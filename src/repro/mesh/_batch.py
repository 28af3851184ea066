"""Shared machinery for the ``*PerturbationBatch`` dataclasses.

Both the mesh-level and the diagonal-stage batch classes hold the same kind
of payload — optional ``(B, ...)`` float arrays, one per perturbed device
parameter — and need the same operations: infer the batch size, stack
single-realization draws (zero-filling realizations where a field is
missing), and slice one realization back out.  Keeping one implementation
here prevents the batched and looped paths from drifting apart, which would
silently break the bit-identity guarantee the Monte Carlo engine is built
on.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ShapeError


def ensure_batch_field(value, expected_shape, name: str):
    """Validate one perturbation field as a float64 array of ``expected_shape``."""
    if value is None:
        return None
    value = np.asarray(value, dtype=np.float64)
    if value.shape != tuple(expected_shape):
        raise ShapeError(f"{name} must have shape {tuple(expected_shape)}, got {value.shape}")
    return value


def stack_rows(values: Sequence[Optional[np.ndarray]]) -> Optional[np.ndarray]:
    """Stack optional 1-D rows into a ``(B, length)`` array.

    A field that is ``None`` in every realization stays ``None``; a field
    set in only some realizations is zero-filled in the others (the length
    is taken from the first present row).
    """
    present = [v for v in values if v is not None]
    if not present:
        return None
    length = np.asarray(present[0]).shape[0]
    out = np.empty((len(values), length), dtype=np.float64)
    for row, value in zip(out, values):
        if value is None:
            row[:] = 0.0
        else:
            row[:] = np.asarray(value, dtype=np.float64)
    return out


class PerturbationBatchFields:
    """Mixin providing the batch-axis operations over ``_FIELDS``.

    Subclasses are dataclasses whose ``_FIELDS`` names the optional
    ``(B, ...)`` array attributes and whose ``_SINGLE_CLS`` is the
    matching single-realization dataclass (sharing the same field names).
    Shape validation stays subclass-specific.
    """

    _FIELDS: Tuple[str, ...] = ()
    _SINGLE_CLS: type = None  # type: ignore[assignment]

    @property
    def batch_size(self) -> int:
        for name in self._FIELDS:
            value = getattr(self, name)
            if value is not None:
                return int(np.shape(value)[0])
        raise ShapeError(f"empty {type(self).__name__} has no batch size")

    @classmethod
    def stack(cls, perturbations: Sequence[object]):
        """Stack per-iteration single-realization draws into a batch."""
        perturbations = list(perturbations)
        if not perturbations:
            raise ValueError("cannot stack an empty sequence of perturbations")
        return cls(
            **{name: stack_rows([getattr(p, name) for p in perturbations]) for name in cls._FIELDS}
        )

    def scale_in_place(self, factor: float) -> None:
        """Multiply every present field by ``factor`` in place.

        The perturbation fields of the Gaussian models are linear in their
        sigmas, so this turns a batch drawn at one sigma scale into the
        batch the *same* standard normals would have produced at another —
        the amortized-draw rescaling of the noise injector.
        """
        for name in self._FIELDS:
            value = getattr(self, name)
            if value is not None:
                value *= factor

    def realizations(self, window: slice):
        """The realizations in ``window`` as a batch; fields are views."""
        return type(self)(
            **{
                name: None if getattr(self, name) is None else getattr(self, name)[window]
                for name in self._FIELDS
            }
        )

    def realization(self, index: int):
        """The single-realization perturbation at batch position ``index``."""

        def _row(value):
            return None if value is None else np.asarray(value)[index]

        return self._SINGLE_CLS(
            **{name: _row(getattr(self, name)) for name in self._FIELDS}
        )
