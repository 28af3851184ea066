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

from typing import Hashable, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ShapeError


def ensure_batch_field(value, expected_shape, name: str):
    """Validate one (possibly device-resident) perturbation field.

    Host values go through the historical ``np.asarray(..., float64)``
    conversion; arrays of another namespace (sampled under a device
    backend) are shape-checked in place — converting them would force an
    implicit host transfer, which the device backends forbid.
    """
    if value is None:
        return None
    if not isinstance(value, np.ndarray) and hasattr(value, "shape"):
        if tuple(value.shape) != tuple(expected_shape):
            raise ShapeError(f"{name} must have shape {tuple(expected_shape)}, got {tuple(value.shape)}")
        return value
    value = np.asarray(value, dtype=np.float64)
    if value.shape != tuple(expected_shape):
        raise ShapeError(f"{name} must have shape {tuple(expected_shape)}, got {value.shape}")
    return value


def stack_rows(
    values: Sequence[Optional[np.ndarray]], out: Optional[np.ndarray] = None
) -> Optional[np.ndarray]:
    """Stack optional 1-D rows into a ``(B, length)`` array.

    A field that is ``None`` in every realization stays ``None``; a field
    set in only some realizations is zero-filled in the others (the length
    is taken from the first present row).  ``out`` optionally supplies a
    preallocated ``(B, length)`` destination (e.g. a workspace buffer) that
    is filled row by row instead of allocating — values are bit-identical
    either way.
    """
    present = [v for v in values if v is not None]
    if not present:
        return None
    length = np.asarray(present[0]).shape[0]
    if out is None:
        out = np.empty((len(values), length), dtype=np.float64)
    elif out.shape != (len(values), length) or out.dtype != np.float64:
        raise ShapeError(
            f"out must be a float64 array of shape ({len(values)}, {length}), "
            f"got {out.dtype} {out.shape}"
        )
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
                shape = getattr(value, "shape", None)
                if shape is None:
                    shape = np.asarray(value).shape
                return int(shape[0])
        raise ShapeError(f"empty {type(self).__name__} has no batch size")

    @classmethod
    def stack(cls, perturbations: Sequence[object], workspace=None, workspace_key: Hashable = None):
        """Stack per-iteration single-realization draws into a batch.

        ``workspace`` (a
        :class:`~repro.training.workspace.VectorizedWorkspace`) optionally
        supplies the per-field row buffers, keyed by ``(workspace_key,
        field name)`` — callers stacking several batches per evaluation
        must pass distinct keys so concurrently live stacks never alias.
        """
        perturbations = list(perturbations)
        if not perturbations:
            raise ValueError("cannot stack an empty sequence of perturbations")
        fields = {}
        for name in cls._FIELDS:
            values = [getattr(p, name) for p in perturbations]
            out = None
            if workspace is not None:
                present = [v for v in values if v is not None]
                if present:
                    length = int(np.asarray(present[0]).shape[0])
                    # Stacking fills the buffer row by row on the host; the
                    # device transfer (if any) happens later at the mesh
                    # evaluation seam, so this is always a host buffer.
                    out = workspace.host_buffer(
                        (workspace_key, name), (len(values), length), np.float64
                    )
            fields[name] = stack_rows(values, out=out)
        return cls(**fields)

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
        """The realizations in ``window`` as a batch; fields are views (any namespace)."""
        return type(self)(
            **{
                name: None if getattr(self, name) is None else getattr(self, name)[window]
                for name in self._FIELDS
            }
        )

    def realization(self, index: int):
        """The single-realization perturbation at batch position ``index``."""

        def _row(value):
            if value is None:
                return None
            if not isinstance(value, np.ndarray) and hasattr(value, "shape"):
                return value[index]  # device array: slice stays on device
            return np.asarray(value)[index]

        return self._SINGLE_CLS(
            **{name: _row(getattr(self, name)) for name in self._FIELDS}
        )
