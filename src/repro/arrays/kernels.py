"""Out-buffer kernels of the numerics hot paths.

These are the exact NumPy ufunc sequences the forward pass, the MZI model
and the column sweep rely on for bit-identity across batched and looped
evaluation.

An ``out=`` buffer only changes *where* the result lives, never its
values, and callers fully overwrite any buffer they receive.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "is_complex",
    "matmul_transposed",
    "softplus",
    "log_softmax",
    "unit_phasor",
    "mzi_block_components",
    "block_components",
    "apply_mzi_blocks",
]


def is_complex(array) -> bool:
    """Whether ``array`` holds complex values (dtype-kind test)."""
    return getattr(array, "dtype", None) is not None and array.dtype.kind == "c"


def matmul_transposed(activations, matrix):
    """``activations @ matrix.T`` with a real/complex split on the hot path.

    After the modulus-Softplus the activations are real while the hardware
    matrices stay complex; multiplying through a complex matmul would spend
    half its work on the zero imaginary part, so the real and imaginary
    products are computed separately.  ``matrix`` may carry a leading batch
    axis: the stacked matmul then runs, slice by slice, the same BLAS call
    as the 2-D product, which keeps the batched forward bit-identical to
    the single-realization one.
    """
    transposed = np.swapaxes(matrix, -2, -1)
    if is_complex(activations):
        return np.matmul(activations, transposed)
    real = np.matmul(activations, transposed.real)
    out = np.empty(real.shape, dtype=np.complex128)
    out.real = real
    out.imag = np.matmul(activations, transposed.imag)
    return out


def softplus(x, beta: float = 1.0, threshold: float = 30.0, out=None):
    """Numerically stable Softplus, ``log(1 + exp(beta x)) / beta``.

    ``out`` optionally supplies the result buffer and may be ``x`` itself
    (an in-place Softplus); with a saturated entry the result lands in a
    fresh array instead, because ``x`` is still read for that branch.  Two
    passes are skipped where they are exact: the scaling at ``beta == 1.0``
    and the clamp when no entry is above ``threshold`` (neither changes a
    single bit, NaN and inf included).
    """
    scaled = x if beta == 1.0 else beta * x
    saturated = scaled > threshold
    any_saturated = bool(saturated.any())
    if out is None and scaled is not x:
        out = scaled  # the scaled copy is scratch
    if any_saturated:
        # `x` is read again by the where() below, so never clamp into it.
        result = np.minimum(scaled, threshold, out=None if out is x else out)
        np.exp(result, out=result)
    else:
        result = np.exp(scaled, out=out)
    np.log1p(result, out=result)
    if beta != 1.0:
        result /= beta
    # With no saturated entries the where() would copy `result` verbatim.
    return np.where(saturated, x, result) if any_saturated else result


def log_softmax(x):
    """Row-wise log-softmax over the last axis."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def unit_phasor(angle, out=None):
    """``exp(1j * angle)`` assembled from real sin/cos into one buffer.

    Bit-identical to ``exp(1j * angle)`` (complex exp of a purely imaginary
    argument reduces to exactly this) while skipping the complex temporary
    and the slower complex-exp kernel on the Monte Carlo hot path.
    """
    angle = np.asarray(angle, dtype=np.float64)
    if out is None:
        out = np.empty(angle.shape, dtype=np.complex128)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def mzi_block_components(theta, phi, r1, t1=None, r2=None, t2=None, out=None):
    """The four elements of the non-ideal MZI transfer matrix (paper Eq. (5)).

    Same physics as the assembled ``(..., 2, 2)`` matrix but returned as the
    tuple ``(T00, T01, T10, T11)`` of broadcast-shaped arrays — the layout
    the mesh evaluators consume directly.  All parameters broadcast.
    ``out`` optionally names four destination arrays of the broadcast
    shape (the mesh passes the :func:`block_components` views of its packed
    sweep stacks); the values are the same either way.
    """
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    r1 = np.asarray(r1, dtype=np.float64)
    r2 = np.asarray(r1 if r2 is None else r2, dtype=np.float64)
    t1 = (
        np.sqrt(np.clip(1.0 - r1**2, 0.0, 1.0))
        if t1 is None
        else np.asarray(t1, dtype=np.float64)
    )
    t2 = (
        np.sqrt(np.clip(1.0 - r2**2, 0.0, 1.0))
        if t2 is None
        else np.asarray(t2, dtype=np.float64)
    )
    e_theta = unit_phasor(theta)
    e_phi = unit_phasor(phi)
    e_both = e_phi * e_theta
    # Shared splitter products; multiplying a real array by 1j is an exact
    # placement into the imaginary part, so the factored forms below equal
    # the textbook Eq. (5) expressions term for term.
    rr = r1 * r2
    tt = t1 * t2
    i_rt = 1j * (r2 * t1)
    i_tr = 1j * (t2 * r1)
    i_tr2 = 1j * (t1 * r2)
    b00, b01, b10, b11 = (None,) * 4 if out is None else out
    return (
        np.subtract(rr * e_both, tt * e_phi, out=b00),
        np.add(i_rt * e_theta, i_tr, out=b01),
        np.add(i_tr * e_both, i_tr2 * e_phi, out=b10),
        np.subtract(rr, tt * e_theta, out=b11),
    )


def block_components(stacks):
    """The four block components as views of the packed sweep stacks.

    ``stacks`` is the ``(CA, CB)`` pair of ``(..., M, 2)`` arrays every
    sweep kernel takes: ``CA[..., i] = (b00, b10)`` and ``CB[..., i] =
    (b01, b11)`` for device ``i`` in column order.  Returns the views
    ``(b00, b01, b10, b11)``.
    """
    ca, cb = stacks
    return ca[..., 0], cb[..., 0], ca[..., 1], cb[..., 1]


def apply_mzi_blocks(matrices, components, program) -> None:
    """Apply MZI 2x2 blocks to ``matrices`` in place, column by column.

    The *reference* column sweep — the byte-for-byte legacy arithmetic
    every registered sweep kernel (:mod:`repro.arrays.sweep`) is measured
    against.  ``matrices`` has shape ``(..., n, n)``; ``components`` is the
    packed ``(CA, CB)`` pair of :func:`block_components` (``(..., M, 2)``
    or ``(M, 2)``, broadcasting over the leading dimensions) **in
    column-sorted order**; ``program`` is a
    :class:`~repro.arrays.sweep.ColumnProgram` whose packed ``top``/
    ``bottom`` index arrays select the rows.  Devices in
    one column act on disjoint mode pairs, so their two-row updates are
    gathered and applied in a single elementwise step; the arithmetic is
    pure elementwise multiply-add, which makes the batched application
    bit-identical to the single-realization one.
    """
    b00, b01, b10, b11 = block_components(components)
    top_rows = program.top
    bottom_rows = program.bottom
    for start, stop in program.spans:
        top_modes = top_rows[start:stop]
        bottom_modes = bottom_rows[start:stop]
        top = matrices[..., top_modes, :]
        bottom = matrices[..., bottom_modes, :]
        matrices[..., top_modes, :] = (
            b00[..., start:stop, None] * top + b01[..., start:stop, None] * bottom
        )
        matrices[..., bottom_modes, :] = (
            b10[..., start:stop, None] * top + b11[..., start:stop, None] * bottom
        )
