"""A small reverse-mode automatic-differentiation engine over NumPy arrays.

The silicon-photonic neural network of the paper is a *complex-valued*
network (complex weight matrices, modulus non-linearities).  Since no deep
learning framework is available in this environment, this module provides
the training substrate: a :class:`Tensor` wrapper around ``numpy.ndarray``
with reverse-mode autodiff that supports both real and complex data.

Gradient convention for complex tensors
---------------------------------------
For a real-valued loss ``L`` and a complex tensor ``z = x + iy``, the stored
gradient is::

    grad(z) = dL/dx + i * dL/dy  =  2 * dL/d(conj(z))

With this convention a plain gradient-descent update ``z -= lr * grad(z)``
is exactly gradient descent on the underlying real parameters ``(x, y)``,
which is how the software model of the SPNN is trained before its weights
are compiled onto MZI meshes.  For holomorphic operations the backward rule
is ``grad_in = grad_out * conj(d out / d in)``; non-holomorphic operations
(``abs``, ``abs2``, ``real``, ``imag``, ``conj``) implement the full
Wirtinger rule ``grad_in = conj(grad_out)*d out/d conj(in) + grad_out *
conj(d out/d in)`` specialized to their definition.  All rules are verified
against finite differences in ``tests/autograd``.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import AutogradError

ArrayLike = Union[int, float, complex, Sequence, np.ndarray, "Tensor"]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcasted axes so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were of size 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


_NATIVE_DTYPES = (np.dtype(np.float64), np.dtype(np.complex128))


def _promote(data) -> np.ndarray:
    """Normalize dtypes to float64 / complex128 (no copy when already one)."""
    if type(data) is np.ndarray and data.dtype in _NATIVE_DTYPES:
        return data
    data = np.asarray(data)
    return np.asarray(data, dtype=np.complex128 if data.dtype.kind == "c" else np.float64)


class Tensor:
    """A NumPy-backed tensor with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything convertible to a NumPy array.  Real inputs are stored as
        ``float64``, complex inputs as ``complex128``.
    requires_grad:
        When ``True`` the tensor participates in the autodiff graph and will
        receive a ``.grad`` after :meth:`backward`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_op_name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data: np.ndarray = _promote(data)
        self.requires_grad: bool = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: Tuple[Tensor, ...] = ()
        self._backward_fn: Optional[Callable[[np.ndarray], Tuple[Optional[np.ndarray], ...]]] = None
        self._op_name: str = "leaf"

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def is_complex(self) -> bool:
        return self.data.dtype.kind == "c"

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (not a copy)."""
        return self.data

    def item(self) -> Union[float, complex]:
        """Return the value of a single-element tensor as a Python scalar."""
        return self.data.item()

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but outside the autodiff graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _as_tensor(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @classmethod
    def _make(
        cls,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward_fn: Callable[[np.ndarray], Tuple[Optional[np.ndarray], ...]],
        op_name: str,
    ) -> "Tensor":
        requires = any(p.requires_grad for p in parents)
        out = cls(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward_fn = backward_fn
            out._op_name = op_name
        return out

    # ------------------------------------------------------------------ #
    # backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to ``1`` which requires the tensor
            to be a scalar (the usual loss case).
        """
        if not self.requires_grad:
            raise AutogradError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise AutogradError(
                    f"backward() without an explicit gradient requires a scalar tensor, got shape {self.shape}"
                )
            grad_arr = np.ones_like(self.data)
        else:
            grad_arr = _promote(grad.data if isinstance(grad, Tensor) else grad)
            if grad_arr.shape != self.shape:
                raise AutogradError(f"gradient shape {grad_arr.shape} does not match tensor shape {self.shape}")

        topo: List[Tensor] = []
        visited: set[int] = set()

        # Iterative topological sort to avoid recursion limits on deep graphs.
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if not node.requires_grad:
                continue
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad_arr}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._parents and node._backward_fn is not None:
                parent_grads = node._backward_fn(node_grad)
                if len(parent_grads) != len(node._parents):
                    raise AutogradError(
                        f"op {node._op_name!r} returned {len(parent_grads)} gradients for {len(node._parents)} parents"
                    )
                for parent, parent_grad in zip(node._parents, parent_grads):
                    if parent_grad is None or not parent.requires_grad:
                        continue
                    if parent.data.dtype.kind != "c":
                        parent_grad = np.real(parent_grad)
                    existing = grads.get(id(parent))
                    grads[id(parent)] = parent_grad if existing is None else existing + parent_grad
            else:
                # Leaf tensor: accumulate into .grad so optimizers can read it.
                node.grad = node_grad if node.grad is None else node.grad + node_grad
            if node is self and node._parents:
                # Keep the root gradient around for inspection/debugging.
                node.grad = node_grad

    # ------------------------------------------------------------------ #
    # arithmetic operators (holomorphic)
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._as_tensor(other)
        data = self.data + other.data
        a_shape, b_shape = self.shape, other.shape

        def backward(grad: np.ndarray):
            return _unbroadcast(grad, a_shape), _unbroadcast(grad, b_shape)

        return Tensor._make(data, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return (-grad,)

        return Tensor._make(-self.data, (self,), backward, "neg")

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._as_tensor(other)
        data = self.data - other.data
        a_shape, b_shape = self.shape, other.shape

        def backward(grad: np.ndarray):
            return _unbroadcast(grad, a_shape), _unbroadcast(-grad, b_shape)

        return Tensor._make(data, (self, other), backward, "sub")

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._as_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._as_tensor(other)
        data = self.data * other.data
        a, b = self, other

        def backward(grad: np.ndarray):
            grad_a = _unbroadcast(grad * np.conj(b.data), a.shape)
            grad_b = _unbroadcast(grad * np.conj(a.data), b.shape)
            return grad_a, grad_b

        return Tensor._make(data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._as_tensor(other)
        data = self.data / other.data
        a, b = self, other

        def backward(grad: np.ndarray):
            grad_a = _unbroadcast(grad * np.conj(1.0 / b.data), a.shape)
            grad_b = _unbroadcast(grad * np.conj(-a.data / (b.data**2)), b.shape)
            return grad_a, grad_b

        return Tensor._make(data, (self, other), backward, "div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise AutogradError("tensor exponents are not supported; use exp/log composition instead")
        exponent = float(exponent)
        data = self.data**exponent
        a = self

        def backward(grad: np.ndarray):
            return (grad * np.conj(exponent * a.data ** (exponent - 1)),)

        return Tensor._make(data, (self,), backward, "pow")

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._as_tensor(other)
        if self.ndim < 1 or other.ndim < 1:
            raise AutogradError("matmul requires tensors with at least 1 dimension")
        data = self.data @ other.data
        a, b = self, other

        def backward(grad: np.ndarray):
            # Only operands that take part in the graph get a gradient: the
            # input batch of a linear layer is never differentiated.
            a_data, b_data = a.data, b.data
            grad_a = grad_b = None
            if a_data.ndim == 1 and b_data.ndim == 1:
                if a.requires_grad:
                    grad_a = grad * np.conj(b_data)
                if b.requires_grad:
                    grad_b = grad * np.conj(a_data)
            elif a_data.ndim == 1:
                # (k,) @ (k, n) -> (n,)
                if a.requires_grad:
                    grad_a = grad @ np.conj(b_data).T
                if b.requires_grad:
                    grad_b = np.outer(np.conj(a_data), grad)
            elif b_data.ndim == 1:
                # (m, k) @ (k,) -> (m,)
                if a.requires_grad:
                    grad_a = np.outer(grad, np.conj(b_data))
                if b.requires_grad:
                    grad_b = np.conj(a_data).T @ grad
            else:
                if a.requires_grad:
                    grad_a = _unbroadcast(grad @ np.conj(np.swapaxes(b_data, -1, -2)), a_data.shape)
                if b.requires_grad:
                    grad_b = _unbroadcast(np.conj(np.swapaxes(a_data, -1, -2)) @ grad, b_data.shape)
            return grad_a, grad_b

        return Tensor._make(data, (self, other), backward, "matmul")

    def __rmatmul__(self, other: ArrayLike) -> "Tensor":
        return self._as_tensor(other).__matmul__(self)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray):
            return (grad.reshape(original),)

        return Tensor._make(data, (self,), backward, "reshape")

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        data = np.transpose(self.data, axes)

        def backward(grad: np.ndarray):
            if axes is None:
                return (np.transpose(grad),)
            inverse = np.argsort(axes)
            return (np.transpose(grad, inverse),)

        return Tensor._make(data, (self,), backward, "transpose")

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        source_shape = self.shape

        def backward(grad: np.ndarray):
            full = np.zeros(source_shape, dtype=np.complex128 if np.iscomplexobj(self.data) else np.float64)
            np.add.at(full, index, np.real(grad) if not np.iscomplexobj(full) else grad)
            return (full,)

        return Tensor._make(data, (self,), backward, "getitem")

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        source_shape = self.shape

        def backward(grad: np.ndarray):
            if axis is None:
                return (np.broadcast_to(grad, source_shape).copy(),)
            grad_expanded = grad
            if not keepdims:
                grad_expanded = np.expand_dims(grad, axis=axis)
            return (np.broadcast_to(grad_expanded, source_shape).copy(),)

        return Tensor._make(data, (self,), backward, "sum")

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------ #
    # complex-specific / non-holomorphic operations
    # ------------------------------------------------------------------ #
    def conj(self) -> "Tensor":
        data = np.conj(self.data)

        def backward(grad: np.ndarray):
            return (np.conj(grad),)

        return Tensor._make(data, (self,), backward, "conj")

    def real(self) -> "Tensor":
        data = np.real(self.data).copy()
        is_complex = self.is_complex

        def backward(grad: np.ndarray):
            grad = np.real(grad)
            return (grad.astype(np.complex128) if is_complex else grad,)

        return Tensor._make(data, (self,), backward, "real")

    def imag(self) -> "Tensor":
        data = np.imag(self.data).copy()
        is_complex = self.is_complex

        def backward(grad: np.ndarray):
            grad = np.real(grad)
            return (1j * grad if is_complex else np.zeros_like(grad),)

        return Tensor._make(data, (self,), backward, "imag")

    def abs(self, eps: float = 1e-12) -> "Tensor":
        """Element-wise modulus ``|z|`` (real output).

        The gradient follows the Wirtinger convention described in the
        module docstring: ``grad_z = grad_out * z / |z|``.  ``eps`` guards
        the division at exact zeros.
        """
        magnitude = np.abs(self.data)
        a = self

        def backward(grad: np.ndarray):
            grad = np.real(grad)
            denom = np.maximum(magnitude, eps)
            if a.is_complex:
                return (grad * a.data / denom,)
            return (grad * np.sign(a.data),)

        return Tensor._make(magnitude, (self,), backward, "abs")

    def abs2(self) -> "Tensor":
        """Element-wise squared modulus ``|z|^2`` (real output).

        Models the intensity measurement at the SPNN output (photodetector
        reads optical power, i.e. squared field modulus).
        """
        data = (self.data * np.conj(self.data)).real.copy()
        a = self

        def backward(grad: np.ndarray):
            grad = np.real(grad)
            if a.is_complex:
                return (2.0 * grad * a.data,)
            return (2.0 * grad * a.data,)

        return Tensor._make(data, (self,), backward, "abs2")

    def angle(self, eps: float = 1e-12) -> "Tensor":
        """Element-wise argument ``arg(z)`` (real output)."""
        data = np.angle(self.data)
        a = self

        def backward(grad: np.ndarray):
            grad = np.real(grad)
            mag2 = np.maximum(np.abs(a.data) ** 2, eps)
            if a.is_complex:
                # d arg/dx = -y/|z|^2 , d arg/dy = x/|z|^2  ->  grad_z = grad * (i z)/|z|^2
                return (grad * (1j * a.data) / mag2,)
            return (np.zeros_like(grad),)

        return Tensor._make(data, (self,), backward, "angle")

    # ------------------------------------------------------------------ #
    # real element-wise functions (used on the real pathway of the SPNN)
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray):
            return (grad * np.conj(data),)

        return Tensor._make(data, (self,), backward, "exp")

    def log(self, eps: float = 0.0) -> "Tensor":
        data = np.log(self.data + eps) if eps else np.log(self.data)
        a = self

        def backward(grad: np.ndarray):
            return (grad * np.conj(1.0 / (a.data + eps)),)

        return Tensor._make(data, (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        return self**0.5

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(shape: Sequence[int], dtype=np.float64, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def ones(shape: Sequence[int], dtype=np.float64, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = list(tensors)
        data = np.stack([t.data for t in tensors], axis=axis)
        shapes = [t.shape for t in tensors]

        def backward(grad: np.ndarray):
            pieces = np.split(grad, len(tensors), axis=axis)
            return tuple(p.reshape(shape) for p, shape in zip(pieces, shapes))

        return Tensor._make(data, tuple(tensors), backward, "stack")


def as_tensor(value: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Convert ``value`` to a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)
