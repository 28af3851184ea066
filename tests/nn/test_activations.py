"""Tests for activation modules (the paper's SPNN non-linearities)."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import LogSoftmax, Modulus, ModulusSoftplus, ModulusSquared, ReLU, Softplus


def test_modulus_softplus_value():
    z = Tensor(np.array([3 + 4j]))
    out = ModulusSoftplus()(z)
    assert out.item() == pytest.approx(np.log1p(np.exp(5.0)))
    assert not out.is_complex


def test_modulus_softplus_beta_validation():
    with pytest.raises(ValueError):
        ModulusSoftplus(beta=0.0)


def test_modulus_squared_is_intensity():
    z = Tensor(np.array([[1 + 1j, 2j]]))
    out = ModulusSquared()(z)
    assert np.allclose(out.data, [[2.0, 4.0]])


def test_modulus_module():
    assert Modulus()(Tensor([3 + 4j])).item() == pytest.approx(5.0)


def test_log_softmax_module_normalizes():
    x = Tensor(np.random.default_rng(0).standard_normal((3, 10)))
    out = LogSoftmax()(x)
    assert np.allclose(np.exp(out.data).sum(axis=-1), 1.0)


def test_plain_softplus_relu():
    x = Tensor(np.array([-1.0, 2.0]))
    assert np.allclose(Softplus()(x).data, np.log1p(np.exp([-1.0, 2.0])))
    assert np.allclose(ReLU()(x).data, [0.0, 2.0])
    with pytest.raises(ValueError):
        Softplus(beta=-1.0)


def test_spnn_activation_pipeline_gradient_flow():
    """The paper's full activation chain must be differentiable end to end."""
    z = Tensor(np.random.default_rng(1).standard_normal((4, 10)) * (1 + 1j), requires_grad=True)
    out = LogSoftmax()(ModulusSquared()(z))
    loss = -out.sum()
    loss.backward()
    assert z.grad is not None and z.grad.shape == z.shape
