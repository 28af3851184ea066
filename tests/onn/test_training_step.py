"""The compiled SPNN training step against the autograd Trainer oracle.

``train_spnn`` promises byte-equal weights (compared with ``.tobytes()``,
because ``==`` hides signed zeros) and an exactly equal
``TrainingHistory`` to ``Trainer(model, Adam(...)).fit`` on the same
model, data and generator, and the same errors.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import AutogradError, TrainingError
from repro.nn import Adam, ComplexLinear, LogSoftmax, ModulusSquared, Sequential, Trainer, TrainerConfig
from repro.onn import SPNNArchitecture, SPNNTrainingConfig, train_software_model
from repro.onn.builder import build_software_model
from repro.onn.training_step import train_spnn


def _data(gen, count, width, classes, complex_features, scale):
    features = gen.standard_normal((count, width))
    if complex_features:
        features = features + 1j * gen.standard_normal((count, width))
    return scale * features, gen.integers(0, classes, count)


def _train(architecture, features, labels, compiled, val=(None, None), epochs=2, batch_size=8, lr=2e-2, seed=5):
    """Train a fresh model either way; returns ``(model, history, generator)``."""
    gen = np.random.default_rng(seed)
    model = build_software_model(architecture, rng=gen)
    if compiled:
        history = train_spnn(
            model, features, labels, epochs=epochs, batch_size=batch_size, lr=lr,
            val_features=val[0], val_labels=val[1], rng=gen,
        )
    else:
        trainer = Trainer(
            model,
            Adam(model.parameters(), lr=lr),
            config=TrainerConfig(epochs=epochs, batch_size=batch_size),
            rng=gen,
        )
        history = trainer.fit(features, labels, *val)
    return model, history, gen


def _both(*args, **kwargs):
    """``(oracle, compiled)`` runs of :func:`_train`."""
    return [_train(*args[:3], compiled, *args[3:], **kwargs) for compiled in (False, True)]


def _assert_identical(runs):
    (oracle, oracle_history, oracle_gen), (model, history, gen) = runs
    for expected, got in zip(oracle.parameters(), model.parameters()):
        assert got.data.tobytes() == expected.data.tobytes()
    assert history.as_dict() == oracle_history.as_dict()
    assert gen.bit_generator.state == oracle_gen.bit_generator.state


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    dims=st.lists(st.integers(1, 8), min_size=2, max_size=5),
    beta=st.sampled_from([0.5, 1.0, 2.0]),
    count=st.integers(1, 40),
    batch_size=st.integers(1, 16),
    epochs=st.integers(1, 3),
    validate=st.booleans(),
    complex_features=st.booleans(),
    scale=st.sampled_from([1.0, 60.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_the_autograd_trainer_bit_for_bit(
    dims, beta, count, batch_size, epochs, validate, complex_features, scale, seed
):
    gen = np.random.default_rng(seed)
    architecture = SPNNArchitecture(layer_dims=tuple(dims), softplus_beta=beta)
    features, labels = _data(gen, count, dims[0], dims[-1], complex_features, scale)
    val = _data(gen, 11, dims[0], dims[-1], complex_features, scale) if validate else (None, None)
    runs = _both(architecture, features, labels, val=val, epochs=epochs, batch_size=batch_size, seed=seed)
    _assert_identical(runs)


def test_saturated_softplus_matches_the_oracle():
    """Inputs large enough that every hidden Softplus takes its linear branch."""
    gen = np.random.default_rng(3)
    architecture = SPNNArchitecture(layer_dims=(4, 5, 3), softplus_beta=2.0)
    features, labels = _data(gen, 20, 4, 3, True, 80.0)
    runs = _both(architecture, features, labels, epochs=2, batch_size=6, lr=1e-3)
    _assert_identical(runs)


def test_train_software_model_matches_the_oracle():
    config = SPNNTrainingConfig(epochs=3, seed=4)
    gen = np.random.default_rng(8)
    features, labels = _data(gen, 120, 16, 10, True, 1.0)
    model, history = train_software_model(features, labels, config)
    runs = _both(config.architecture, features, labels, epochs=3, batch_size=64, seed=config.seed)
    oracle, oracle_history, _ = runs[0]
    for expected, got in zip(oracle.parameters(), model.parameters()):
        assert got.data.tobytes() == expected.data.tobytes()
    assert history.as_dict() == oracle_history.as_dict()


class TestSameErrors:
    ARCHITECTURE = SPNNArchitecture(layer_dims=(3, 4, 2))

    def _errors(self, features, labels):
        """The error each path raises; asserts they are the same."""
        raised = []
        for compiled in (False, True):
            with pytest.raises((AutogradError, TrainingError)) as info:
                _train(self.ARCHITECTURE, features, labels, compiled)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]
        return raised[0]

    def test_out_of_range_label(self):
        features, labels = _data(np.random.default_rng(1), 12, 3, 2, True, 1.0)
        labels[7] = 2
        assert self._errors(features, labels)[0] is AutogradError

    def test_negative_label(self):
        features, labels = _data(np.random.default_rng(1), 12, 3, 2, False, 1.0)
        labels[0] = -1
        assert self._errors(features, labels)[0] is AutogradError

    def test_empty_set(self):
        features = np.zeros((0, 3), dtype=np.complex128)
        error = self._errors(features, np.zeros(0, dtype=np.int64))
        assert error == (TrainingError, "cannot iterate over an empty dataset")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss(self):
        features, labels = _data(np.random.default_rng(2), 12, 3, 2, True, 1.0)
        features[4, 1] = np.nan
        error = self._errors(features, labels)
        assert error[0] is TrainingError and "diverged at epoch 1" in error[1]


def test_rejects_a_model_it_cannot_compile():
    model = Sequential(ComplexLinear(3, 2, bias=True, rng=0), ModulusSquared(), LogSoftmax())
    with pytest.raises(ValueError, match="compiled training step"):
        train_spnn(model, np.ones((4, 3)), np.zeros(4, dtype=np.int64), epochs=1, batch_size=2, lr=0.1)
