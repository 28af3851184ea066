"""The execution knobs of the host-only library: what no longer exists.

Every experiment runs its Monte Carlo on the host, so no config, sweep or
training entry point takes a ``device``, and no module speaks a network
protocol or unpickles bytes it did not write itself.  Every hot path
allocates its own buffers, so no entry point takes a scratch arena
(``workspace``) or a forward sub-chunk override, and the trainer leaves the
injector's noise modes to the injector.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import repro
from repro.analysis.timeline import AccuracyTimelineTrial, timeline_sweep
from repro.analysis.yield_analysis import bisect_max_tolerable_sigma, yield_sweep
from repro.experiments.drift_experiment import DriftConfig
from repro.experiments.exp1_global import Exp1Config
from repro.experiments.exp2_zonal import Exp2Config
from repro.experiments.exp3_robust_training import Exp3Config
from repro.experiments.yield_experiment import YieldConfig
from repro.mesh import MeshPerturbationBatch, MZIMesh
from repro.mesh._batch import stack_rows
from repro.mesh.svd_layer import LayerPerturbationBatch, PhotonicLinearLayer
from repro.onn import SPNN, stack_network_perturbations
from repro.onn.inference import NetworkAccuracyBatchTrial, monte_carlo_accuracy
from repro.training import NoiseAwareTrainer, NoiseInjector
from repro.utils.rng import standard_normal_rows
from repro.variation import sampler


@pytest.mark.parametrize(
    "config", [YieldConfig, DriftConfig, Exp1Config, Exp2Config, Exp3Config], ids=lambda c: c.__name__
)
def test_configs_have_no_device_field(config):
    with pytest.raises(TypeError):
        config(device="gpu")


@pytest.mark.parametrize(
    "entry_point",
    [yield_sweep, bisect_max_tolerable_sigma, timeline_sweep, NoiseInjector.__init__],
    ids=lambda fn: fn.__qualname__,
)
def test_entry_points_take_no_device_argument(entry_point):
    assert "device" not in inspect.signature(entry_point).parameters


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_module_opens_sockets_or_unpickles_bytes():
    offenders = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if {"socket", "socketserver"} & set(_imported_modules(tree)):
            offenders.append(f"{path.name}: imports socket")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "loads"
                and isinstance(node.value, ast.Name)
                and node.value.id == "pickle"
            ):
                offenders.append(f"{path.name}:{node.lineno}: pickle.loads")
    assert offenders == []


def test_no_module_hosts_inputs_in_shared_memory():
    """Sharded sweeps hand inputs to forked workers: no segment, no tracker."""
    banned = {"multiprocessing.shared_memory", "multiprocessing.resource_tracker"}
    offenders = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = {node.module} | {f"{node.module}.{alias.name}" for alias in node.names}
            else:
                continue
            offenders.extend(f"{path.name}:{node.lineno}: {name}" for name in sorted(names & banned))
    assert offenders == []


#: Every entry point that once took a scratch arena or forwarded one.
ARENA_FREE_ENTRY_POINTS = [
    yield_sweep,
    bisect_max_tolerable_sigma,
    monte_carlo_accuracy,
    timeline_sweep,
    NetworkAccuracyBatchTrial,
    AccuracyTimelineTrial,
    Exp3Config,
    MZIMesh.matrix_batch,
    PhotonicLinearLayer.matrix_batch,
    MeshPerturbationBatch.stack,
    LayerPerturbationBatch.stack,
    sampler.mesh_perturbation_batch_from_draws,
    sampler.sample_mesh_perturbation_batch,
    sampler.diagonal_perturbation_batch_from_draws,
    sampler.sample_diagonal_perturbation_batch,
    sampler.sample_layer_perturbation_batch,
    sampler.sample_network_perturbation_batch,
    stack_network_perturbations,
    SPNN.hardware_matrices_batch,
    SPNN.forward_hardware_batch,
    SPNN.accuracy_batch,
    NoiseInjector,
    NoiseAwareTrainer,
]


@pytest.mark.parametrize("entry_point", ARENA_FREE_ENTRY_POINTS, ids=lambda fn: fn.__qualname__)
def test_entry_points_take_no_arena_or_forward_chunk_override(entry_point):
    removed = {"use_workspace", "workspace", "workspace_key", "forward_chunk_size"}
    assert removed.isdisjoint(inspect.signature(entry_point).parameters)


@pytest.mark.parametrize("helper", [stack_rows, standard_normal_rows], ids=lambda fn: fn.__name__)
def test_row_helpers_take_no_out_buffer(helper):
    assert "out" not in inspect.signature(helper).parameters


def test_trainer_leaves_noise_modes_to_the_injector():
    parameters = inspect.signature(NoiseAwareTrainer).parameters
    assert "reuse_draws" not in parameters
    assert "incremental_recompile" not in parameters
    injector = inspect.signature(NoiseInjector).parameters
    assert "reuse_draws" in injector and "incremental" in injector


def test_training_package_exports_no_arena():
    import repro.training as training

    for name in ("VectorizedWorkspace", "process_workspace", "reset_process_workspace"):
        assert not hasattr(training, name)
        assert name not in training.__all__
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.training.workspace")
