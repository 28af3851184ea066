"""The execution knobs of the host-only library: what no longer exists.

Every experiment runs its Monte Carlo on the host, so no config, sweep or
training entry point takes a ``device``, and no module speaks a network
protocol or unpickles bytes it did not write itself.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import repro
from repro.analysis.timeline import timeline_sweep
from repro.analysis.yield_analysis import bisect_max_tolerable_sigma, yield_sweep
from repro.experiments.drift_experiment import DriftConfig
from repro.experiments.exp1_global import Exp1Config
from repro.experiments.exp2_zonal import Exp2Config
from repro.experiments.exp3_robust_training import Exp3Config
from repro.experiments.yield_experiment import YieldConfig
from repro.training import NoiseInjector


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
