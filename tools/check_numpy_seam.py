#!/usr/bin/env python
"""Import-lint for the array seam: keep core numerics off direct NumPy compute.

Two ratcheting rules, enforced in CI (via ``tests/test_numpy_seam_lint.py``)
and runnable standalone::

    python tools/check_numpy_seam.py

1. **Numpy-free modules** (:data:`NUMPY_FREE_MODULES`): the namespace-generic
   kernels must not import NumPy at all — their only array API is the ``xp``
   namespace they receive.  Grow this list as more modules shed their NumPy
   dependency.

2. **Seam modules** (:data:`SEAM_MODULES`): the core numerics modules may
   import NumPy for host-side bookkeeping (dtypes, validation, allocation),
   but calling a *compute* function (:data:`DENIED_COMPUTE`) through it is
   forbidden unless the line carries a ``host-only`` pragma comment — those
   lines are the documented scalar/bookkeeping paths that never see device
   arrays.  Everything outside the two lists (I/O, serialization, plotting,
   the software-training stack) is allowlisted by omission.

A stray ``np.exp``/``np.matmul`` on a batched hot path would break every
device backend; the strict mock namespace catches that at runtime, this
check catches it statically — before any device test runs.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

#: Modules that must not import NumPy at all (rule 1).
NUMPY_FREE_MODULES: Tuple[str, ...] = (
    "repro/arrays/kernels.py",
    # The column-sweep kernel registry and its fused numpy/device path;
    # the numba/cupy wrapper modules (numba_sweep.py, cupy_sweep.py) are
    # host-only accelerator glue that legitimately imports numpy and is
    # deliberately outside both lists.
    "repro/arrays/sweep.py",
    # The observability package: imported by the numpy-free kernel
    # registry (dispatch metrics) and by worker processes (chunk frames);
    # telemetry must never drag a host array library in, and only ever
    # touches array metadata (nbytes), never contents.
    "repro/observability/__init__.py",
    "repro/observability/dispatch.py",
    "repro/observability/frames.py",
    "repro/observability/progress.py",
    "repro/observability/recorder.py",
    "repro/observability/report.py",
    # The fleet transport/coordination layer moves opaque pickled payloads
    # between processes; it reads array metadata (nbytes, dtype.str) for
    # hashing and accounting but must never compute on contents — the
    # numerics always arrive via the pickled evaluator.
    "repro/execution/fleet/__init__.py",
    "repro/execution/fleet/backend.py",
    "repro/execution/fleet/cache.py",
    "repro/execution/fleet/protocol.py",
    "repro/execution/fleet/server.py",
    "repro/execution/fleet/worker.py",
)

#: Core numerics modules riding on the array seam (rule 2).
SEAM_MODULES: Tuple[str, ...] = (
    "repro/mesh/_batch.py",
    "repro/mesh/mesh.py",
    "repro/mesh/diagonal.py",
    "repro/mesh/svd_layer.py",
    "repro/photonics/mzi.py",
    "repro/variation/sampler.py",
    "repro/variation/process.py",
    "repro/onn/spnn.py",
    "repro/training/workspace.py",
    "repro/analysis/monte_carlo.py",
    "repro/analysis/timeline.py",
    "repro/analysis/recalibration.py",
)

#: NumPy compute functions that must go through ``xp`` on seam modules.
DENIED_COMPUTE = frozenset(
    {
        "matmul",
        "exp",
        "expm1",
        "log",
        "log1p",
        "cos",
        "sin",
        "tan",
        "sqrt",
        "clip",
        "minimum",
        "maximum",
        "where",
        "argmax",
        "argmin",
        "abs",
        "absolute",
        "multiply",
        "mean",
    }
)

#: Pragma marking a documented host-only line (scalar paths, set-point
#: tuning, masking helpers) exempt from rule 2.
HOST_ONLY_PRAGMA = "host-only"


def _numpy_aliases(tree: ast.Module) -> set:
    """Names the module binds to the ``numpy`` package (``np`` usually)."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy" or alias.name.startswith("numpy."):
                    aliases.add((alias.asname or alias.name).split(".")[0])
    return aliases


def check_numpy_free(path: Path) -> List[str]:
    tree = ast.parse(path.read_text())
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy" or alias.name.startswith("numpy."):
                    problems.append(f"{path}:{node.lineno}: imports numpy ({alias.name})")
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] == "numpy":
                problems.append(f"{path}:{node.lineno}: imports from numpy ({node.module})")
    return problems


def check_seam_module(path: Path) -> List[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    aliases = _numpy_aliases(tree)
    if not aliases:
        return []
    problems = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr in DENIED_COMPUTE
        ):
            continue
        line = lines[node.lineno - 1]
        if HOST_ONLY_PRAGMA in line:
            continue
        problems.append(
            f"{path}:{node.lineno}: {node.value.id}.{node.attr} on a seam module — "
            f"route it through the xp namespace, or mark the line '# {HOST_ONLY_PRAGMA}'"
        )
    return problems


def run_checks() -> List[str]:
    problems: List[str] = []
    for relative in NUMPY_FREE_MODULES:
        problems.extend(check_numpy_free(SRC_ROOT / relative))
    for relative in SEAM_MODULES:
        problems.extend(check_seam_module(SRC_ROOT / relative))
    return problems


def main() -> int:
    problems = run_checks()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"\n{len(problems)} numpy-seam violation(s)", file=sys.stderr)
        return 1
    total = len(NUMPY_FREE_MODULES) + len(SEAM_MODULES)
    print(f"numpy seam clean across {total} core modules")
    return 0


if __name__ == "__main__":
    sys.exit(main())
