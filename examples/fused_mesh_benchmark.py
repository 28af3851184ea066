"""The column-sweep kernel registry: selection, conformance and the fused win.

This walkthrough exercises :mod:`repro.arrays`' sweep-kernel registry on a
paper-plus-size Clements mesh: it lists which kernels are available in this
environment, checks every one of them against the ``looped`` reference on
the same packed column program (host kernels bit for bit), and then times
the ``looped`` vs ``fused`` kernels head to head in the megakernel regime —
one whole perturbation batch per call, the shape every sigma-folded Monte
Carlo sweep produces.

It degrades gracefully on machines without the optional accelerators: no
numba means the ``numba`` kernel reports unavailable (and is skipped, not
failed); no CuPy means the same for ``cupy_raw``.  The ``looped`` and
``fused`` kernels are pure NumPy and always present — the registry's
guarantee is that *some* conformant kernel always serves the sweep.

Run::

    PYTHONPATH=src python examples/fused_mesh_benchmark.py [--smoke]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.arrays import (  # noqa: E402
    HOST_BACKEND,
    apply_column_sweep,
    available_sweep_kernels,
    get_sweep_kernel,
    select_sweep_kernel,
    sweep_kernel_names,
)
from repro.mesh.mesh import MZIMesh  # noqa: E402
from repro.utils import random_unitary  # noqa: E402
from repro.utils.rng import spawn_rngs  # noqa: E402
from repro.variation import UncertaintyModel  # noqa: E402
from repro.variation.sampler import sample_mesh_perturbation_batch  # noqa: E402


def build_sweep_inputs(n: int, batch: int, seed: int = 3):
    """Mesh, packed column program and column-sorted component stacks."""
    mesh = MZIMesh.from_unitary(random_unitary(n, rng=seed), scheme="clements")
    perturbation = sample_mesh_perturbation_batch(
        mesh, UncertaintyModel.both(0.01), spawn_rngs(seed + 1, batch)
    )
    stacks, _ = mesh._column_stacks_and_phases(perturbation, HOST_BACKEND)
    program = mesh.column_program(HOST_BACKEND)
    eye = np.broadcast_to(np.eye(n, dtype=np.complex128), (batch, n, n))
    return program, stacks, eye


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small, fast configuration")
    args = parser.parse_args(argv)

    n, batch, repeats = (16, 128, 1) if args.smoke else (32, 2048, 3)

    print("sweep-kernel registry:")
    available = available_sweep_kernels(HOST_BACKEND)
    for name in sweep_kernel_names():
        kernel = get_sweep_kernel(name)
        if not kernel.available():
            status = "unavailable (optional dependency missing) — skipped"
        elif not kernel.supports(HOST_BACKEND):
            status = "available, serves a device backend only"
        else:
            status = "available on the host backend"
        print(f"  {name:9s} {status}")
    selected = select_sweep_kernel(HOST_BACKEND)
    print(f"selected for the host backend: {selected.name!r} "
          f"(override with REPRO_SWEEP_KERNEL=<{'|'.join(available)}>)")

    print(f"\nconformance on a {n}x{n} Clements mesh, batch={batch}:")
    program, components, eye = build_sweep_inputs(n, batch)
    reference = np.asarray(eye).copy()
    apply_column_sweep(HOST_BACKEND, reference, components, program, kernel="looped")
    for name in available:
        if not get_sweep_kernel(name).supports(HOST_BACKEND):
            continue
        result = np.asarray(eye).copy()
        apply_column_sweep(HOST_BACKEND, result, components, program, kernel=name)
        assert np.array_equal(result, reference), f"{name} diverged from the reference"
        print(f"  {name:9s} BIT-IDENTICAL to the looped reference")

    print(f"\nmegakernel timing (whole batch per call, best of {repeats}):")
    work = np.empty((batch, n, n), dtype=np.complex128)
    seconds = {}
    for name in ("looped", "fused"):
        best = float("inf")
        for _ in range(repeats + 1):  # one extra pass warms the column plan
            work[...] = eye
            start = time.perf_counter()
            apply_column_sweep(HOST_BACKEND, work, components, program, kernel=name)
            best = min(best, time.perf_counter() - start)
        seconds[name] = best
        print(f"  {name:9s} {best * 1e3:8.1f} ms")
    print(f"  fused speedup: {seconds['looped'] / seconds['fused']:.2f}x")
    if not args.smoke and seconds["looped"] / seconds["fused"] < 2.0:
        print("  (below the 2x acceptance floor — shared/loaded machine?)")

    print("\nThe same registry serves every mesh sweep implicitly:")
    print("  mesh.matrix_batch(...)        # selects the best available kernel")
    print("  REPRO_SWEEP_KERNEL=looped ... # pin the reference kernel")
    return 0


if __name__ == "__main__":
    sys.exit(main())
