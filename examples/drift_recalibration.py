"""Drift and online recalibration: serving a silicon-photonic NN over time.

The paper's Monte Carlo studies freeze each fabricated device at its
fabrication draw.  This walkthrough extends that picture along the *time*
axis with the perturbation-process layer (:mod:`repro.variation.process`):

1. pick a temporal process — Ornstein–Uhlenbeck thermal drift here, with
   random-walk aging as a comparison — seeded through the same
   ``spawn_rngs`` discipline as every Monte Carlo run in the repo;
2. advance a fleet of independent device timelines with
   :func:`repro.analysis.timeline.timeline_sweep`, serving the test set at
   every step (chunks shard across worker processes bit-identically);
3. serve the same drift trajectories both without maintenance and under a
   :class:`repro.analysis.recalibration.RecalibrationPolicy` (scheduled
   re-nulling) in that one sweep, so the paired curves isolate exactly
   what maintenance buys;
4. price the policy with the measured warm-retune cost of one
   recalibration event (:func:`repro.analysis.recalibration.
   measure_renull_cost`).

Run::

    PYTHONPATH=src python examples/drift_recalibration.py [--smoke] [--workers N]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.recalibration import RecalibrationPolicy, measure_renull_cost  # noqa: E402
from repro.analysis.timeline import timeline_sweep  # noqa: E402
from repro.onn import SPNNTrainingConfig, build_trained_spnn  # noqa: E402
from repro.variation import UncertaintyModel, build_process  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small, fast configuration")
    parser.add_argument(
        "--workers", type=int, default=None, help="shard timeline chunks over N processes"
    )
    args = parser.parse_args(argv)

    if args.smoke:
        training = SPNNTrainingConfig(num_train=600, num_test=200, epochs=20)
        num_steps, timelines = 12, 8
    else:
        training = SPNNTrainingConfig()
        num_steps, timelines = 60, 100

    print("[drift example] training + compiling the SPNN ...")
    task = build_trained_spnn(training)
    print(f"[drift example] nominal hardware accuracy: {100 * task.baseline_accuracy:.2f}%")

    # Phase-only uncertainty: re-nulling compensates tunable phases, so the
    # policy can recover everything the drift took (splitter errors would
    # leave an uncompensatable floor — try case 'both' to see it).
    model = UncertaintyModel.phase_only(0.05)
    process = build_process("ou", correlation_time=10.0)
    policy = RecalibrationPolicy(every=max(2, num_steps // 6))
    print(
        f"[drift example] {timelines} timelines x {num_steps} steps, "
        f"no maintenance and {policy} ..."
    )
    # Re-nulling consumes no randomness, so both policies are served from
    # the same drift trajectories — the curve difference is purely the
    # policy's effect.
    baseline, recal = timeline_sweep(
        task.spnn,
        task.test_features,
        task.test_labels,
        model=model,
        process=process,
        num_steps=num_steps,
        timelines=timelines,
        policies=(None, policy),
        rng=17,
        workers=args.workers,
    )

    print()
    print(recal.report())
    print()
    recovered = recal.mean_served_accuracy - baseline.mean_served_accuracy
    print(
        f"[drift example] mean served accuracy {100 * recal.mean_served_accuracy:.2f}% "
        f"with recalibration vs {100 * baseline.mean_served_accuracy:.2f}% without "
        f"(+{100 * recovered:.2f} points)"
    )

    cost = measure_renull_cost(task.spnn.photonic_layers, repeats=2)
    print()
    print(cost.report())
    downtime = recal.recalibrations_per_timeline * cost.warm_seconds
    print(
        f"[drift example] policy budget: {recal.recalibrations_per_timeline:.2f} re-nulls "
        f"per timeline x {1e3 * cost.warm_seconds:.2f} ms = {1e3 * downtime:.2f} ms downtime"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
