"""One benchmark run in a fresh interpreter: set up, run the study, digest it.

Reproduces ``spnn-repro yield`` / ``spnn-repro drift`` through the same
public functions the CLI reaches: ``load_synthetic_mnist``,
``fft_crop_features``, ``train_software_model``, ``spnn_from_model``, then
``run_yield(config, task=...)`` or ``run_drift(config, task=...)``.

The run is described by a JSON spec written by ``run.py`` (the generated
configs; this program never sees the benchmark seed) and reports a JSON
record with ``time.monotonic`` stamps, the result digest and its checks::

    python3 perfbench/study.py --spec SPEC.json --out RESULT.json

With ``"trace_dir"`` set in the spec the run is traced (``tracing.py``)
and the record carries its spans and the program's own chunk frames.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from contextlib import nullcontext

import tracing


def yield_digest(result) -> str:
    """Hash of the accuracy samples per sigma, the nominal accuracy and the threshold."""
    import numpy as np

    digest = hashlib.sha256()
    for sigma in result.sigmas:
        digest.update(repr(float(sigma)).encode())
        digest.update(np.ascontiguousarray(result.accuracy_samples[sigma], dtype=np.float64).tobytes())
    digest.update(np.array([result.nominal_accuracy, result.accuracy_threshold], dtype=np.float64).tobytes())
    return digest.hexdigest()


def drift_digest(result) -> str:
    """Hash of both sweeps' accuracy and recalibration arrays (not the timed re-null cost)."""
    import numpy as np

    digest = hashlib.sha256()
    for sweep in (result.baseline, result.recalibrated):
        digest.update(np.ascontiguousarray(sweep.accuracy, dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(sweep.recalibrations, dtype=np.uint8).tobytes())
    return digest.hexdigest()


def yield_checks(result, config) -> tuple:
    """``(rows, problems)``: rows served and every violated invariant."""
    problems = []
    rows = 0
    for sigma in result.sigmas:
        samples = result.accuracy_samples[sigma]
        if len(samples) != config.iterations:
            problems.append(f"sigma {sigma}: {len(samples)} samples, expected {config.iterations}")
        if not ((samples >= 0.0) & (samples <= 1.0)).all():
            problems.append(f"sigma {sigma}: accuracy outside [0, 1]")
        if sigma > 0.0:
            rows += len(samples)
    if not 0.0 <= result.accuracy_threshold <= result.nominal_accuracy:
        problems.append(f"threshold {result.accuracy_threshold} above nominal {result.nominal_accuracy}")
    return rows, problems


def drift_checks(result, config) -> tuple:
    """``(rows, problems)``: rows served and every violated invariant."""
    problems = []
    rows = 0
    policy = config.policy()
    for label, sweep in (("baseline", result.baseline), ("recalibrated", result.recalibrated)):
        shape = (config.timelines, config.num_steps)
        if sweep.accuracy.shape != shape or sweep.recalibrations.shape != shape:
            problems.append(f"{label}: shape {sweep.accuracy.shape}, expected {shape}")
            continue
        if not ((sweep.accuracy >= 0.0) & (sweep.accuracy <= 1.0)).all():
            problems.append(f"{label}: accuracy outside [0, 1]")
        rows += sweep.accuracy.size
    # A fixed schedule re-nulls every timeline exactly on the scheduled steps.
    events = result.recalibrated.recalibrations
    for step in range(config.num_steps):
        expected = policy.scheduled(step)
        if events.shape[1] > step and not (events[:, step] == expected).all():
            problems.append(f"step {step}: re-null events do not follow the schedule")
            break
    if result.baseline.recalibrations.any():
        problems.append("baseline sweep re-nulled")
    return rows, problems


def manifest() -> dict:
    """Versions and BLAS build of the interpreter that ran the study."""
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="JSON run spec written by run.py")
    parser.add_argument("--out", required=True, help="where to write the JSON run record")
    args = parser.parse_args()
    with open(args.spec, encoding="utf-8") as stream:
        spec = json.load(stream)
    tracer = tracing.Tracer(spec["trace_dir"]) if spec.get("trace_dir") else tracing.NullTracer()

    with tracer.span("import"):
        import repro.cli  # noqa: F401  - what every `spnn-repro` invocation imports
        from repro.datasets.fft_features import fft_crop_features
        from repro.datasets.synthetic_mnist import load_synthetic_mnist
        from repro.experiments.drift_experiment import DriftConfig, run_drift
        from repro.experiments.yield_experiment import YieldConfig, run_yield
        from repro.observability import observe
        from repro.onn.builder import SPNNTask, SPNNTrainingConfig, spnn_from_model, train_software_model
    if tracer.enabled:
        tracer.install()
    record = {"repro_file": repro.cli.__file__}

    training = SPNNTrainingConfig(**spec["training"])
    images = training.num_train + training.num_test
    with tracer.span("datasets.synth", images=images):
        train_set, test_set = load_synthetic_mnist(
            num_train=training.num_train, num_test=training.num_test, seed=training.seed
        )
    with tracer.span("datasets.fft", images=images):
        train_features = fft_crop_features(train_set.images, crop=training.fft_crop)
        test_features = fft_crop_features(test_set.images, crop=training.fft_crop)
    with tracer.span("nn.train"):
        model, history = train_software_model(
            train_features,
            train_set.labels,
            training,
            val_features=test_features,
            val_labels=test_set.labels,
        )
    with tracer.span("mesh.compile") as compile_span:
        spnn = spnn_from_model(model, training.architecture, compile_hardware=True)
        compile_span["mzis"] = spnn.hardware_summary()["total_mzis"]
    with tracer.span("onn.nominal"):
        nominal = spnn.accuracy(test_features, test_set.labels, use_hardware=True)
    task = SPNNTask(
        spnn=spnn,
        history=history,
        train_features=train_features,
        train_labels=train_set.labels,
        test_features=test_features,
        test_labels=test_set.labels,
        baseline_accuracy=nominal,
    )
    record["t_setup"] = time.monotonic()
    record["nominal"] = float(nominal)
    if spec["setup_only"]:
        _write(args.out, record)
        return 0

    if spec["kind"] == "yield":
        config = YieldConfig(training=training, **spec["study"])
        runner, digest, checks = run_yield, yield_digest, yield_checks
    else:
        config = DriftConfig(training=training, **spec["study"])
        runner, digest, checks = run_drift, drift_digest, drift_checks

    observing = observe() if tracer.enabled else nullcontext()
    with observing as recorder, tracer.span("study"):
        record["t_study_start"] = time.monotonic()
        result = runner(config, task=task)
        record["t_study_end"] = time.monotonic()

    record["digest"] = digest(result)
    record["rows"], record["problems"] = checks(result, config)
    record["manifest"] = manifest()
    if tracer.enabled:
        record["trace"] = tracer.collect()
        record["frames"] = [frame.to_record() for frame in recorder.frames]
        kernels = {}
        dispatches = [entry for frame in record["frames"] for entry in frame["dispatches"]]
        for entry in dispatches + recorder.dispatches.entries():
            kernels[entry["kernel"]] = kernels.get(entry["kernel"], 0) + entry["calls"]
        record["dispatched_kernels"] = kernels
    _write(args.out, record)
    return 0


def _write(path: str, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(record, stream)


if __name__ == "__main__":
    raise SystemExit(main())
