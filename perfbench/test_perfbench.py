"""Tests of the benchmark itself, at smoke scale (a few seconds per run).

They drive ``run.py`` end to end in a private state directory and a private
``HOME``: digests per seed, the sharded-equals-serial promise, the traced
per-layer metrics, cache isolation, and the refusal to run without a
program to measure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import END_TO_END, HERE, PER_LAYER, derive_seed

SEEDS = (0, 1)


def _bench(root: Path, state: Path, home: Path, workload: str, seed: int, trace: int = 0) -> tuple:
    # The benchmark passes REPRO_* knobs through; test its default configuration.
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["HOME"] = str(home)
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--scale", "smoke", "--state", str(state),
        ],
        cwd=root, env=env, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout, done.stderr


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Smoke runs sharing one state directory (one warm-up per workload)."""
    base = tmp_path_factory.mktemp("perfbench")
    state, home = base / "state", base / "home"
    home.mkdir()
    outcomes = {}
    for workload, seed, trace in (
        ("yield_paper", SEEDS[0], 0),
        ("yield_paper", SEEDS[1], 0),
        ("drift_paper", SEEDS[0], 0),
        ("yield_sharded", SEEDS[0], 1),
    ):
        outcomes[workload, seed, trace] = _bench(HERE.parent, state, home, workload, seed, trace)
    results = {}
    for path in (state / "results").glob("*.json"):
        record = json.loads(path.read_text())
        results[record["workload"], record["seed"], record["trace"]] = record
    return {"outcomes": outcomes, "results": results, "home": home, "state": state}


def _digest(record: dict) -> str:
    return next(run["digest"] for run in record["runs"] if not run["setup_only"])


def test_every_run_is_correct(runs):
    for key, (code, stdout, stderr) in runs["outcomes"].items():
        assert code == 0, (key, stderr)
        result = json.loads(stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (key, stderr)
        expected = PER_LAYER if key[2] else END_TO_END
        assert set(result["metrics"]) == set(expected)
        for name, entry in result["metrics"].items():
            assert entry["unit"] == expected[name]


def test_digests_match_references_per_seed(runs):
    references = json.loads((HERE / "references.json").read_text())
    results = runs["results"]
    digests = [_digest(results["yield_paper", seed, 0]) for seed in SEEDS]
    assert digests[0] != digests[1], "a second seed must give a different study"
    manifest = results["yield_paper", SEEDS[0], 0]["manifest"]
    if references["build"] == {key: manifest[key] for key in references["build"]}:
        assert digests == [references["smoke"]["yield"][str(seed)] for seed in SEEDS]
        assert _digest(results["drift_paper", 0, 0]) == references["smoke"]["drift"]["0"]


def test_sharded_digests_equal_serial(runs):
    results = runs["results"]
    sharded = {run["digest"] for run in results["yield_sharded", 0, 1]["runs"]}
    assert sharded == {_digest(results["yield_paper", 0, 0])}


def test_seed_generates_the_configs(runs):
    manifest = runs["results"]["yield_paper", 1, 0]["manifest"]
    assert manifest["training_seed"] == derive_seed(1, "training")
    assert manifest["study_seed"] == derive_seed(1, "study")
    assert derive_seed(0, "training") != derive_seed(1, "training")
    for key in ("python", "numpy", "scipy", "blas", "nproc", "threads", "repro_env", "git_commit", "sweep"):
        assert key in manifest


def test_traced_sharded_run_sees_worker_layers(runs):
    record = runs["results"]["yield_sharded", 0, 1]
    metrics = {name: entry["value"] for name, entry in record["metrics"].items()}
    assert metrics["analysis.chunks"] >= 2
    assert metrics["mesh.matrix_calls"] == metrics["analysis.chunks"]
    assert metrics["variation.rows"] == 7 * 12  # seven non-zero sigmas x 12 iterations
    assert metrics["mesh.mzis"] == 687
    assert metrics["tuning.cache_writes"] == 0
    assert 0.0 < metrics["trace.coverage"] <= 1.0
    workers = {span["pid"] for span in record["spans"]["spans"] if span["name"] == "analysis.chunk"}
    assert len(workers) == 2
    assert record["manifest"]["threads"]["OPENBLAS_NUM_THREADS"] == str(max(1, len(os.sched_getaffinity(0)) // 2))


def test_cache_is_isolated(runs):
    assert not (runs["home"] / ".cache").exists()
    assert list((runs["state"] / "cache" / "spnn-repro").glob("cost_table_*.json"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    code, stdout, _ = _bench(tmp_path, tmp_path / "state", tmp_path, "yield_paper", 0)
    assert code != 0
    assert stdout == ""
