"""End-to-end benchmark of the paper-scale yield and drift studies.

Usage, from the repository root::

    python3 perfbench/run.py --workload yield_sharded --seed 1 --seconds 60 --trace 0

Each study runs in a fresh interpreter (``study.py``), one at a time: a
closed loop with one client.  With ``--trace 0`` full runs repeat until the
next one would end after ``--seconds``; set-up-only runs then top the
set-up samples up to :data:`MIN_SETUP_SAMPLES`, and on to
:data:`MAX_SETUP_SAMPLES` while the window lasts.  The last stdout line is
the result: the median of every end-to-end metric.  With ``--trace 1`` one
untraced and one traced run give the per-layer metrics and the tracing
overhead.

The benchmark writes only under ``--state`` (default ``.perfbench/`` in
the repository root): the isolated ``XDG_CACHE_HOME``, bytecode, logs,
result files with their manifest, and digests recorded for seeds that
``references.json`` does not cover.  ``report.py`` prints the results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: ``processes`` sets the thread budget: BLAS threads = nproc // processes.
WORKLOADS = {
    "yield_paper": {"kind": "yield", "processes": 1, "study": {}},
    "drift_paper": {"kind": "drift", "processes": 1, "study": {}},
    "yield_sharded": {
        "kind": "yield",
        "processes": 2,
        "study": {"backend": "multiprocess", "workers": 2},
    },
}

#: Config overrides per scale; "paper" keeps every default (§III-D sizes).
SCALES = {
    "paper": {"training": {}, "yield": {}, "drift": {}},
    "smoke": {
        "training": {"num_train": 600, "num_test": 200, "epochs": 20},
        "yield": {"iterations": 12},
        "drift": {"timelines": 4, "num_steps": 6, "recalibrate_every": 2, "cost_repeats": 1},
    },
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "rows_per_s": "rows/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "import.wall_s": "s",
    "datasets.synth_s": "s",
    "datasets.images": "count",
    "datasets.fft_s": "s",
    "nn.train_s": "s",
    "nn.steps": "count",
    "mesh.compile_s": "s",
    "mesh.mzis": "count",
    "variation.sample_s": "s",
    "variation.rows": "count",
    "variation.renull_s": "s",
    "variation.renull_rows": "count",
    "mesh.matrix_s": "s",
    "mesh.matrix_calls": "count",
    "arrays.sweep_s": "s",
    "arrays.sweep_calls": "count",
    "onn.forward_s": "s",
    "onn.forward_gflop": "GFLOP",
    "onn.forward_mb": "MB",
    "analysis.chunks": "count",
    "analysis.chunk_p50_s": "s",
    "analysis.overhead_s": "s",
    "execution.busy_frac": "frac",
    "execution.wait_s": "s",
    "tuning.cache_writes": "count",
    "trace.coverage": "frac",
    "trace.overhead_frac": "frac",
    "failed_frac": "frac",
}

MIN_SETUP_SAMPLES = 2
MAX_SETUP_SAMPLES = 3
#: No run starts after this many seconds, so the benchmark ends within 180 s.
DEADLINE_S = 165.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (no program, or every run failed)."""


def derive_seed(seed: int, label: str) -> int:
    """A 31-bit config seed drawn from the benchmark seed."""
    return int(hashlib.sha256(f"perfbench:{seed}:{label}".encode()).hexdigest()[:8], 16) >> 1


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        return {"value": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# --------------------------------------------------------------------------- #
# process tree bookkeeping
# --------------------------------------------------------------------------- #


def _descendants(pid: int) -> List[int]:
    found: List[int] = []
    pending = [pid]
    while pending:
        parent = pending.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{parent}/task/{task}/children", encoding="ascii") as stream:
                    kids = [int(kid) for kid in stream.read().split()]
            except OSError:
                continue
            found.extend(kids)
            pending.extend(kids)
    return found


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _stop_group(pgid: int, timeout: float = 10.0) -> None:
    """Kill whatever is left of a run's process group and wait until it is gone."""
    deadline = time.monotonic() + timeout
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            os.killpg(pgid, 0)
            time.sleep(0.05)
    except ProcessLookupError:
        return


def _snapshot(directory: Path) -> Dict[str, tuple]:
    files = {}
    for base, _, names in os.walk(directory):
        for name in names:
            path = Path(base, name)
            stat = path.stat()
            files[str(path)] = (stat.st_size, stat.st_mtime_ns)
    return files


def _fingerprint() -> str:
    """Changes whenever the program or the benchmark source changes."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*.py")):
            stat = path.stat()
            digest.update(f"{path}:{stat.st_size}:{stat.st_mtime_ns}".encode())
    return digest.hexdigest()


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable (not a git checkout)"


# --------------------------------------------------------------------------- #
# one run
# --------------------------------------------------------------------------- #


@dataclass
class Run:
    """One child interpreter: its clock stamps, record and verdict."""

    label: str
    setup_only: bool
    t0: float
    seconds: float
    returncode: int
    peak_rss_mb: float
    cache_writes: int
    record: Optional[dict]
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def setup_s(self) -> float:
        return self.record["t_setup"] - self.t0

    @property
    def setup_hint(self) -> float:
        """Seconds a set-up-only run is expected to take, judging by this run."""
        return self.setup_s if self.record is not None else self.seconds

    @property
    def wall_s(self) -> float:
        return self.record["t_study_end"] - self.t0

    @property
    def rows_per_s(self) -> float:
        return self.record["rows"] / (self.record["t_study_end"] - self.record["t_study_start"])

    def summary(self) -> dict:
        out = {
            "label": self.label,
            "setup_only": self.setup_only,
            "seconds": self.seconds,
            "returncode": self.returncode,
            "cache_writes": self.cache_writes,
            "problems": self.problems,
        }
        if self.record is not None:
            out["setup_s"] = self.setup_s
            out["nominal"] = self.record["nominal"]
            if not self.setup_only:
                out.update(
                    wall_s=self.wall_s,
                    rows=self.record["rows"],
                    rows_per_s=self.rows_per_s,
                    peak_rss_mb=self.peak_rss_mb,
                    digest=self.record["digest"],
                )
        return out


class Bench:
    """One benchmark invocation: a workload at one seed."""

    def __init__(self, workload: str, seed: int, scale: str, state: Path):
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.kind = self.workload["kind"]
        self.seed = seed
        self.scale = scale
        self.state = state
        self.cache = state / "cache"
        self.tmp = state / "tmp" / f"{workload}-{os.getpid()}"
        self.started = time.monotonic()
        for directory in (self.cache, self.tmp, state / "logs", state / "results", state / "warm"):
            directory.mkdir(parents=True, exist_ok=True)
        nproc = len(os.sched_getaffinity(0))
        self.threads = max(1, nproc // self.workload["processes"])
        self.nproc = nproc
        self.env = {
            key: value
            for key, value in os.environ.items()
            if key not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH")
        }
        self.env.update(
            PYTHONPATH=str(ROOT / "src"),
            XDG_CACHE_HOME=str(self.cache),
            PYTHONPYCACHEPREFIX=str(state / "pycache"),
        )
        self.env.update({var: str(self.threads) for var in THREAD_VARS})
        self.training_seed = derive_seed(seed, "training")
        self.study_seed = derive_seed(seed, "study")
        self.nominal: Optional[float] = None

    def spec(self, scale: str, setup_only: bool = False, trace_dir: Optional[str] = None) -> dict:
        overrides = SCALES[scale]
        return {
            "kind": self.kind,
            "setup_only": setup_only,
            "trace_dir": trace_dir,
            "training": dict(overrides["training"], seed=self.training_seed),
            "study": dict(overrides[self.kind], **self.workload["study"], seed=self.study_seed),
        }

    def time_left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    # ------------------------------------------------------------------ #
    def launch(self, label: str, spec: dict) -> Run:
        """Run one child to completion, watching its process tree's memory."""
        spec_path = self.tmp / f"{label}.spec.json"
        out_path = self.tmp / f"{label}.out.json"
        spec_path.write_text(json.dumps(spec))
        out_path.unlink(missing_ok=True)
        before = _snapshot(self.cache)
        command = [sys.executable, str(HERE / "study.py"), "--spec", str(spec_path), "--out", str(out_path)]
        deadline = time.monotonic() + max(5.0, self.time_left())
        peaks: Dict[int, int] = {}
        with open(self.state / "logs" / f"{self.name}-{label}.log", "w", encoding="utf-8") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                command, cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True
            )
            try:
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        proc.returncode = os.waitstatus_to_exitcode(status)
                        break
                    # VmHWM only grows within one process image, so the latest
                    # reading is its peak; exec starts a new image, and a child
                    # read between fork and exec would report its parent's pages.
                    for child in _descendants(proc.pid):
                        peaks[child] = _peak_rss_kb(child) or peaks.get(child, 0)
                    if time.monotonic() > deadline:
                        os.killpg(proc.pid, signal.SIGKILL)
                    time.sleep(0.05)
            finally:
                if proc.returncode is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
                _stop_group(proc.pid)
        seconds = time.monotonic() - t0
        after = _snapshot(self.cache)
        writes = sum(1 for path, stamp in after.items() if before.get(path) != stamp)
        record = json.loads(out_path.read_text()) if proc.returncode == 0 and out_path.exists() else None
        run = Run(
            label=label,
            setup_only=spec["setup_only"],
            t0=t0,
            seconds=seconds,
            returncode=proc.returncode,
            # Sum of each process's own peak (ru_maxrss of the study, VmHWM of its workers).
            peak_rss_mb=(usage.ru_maxrss + sum(peaks.values())) / 1024.0,
            cache_writes=writes,
            record=record,
        )
        return run

    def timed(self, label: str, spec: dict) -> Run:
        """A run that counts: launched, then judged."""
        run = self.launch(label, spec)
        self.judge(run)
        return run

    def judge(self, run: Run) -> None:
        """Fill ``run.problems``: crash, wrong program, failed checks, digest, cache writes."""
        if run.record is None:
            run.problems.append(f"exit code {run.returncode}; see logs/{self.name}-{run.label}.log")
            return
        if not Path(run.record["repro_file"]).is_relative_to(ROOT / "src"):
            run.problems.append(f"imported repro from {run.record['repro_file']}, not this checkout")
        if run.cache_writes:
            run.problems.append(f"{run.cache_writes} file(s) written to the benchmark cache during a timed run")
        if self.nominal is None:
            self.nominal = run.record["nominal"]
        elif run.record["nominal"] != self.nominal:
            run.problems.append(f"nominal accuracy {run.record['nominal']} != {self.nominal} of the first run")
        if run.setup_only:
            return
        run.problems.extend(run.record["problems"])
        expected, source = self.reference(run.record["digest"], run.record["manifest"])
        if run.record["digest"] != expected:
            run.problems.append(f"digest {run.record['digest'][:16]} != {source} {expected[:16]}")

    def reference(self, digest: str, manifest: dict) -> tuple:
        """The expected digest for this seed: stored, else the first one recorded here.

        Stored digests hold only for the numpy/BLAS build they were recorded
        with; float results may differ in the last bit on another build.
        """
        stored = json.loads((HERE / "references.json").read_text())
        key = str(self.seed)
        if stored["build"] == {name: manifest[name] for name in stored["build"]}:
            expected = stored[self.scale][self.kind].get(key)
            if expected is not None:
                return expected, "references.json"
        path = self.state / "digests.json"
        recorded = json.loads(path.read_text()) if path.exists() else {}
        seen = recorded.setdefault(self.scale, {}).setdefault(self.kind, {})
        if key not in seen:
            seen[key] = digest
            path.write_text(json.dumps(recorded, indent=1, sort_keys=True))
        return seen[key], "recorded"

    def warm_up(self) -> dict:
        """One untimed smoke-scale run per workload and source state.

        Fills the isolated cache (the sweep-kernel cost table) and the
        bytecode cache, so no timed run pays for them; also records the
        program's own environment report (``spnn-repro info``).
        """
        marker = self.state / "warm" / f"{self.name}.json"
        fingerprint = _fingerprint()
        if marker.exists():
            warm = json.loads(marker.read_text())
            if warm["fingerprint"] == fingerprint:
                return warm["info"]
        run = self.launch("warmup", self.spec("smoke"))
        if run.returncode != 0:
            raise BenchmarkError(f"warm-up run failed: {run.problems}")
        info_path = self.tmp / "info.json"
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "info", "--output", str(info_path)],
            cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=60, check=True,
        )
        report = json.loads(info_path.read_text())
        info = {
            "sweep_kernels": report["array_backends"]["numpy"]["sweep_kernels"],
            "autotune": report["autotune"],
            "cpus_available": report["cpus_available"],
        }
        marker.write_text(json.dumps({"fingerprint": fingerprint, "info": info}))
        return info

    def manifest(self, info: dict, runs: List[Run]) -> dict:
        study = self.workload["study"]
        manifest = {
            "workload": self.name,
            "scale": self.scale,
            "seed": self.seed,
            "training_seed": self.training_seed,
            "study_seed": self.study_seed,
            "git_commit": git_commit(),
            "nproc": self.nproc,
            "threads": {var: self.env[var] for var in THREAD_VARS},
            "repro_env": {key: value for key, value in self.env.items() if key.startswith("REPRO_")},
            "backend": study.get("backend", "serial"),
            "workers": study.get("workers", 1),
            "sweep": info,
        }
        for run in runs:
            if run.record and "manifest" in run.record:
                manifest.update(run.record["manifest"])
                break
        for run in runs:
            if run.record and "dispatched_kernels" in run.record:
                manifest["dispatched_kernels"] = run.record["dispatched_kernels"]
        return manifest

    # ------------------------------------------------------------------ #
    def measure(self, seconds: float) -> tuple:
        """Untimed warm-up, then full runs for ``seconds``, then set-up top-up."""
        info = self.warm_up()
        runs: List[Run] = []
        window = time.monotonic()
        while True:
            run = self.timed(f"run{len(runs)}", self.spec(self.scale))
            runs.append(run)
            elapsed = time.monotonic() - window
            if elapsed + run.seconds > seconds or run.seconds > self.time_left():
                break
        while len(runs) < MAX_SETUP_SAMPLES:
            hint = runs[-1].setup_hint
            if len(runs) >= MIN_SETUP_SAMPLES and time.monotonic() - window + hint > seconds:
                break
            if self.time_left() < 2 * hint:
                break
            runs.append(self.timed(f"setup{len(runs)}", self.spec(self.scale, setup_only=True)))
        # Runs that completed are timed even when a check failed; the
        # result line reports them as failed.
        done = [run for run in runs if run.record is not None]
        full = [run for run in done if not run.setup_only]
        if not full:
            raise BenchmarkError(f"no study run completed: {[run.problems for run in runs]}")
        metrics = {
            "wall_s": quartiles([run.wall_s for run in full]),
            "setup_s": quartiles([run.setup_s for run in done]),
            "rows_per_s": quartiles([run.rows_per_s for run in full]),
            "peak_rss_mb": quartiles([run.peak_rss_mb for run in full]),
        }
        for name, unit in END_TO_END.items():
            metrics[name]["unit"] = unit
        return info, runs, metrics

    def trace(self) -> tuple:
        """Untraced then traced run of the same seed; per-layer metrics from the traced one."""
        info = self.warm_up()
        spill = self.tmp / "spans"
        untraced = self.timed("untraced", self.spec(self.scale))
        traced = self.timed("traced", self.spec(self.scale, trace_dir=str(spill)))
        runs = [untraced, traced]
        if traced.record is None:
            raise BenchmarkError(f"traced run failed: {traced.problems}")
        workers = self.workload["study"].get("workers", 1)
        values = tracing.layer_metrics(traced.record["trace"], traced.record["frames"], traced.wall_s, workers)
        values["tuning.cache_writes"] = sum(run.cache_writes for run in runs)
        values["trace.overhead_frac"] = (
            traced.wall_s / untraced.wall_s - 1.0 if untraced.record is not None else 0.0
        )
        values["failed_frac"] = sum(not run.ok for run in runs) / len(runs)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        return info, runs, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="paper", help=argparse.SUPPRESS)
    parser.add_argument("--state", default=str(ROOT / ".perfbench"), help="directory for caches and results")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # A terminated benchmark still kills and reaps the run in flight (see launch).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = Bench(args.workload, args.seed, args.scale, Path(args.state).resolve())
    try:
        info, runs, metrics = bench.trace() if args.trace else bench.measure(args.seconds)
    except (BenchmarkError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)
    failed = sum(not run.ok for run in runs)
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]} for name, entry in metrics.items()},
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "seconds": args.seconds,
        "manifest": bench.manifest(info, runs),
        "runs": [run.summary() for run in runs],
        "metrics": metrics,
        "result": result,
    }
    if args.trace:
        report["spans"] = next(run for run in runs if run.label == "traced").record["trace"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (bench.state / "results" / name).write_text(json.dumps(report, indent=1))
    for run in runs:
        for problem in run.problems:
            print(f"perfbench: {run.label}: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
