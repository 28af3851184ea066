"""Tests for the command-line interface."""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.cli import build_parser, main
from repro.experiments import registry


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for identifier in ("fig2", "fig3", "exp1", "exp2", "exp3", "yield", "baseline"):
        assert identifier in out


def test_fig2_runs_and_writes_output(tmp_path, capsys):
    output = tmp_path / "fig2.json"
    assert main(["fig2", "--smoke", "--output", str(output)]) == 0
    out = capsys.readouterr().out
    assert "Fig. 2" in out
    payload = json.loads(output.read_text())
    assert "peak_deviation" in payload

    # Fig. 3's result holds compiled meshes; the JSON carries the RVD table.
    output = tmp_path / "fig3.json"
    assert main(["fig3", "--smoke", "--iterations", "3", "--output", str(output)]) == 0
    assert "Fig. 3" in capsys.readouterr().out
    payload = json.loads(output.read_text())
    assert set(payload) == {"config", "reports"}
    table = [[entry["score"] for entry in report["scores"]] for report in payload["reports"]]
    assert len(table) == payload["config"]["num_matrices"]
    assert all(len(row) == 10 and all(score > 0 for score in row) for row in table)


def test_fig3_iterations_override(capsys):
    assert main(["fig3", "--smoke", "--iterations", "3"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 3" in out


def test_unknown_experiment_raises(capsys):
    """An unknown name is a usage error that lists the experiments."""
    with pytest.raises(SystemExit) as excinfo:
        main(["fig99"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unknown experiment 'fig99'" in err
    assert "exp1" in err and "yield" in err


def test_parser_flags():
    parser = build_parser()
    args = parser.parse_args(["exp1", "--smoke", "--iterations", "7"])
    assert args.experiment == "exp1" and args.smoke and args.iterations == 7
    assert args.workers is None
    args = parser.parse_args(["yield", "--workers", "2"])
    assert args.experiment == "yield" and args.workers == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["yield", "--device", "gpu"],
        ["yield", "--fleet", "127.0.0.1:0"],
        ["worker", "--connect", "127.0.0.1:0"],
        ["yield", "--backend", "gpu"],
        ["yield", "--backend", "fleet"],
        ["exp1", "--device", "cpu"],
        ["drift", "--connect", "127.0.0.1:0"],
    ],
)
def test_removed_execution_flags_are_argparse_errors(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2


def test_workers_flag_rejects_non_positive_values(capsys):
    # Validated at parse time, before any training starts.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["yield", "--workers", "0"])
    assert "must be >= 1" in capsys.readouterr().err


def test_workers_flag_rejected_for_experiments_without_knob(capsys):
    # fig2 is a deterministic surface scan with no Monte Carlo workers knob.
    with pytest.raises(SystemExit):
        main(["fig2", "--smoke", "--workers", "2"])
    assert "does not support --workers" in capsys.readouterr().err
    # summary/list do not run Monte Carlo either; the flag errors instead of
    # being silently ignored.
    with pytest.raises(SystemExit):
        main(["summary", "--smoke", "--workers", "2"])
    assert "does not support --workers" in capsys.readouterr().err


def test_yield_smoke_runs_with_workers(tmp_path, capsys):
    """End-to-end: the yield sweep through the CLI on the multiprocess path."""
    output = tmp_path / "yield.json"
    assert main(["yield", "--smoke", "--iterations", "4", "--workers", "2", "--output", str(output)]) == 0
    out = capsys.readouterr().out
    assert "Yield sweep" in out
    assert "max tolerable sigma" in out
    payload = json.loads(output.read_text())
    assert "estimates" in payload and "nominal_accuracy" in payload


def test_info_command(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "spnn-repro environment diagnostics" in out
    assert "platform" in out
    assert "cpus available" in out
    assert "array backend" in out
    assert "sweep kernel" in out
    assert "numpy" in out


def test_info_writes_json(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    output = tmp_path / "info.json"
    assert main(["info", "--output", str(output)]) == 0
    capsys.readouterr()
    payload = json.loads(output.read_text())
    assert payload["cpus_available"] >= 1
    assert payload["array_backends"]["numpy"]["available"] is True
    assert {"fused", "looped"} <= set(payload["array_backends"]["numpy"]["sweep_kernels"])
    assert "looped" in payload["sweep_kernels"]
    for entry in payload["sweep_kernels"].values():
        assert entry["available"] == (entry["reason"] is None)
    assert payload["autotune"] is None
    # The kernel table is recorded once per distinct table, in the XDG cache.
    tables = list((tmp_path / "cache" / "spnn-repro").glob("cost_table_*.json"))
    assert [str(path) for path in tables] == [payload["kernel_table"]]
    table = json.loads(tables[0].read_text())
    assert table["sweep_kernels"] == payload["sweep_kernels"]
    assert main(["info"]) == 0
    assert list((tmp_path / "cache" / "spnn-repro").glob("cost_table_*.json")) == tables


def test_info_reports_the_thread_budget_and_blas_control(tmp_path, monkeypatch, capsys):
    from repro.execution import blas, resolve_backend

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    output = tmp_path / "info.json"
    assert main(["info", "--output", str(output)]) == 0
    assert "default backend" in capsys.readouterr().out
    payload = json.loads(output.read_text())
    assert payload["thread_budget"] == payload["cpus_available"]
    assert payload["default_backend"] == repr(resolve_backend())
    assert payload["blas_thread_control"] == blas.blas_thread_control()


def test_info_rejects_run_only_flags(capsys):
    with pytest.raises(SystemExit):
        main(["info", "--workers", "2"])
    assert "does not support --workers" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["info", "--trace", "t.jsonl"])
    assert "does not support --trace" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["list", "--progress"])
    assert "does not support --trace" in capsys.readouterr().err


def test_yield_smoke_with_trace_and_metrics(tmp_path, capsys):
    """End-to-end: traced sharded yield sweep writes trace + metrics files."""
    from repro.observability import MetricsReport, read_trace

    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.json"
    assert (
        main(
            [
                "yield", "--smoke", "--iterations", "4", "--workers", "2",
                "--trace", str(trace), "--metrics-out", str(metrics),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Yield sweep" in out
    assert f"trace written to {trace}" in out
    assert f"metrics report written to {metrics}" in out

    records = read_trace(str(trace))
    kinds = {record["type"] for record in records}
    assert {"meta", "span", "frame"} <= kinds
    span_names = {r["name"] for r in records if r["type"] == "span"}
    assert "yield/sweep" in span_names

    report = MetricsReport.load(str(metrics))
    assert any(entry["name"] == "yield/sweep" for entry in report.spans)
    schedule = report.chunk_schedule(label="yield")
    assert schedule, "the traced sweep must record its chunk frames"
    # The frames reconstruct the planned contiguous chunking exactly.
    position = 0
    for start, count in schedule:
        assert start == position and count >= 1
        position += count


def test_progress_flag_prints_heartbeats(capsys):
    assert main(["exp1", "--smoke", "--iterations", "4", "--progress"]) == 0
    out = capsys.readouterr().out
    assert "[progress]" in out
    assert "chunk" in out


def test_trace_does_not_change_results(tmp_path, capsys):
    """ISSUE invariant at the CLI surface: --trace output == untraced output."""
    plain = tmp_path / "plain.json"
    traced = tmp_path / "traced.json"
    assert main(["exp1", "--smoke", "--iterations", "4", "--output", str(plain)]) == 0
    assert (
        main(
            [
                "exp1", "--smoke", "--iterations", "4",
                "--output", str(traced), "--trace", str(tmp_path / "t.jsonl"),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert json.loads(plain.read_text()) == json.loads(traced.read_text())


def test_keyboard_interrupt_exits_130_with_one_line(monkeypatch, capsys):
    def interrupted(config):
        raise KeyboardInterrupt

    spec = dataclasses.replace(registry.get_experiment("yield"), runner=interrupted)
    monkeypatch.setattr(cli, "get_experiment", lambda identifier: spec)
    assert main(["yield", "--smoke"]) == 130
    captured = capsys.readouterr()
    assert captured.err == "spnn-repro: interrupted\n"


def _group_members(pgid: int) -> set:
    """Live (non-zombie) pids of process group ``pgid``, read from ``/proc``."""
    members = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.add(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process groups from /proc")
@pytest.mark.parametrize("flags", [[], ["--workers", "2"]], ids=["threads", "processes"])
def test_ctrl_c_exits_130_without_a_traceback(flags):
    """SIGINT to the CLI's process group after the first chunk, as a terminal's Ctrl-C."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    command = [
        sys.executable, "-u", "-m", "repro.cli", "yield", "--smoke",
        "--iterations", "20000", "--progress", *flags,
    ]
    proc = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    # Bounds the blocking reads below: a run that hangs is killed, and the
    # test then fails on its exit code.
    watchdog = threading.Timer(120, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        for line in proc.stdout:
            if "chunk 1/" in line:
                break
        else:
            pytest.fail(f"no chunk frame before exit: {proc.stderr.read()}")
        members = _group_members(proc.pid)
        os.killpg(proc.pid, signal.SIGINT)
        stderr = proc.stderr.read()
        returncode = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    assert returncode == 130, stderr
    assert "Traceback" not in stderr
    assert stderr.strip().splitlines() == ["spnn-repro: interrupted"]
    assert len(members) >= (3 if flags else 1)
    deadline = time.monotonic() + 5
    while _group_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _group_members(proc.pid) == set()
