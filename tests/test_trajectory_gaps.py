"""The trajectory tool tolerates gaps in the ``BENCH_prN`` artifact history.

Not every PR records a benchmark artifact (PR 8 shipped none), so the
label sequence at the repo root has holes.  ``missing_labels`` names them
and ``main``/``--check`` warn instead of failing — a gap is history, not a
regression — while genuinely broken artifacts are still skipped loudly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import trajectory  # noqa: E402  (repo benchmarks/ module, not a package)


def _artifact(label: str, speedup: float = 2.0) -> dict:
    return {"label": label, "scenarios": {"mc_engine": {"speedup": speedup}}}


def _write(directory: Path, label: str, **kwargs) -> None:
    payload = _artifact(label, **kwargs)
    (directory / f"BENCH_{label}.json").write_text(json.dumps(payload))


class TestMissingLabels:
    def test_contiguous_history_has_no_gaps(self):
        artifacts = {f"pr{n}": _artifact(f"pr{n}") for n in (4, 5, 6)}
        assert trajectory.missing_labels(artifacts) == []

    def test_gap_is_named(self):
        artifacts = {f"pr{n}": _artifact(f"pr{n}") for n in (4, 5, 6, 7, 9)}
        assert trajectory.missing_labels(artifacts) == ["pr8"]

    def test_multiple_gaps(self):
        artifacts = {f"pr{n}": _artifact(f"pr{n}") for n in (4, 7, 10)}
        assert trajectory.missing_labels(artifacts) == [
            "pr5",
            "pr6",
            "pr8",
            "pr9",
        ]

    def test_non_pr_labels_are_ignored(self):
        artifacts = {
            "pr4": _artifact("pr4"),
            "nightly": _artifact("nightly"),
            "pr6": _artifact("pr6"),
        }
        assert trajectory.missing_labels(artifacts) == ["pr5"]

    def test_single_or_empty_history_has_no_gaps(self):
        assert trajectory.missing_labels({}) == []
        assert trajectory.missing_labels({"pr4": _artifact("pr4")}) == []


class TestMainWarnsOnGaps:
    def test_check_warns_but_passes_across_a_gap(self, tmp_path, capsys):
        for label in ("pr4", "pr5", "pr7"):
            _write(tmp_path, label)
        code = trajectory.main(["--dir", str(tmp_path), "--check"])
        captured = capsys.readouterr()
        assert code == 0
        assert "no BENCH artifact for pr6" in captured.err
        assert "regression gate passed" in captured.out

    def test_no_warning_without_gaps(self, tmp_path, capsys):
        for label in ("pr4", "pr5"):
            _write(tmp_path, label)
        assert trajectory.main(["--dir", str(tmp_path)]) == 0
        assert "no BENCH artifact" not in capsys.readouterr().err

    def test_corrupt_artifact_still_skipped_loudly(self, tmp_path, capsys):
        _write(tmp_path, "pr4")
        (tmp_path / "BENCH_pr5.json").write_text("{broken")
        assert trajectory.main(["--dir", str(tmp_path)]) == 0
        assert "skipping BENCH_pr5.json" in capsys.readouterr().err

    def test_repo_root_artifacts_have_exactly_the_known_gaps(self):
        # PR 8 (a refactor) and PR 11 (the perfbench suite) recorded no artifact.
        artifacts = trajectory.load_artifacts(trajectory.REPO_ROOT)
        assert trajectory.missing_labels(artifacts) == ["pr8", "pr11"]


class TestAbsoluteFloors:
    def test_megakernel_absolute_floor(self):
        artifacts = {
            "pr13": {
                "label": "pr13",
                "scenarios": {"mesh_megakernel": {"speedup": 1.5}},
            }
        }
        failures = trajectory.check_regressions(artifacts, tolerance=0.6)
        assert any("absolute floor 2.00" in failure for failure in failures)

    def test_floor_cleared_passes(self):
        artifacts = {
            "pr13": {
                "label": "pr13",
                "scenarios": {"mesh_megakernel": {"speedup": 2.5}},
            }
        }
        assert trajectory.check_regressions(artifacts, tolerance=0.6) == []
