"""The packaging metadata in ``pyproject.toml`` matches the package."""

import importlib
import tomllib
from pathlib import Path

import repro
from repro import cli

PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"


def _project() -> dict:
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)


def test_console_script_resolves_to_the_cli_main():
    target = _project()["project"]["scripts"]["spnn-repro"]
    module, _, attr = target.partition(":")
    entry = importlib.import_module(module)
    for part in attr.split("."):
        entry = getattr(entry, part)
    assert entry is cli.main


def test_version_and_name_match_the_package():
    project = _project()["project"]
    assert project["name"] == "spnn-repro"
    assert project["version"] == repro.__version__


def test_src_layout_and_runtime_dependencies():
    data = _project()
    assert data["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]
    assert {"numpy", "scipy"} <= set(data["project"]["dependencies"])
