"""Tests for serialization helpers."""

import dataclasses

import numpy as np
import pytest

from repro.utils.serialization import (
    format_table,
    load_json,
    save_json,
    to_jsonable,
)


@dataclasses.dataclass
class _Sample:
    name: str
    values: np.ndarray


def test_to_jsonable_handles_arrays_and_dataclasses():
    payload = to_jsonable(_Sample(name="x", values=np.arange(3)))
    assert payload == {"name": "x", "values": [0, 1, 2]}


def test_to_jsonable_complex_array_roundtrip_structure():
    payload = to_jsonable(np.array([1 + 2j]))
    assert payload["__complex_array__"] is True
    assert payload["real"] == [1.0] and payload["imag"] == [2.0]


def test_to_jsonable_scalars():
    assert to_jsonable(np.float64(1.5)) == 1.5
    assert to_jsonable(np.int64(3)) == 3
    assert to_jsonable(complex(1, 2)) == {"real": 1.0, "imag": 2.0, "__complex__": True}


def test_save_and_load_json(tmp_path):
    path = tmp_path / "out" / "result.json"
    save_json({"a": np.array([1.0, 2.0]), "b": 3}, path)
    loaded = load_json(path)
    assert loaded == {"a": [1.0, 2.0], "b": 3}


def test_format_table_alignment_and_floats():
    table = format_table(["name", "value"], [["a", 1.23456], ["bb", 2]])
    lines = table.splitlines()
    assert len(lines) == 4
    assert "1.2346" in table
    assert lines[0].startswith("name")


def test_format_table_empty_rows():
    table = format_table(["col"], [])
    assert "col" in table


def test_failed_save_json_leaves_existing_file_untouched(tmp_path):
    path = tmp_path / "result.json"
    save_json({"a": 1}, path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        save_json({"a": object()}, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["result.json"]


@dataclasses.dataclass
class _WithLiveField:
    value: complex
    live: object = dataclasses.field(default=None, metadata={"json": False})


def test_to_jsonable_skips_fields_marked_not_json():
    payload = to_jsonable(_WithLiveField(value=1 + 2j, live=object()))
    assert payload == {"value": {"real": 1.0, "imag": 2.0, "__complex__": True}}


def test_save_json_writes_complex_arrays_with_sorted_keys(tmp_path):
    path = save_json({"z": np.array([[1 - 1j]]), "a": 1}, tmp_path / "result.json")
    text = path.read_text()
    assert text.index('"a"') < text.index('"z"') and text.endswith("\n")
    assert load_json(path)["z"] == {"real": [[1.0]], "imag": [[-1.0]], "__complex_array__": True}
