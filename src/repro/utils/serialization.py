"""Serialization helpers for experiment results.

Experiment runners return plain dataclasses / dictionaries of NumPy arrays.
These helpers persist them as JSON (human-readable summaries) or ``.npz``
(full numeric payloads) so that benchmark runs can be archived and compared
against the paper's reported numbers.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Mapping

import numpy as np


def _to_jsonable(value: Any) -> Any:
    """Recursively convert ``value`` into JSON-serializable primitives."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # Fields marked ``metadata={"json": False}`` (live objects such as
        # compiled meshes) stay out of the document.
        return {
            item.name: _to_jsonable(getattr(value, item.name))
            for item in dataclasses.fields(value)
            if item.metadata.get("json", True)
        }
    if isinstance(value, Mapping):
        return {str(k): _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return {"real": value.real.tolist(), "imag": value.imag.tolist(), "__complex_array__": True}
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, complex):
        return {"real": value.real, "imag": value.imag, "__complex__": True}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    if isinstance(value, Path):
        return str(value)
    return value


def to_jsonable(value: Any) -> Any:
    """Public wrapper around the recursive JSON conversion."""
    return _to_jsonable(value)


def save_json(data: Any, path: str | Path, indent: int = 2) -> Path:
    """Write ``data`` (dataclass / dict / arrays) to ``path`` as JSON.

    The write is atomic: the document goes to a temporary file in the same
    directory, which then replaces ``path``.  A failure part-way (e.g. an
    unserializable value) leaves any existing file untouched and removes
    the temporary file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temporary.open("w", encoding="utf-8") as handle:
            json.dump(_to_jsonable(data), handle, indent=indent, sort_keys=True)
            handle.write("\n")
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return path


def load_json(path: str | Path) -> Any:
    """Load a JSON document previously written by :func:`save_json`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def save_arrays(path: str | Path, **arrays: np.ndarray) -> Path:
    """Save named arrays to a compressed ``.npz`` archive."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)
    return path


def load_arrays(path: str | Path) -> dict[str, np.ndarray]:
    """Load arrays from an ``.npz`` archive into a plain dictionary."""
    with np.load(Path(path)) as data:
        return {key: data[key] for key in data.files}


def format_table(headers: list[str], rows: list[list[Any]], float_fmt: str = "{:.4f}") -> str:
    """Render a small ASCII table (used by CLI experiment reports)."""
    rendered_rows = []
    for row in rows:
        rendered = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                rendered.append(float_fmt.format(float(cell)))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def _line(cells: list[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    sep = "-+-".join("-" * w for w in widths)
    lines = [_line(headers), sep]
    lines.extend(_line(row) for row in rendered_rows)
    return "\n".join(lines)
