"""Deterministic CSV/JSON writers shared by the experiment modules.

Floats are rendered with repr (shortest round-trip form), so rerunning an
experiment with identical inputs produces byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path


def fmt(value) -> str:
    """Render a cell: round-trip repr for floats, str for everything else."""
    if isinstance(value, float):
        return repr(float(value))  # plain float repr even for numpy scalars
    if hasattr(value, "item"):  # other numpy scalars
        return fmt(value.item())
    return str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(cell) for cell in row])


def read_csv(path):
    """Return (header, rows) with every cell parsed as float when possible."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path} is empty")
        rows = []
        for raw in reader:
            parsed = []
            for cell in raw:
                try:
                    parsed.append(float(cell))
                except ValueError:
                    parsed.append(cell)
            rows.append(parsed)
    return header, rows


def to_builtin(obj):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):
        return obj.item()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: to_builtin(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_builtin(v) for v in obj]
    return obj


def write_json(path, obj) -> None:
    with open(Path(path), "w") as fh:
        json.dump(to_builtin(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")
