"""Deterministic CSV/JSON writers, and the CSV table reader, of the experiment modules.

Floats are rendered with repr (shortest round-trip form), so rerunning an
experiment with identical inputs produces byte-identical files.
"""

from __future__ import annotations

import csv
import json
import warnings

import numpy as np


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
    """Return the header cells and the body as one float64 array from `numpy.loadtxt`."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
            except ValueError as exc:  # without numpy's advice to pass usecols
                raise ValueError(f"{path}: {str(exc).split(';')[0]}") from None
    if not table.size:
        raise ValueError(f"{path} has no data rows")
    return header, table


def _tolist(obj):
    """json's hook for numpy arrays and non-float scalars; np.float64 is a float."""
    if not hasattr(obj, "tolist"):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return obj.tolist()


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_tolist)
        fh.write("\n")
