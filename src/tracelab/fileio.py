"""Deterministic CSV/JSON writers, and the CSV table reader, of the experiment modules.

Floats are rendered with repr (shortest round-trip form), so rerunning an
experiment with identical inputs produces byte-identical files.  The CSV
writer takes columns and is the one place where numpy values become CSV
text.
"""

from __future__ import annotations

import csv
import json
import warnings
from itertools import repeat

import numpy as np

# Rows converted to Python objects at a time: writing four float columns of
# 10**6 rows traces an 8 MiB peak in blocks of 2**16 rows, where the whole
# columns as Python floats would hold 120 MiB
_BLOCK_ROWS = 2**16
# numpy kinds whose Python values the csv module writes as their repr (bool,
# int, unsigned, float), none of which needs quoting
_NUMERIC_KINDS = "biuf"


def write_csv(path, header, columns) -> None:
    """Write the header, then one row per index of the equal-length columns.

    `columns` is a sequence, such as a tuple or a 2-D array's rows, of
    columns; a column is a numpy array, list, tuple or range of one type.
    Each block of _BLOCK_ROWS rows of a column is read as one numpy array
    and converted with one `tolist`, so numpy scalars, and lists of them,
    become Python floats, ints, bools and strs, and no more than one block
    is held as Python objects.  Each cell is written as the csv module
    writes it: a float as its repr, the shortest text that reads back to
    the same float, so a rerun writes the same bytes.  A block of numbers
    alone is joined row by row from the reprs, with the csv module's
    "\r\n" line ending, which is its text without its per-cell path; a
    block with a string or None cell goes through the csv module, which
    quotes and writes None as an empty cell.
    """
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"{path}: columns of unequal lengths {sorted(lengths)}")
    rows = lengths.pop() if lengths else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, rows, _BLOCK_ROWS):
            _write_block(fh, writer, [np.asarray(column[start:start + _BLOCK_ROWS])
                                      for column in columns])


def _write_block(fh, writer, blocks) -> None:
    """Write the rows of a block of columns, each a numpy array; a call holds one block."""
    cells = [block.tolist() for block in blocks]
    if all(block.dtype.kind in _NUMERIC_KINDS for block in blocks):
        lines = map(",".join, zip(*(map(repr, column) for column in cells)))
        fh.writelines(map(str.__add__, lines, repeat("\r\n")))
    else:
        writer.writerows(zip(*cells))


def read_csv(path):
    """Return the header cells and the body as one float64 array from `numpy.loadtxt`.

    A body that is not a table of numbers is refused with its first fault,
    located by `_first_fault`.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
            except ValueError:
                raise ValueError(f"{path}: {_first_fault(path)}") from None
    if not table.size:
        raise ValueError(f"{path} has no data rows")
    return header, table


def _first_fault(path) -> str:
    """The first ragged row or non-numeric cell below the header, rows and columns counted from 1.

    Read again with the csv module, on the error path only; blank lines
    carry no row, as in `numpy.loadtxt`.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        width = None
        for number, row in enumerate(filter(None, reader), start=1):
            width = width or len(row)
            if len(row) != width:
                return f"the number of columns changed from {width} to {len(row)} at row {number}"
            for column, cell in enumerate(row, start=1):
                try:
                    float(cell)
                except ValueError:
                    return (f"could not convert string {cell!r} to float "
                            f"at row {number}, column {column}")
    return "the rows below the header are not a table of numbers"


def _tolist(obj):
    """json's hook for numpy arrays and non-float scalars; np.float64 is a float."""
    if not hasattr(obj, "tolist"):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return obj.tolist()


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_tolist)
        fh.write("\n")
