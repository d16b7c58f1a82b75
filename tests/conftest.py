import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracelab
from tracelab.fileio import write_csv
from tracelab.linalg import SymMatrix


@pytest.fixture(autouse=True)
def children_import_this_tracelab(monkeypatch):
    """Interpreters the tests start import the package this one imported.

    pytest finds the package through its `pythonpath` setting, which child
    processes do not inherit, so it goes into their PYTHONPATH too.
    """
    src = str(Path(tracelab.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


@pytest.fixture
def write_kernel_csv(tmp_path):
    """Writer of a tabulated kernel as a matrix CSV bordered by its grid nodes.

    The format is the one `kernels.kernel_from_csv` reads and the CLI
    takes as --kernel; the writer returns the path it wrote.
    """
    def write(spec, name="kernel.csv"):
        path = tmp_path / name
        nodes = spec.grid.nodes
        write_csv(path, ["node", *nodes], [nodes, *spec.values.T])
        return path
    return write


@pytest.fixture(scope="session")
def whole_b():
    """Sampler of a kernel's whole Nystrom matrix B = D K D on a grid, D = diag(sqrt(w)).

    It is the `SymMatrix` `nystrom.discretize` makes, bit for bit, where
    the kernel is not reflective, and the tests' reference for the
    halves it gives every other kernel.  Session-scoped, so that
    hypothesis tests can take it.
    """
    def sample(spec, grid):
        s = np.sqrt(grid.weights)
        return SymMatrix._from_buffer(spec.matrix(grid) * np.multiply.outer(s, s))
    return sample


def _cell(value) -> str:
    """Render a cell: round-trip repr for floats, str for everything else."""
    if isinstance(value, float):
        return repr(float(value))  # plain float repr even for numpy scalars
    if hasattr(value, "item"):  # other numpy scalars
        return _cell(value.item())
    return str(value)


@pytest.fixture
def write_csv_by_cell():
    """The CSV writer of rows that rendered each cell with one call.

    It is the rule `fileio.write_csv` applied before it took columns, kept
    as the oracle of that writer's bytes.
    """
    def write(path, header, rows):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_cell(cell) for cell in row])
    return write


# Runs its arguments as a child and prints the child's exit status and
# ru_maxrss from wait4.  A child inherits the high-water mark of the process
# that started it, so the command is started from this small interpreter
# rather than from pytest, whose mark is far above a short command's peak.
_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.fixture
def cli_peak_rss():
    """Runner of `python -m tracelab.cli *args` that returns (exit status, peak RSS in KiB).

    The peak is the CLI process's own, read through a launcher process
    (see _LAUNCHER); Linux reports ru_maxrss in KiB.
    """
    def run(*args):
        out = subprocess.run([sys.executable, "-c", _LAUNCHER,
                              sys.executable, "-m", "tracelab.cli", *args],
                             capture_output=True, text=True, check=True).stdout
        status, kib = map(int, out.split())
        return status, kib
    return run
