import os
from pathlib import Path

import pytest

import tracelab
from tracelab.fileio import write_csv


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
        write_csv(path, ["node", *nodes], [[x, *row] for x, row in zip(nodes, spec.values)])
        return path
    return write
