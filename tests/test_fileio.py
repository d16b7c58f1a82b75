import csv
import json
import math

import numpy as np
import pytest

from tracelab.fileio import read_csv, write_csv, write_json
from tracelab.kernels import heat_circle, kernel_from_csv, tabulated
from tracelab.quadrature import MIDPOINT, make_grid


def to_builtin(obj):
    """The converter write_json applied before json.dump, kept as the oracle."""
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):
        return obj.item()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: to_builtin(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_builtin(v) for v in obj]
    return obj


def test_write_json_writes_the_bytes_of_the_old_converter(tmp_path):
    record = {
        "float": np.float64(0.1) + np.float64(0.2),
        "int": np.int64(-7),
        "flag": np.bool_(True),
        "values": np.array([1.0, -0.0, 1e-310, 2.5e300, math.nan]),
        "matrix": np.arange(6, dtype=np.int64).reshape(2, 3),
        "pair": (np.float64(math.pi), 3),
        "nested": {"none": None, "nan": np.float64(math.nan), "list": [np.float64(1 / 3)]},
        "plain": [0.1, "text", False],
    }
    write_json(tmp_path / "new.json", record)
    with open(tmp_path / "old.json", "w") as fh:
        json.dump(to_builtin(record), fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


def test_write_json_refuses_what_json_refuses(tmp_path):
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        write_json(tmp_path / "r.json", {"bad": object()})


def test_read_csv_parses_each_cell_as_float_did(tmp_path):
    # awkward values: subnormal, the largest float, negative zero, 17 digits
    values = np.random.default_rng(5).standard_normal((6, 7)) * 1e-3
    values[0, :4] = (5e-324, 1.7976931348623157e308, -0.0, 0.1 + 0.2)
    write_csv(tmp_path / "t.csv", ["node", *range(6)], values)
    header, table = read_csv(tmp_path / "t.csv")
    with open(tmp_path / "t.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert header == rows[0]
    assert table.dtype == np.float64
    expected = np.array([[float(cell) for cell in row] for row in rows[1:]])
    assert table.tobytes() == expected.tobytes() == values.tobytes()


@pytest.mark.parametrize("variant", ["quoted", "crlf", "quoted-crlf", "blank-lines"])
def test_table_variants_load_like_the_plain_file(write_kernel_csv, variant):
    g = make_grid(MIDPOINT, 9)
    plain = write_kernel_csv(tabulated(heat_circle(0.3).matrix(g), g))
    lines = plain.read_text().splitlines()
    if "quoted" in variant:
        lines = [",".join(f'"{cell}"' for cell in line.split(",")) for line in lines]
    if variant == "blank-lines":  # blank lines carry no row and are skipped
        lines = [lines[0], "", *lines[1:], "", ""]
    newline = "\r\n" if "crlf" in variant else "\n"
    path = plain.with_name(f"{variant}.csv")
    path.write_bytes(newline.join(lines).encode() + newline.encode())
    loaded, reference = kernel_from_csv(path), kernel_from_csv(plain)
    assert loaded.grid == reference.grid == g
    assert loaded.values.tobytes() == reference.values.tobytes()
