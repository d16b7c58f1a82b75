import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from tracelab import fileio
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


# awkward floats: subnormal, negative zero, non-finite, where repr switches
# to exponent notation, 17 digits and the largest float
FLOATS = [5e-324, -0.0, math.nan, math.inf, -math.inf, 1e16, 1e-5, 0.1 + 0.2,
          1.7976931348623157e308]


@pytest.mark.parametrize("kind", ["float", "float64-array", "float64-list", "float32-array"])
def test_write_csv_writes_the_bytes_of_the_cell_by_cell_writer(tmp_path, write_csv_by_cell,
                                                                kind):
    # a float32 cell is the repr of its exact double, not numpy's shorter str;
    # numbers alone take the joined rows, a text column the csv module
    floats = {"float": FLOATS, "float64-array": np.array(FLOATS),
              "float64-list": [np.float64(x) for x in FLOATS],
              "float32-array": np.array(FLOATS[:-1] + [np.finfo(np.float32).max],
                                        dtype=np.float32)}[kind]
    n = len(FLOATS)
    numbers = (floats, np.arange(-4, n - 4, dtype=np.int64), range(n),
               np.arange(n) % 3 == 0, np.arange(n, dtype=np.uint8))
    text = [f"{k},{k % 2}" for k in range(n)]  # billiard's descriptors hold a comma
    for columns, third_row in ((numbers + (text,), '-0.0,-3,1,False,1,"1,1"'),
                               (numbers, "-0.0,-3,1,False,1")):
        header = ("x", "i", "k", "flag", "u", "descriptor")[:len(columns)]
        write_csv(tmp_path / "new.csv", header, columns)
        write_csv_by_cell(tmp_path / "old.csv", header, zip(*columns))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert (tmp_path / "new.csv").read_text().splitlines()[2] == third_row


def test_write_csv_writes_none_as_an_empty_cell(tmp_path):
    # cli writes a record holding None, such as billiard's closed_length, as one row
    write_csv(tmp_path / "r.csv", ("closed_length", "total_length", "only"),
              ([None], [0.5], [None]))
    write_csv(tmp_path / "c.csv", ("only",), ([None],))
    assert (tmp_path / "r.csv").read_bytes() == b"closed_length,total_length,only\r\n,0.5,\r\n"
    assert (tmp_path / "c.csv").read_bytes() == b'only\r\n""\r\n'


@pytest.mark.parametrize("rows", [0, 1, 2**16 - 1, 2**16, 2**16 + 1])
def test_write_csv_blocks_join_without_a_seam(tmp_path, write_csv_by_cell, rows):
    values = np.random.default_rng(rows).standard_normal(rows)
    columns = (range(rows), values)
    write_csv(tmp_path / "new.csv", ("k", "x"), columns)
    write_csv_by_cell(tmp_path / "old.csv", ("k", "x"), zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_holds_one_block_of_python_floats(tmp_path, monkeypatch):
    # a block of 2**12 rows of four float columns holds 4 * 2**12 * 32 bytes
    # of lists and floats, 512 KiB (668 KiB traced with the file and writer);
    # two blocks at once (1.2 MiB) or the whole columns (2.1 MiB) exceed the
    # bound.  Blocks of 2**16 rows over 10**6 rows (8.2 MiB traced against
    # 120 MiB) took 28 s under tracemalloc on a 2-vCPU machine.
    monkeypatch.setattr(fileio, "_BLOCK_ROWS", 2**12)
    columns = np.random.default_rng(1).standard_normal((4, 2**14 + 1))
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", ("a", "b", "c", "d"), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 4 * 2**12 * 32
    assert read_csv(tmp_path / "big.csv")[1].tobytes() == columns.T.tobytes()


def test_write_csv_refuses_columns_of_unequal_lengths(tmp_path):
    with pytest.raises(ValueError, match=r"unequal lengths \[2, 3\]"):
        write_csv(tmp_path / "r.csv", ("a", "b"), ([1.0, 2.0], range(3)))


@pytest.mark.parametrize("body, fault", [
    ("0,1,2\n1,2,3,4\n", "the number of columns changed from 3 to 4 at row 2"),
    ("\n0,1,2\n\n1,2,x\n", "could not convert string 'x' to float at row 2, column 3"),
    ('0,1,2\n"1",2,"3 4"\n', "could not convert string '3 4' to float at row 2, column 3"),
    # a cell float() reads and numpy does not
    ("0,1,2\n1,2,1_0\n", "the rows below the header are not a table of numbers"),
], ids=["ragged", "blank-lines", "quoted", "underscore"])
def test_read_csv_names_the_first_fault_counting_data_rows_from_one(tmp_path, body, fault):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n" + body)
    with pytest.raises(ValueError) as info:
        read_csv(path)
    assert str(info.value) == f"{path}: {fault}"


def test_read_csv_parses_each_cell_as_float_did(tmp_path):
    # awkward values: subnormal, the largest float, negative zero, 17 digits
    values = np.random.default_rng(5).standard_normal((6, 7)) * 1e-3
    values[0, :4] = (5e-324, 1.7976931348623157e308, -0.0, 0.1 + 0.2)
    write_csv(tmp_path / "t.csv", ["node", *range(6)], values.T)
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
