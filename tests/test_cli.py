import argparse
import contextlib
import csv
import importlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tracelab
from tracelab import billiard, cli, heat, kernels, mercer, nystrom, quadrature, sturm, wavetrace
from tracelab.cli import main
from tracelab.quadrature import MIDPOINT, TRAPEZOID, make_grid


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trace_check_green(capsys, tmp_path):
    out_path = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "trace-check", "--kernel", "green", "--n", "401",
                       "--out", str(out_path))
    assert code == 0
    assert "residual=" in out
    residual = float(out.split("residual=")[1])
    assert residual < 1e-10
    assert "0.16666" in out
    header, row = out_path.read_text().splitlines()
    assert header == "eig_sum,diag_integral,residual"
    assert float(row.split(",")[2]) < 1e-10


def test_basel_command(capsys):
    code, out, _ = run(capsys, "basel", "--kmax", "1000")
    assert code == 0
    gap = float(out.split("gap=")[1])
    assert 1.0 / 1001 < gap < 1.0 / 1000


def test_theta_command(capsys):
    code, out, _ = run(capsys, "theta", "--s", "0.5")
    assert code == 0
    assert float(out.split("transform_residual=")[1]) < 1e-12


def test_spectrum_writes_two_csvs(capsys, tmp_path):
    out_path = tmp_path / "spec.csv"
    code, out, _ = run(capsys, "spectrum", "--n", "201", "--count", "5",
                       "--out", str(out_path))
    assert code == 0
    assert float(out.split("max_rel_err=")[1]) < 1e-3
    values = out_path.read_text().splitlines()
    assert values[0] == "k,lambda,analytic_lambda"
    assert len(values) == 6
    functions = (tmp_path / "spec_functions.csv").read_text().splitlines()
    assert len(functions) == 6


def test_mercer_json(capsys, tmp_path):
    out_path = tmp_path / "mercer.json"
    code, out, _ = run(capsys, "mercer", "--kmax", "50", "--out", str(out_path),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["sup_error"] <= payload["tail_bound"]


def test_bvp_compare_deterministic(capsys, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1, line1, _ = run(capsys, "bvp-compare", "--n", "301", "--kmax", "100",
                          "--trials", "3", "--seed", "5", "--out", str(out1))
    code2, line2, _ = run(capsys, "bvp-compare", "--n", "301", "--kmax", "100",
                          "--trials", "3", "--seed", "5", "--out", str(out2))
    assert code1 == code2 == 0
    assert line1 == line2
    assert out1.read_bytes() == out2.read_bytes()
    assert float(line1.split("max_sup_diff=")[1]) < 1e-3


def test_heat_compare(capsys, tmp_path):
    out_path = tmp_path / "heat.csv"
    code, out, _ = run(capsys, "heat-compare", "--t", "0.25", "--n", "512",
                       "--out", str(out_path))
    assert code == 0
    assert float(out.split("sup_diff=")[1]) < 1e-8
    assert out_path.read_text().splitlines()[0] == "node,f,u_spectral,u_kernel"


def test_heat_kernel_just_wider_than_the_grid_is_accepted(capsys):
    # sqrt(2t) just above the spacing 1/16; the two methods agree to about 2e-4
    t = (1.0 / 16) ** 2 / 2.0 * (1.0 + 1e-9)
    code, out, _ = run(capsys, "heat-compare", "--t", repr(t), "--n", "16")
    assert code == 0
    assert float(out.split("sup_diff=")[1]) < 1e-3


def test_heat_trace_sweep(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "heat-trace", "--t", "0.05,0.1,0.5",
                       "--out", str(out_path))
    assert code == 0
    assert float(out.split("max_residual=")[1]) < 1e-9
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t,lhs,rhs,residual"
    assert len(lines) == 4


def test_billiard_closed_orbit(capsys, tmp_path):
    out_path = tmp_path / "traj.csv"
    code, out, _ = run(capsys, "billiard", "--start", "0.5", "0.25",
                       "--dir", "1", "1", "--budget", "10", "--out", str(out_path))
    assert code == 0
    assert "closed_at=2.82842712" in out
    assert out_path.read_text().splitlines()[0] == \
        "segment,start_x,start_y,dir_x,dir_y,length"


def test_billiard_negative_direction_components(capsys):
    code, out, _ = run(capsys, "billiard", "--shape", "disc", "--radius", "1",
                       "--start", "1", "0", "--dir", "-0.7071067811865476",
                       "0.7071067811865475", "--budget", "12")
    assert code == 0
    assert "closed_at=" in out  # inscribed-square orbit, length 4 sqrt(2)
    assert abs(float(out.split("closed_at=")[1]) - 4.0 * 2.0**0.5) < 1e-9


def test_subnormal_direction_runs_without_warning():
    # the wall distance along a 1e-320 component overflows to inf, the right value;
    # two subnormal components are normalized as any other direction
    for direction in (("1", "1e-320"), ("1e-320", "1e-320"), ("-2e-320", "2e-320")):
        result = subprocess.run(
            [sys.executable, "-m", "tracelab.cli", "billiard", "--dir", *direction,
             "--budget", "3"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, direction
        assert result.stderr == ""


def test_length_spectrum_square(capsys, tmp_path):
    out_path = tmp_path / "lengths.csv"
    code, out, _ = run(capsys, "length-spectrum", "--l-max", "6",
                       "--out", str(out_path))
    assert code == 0
    assert "count=6" in out
    rows = out_path.read_text().splitlines()[1:]
    lengths = np.array([float(r.split(",")[0]) for r in rows])
    assert np.allclose(lengths, 2.0 * np.sqrt([1, 2, 4, 5, 8, 9]), atol=1e-12)


def test_wave_trace_small_run(capsys, tmp_path):
    signal_path = tmp_path / "signal.csv"
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "wave-trace", "--mu-max", str(np.pi**2 * 1601),
                       "--out", str(signal_path), "--report", str(report_path))
    assert code == 0
    assert "missed=0" in out and "spurious=0" in out
    payload = json.loads(report_path.read_text())
    assert payload["missed"] == [] and payload["spurious"] == []
    assert signal_path.read_text().splitlines()[0] == "t,value"


def test_negative_numbers_in_exponent_notation_are_values(capsys, tmp_path):
    # argparse's own negative-number pattern has no exponent, so these were
    # read as options and exited 2 with "expected one argument"
    code, out, err = run(capsys, "heat-compare", "--t", "-1e-3")
    assert code == 2 and out == ""
    assert "t must be positive and finite, got -0.001" in err
    code, out, _ = run(capsys, "wave-trace", "--t-min", "-1e-3",
                       *SMALL_RUNS["wave-trace"])
    assert code == 0 and out.startswith("wave-trace")
    code, out, _ = run(capsys, "billiard", "--shape", "disc", "--start", "-1e-5", "0.5")
    assert code == 0 and out.startswith("billiard disc")
    runs = []
    for x in ("-1e-1", "-0.1"):
        path = tmp_path / f"traj{x}.csv"
        code, out, _ = run(capsys, "billiard", "--shape", "disc", "--start", x, "0.5",
                           "--out", str(path))
        assert code == 0
        runs.append((out, path.read_bytes()))
    assert runs[0] == runs[1]


def test_validation_error_exits_2(capsys):
    code, _, err = run(capsys, "basel", "--kmax", "0")
    assert code == 2
    assert "k_max" in err


def test_unknown_command_exits_2(capsys):
    assert main(["no-such-command"]) == 2


def test_json_config(capsys, tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"command": "basel", "kmax": 1000}))
    code, out, _ = run(capsys, "--json-config", str(config_path))
    assert code == 0
    assert "kmax=1000" in out


def test_repeat_runs_byte_identical(capsys, tmp_path):
    paths = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
    for path in paths:
        run(capsys, "trace-check", "--n", "101", "--out", str(path))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_exactly_the_documented_commands():
    from tracelab.cli import build_parser

    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, type(parser._subparsers._group_actions[0])))
    commands = set(subparsers.choices)
    assert commands == {
        "trace-check", "spectrum", "mercer", "basel", "bvp-compare", "theta",
        "heat-compare", "heat-trace", "billiard", "length-spectrum", "wave-trace",
    }


def test_public_surface_is_pinned():
    # the package exports what the CLI and the acceptance suite reach; a name
    # added to or dropped from tracelab/__init__.py has to be added here too
    assert sorted(tracelab.__all__) == [
        "BaselReport", "ClosedOrbit", "EigenDecomposition", "Grid",
        "HeatTraceReport", "KernelSpec", "LaplaceSpectrum", "LengthMatchReport",
        "LengthSpectrum", "MIDPOINT", "MercerReport", "NumericalError",
        "OperatorSpectrum", "SymMatrix", "TRAPEZOID", "Table", "ThetaEvaluation",
        "TraceFormulaReport", "TraceSignal", "Trajectory", "basel_via_trace",
        "compare_lengths", "detect_peaks", "diagonal_trace", "disc", "discretize",
        "eigh_eigen", "eval_green", "eval_heat_periodic", "filtered_series",
        "green_dirichlet", "heat_circle", "heat_evolve", "heat_trace_check",
        "inner_product", "integrate", "is_closed", "jacobi_eigen",
        "length_spectrum", "make_grid", "matrix_trace_identity",
        "mercer_reconstruct", "operator_spectrum", "rectangle",
        "rectangle_spectrum", "residual_check", "simulate", "sine_modes",
        "smoothed_wave_trace", "solve_direct", "solve_spectral", "tabulated",
        "theta", "theta_transform_residual", "trace_formula_check", "trig_modes",
    ]


def test_public_names_resolve_lazily_to_their_submodules():
    namespace = {}
    exec("from tracelab import *", namespace)
    for name in tracelab.__all__:
        module = importlib.import_module(f"tracelab.{tracelab._SUBMODULE[name]}")
        assert getattr(tracelab, name) is getattr(module, name) is namespace[name]
    # looked up on every read, so a name rebound in its submodule is what the
    # package returns
    assert not set(tracelab.__all__) & set(vars(tracelab))
    assert set(tracelab.__all__) <= set(dir(tracelab))
    with pytest.raises(AttributeError):
        tracelab.no_such_name


def _fresh_python(code, **env):
    """Run code in a new interpreter whose environment holds no BLAS spin timeout."""
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child_env | env)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_importing_the_package_loads_no_numpy():
    assert _fresh_python("import sys, tracelab; print('numpy' in sys.modules)") == "False"


def test_cli_sets_the_blas_spin_timeout_unless_the_user_did():
    code = "import os, tracelab.cli; print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"
    assert _fresh_python(code) == cli._BLAS_SPIN_TIMEOUT
    assert _fresh_python(code, OPENBLAS_THREAD_TIMEOUT="7") == "7"


def test_cli_leaves_the_environment_of_a_process_holding_numpy_alone():
    # the timeout takes effect only when numpy loads; later it would only
    # leak into the caller's environment and its child processes
    code = ("import os, numpy, tracelab.cli as cli; before = dict(os.environ); "
            "cli.main(['basel', '--kmax', '10']); print(dict(os.environ) == before, "
            "'OPENBLAS_THREAD_TIMEOUT' in os.environ)")
    assert _fresh_python(code).splitlines()[-1] == "True False"


def test_a_command_loads_only_its_own_modules():
    code = ("import sys, tracelab.cli as cli; cli.main({!r}); "
            "print(' '.join(m for m in sys.modules if m.startswith('tracelab.')))")
    for argv, used, unused in (
        (["basel", "--kmax", "10"], "mercer", {"billiard", "nystrom", "heat", "wavetrace"}),
        (["billiard"], "billiard", {"kernels", "nystrom", "mercer", "linalg", "quadrature"}),
    ):
        loaded = set(_fresh_python(code.format(argv)).splitlines()[-1].split())
        assert f"tracelab.{used}" in loaded
        assert not {f"tracelab.{name}" for name in unused} & loaded, argv


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "tracelab.cli", "basel", "--kmax", "100"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "gap=" in result.stdout


def test_only_a_cli_process_freezes_its_import_heap():
    as_main = ("import gc, runpy, sys; sys.argv = ['tracelab', 'basel', '--kmax', '10']\n"
               "try:\n    runpy.run_module('tracelab.cli', run_name='__main__')\n"
               "except SystemExit:\n    pass\n"
               "print(gc.get_freeze_count() > 10000, gc.isenabled())")
    imported = "import gc, tracelab.cli; print(gc.get_freeze_count(), gc.isenabled())"
    called = ("import gc, tracelab.cli as cli; cli.main(['basel', '--kmax', '10']); "
              "print(gc.get_freeze_count(), gc.isenabled())")
    assert _fresh_python(as_main).splitlines()[-1] == "True True"
    assert _fresh_python(imported) == "0 True"
    assert _fresh_python(called).splitlines()[-1] == "0 True"


def test_process_runs_match_in_process_runs(capsys, tmp_path, write_kernel_csv):
    # the __main__ block, the eigenvalue helper and the table reader, warnings
    # as errors; n = 201 takes the split LAPACK path for both eigenvalue checks
    g = make_grid(TRAPEZOID, 201)
    table = write_kernel_csv(kernels.tabulated(kernels.green_dirichlet().matrix(g), g))
    runs = {
        "trace": ["trace-check", "--n", "201", "--out", "{dir}/t.csv"],
        "table": ["trace-check", "--kernel", str(table), "--out", "{dir}/k.csv"],
        "spectrum": ["spectrum", "--n", "201", "--count", "3", "--out", "{dir}/s.csv"],
        "basel": ["basel", "--kmax", "1000", "--format", "json", "--out", "{dir}/b.json"],
    }
    children = {}
    for name, argv in runs.items():
        (tmp_path / "process" / name).mkdir(parents=True)
        children[name] = subprocess.Popen(
            [sys.executable, "-W", "error", "-m", "tracelab.cli",
             *(arg.format(dir=tmp_path / "process" / name) for arg in argv)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    for name, argv in runs.items():
        out_dir = tmp_path / "in-process" / name
        out_dir.mkdir(parents=True)
        code, out, err = run(capsys, *(arg.format(dir=out_dir) for arg in argv))
        assert code == 0 and err == ""
        stdout, stderr = children[name].communicate()
        assert children[name].returncode == 0 and stderr == ""
        assert stdout == out
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == sorted(p.name for p in (tmp_path / "process" / name).iterdir())
        for file in files:
            assert (out_dir / file).read_bytes() == \
                (tmp_path / "process" / name / file).read_bytes()


def test_ignoring_indefiniteness_discretizes_once(capsys, monkeypatch):
    calls = []
    discretize = nystrom.discretize
    monkeypatch.setattr(nystrom, "discretize",
                        lambda *a, **k: calls.append(a) or discretize(*a, **k))
    for mode, expected in (("ignore", 1), ("warn", 2)):
        calls.clear()
        code, _, _ = run(capsys, "trace-check", "--n", "41", "--indefinite", mode)
        assert code == 0 and len(calls) == expected


@pytest.mark.parametrize("argv, calls", [
    (["trace-check", "--n", "41"], ["trace_formula_check", "_values"]),
    (["trace-check", "--n", "201"], ["_values", "trace_formula_check", "_values"]),
    (["spectrum", "--n", "201", "--count", "3"], ["operator_spectrum", "_values"]),
])
def test_the_indefiniteness_check_runs_after_the_solve(capsys, monkeypatch, argv, calls):
    # each name is recorded when its call returns; the check's eigenvalues
    # come from nystrom._values, as does trace-check's sum above n = 160
    recorded = []

    def recording(name):
        original = getattr(nystrom, name)

        def record(*args, **kwargs):
            result = original(*args, **kwargs)
            recorded.append(name)
            return result
        monkeypatch.setattr(nystrom, name, record)

    for name in ("_values", "trace_formula_check", "operator_spectrum"):
        recording(name)
    code, _, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert recorded == calls


def test_a_numerical_error_exits_1_and_any_other_runtime_error_propagates(capsys,
                                                                         monkeypatch):
    from tracelab.linalg import NumericalError

    def raising(error):
        def solve(*args):
            raise error
        return solve

    monkeypatch.setattr(nystrom, "trace_formula_check", raising(NumericalError("no convergence")))
    assert run(capsys, "trace-check", "--n", "41") == \
        (1, "", "numerical failure: no convergence\n")
    monkeypatch.setattr(nystrom, "trace_formula_check", raising(RuntimeError("bug")))
    with pytest.raises(RuntimeError, match="bug"):
        main(["trace-check", "--n", "41"])


@pytest.mark.parametrize("command", [["trace-check"], ["spectrum", "--count", "2"]])
def test_an_indefinite_table_warns_or_fails_with_one_line(capsys, tmp_path, command,
                                                          write_kernel_csv):
    # k(x, y) = a(x) + a(y) with a = x - 1/2 has rank two and eigenvalues
    # of both signs
    g = make_grid(TRAPEZOID, 9)
    path = write_kernel_csv(kernels.tabulated(np.add.outer(g.nodes, g.nodes) - 1.0, g))
    spec = kernels.kernel_from_csv(path)
    smallest = np.linalg.eigvalsh(nystrom.discretize(spec, spec.grid).entries).min()
    message = f"kernel is indefinite: smallest discrete eigenvalue {smallest:.3e}"
    assert smallest < -1e-3
    out_path = tmp_path / "out.csv"
    argv = [*command, "--kernel", str(path), "--out", str(out_path)]
    code, out, err = run(capsys, *argv, "--indefinite", "fail")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_path.exists()
    code, out, err = run(capsys, *argv, "--indefinite", "warn")
    assert code == 0 and out.startswith(command[0])
    assert err == f"warning: {message}\n"
    assert out_path.exists()


@pytest.mark.parametrize("value", [1e308, 1.5e308])
def test_tabulated_kernel_above_half_the_float_range_runs(capsys, tmp_path, value,
                                                          write_kernel_csv):
    # a + a^T overflowed in the symmetrization, and the finite table was
    # refused as "kernel value is not finite" after a RuntimeWarning
    g = make_grid(TRAPEZOID, 7)
    path = write_kernel_csv(kernels.tabulated(np.full((7, 7), value), g))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "trace-check", "--kernel", str(path))
        assert code == 0 and err == ""
        eig_sum = float(out.split("eig_sum=")[1].split()[0])
        assert abs(eig_sum - value) <= 1e-14 * value
        code, out, err = run(capsys, "spectrum", "--kernel", str(path), "--count", "1")
        assert code == 0 and err == ""
        assert abs(float(out.split("lambda1=")[1]) - value) <= 1e-14 * value


def test_trace_check_peaks_at_the_halves_and_one_lapack_half(cli_peak_rss):
    # the halves, 0.5 of 8 n^2 bytes, sampled without B, and LAPACK's copy
    # of one half, 0.25; B would add 1.0.  tracemalloc sees neither
    # LAPACK's copy nor the process, so this reads the process's own peak
    # above that of a run at n = 3.
    n = 1601
    base_status, base = cli_peak_rss("trace-check", "--n", "3")
    status, peak = cli_peak_rss("trace-check", "--n", str(n))
    assert base_status == status == 0
    assert (peak - base) * 1024 < 1.0 * 8 * n**2


def test_spectrum_peaks_below_three_matrices(cli_peak_rss):
    # the halves, LAPACK's half-size vectors, copy and workspace, then the
    # n x n vectors unfolded from the half-size ones: about 1.75 of 8 n^2
    # bytes, and 1.9 read here.  The indefiniteness check runs after the
    # solve; run before it, it left glibc's heap holding the pages of its
    # freed halves under the n x n vectors, and 2.4 was read.  B or an n x n
    # sorting gather would add 1.0 each.
    n = 1601
    base_status, base = cli_peak_rss("spectrum", "--n", "3", "--count", "1")
    status, peak = cli_peak_rss("spectrum", "--n", str(n), "--count", "10")
    assert base_status == status == 0
    assert (peak - base) * 1024 < 2.1 * 8 * n**2


def test_spectrum_signs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the largest |f| of sin(k pi x) sits at nodes of opposite sign, so
    # anchoring the sign there let round-off, and so the thread count, pick it
    rows = {}
    for threads in ("1", "2"):
        out = tmp_path / f"s{threads}.csv"
        subprocess.run([sys.executable, "-m", "tracelab.cli", "spectrum", "--n", "201",
                        "--out", str(out)], check=True, capture_output=True,
                       env=os.environ | {"OPENBLAS_NUM_THREADS": threads})
        rows[threads] = np.loadtxt(tmp_path / f"s{threads}_functions.csv", delimiter=",",
                                   skiprows=1)
    assert np.abs(rows["1"] - rows["2"]).max() < 1e-10
    assert np.all(rows["1"][:, 1] > 0.0)  # the sines' positive slope at x = 0


# small but complete runs of every subcommand
SMALL_RUNS = {
    "trace-check": ["--n", "41"],
    "spectrum": ["--n", "41", "--count", "3"],
    "mercer": ["--kmax", "20", "--lattice-n", "11"],
    "basel": ["--kmax", "100"],
    "bvp-compare": ["--n", "101", "--kmax", "20", "--trials", "2"],
    "theta": ["--s", "0.5"],
    "heat-compare": ["--n", "64"],
    "heat-trace": ["--n", "41"],
    "billiard": [],
    "length-spectrum": [],
    "wave-trace": ["--mu-max", str(np.pi**2 * 1601)],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", SMALL_RUNS)
def test_every_command_writes_its_format(capsys, tmp_path, command, fmt):
    out_path = tmp_path / f"out.{fmt}"
    code, out, _ = run(capsys, command, *SMALL_RUNS[command],
                       "--format", fmt, "--out", str(out_path))
    assert code == 0
    assert out.startswith(command)
    if fmt == "json":
        json.loads(out_path.read_text())
    else:
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) >= 2 and all(len(row) == len(rows[0]) for row in rows)


def test_wave_trace_json_out_is_the_match_report(capsys, tmp_path):
    out_path, report_path = tmp_path / "out.json", tmp_path / "report.json"
    code, _, _ = run(capsys, "wave-trace", *SMALL_RUNS["wave-trace"], "--format", "json",
                     "--out", str(out_path), "--report", str(report_path))
    assert code == 0
    assert out_path.read_bytes() == report_path.read_bytes()
    assert json.loads(out_path.read_text())["missed"] == []


class Hung(Exception):
    """Raised by the alarm when a command runs past its time limit."""


def _out_of_memory(k_max):
    raise MemoryError("cannot allocate the partial sum")


# each used to hang, exit 0 with a wrong answer, or end in a traceback;
# the huge finite values ran without bound before their work was capped
BAD_INPUTS = [
    (["theta", "--s", "nan"], 2),
    (["theta", "--s", "1e300"], 2),
    (["heat-trace", "--t", "nan"], 2),
    (["heat-trace", "--t", "0.1,inf"], 2),
    (["heat-compare", "--t", "inf"], 2),
    (["billiard", "--budget", "nan"], 2),
    (["billiard", "--budget", "inf"], 2),
    (["length-spectrum", "--l-max", "inf"], 2),
    (["wave-trace", "--sigma", "nan"], 2),
    (["wave-trace", "--t-step", "0"], 2),
    (["bvp-compare", "--trials", "0", "--out", "{tmp}/bvp.csv"], 2),
    (["theta", "--s", "0.5", "--out", "{tmp}/missing/theta.csv"], 2),
    (["--json-config", "{tmp}/missing.json"], 2),
    (["basel", "--kmax", "10000000000"], 1),
    (["heat-compare", "--t", "1e308", "--n", "16"], 2),
    (["heat-trace", "--t", "1e300"], 2),
    (["trace-check", "--kernel", "heat-circle", "--t", "1e300", "--n", "8"], 2),
    (["heat-compare", "--n", "16", "--lmax", "1000000000000"], 2),
    (["billiard", "--budget", "1e300"], 2),
    (["length-spectrum", "--l-max", "1e300"], 2),
    (["length-spectrum", "--shape", "disc", "--max-bounces", "100000000"], 2),
    (["bvp-compare", "--n", "1001", "--kmax", "1000000000", "--trials", "1"], 2),
    (["heat-compare", "--t", "1e-310", "--n", "16"], 2),
    (["trace-check", "--kernel", "heat-circle", "--t", "1e-310", "--n", "8"], 2),
    (["heat-compare", "--t", "1e-7", "--n", "512"], 2),
    (["mercer", "--kmax", "10000000", "--lattice-n", "101"], 0),
    (["mercer", "--kmax", "1000000000"], 2),
    (["mercer", "--lattice-n", "10001"], 2),
    (["trace-check", "--kernel", "{tmp}/empty.csv"], 2),
    (["--json-config", "{tmp}/list.json"], 2),
    (["wave-trace", "--mu-max", "1e8"], 2),
    (["wave-trace", "--mu-max", "1e10"], 2),
    (["wave-trace", "--a", "1e308", "--mu-max", "1e10"], 2),
    (["wave-trace", "--t-step", "1e-7"], 2),
    (["wave-trace", "--t-min=-1e308", "--t-max=1e308"], 2),
    (["heat-compare", "--modes", "0"], 2),
    (["heat-compare", "--modes", "-1"], 2),
    (["length-spectrum", "--shape", "disc", "--max-bounces", "1"], 2),
    (["length-spectrum", "--shape", "disc", "--max-bounces", "-5"], 2),
    (["trace-check", "--n", "100000"], 2),
    (["spectrum", "--n", "30000", "--count", "1"], 2),
    (["heat-compare", "--n", "100000000"], 2),
    (["heat-compare", "--modes", "100000000"], 2),
    (["heat-trace", "--n", "100000000"], 2),
    (["bvp-compare", "--n", "1000000"], 2),
    (["heat-compare", "--n", "900000", "--lmax", "10000"], 2),
    (["heat-compare", "--t", "40000", "--n", "100000"], 2),
    (["bvp-compare", "--trials", "1000000000"], 2),
    (["bvp-compare", "--n", "101", "--kmax", "100000000", "--trials", "3"], 2),
    (["trace-check", "--kernel", "{tmp}/header-only.csv"], 2),
    (["trace-check", "--kernel", "{tmp}/ragged.csv"], 2),
    (["trace-check", "--kernel", "{tmp}/text-cell.csv"], 2),
    (["trace-check", "--kernel", "{tmp}/mislabelled.csv"], 2),
    (["trace-check", "--kernel", "{tmp}/midpoint-labels.csv"], 2),
    (["trace-check", "--kernel", "{tmp}/comment.csv"], 2),
    (["trace-check", "--kernel", "{tmp}/nan-cell.csv"], 2),
    (["spectrum", "--kernel", "{tmp}/inf-cell.csv"], 2),
    (["billiard", "--shape", "disc", "--radius", "1e200"], 2),
    (["length-spectrum", "--b", "5e-324"], 2),
    (["length-spectrum", "--a", "5e-324"], 2),
    (["wave-trace", "--sigma", "1e200"], 2),
    (["wave-trace", "--t-max", "600", "--t-step", "0.06", "--window", "1", "--tol", "1000"], 2),
    (["bvp-compare", "--kmax", "0"], 2),
    (["mercer", "--kmax", "0"], 2),
    (["wave-trace", "--tol", "0"], 2),
    (["billiard", "--tol", "0"], 2),
    (["billiard", "--start", "0", "0.5", "--dir", "-1", "0"], 2),
    (["trace-check", "--kernel", "{tmp}/off-grid.csv"], 2),
    # the rectangle does not read --max-bounces, and used to exit 0 whatever its value
    (["length-spectrum", "--max-bounces", "1"], 2),
    (["length-spectrum", "--max-bounces", "-5"], 2),
    # numpy refused a negative seed without naming it
    (["heat-compare", "--seed", "-1"], 2),
    (["bvp-compare", "--seed", "-1"], 2),
    # an empty or non-positive time window, refused by the options' own names
    (["wave-trace", "--t-min", "-1", "--t-max", "0"], 2),
    (["wave-trace", "--t-min", "-1", "--t-max", "-0.5"], 2),
    (["wave-trace", "--t-min", "5", "--t-max", "1"], 2),
]
# every integer option at 10**400 and -10**400, beyond the float range: refusals
# that formatted one as a float ended in an OverflowError, and others printed all
# its digits (basel's --kmax is run unpatched in test_basel_beyond_the_cap_exits_fast)
HUGE = str(10**400)
BAD_INPUTS += [([*argv, sign + "{huge}"], 2) for sign in ("", "-") for argv in (
    ["trace-check", "--n"], ["spectrum", "--n"], ["heat-trace", "--n"], ["heat-compare", "--n"],
    ["bvp-compare", "--n"], ["spectrum", "--count"], ["bvp-compare", "--trials"],
    ["mercer", "--kmax"], ["bvp-compare", "--kmax"], ["heat-compare", "--kmax"],
    ["heat-compare", "--lmax"], ["heat-compare", "--modes"], ["mercer", "--lattice-n"],
    ["length-spectrum", "--shape", "disc", "--max-bounces"], ["wave-trace", "--window"],
    ["length-spectrum", "--max-bounces"])]
BAD_INPUTS += [([command, "--seed", "-{huge}"], 2) for command in ("heat-compare", "bvp-compare")]

# kernel tables with a fault; the others have 3 nodes, on the trapezoid grid but for off-grid.csv
BAD_TABLES = {
    "empty.csv": "",
    "header-only.csv": "node,0.0,0.5,1.0\r\n",
    "ragged.csv": "node,0.0,0.5,1.0\n0.0,1,2,3\n0.5,2,3\n1.0,3,4,5\n",
    "text-cell.csv": "node,0.0,0.5,1.0\n0.0,1,2,3\n0.5,2,3,x\n1.0,3,4,5\n",
    "mislabelled.csv": "node,0.0,0.5,1.0\n0.0,1,2,3\n1.0,3,4,5\n0.5,2,3,4\n",
    "midpoint-labels.csv": "node,0.0,0.5,1.0\n0.16666666666666666,1,2,3\n"
                           "0.5,2,3,4\n0.8333333333333334,3,4,5\n",
    "comment.csv": "node,0.0,0.5,1.0\n0.0,1,2,3\n0.5,2,3,4 # note\n1.0,3,4,5\n",
    "nan-cell.csv": "node,0.0,0.5,1.0\n0.0,1,2,3\n0.5,2,3,4\n1.0,3,nan,5\n",
    "inf-cell.csv": "node,0.0,0.5,1.0\n0.0,1,2,inf\n0.5,2,3,4\n1.0,3,4,5\n",
    "off-grid.csv": "node,0.0,0.4,1.0\n0.0,1,2,3\n0.4,2,3,4\n1.0,3,4,5\n",
}


# error lines that must name the offending value
NAMED_IN_ERROR = {
    "theta --s 1e300": "s=1e+300",
    "heat-compare --t 1e308 --n 16": "t=1e+308",
    "heat-trace --t 1e300": "t=1e+300",
    "wave-trace --mu-max 1e8": "mu_max=",
    "wave-trace --mu-max 1e10": "mu_max=",
    "wave-trace --a 1e308 --mu-max 1e10": "mu_max=",
    "wave-trace --t-step 1e-7": "t-step=",
    "wave-trace --t-min=-1e308 --t-max=1e308": "t-min=-1e+308 and t-max=1e+308 needs inf "
                                               "time steps",
    "heat-compare --modes 0": "modes",
    "heat-compare --modes -1": "modes",
    "length-spectrum --shape disc --max-bounces 1": "max_bounces",
    "length-spectrum --shape disc --max-bounces -5": "max_bounces",
    "trace-check --n 100000": "n=100000 needs 10000000000 sampled values; the cap is 16008001",
    "spectrum --n 30000 --count 1": "n=30000 needs 900000000 sampled values; "
                                    "the cap is 16008001",
    "heat-compare --n 100000000": "n=100000000 with modes=5 needs 1100000000 sampled values; "
                                  "the cap is 10000000",
    "heat-compare --modes 100000000": "n=512 with modes=100000000 needs 102400000512 sampled "
                                      "values; the cap is 10000000",
    "heat-trace --n 100000000": "n=100000000 needs 100000000 sampled values; "
                                "the cap is 10000000",
    "bvp-compare --n 1000000": "n=1000000 needs 30000000 sampled values; the cap is 10000000",
    "heat-compare --n 900000 --lmax 10000": "n=900000 with l_max=10000 needs 18000900000 "
                                            "Gaussians; the cap is 200000000",
    "heat-compare --t 40000 --n 100000": "n=100000 with l_max=9713 needs 1942700000 "
                                         "Gaussians; the cap is 200000000",
    "bvp-compare --trials 1000000000": "trials=1000000000 with n=1001 and k_max=500 needs "
                                       "30530000000000 sampled values and gains; "
                                       "the cap is 200000000",
    "bvp-compare --n 101 --kmax 100000000 --trials 3": "trials=3 with n=101 and "
                                                        "k_max=100000000 needs 300009090",
    "trace-check --kernel {tmp}/header-only.csv": "header-only.csv has no data rows",
    "trace-check --kernel {tmp}/ragged.csv": "ragged.csv: the number of columns changed "
                                              "from 4 to 3 at row 2",
    "trace-check --kernel {tmp}/text-cell.csv": "text-cell.csv: could not convert string 'x' "
                                                 "to float at row 2, column 4",
    "trace-check --kernel {tmp}/mislabelled.csv": "mislabelled.csv: row 2 is not labelled "
                                                   "with its node",
    "trace-check --kernel {tmp}/midpoint-labels.csv": "midpoint-labels.csv: row 1 is not "
                                                       "labelled with its node",
    "trace-check --kernel {tmp}/comment.csv": "could not convert string '4 # note' to float "
                                               "at row 2, column 4",
    "trace-check --kernel {tmp}/nan-cell.csv": "kernel value is not finite at nodes (0.5, 1.0)",
    "spectrum --kernel {tmp}/inf-cell.csv": "kernel value is not finite at nodes (0.0, 1.0)",
    "billiard --shape disc --radius 1e200": "radius=1e+200",
    "length-spectrum --b 5e-324": "b=5e-324",
    "length-spectrum --a 5e-324": "a=5e-324",
    "wave-trace --sigma 1e200": "sigma=1e+200",
    "wave-trace --t-max 600 --t-step 0.06 --window 1 --tol 1000": "tol=1000.0 needs 7260158 "
                                                                   "(peak, length) pairs",
    "bvp-compare --kmax 0": "k_max must be >= 1, got 0",
    "mercer --kmax 0": "k_max must be >= 1, got 0",
    "wave-trace --tol 0": "tol must be positive and finite, got 0.0",
    "billiard --tol 0": "tol must be positive and finite, got 0.0",
    "wave-trace --t-step 0": "t-step must be positive and finite, got 0.0",
    "bvp-compare --trials 0 --out {tmp}/bvp.csv": "trials must be >= 1, got 0",
    "billiard --start 0 0.5 --dir -1 0": "start on a vertical wall must point inward",
    "trace-check --kernel {tmp}/off-grid.csv": "off-grid.csv: CSV nodes match neither "
                                                "uniform grid kind",
    "trace-check --n {huge}": "n=1.000e+400 needs 1.000e+800 sampled values; "
                              "the cap is 16008001",
    "trace-check --n -{huge}": "n must be >= 2, got -1.000e+400",
    "heat-compare --modes {huge}": "n=512 with modes=1.000e+400 needs 1.024e+403 sampled values",
    "bvp-compare --trials {huge}": "trials=1.000e+400 with n=1001 and k_max=500 needs "
                                   "3.053e+404 sampled values and gains",
    "bvp-compare --kmax {huge}": "trials=20 with n=1001 and k_max=1.000e+400 needs 2.000e+401",
    "spectrum --count {huge}": "count=1.000e+400 is above the cap of 401",
    "wave-trace --window {huge}": "signal has 2351 samples, need at least 2.000e+400",
    "length-spectrum --max-bounces 1": "max_bounces must be >= 2, got 1",
    "length-spectrum --max-bounces -5": "max_bounces must be >= 2, got -5",
    "length-spectrum --max-bounces {huge}": "max_bounces=1.000e+400 is above the cap of 1000",
    "length-spectrum --max-bounces -{huge}": "max_bounces must be >= 2, got -1.000e+400",
    "heat-compare --seed -1": "seed must be >= 0, got -1",
    "bvp-compare --seed -1": "seed must be >= 0, got -1",
    "heat-compare --seed -{huge}": "seed must be >= 0, got -1.000e+400",
    "bvp-compare --seed -{huge}": "seed must be >= 0, got -1.000e+400",
    "wave-trace --t-min -1 --t-max 0": "t-max must be positive and finite, got 0.0",
    "wave-trace --t-min -1 --t-max -0.5": "t-max must be positive and finite, got -0.5",
    "wave-trace --t-min 5 --t-max 1": "t-min=5.0 must be below t-max=1.0",
}


@contextlib.contextmanager
def alarm(argv):
    """Raise Hung in the block when it runs past 5 s."""
    def expire(signum, frame):
        raise Hung(" ".join(argv))

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_under_alarm(capsys, argv):
    """run() under the alarm, asserting that it returns within 1 s."""
    start = time.perf_counter()
    with alarm(argv):
        result = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    return result


@pytest.mark.parametrize("argv, expected", BAD_INPUTS,
                         ids=[" ".join(argv) for argv, _ in BAD_INPUTS])
def test_bad_input_exits_fast_without_traceback(capsys, tmp_path, monkeypatch,
                                                argv, expected):
    # basel is the command that runs out of memory; no test should allocate that much
    monkeypatch.setattr(mercer, "basel_via_trace", _out_of_memory)
    for name, text in BAD_TABLES.items():
        (tmp_path / name).write_bytes(text.encode())
    (tmp_path / "list.json").write_text("[1]")
    named = NAMED_IN_ERROR.get(" ".join(argv), "")
    argv = [arg.replace("{tmp}", str(tmp_path)).replace("{huge}", HUGE) for arg in argv]
    code, out, err = run_under_alarm(capsys, argv)
    assert code == expected
    assert "Traceback" not in err
    if expected == 0:  # refused before its work was bounded, now runs within the limit
        assert err == "" and out.startswith(argv[0])
        return
    assert out == ""
    line = err.strip().splitlines()[-1]  # after argparse's usage line
    assert "error: " in line and len(line) < 160
    assert named in line
    if "--kernel" in argv:  # no warning before it, and no usage line
        assert err == f"{line}\n"


def _library_counts():
    """{entry: (argument, low, cap, call of the entry on the argument)} for every count."""
    grid, mid = make_grid(TRAPEZOID, 11), make_grid(MIDPOINT, 16)
    signal = wavetrace.smoothed_wave_trace(wavetrace.rectangle_spectrum(1.0, 1.0, 2000.0),
                                           np.linspace(0.0, 2.0, 41), 0.05)
    return {
        "length_spectrum": ("max_bounces", 2, math.isqrt(billiard._MAX_CANDIDATES),
                            lambda v: billiard.length_spectrum(billiard.disc(1.0), 6.0, v)),
        "length_spectrum rectangle": ("max_bounces", 2, math.isqrt(billiard._MAX_CANDIDATES),
                                      lambda v: billiard.length_spectrum(
                                          billiard.rectangle(1.0, 1.0), 6.0, v)),
        "random_trig_sample": ("modes", 1, None, lambda v: heat.random_trig_sample(mid, v)),
        "random_trig_sample seed": ("seed", 0, None,
                                    lambda v: heat.random_trig_sample(mid, seed=v)),
        "random_fourier_sum": ("seed", 0, None, lambda v: sturm.random_fourier_sum(grid, v)),
        "periodic_tail_bound": ("l_max", 1, None, lambda v: kernels.periodic_tail_bound(0.1, v)),
        "eval_heat_periodic": ("l_max", 1, None,
                               lambda v: kernels.eval_heat_periodic(0.1, 0.0, 0.0, v)),
        "heat_circle": ("l_max", 1, kernels._MAX_IMAGES,
                        lambda v: kernels.heat_circle(0.1, l_max=v)),
        "mercer_reconstruct lattice_n": ("lattice_n", 2, mercer._MAX_LATTICE,
                                         lambda v: mercer.mercer_reconstruct(5, v)),
        "mercer_reconstruct k_max": ("k_max", 1, sturm._MAX_MODES,
                                     lambda v: mercer.mercer_reconstruct(v, 11)),
        "basel_via_trace": ("k_max", 1, mercer._MAX_BASEL_TERMS, mercer.basel_via_trace),
        "solve_spectral": ("k_max", 1, sturm._MAX_MODES,
                           lambda v: sturm.solve_spectral(grid.nodes, grid, v)),
        "filtered_series": ("k_max", 1, sturm._MAX_MODES, lambda v: sturm.filtered_series(
            grid.nodes, grid, v, sturm.sine_modes, lambda mu: 1.0 / mu)),
        "heat_evolve": ("k_max", 1, sturm._MAX_MODES,
                        lambda v: heat.heat_evolve(mid.nodes, mid, 0.1, k_max=v)),
        "make_grid": ("n", 2, quadrature._MAX_NODES, lambda v: make_grid(MIDPOINT, v)),
        "detect_peaks": ("window", 1, None, lambda v: wavetrace.detect_peaks(signal, v)),
        "operator_spectrum": ("count", 1, grid.n, lambda v: nystrom.operator_spectrum(
            kernels.green_dirichlet(), grid, v)),
    }


@pytest.mark.parametrize("entry", sorted(_library_counts()))
def test_a_library_count_is_refused_by_name(entry):
    # each non-integer used to end in a TypeError from range, a slice or
    # np.arange, or in a nan result, and make_grid(MIDPOINT, 10**12) in a MemoryError
    name, low, cap, call = _library_counts()[entry]
    named = rf"^{name}( must be|=)"
    with alarm([entry]):
        # None picks the default where an entry has one
        optional = entry in ("heat_circle", "heat_evolve")
        for value in (math.nan, math.inf, 2.5, "3") + (() if optional else (None,)):
            with pytest.raises(TypeError, match=rf"^{name} must be an integer, got "):
                call(value)
        for value in (low - 1, -10**12) + ((cap + 1, 10**12) if cap else ()):
            with pytest.raises(ValueError, match=named):
                call(value)
        call(np.int64(low))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_wave_trace_time_that_is_not_finite_is_refused(bad):
    # a NaN time used to give a NaN sample, and no error
    spectrum = wavetrace.rectangle_spectrum(1.0, 1.0, 2000.0)
    with pytest.raises(ValueError, match=f"^t_grid holds a time that is not finite: {bad}$"):
        wavetrace.smoothed_wave_trace(spectrum, [1.0, bad, 2.0], 0.05)


def test_wave_trace_leaves_numpy_ma_unloaded():
    # np.median's NaN check imports numpy.ma, about 12 ms a process
    code = ("import sys, tracelab.cli as cli; cli.main(['wave-trace']); "
            "print('numpy.ma' in sys.modules)")
    assert _fresh_python(code).splitlines()[-1] == "False"


# option values whose every use keeps a run's work small: a size beyond the
# caps is refused before its work starts
TOKENS = ["0", "-0.0", "-1", "0.5", "2.5", "-1e-3", "1e-300", "5e-324", "1e5", "1e200",
          "1e300", "nan", "inf", "-inf", "1", "2", "3", "7"]
# the last line of a refusal; argparse's starts with the program's name
REFUSAL = re.compile(r"^(tracelab[\w -]*: )?(error|numerical failure): ")


def _command_options():
    """{command: [(option, nargs, choices)]} of every option but the output ones."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: [(a.option_strings[0], a.nargs, a.choices) for a in p._actions
                   if a.option_strings and a.dest not in ("help", "out", "format", "report")]
            for name, p in sub.choices.items()}


@st.composite
def command_lines(draw):
    command, options = draw(st.sampled_from(sorted(_command_options().items())))
    argv = [command]
    for option, nargs, choices in options:
        if not draw(st.booleans()):
            continue
        if choices:
            values = [draw(st.sampled_from(choices))]
        elif option == "--kernel":
            values = [draw(st.sampled_from(["green", "heat-circle"]))]
        else:
            values = draw(st.lists(st.sampled_from(TOKENS), min_size=nargs or 1,
                                   max_size=nargs or 1))
        argv += [option, *values]
    output = draw(st.sampled_from([None, "csv", "json"]))
    return argv + (["--format", output, "--out", "{tmp}/out"] if output else [])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(argv=command_lines())
@example(argv=["billiard", "--shape", "disc", "--radius", "1e200"])
@example(argv=["length-spectrum", "--b", "5e-324"])
@example(argv=["wave-trace", "--sigma", "1e200"])
def test_no_command_line_ends_in_a_traceback(tmp_path_factory, argv):
    argv = [arg.replace("{tmp}", str(tmp_path_factory.getbasetemp())) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with alarm(argv), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2)
    if code:
        line = stderr.getvalue().strip().splitlines()[-1]  # after argparse's usage line
        assert REFUSAL.match(line) and len(line) < 160, line


def test_bvp_work_is_capped_on_k_max_alone(capsys):
    # the FFT series costs O(k_max + n log n), so n * k_max = 1e10 runs fast
    code, out, err = run_under_alarm(
        capsys, ["bvp-compare", "--n", "100001", "--kmax", "100000", "--trials", "1"])
    assert code == 0 and err == ""
    assert float(out.split("max_sup_diff=")[1]) < 1e-6


def test_heat_flow_work_stops_where_the_gains_underflow(capsys):
    # every gain past k = 8 is exactly 0 at t = 0.25, so k_max = 1e8 costs one block
    code, out, err = run_under_alarm(
        capsys, ["heat-compare", "--n", "512", "--kmax", "100000000"])
    assert code == 0 and err == ""
    assert float(out.split("sup_diff=")[1]) < 1e-8


def test_basel_beyond_the_cap_exits_fast(capsys):
    # unpatched: the work cap refuses k_max before any term is summed
    for k_max, refusal in (("10000000000", "k_max=10000000000 is above the cap of 1000000000"),
                           (HUGE, "k_max=1.000e+400 is above the cap of 1000000000"),
                           ("-" + HUGE, "k_max must be >= 1, got -1.000e+400")):
        start = time.perf_counter()
        code, out, err = run(capsys, "basel", "--kmax", k_max)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == f"error: {refusal}\n"


def test_huge_tabulated_kernel_spectrum(capsys, tmp_path, recwarn, write_kernel_csv):
    # entries near 1e160 overflowed the Frobenius norm of the Jacobi sweeps,
    # which then stopped at once and returned the diagonal
    g = make_grid(TRAPEZOID, 10)
    upper = np.triu(np.random.default_rng(3).uniform(1e160, 2e160, (10, 10)))
    path = write_kernel_csv(kernels.tabulated(upper + np.triu(upper, 1).T, g), "huge.csv")
    spec = kernels.kernel_from_csv(path)
    expected = np.linalg.eigvalsh(nystrom.discretize(spec, spec.grid).entries)
    expected = expected[np.argsort(-np.abs(expected))][:2]
    out_path = tmp_path / "s.json"
    code, _, _ = run(capsys, "spectrum", "--kernel", str(path), "--count", "2",
                     "--indefinite", "ignore", "--format", "json", "--out", str(out_path))
    assert code == 0
    values = json.loads(out_path.read_text())["eigenvalues"]
    assert np.allclose(values, expected, rtol=1e-12, atol=0.0)
    code, out, _ = run(capsys, "trace-check", "--kernel", str(path), "--indefinite", "ignore")
    assert code == 0
    diag = float(out.split("diag_integral=")[1].split()[0])
    assert float(out.split("residual=")[1]) <= 1e-12 * diag
    assert len(recwarn) == 0
