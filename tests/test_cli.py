import csv
import importlib
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import tracelab
from tracelab import cli, kernels, mercer, nystrom
from tracelab.cli import main
from tracelab.quadrature import TRAPEZOID, make_grid


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
    # the wall distance along the 1e-320 component overflows to inf, the right value
    result = subprocess.run(
        [sys.executable, "-m", "tracelab.cli", "billiard", "--dir", "1", "1e-320",
         "--budget", "3"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
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
    assert "needs t > 0" in err
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
        (["billiard"], "billiard", {"kernels", "nystrom", "mercer"}),
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
]


# error lines that must name the offending value
NAMED_IN_ERROR = {
    "heat-compare --t 1e308 --n 16": "t=1e+308",
    "heat-trace --t 1e300": "t=1e+300",
    "wave-trace --mu-max 1e8": "mu_max=",
    "wave-trace --mu-max 1e10": "mu_max=",
    "wave-trace --a 1e308 --mu-max 1e10": "mu_max=",
    "wave-trace --t-step 1e-7": "t-step=",
    "wave-trace --t-min=-1e308 --t-max=1e308": "from t-min to t-max",
    "heat-compare --modes 0": "modes",
    "heat-compare --modes -1": "modes",
    "length-spectrum --shape disc --max-bounces 1": "max_bounces",
    "length-spectrum --shape disc --max-bounces -5": "max_bounces",
}


def run_under_alarm(capsys, argv):
    """run() under a 5 s alarm, asserting that it returns within 1 s."""
    def expire(signum, frame):
        raise Hung(" ".join(argv))

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    start = time.perf_counter()
    try:
        result = run(capsys, *argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 1.0
    return result


@pytest.mark.parametrize("argv, expected", BAD_INPUTS,
                         ids=[" ".join(argv) for argv, _ in BAD_INPUTS])
def test_bad_input_exits_fast_without_traceback(capsys, tmp_path, monkeypatch,
                                                argv, expected):
    # basel is the command that runs out of memory; no test should allocate that much
    monkeypatch.setattr(mercer, "basel_via_trace", _out_of_memory)
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "list.json").write_text("[1]")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    code, out, err = run_under_alarm(capsys, argv)
    assert code == expected
    assert "Traceback" not in err
    if expected == 0:  # refused before its work was bounded, now runs within the limit
        assert err == "" and out.startswith(argv[0])
        return
    assert out == ""
    line = err.strip().splitlines()[-1]  # after argparse's usage line
    assert "error: " in line and len(line) < 160
    assert NAMED_IN_ERROR.get(" ".join(argv), "") in line


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
    start = time.perf_counter()
    code, out, err = run(capsys, "basel", "--kmax", "10000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "cap" in err


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
