import csv
import json
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from tracelab import kernels, mercer, nystrom
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


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "tracelab.cli", "basel", "--kmax", "100"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "gap=" in result.stdout


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
    (["bvp-compare", "--n", "100001", "--kmax", "100000", "--trials", "1"], 2),
    (["heat-compare", "--t", "1e-310", "--n", "16"], 2),
    (["trace-check", "--kernel", "heat-circle", "--t", "1e-310", "--n", "8"], 2),
    (["heat-compare", "--t", "1e-7", "--n", "512"], 2),
    (["mercer", "--kmax", "10000000", "--lattice-n", "101"], 2),
]


@pytest.mark.parametrize("argv, expected", BAD_INPUTS,
                         ids=[" ".join(argv) for argv, _ in BAD_INPUTS])
def test_bad_input_exits_fast_without_traceback(capsys, tmp_path, monkeypatch,
                                                argv, expected):
    # basel is the command that runs out of memory; no test should allocate that much
    monkeypatch.setattr(mercer, "basel_via_trace", _out_of_memory)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]

    def expire(signum, frame):
        raise Hung(" ".join(argv))

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    start = time.perf_counter()
    try:
        code, out, err = run(capsys, *argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 1.0
    assert code == expected
    assert out == ""
    assert "Traceback" not in err
    assert "error: " in err.strip().splitlines()[-1]  # after argparse's usage line


def test_basel_beyond_the_cap_exits_fast(capsys):
    # unpatched: the work cap refuses k_max before any term is summed
    start = time.perf_counter()
    code, out, err = run(capsys, "basel", "--kmax", "10000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "cap" in err


def test_huge_tabulated_kernel_spectrum(capsys, tmp_path, recwarn):
    # entries near 1e160 overflowed the Frobenius norm of the Jacobi sweeps,
    # which then stopped at once and returned the diagonal
    g = make_grid(TRAPEZOID, 10)
    upper = np.triu(np.random.default_rng(3).uniform(1e160, 2e160, (10, 10)))
    path = tmp_path / "huge.csv"
    kernels.kernel_to_csv(kernels.tabulated(upper + np.triu(upper, 1).T, g), path)
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
