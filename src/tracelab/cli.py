"""Command-line front end: every experiment as one reproducible subcommand.

Each command prints a single summary line with the headline value or
residual and optionally writes its CSV table or JSON record.  Exit status
is 0 on success, 2 on validation and file errors, 1 on numerical failure
or exhausted memory.  Identical arguments (and seed) produce
byte-identical output files.

Each `_cmd_*` handler only computes.  It returns (summary line, record,
to_csv): `record` is the --format json payload, and `to_csv(path)` writes
the command's CSV table, or is None when a one-row CSV of `record` is the
table.  `main` does all printing and writing.

Each handler imports the modules it uses when it runs, so a run loads
only its own command's modules; the names stay module attributes, looked
up at call time.  This module itself loads numpy and no other tracelab
module.

`trace-check` and `spectrum` check the kernel for negative eigenvalues
after their own solve (`_indefiniteness`), so `--indefinite fail` refuses
a kernel only once the solve has run.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
from dataclasses import asdict
from pathlib import Path

# numpy's bundled OpenBLAS keeps its idle threads spinning for 2**28 cycles
# (about 0.1 s) when it loads and after every call before they sleep, which
# costs each short CLI run about 0.1 s of CPU and saves it no wall time.
# OpenBLAS reads the timeout (as log2 of the cycles) once, when numpy loads
# it, so it is set before numpy's first import, and only then: a process
# that already holds numpy, or a user's own setting, is left alone.  The
# thread count, and with it every output bit, is unchanged.
_BLAS_SPIN_TIMEOUT = "20"
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", _BLAS_SPIN_TIMEOUT)
# A CLI process keeps nearly all it imports until it exits, so collecting
# while it imports costs CPU and frees little: numpy's import alone ran
# about 29 collections, which freed about 0.35 MiB.  The collector is
# switched back on before `main` (see the end of this module); an
# importer's collector is left alone.
if __name__ == "__main__":
    gc.disable()

import numpy as np  # noqa: E402

_GRID_NAMES = ("trapezoid", "midpoint")
# argparse reads a token as a negative number, not an option, only when it
# matches ^-\d+$|^-\d*\.\d+$, so "-1e-3" was taken for an option; any token
# that starts like a negative number is one here
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")
# Work cap on the wave-trace time grid, counted before it is built; the
# trace costs eigenvalues x steps, see wavetrace._MAX_LATTICE
_MAX_TIME_STEPS = 10**4
# Caps on the sample size, checked before the grid is built.  On a 2-vCPU
# VM with 2 OpenBLAS threads a dense kernel matrix at n = 4001 took 2.3 s
# and 124 MiB in trace-check, 3.3 s and 251 MiB in spectrum --count 10;
# 10^7 sampled values took 0.5 s and 259 MiB in heat-trace, 1.4 s and
# 223 MiB in heat-compare, 8.3 s and 171 MiB in bvp-compare (20 trials)
_MAX_MATRIX = 4001**2
_MAX_SAMPLES = 10**7
# Cap on the Gaussians of heat-compare's kernel path, n (2 l_max + 1), about
# 1e-8 s each: n = 10^4 with l_max = 10^4 took 2.2 s and 37 MiB, the whole
# run at n = 909 090 with l_max = 109 4.1 s and 223 MiB
_MAX_GAUSSIANS = 2 * 10**8
# Cap on bvp-compare's work, trials (sturm.FOURIER_MODES n + k_max): each
# trial samples its modes on n nodes and folds k_max gains, so the trial
# count alone bounds nothing.  20 trials at n = 333 316, the largest n the cap allows them,
# took 12.4 s and 194 MiB, 2000 at n = 1001 2.2 s and 36 MiB, 2 of
# k_max = 10^8 gains 2.3 s and 44 MiB
_MAX_TRIAL_WORK = 2 * 10**8


def finite(text: str) -> float:
    """Parse a float option, rejecting NaN and infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _parse_floats(text: str) -> list[float]:
    return [finite(part) for part in text.split(",") if part]


def _grid(name: str, n: int, per_node: int = 1, cap: int = _MAX_SAMPLES):
    """The `name` grid of n nodes, refused when its sample of per_node values a node passes cap."""
    from . import quadrature

    if n * max(per_node, 1) > cap:
        raise ValueError(f"n={n} needs {n * per_node:.4g} sampled values; the cap is {cap:.4g}")
    kind = {"trapezoid": quadrature.TRAPEZOID, "midpoint": quadrature.MIDPOINT}[name]
    return quadrature.make_grid(kind, n)


def _indefiniteness(spec, grid, mode: str) -> None:
    """Warn or fail when a discretized kernel has negative eigenvalues.

    The eigenvalues come from one LAPACK call at every size, on the even
    and odd halves of a reflection-symmetric matrix (the Green and
    heat-circle kernels) and on any other, such as an asymmetric
    tabulated kernel, whole; see `nystrom.discretize`.  `ignore`
    neither discretizes nor decomposes.

    `trace-check` and `spectrum` call it after their own solve, so `fail`
    costs the solve.  In that order the check's halves are sampled after
    the solve has freed its own: glibc's heap, which keeps the pages of a
    freed block that size, no longer holds a half-matrix under
    `spectrum`'s n x n eigenvectors.
    """
    if mode == "ignore":
        return
    from . import nystrom

    values = nystrom._values(nystrom.discretize(spec, grid, split=True))
    floor = -1e-10 * max(1.0, float(np.abs(values).max()))
    if values.min() < floor:
        message = (f"kernel is indefinite: smallest discrete eigenvalue "
                   f"{values.min():.3e}")
        if mode == "fail":
            raise ValueError(message)
        print(f"warning: {message}", file=sys.stderr)


def _kernel_and_grid(args):
    """The kernel named by --kernel and its grid."""
    from . import kernels

    if args.kernel == "green":
        spec = kernels.green_dirichlet()
    elif args.kernel == "heat-circle":
        spec = kernels.heat_circle(args.t)
    elif args.kernel.endswith(".csv"):
        spec = kernels.kernel_from_csv(args.kernel)
        return spec, spec.grid
    else:
        raise ValueError(f"unknown kernel {args.kernel!r} "
                         "(green, heat-circle, or a .csv path)")
    return spec, _grid(args.grid, args.n, per_node=args.n, cap=_MAX_MATRIX)


def _cmd_trace_check(args):
    from . import nystrom

    spec, grid = _kernel_and_grid(args)
    report = nystrom.trace_formula_check(spec, grid)
    _indefiniteness(spec, grid, args.indefinite)
    return (f"trace-check kernel={args.kernel} n={grid.n}: "
            f"eig_sum={report.eig_sum!r} diag_integral={report.diag_integral!r} "
            f"residual={report.residual:.3e}", asdict(report), None)


def _cmd_spectrum(args):
    from . import nystrom, sturm

    spec, grid = _kernel_and_grid(args)
    spectrum = nystrom.operator_spectrum(spec, grid, args.count)
    _indefiniteness(spec, grid, args.indefinite)
    analytic = None
    headline = f"lambda1={float(spectrum.eigenvalues[0])!r}"
    if args.kernel == "green":
        mu, _ = sturm.sine_modes(np.arange(1, args.count + 1), grid.nodes[:0])
        analytic = 1.0 / mu
        rel = np.abs(spectrum.eigenvalues - analytic) / analytic
        headline += f" max_rel_err={rel.max():.3e}"

    def to_csv(path):
        out = Path(path)
        functions_path = out.with_name(out.stem + "_functions" + out.suffix)
        nystrom.spectrum_to_csv(spectrum, out, functions_path, analytic=analytic)

    return (f"spectrum kernel={args.kernel} n={grid.n} count={args.count}: {headline}",
            {"eigenvalues": spectrum.eigenvalues, "analytic": analytic}, to_csv)


def _cmd_mercer(args):
    from . import mercer

    report = mercer.mercer_reconstruct(args.kmax, args.lattice_n)
    return (f"mercer kmax={report.k_max} lattice={args.lattice_n}: "
            f"sup_error={report.sup_error:.6e} tail_bound={report.tail_bound:.6e}",
            asdict(report), None)


def _cmd_basel(args):
    from . import mercer

    report = mercer.basel_via_trace(args.kmax)
    return (f"basel kmax={args.kmax}: partial_sum={report.lhs!r} "
            f"target={report.rhs!r} gap={report.gap:.6e}", asdict(report), None)


def _cmd_bvp_compare(args):
    from . import sturm

    if args.trials < 1:
        raise ValueError(f"bvp-compare needs at least one trial, got {args.trials}")
    grid = _grid("trapezoid", args.n, per_node=sturm.FOURIER_MODES)
    work = args.trials * (sturm.FOURIER_MODES * args.n + args.kmax)
    if work > _MAX_TRIAL_WORK:
        raise ValueError(f"trials={args.trials} at n={args.n} and k_max={args.kmax} need "
                         f"{work:.4g} sampled values and gains; the cap is {_MAX_TRIAL_WORK:.4g}")
    worst = -1.0
    worst_data = None
    for trial in range(args.trials):
        f = sturm.random_fourier_sum(grid, seed=args.seed + trial)
        direct = sturm.solve_direct(f, grid)
        spectral = sturm.solve_spectral(f, grid, args.kmax)
        sup = float(np.abs(direct - spectral).max())
        if sup > worst:
            worst = sup
            worst_data = (direct, f)
    return (f"bvp-compare n={args.n} kmax={args.kmax} trials={args.trials} "
            f"seed={args.seed}: max_sup_diff={worst:.6e}",
            {"max_sup_diff": worst, "trials": args.trials, "k_max": args.kmax,
             "n": args.n, "seed": args.seed},
            lambda path: sturm.solution_to_csv(grid, *worst_data, path))


def _cmd_theta(args):
    from . import heat

    evaluation = heat.theta(args.s)
    residual = heat.theta_transform_residual(args.s)
    return (f"theta s={args.s}: value={evaluation.value!r} k_used={evaluation.k_used} "
            f"transform_residual={residual:.3e}",
            asdict(evaluation) | {"transform_residual": residual}, None)


def _cmd_heat_compare(args):
    from . import fileio, heat, kernels

    grid = _grid("midpoint", args.n, per_node=2 * args.modes + 1)
    l_max = kernels.heat_circle(args.t, l_max=args.lmax).l_max
    gaussians = args.n * (2 * l_max + 1)
    if gaussians > _MAX_GAUSSIANS:
        raise ValueError(f"n={args.n} with l_max={l_max} needs {gaussians:.4g} Gaussians; "
                         f"the cap is {_MAX_GAUSSIANS:.4g}")
    f = heat.random_trig_sample(grid, modes=args.modes, seed=args.seed)
    spectral = heat.heat_evolve(f, grid, args.t, method=heat.SPECTRAL,
                                k_max=args.kmax)
    kernel = heat.heat_evolve(f, grid, args.t, method=heat.KERNEL, l_max=l_max)
    sup = float(np.abs(spectral - kernel).max())
    return (f"heat-compare t={args.t} n={args.n} seed={args.seed}: sup_diff={sup:.6e}",
            {"sup_diff": sup, "t": args.t, "n": args.n, "seed": args.seed},
            lambda path: fileio.write_csv(path, ("node", "f", "u_spectral", "u_kernel"),
                                          (grid.nodes, f, spectral, kernel)))


def _cmd_heat_trace(args):
    from . import heat

    ts = _parse_floats(args.t)
    if not ts:
        raise ValueError("heat-trace needs at least one t value")
    grid = _grid("midpoint", args.n)
    reports = [heat.heat_trace_check(t, grid) for t in ts]
    worst = max(r.residual for r in reports)
    return (f"heat-trace t={args.t} n={args.n}: max_residual={worst:.3e}",
            [{"t": t, "lhs": r.spectral_side, "rhs": r.kernel_side,
              "residual": r.residual} for t, r in zip(ts, reports)],
            lambda path: heat.trace_sweep_to_csv(ts, reports, path))


def _table_from_args(args):
    from . import billiard

    if args.shape == "rectangle":
        return billiard.rectangle(args.a, args.b)
    return billiard.disc(args.radius)


def _cmd_billiard(args):
    from . import billiard

    table = _table_from_args(args)
    start = tuple(args.start)
    norm = math.hypot(*args.dir)
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    direction = (args.dir[0] / norm, args.dir[1] / norm)
    trajectory = billiard.simulate(table, start, direction, args.budget)
    orbit = billiard.is_closed(trajectory, start, direction, tol=args.tol)
    closed = f"closed_at={orbit.length!r}" if orbit else "not_closed"
    return (f"billiard {args.shape} budget={args.budget}: "
            f"segments={len(trajectory.segments)} "
            f"total_length={trajectory.total_length!r} "
            f"terminated_by={trajectory.terminated_by} {closed}",
            {"bounces": len(trajectory.segments) - 1,
             "total_length": trajectory.total_length,
             "terminated_by": trajectory.terminated_by,
             "closed_length": orbit.length if orbit else None},
            lambda path: billiard.trajectory_to_csv(trajectory, path))


def _cmd_length_spectrum(args):
    from . import billiard

    table = _table_from_args(args)
    spectrum = billiard.length_spectrum(table, args.l_max,
                                        max_bounces=args.max_bounces)
    shortest = float(spectrum.lengths[0]) if len(spectrum.lengths) else None
    return (f"length-spectrum {args.shape} l_max={args.l_max}: "
            f"count={len(spectrum.lengths)} shortest={shortest!r}",
            {"lengths": spectrum.lengths, "descriptors": spectrum.descriptors},
            lambda path: billiard.spectrum_to_csv(spectrum, path))


def _cmd_wave_trace(args):
    from . import billiard, wavetrace

    if args.t_step <= 0.0:
        raise ValueError(f"t-step must be positive, got {args.t_step}")
    if (args.t_max - args.t_min) / args.t_step > _MAX_TIME_STEPS:
        raise ValueError(f"t-step={args.t_step} gives more than {_MAX_TIME_STEPS} time "
                         "steps from t-min to t-max, the cap")
    mu_max = args.mu_max
    if mu_max is None:
        mu_max = math.pi**2 * (80**2 + 1)
    spectrum = wavetrace.rectangle_spectrum(args.a, args.b, mu_max)
    t_grid = np.arange(args.t_min, args.t_max + args.t_step / 2.0, args.t_step)
    signal = wavetrace.smoothed_wave_trace(spectrum, t_grid, args.sigma)
    peaks = wavetrace.detect_peaks(signal, args.window)
    lengths = billiard.length_spectrum(billiard.rectangle(args.a, args.b),
                                       args.t_max)
    keep = lengths.lengths >= args.t_min
    scanned = billiard.LengthSpectrum(lengths.lengths[keep], lengths.descriptors[keep])
    report = wavetrace.compare_lengths(peaks, scanned, args.tol)
    record = asdict(report) | {
        "a": args.a, "b": args.b, "sigma": args.sigma, "mu_max": mu_max,
        "eigenvalue_count": len(spectrum.eigenvalues), "peaks": list(peaks),
    }
    return (f"wave-trace rectangle({args.a},{args.b}) sigma={args.sigma}: "
            f"peaks={len(peaks)} matched={len(report.matched)} "
            f"missed={len(report.missed)} spurious={len(report.spurious)}",
            record, lambda path: wavetrace.signal_to_csv(signal, path))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracelab",
        description="trace-identity experiments on integral kernels, "
                    "heat traces, and billiards",
    )
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.set_defaults(handler=handler)
        return p

    def kernel_options(p: argparse.ArgumentParser, n: int) -> None:
        p.add_argument("--kernel", default="green")
        p.add_argument("--t", type=finite, default=0.5, help="time for heat kernels")
        p.add_argument("--n", type=int, default=n)
        p.add_argument("--grid", choices=_GRID_NAMES, default="trapezoid")

    def table_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--shape", choices=("rectangle", "disc"), default="rectangle")
        p.add_argument("--a", type=finite, default=1.0)
        p.add_argument("--b", type=finite, default=1.0)
        p.add_argument("--radius", type=finite, default=1.0)

    p = command("trace-check", _cmd_trace_check,
                "eigenvalue sum vs kernel diagonal integral")
    kernel_options(p, n=201)
    p.add_argument("--indefinite", choices=("warn", "fail", "ignore"), default="warn")

    p = command("spectrum", _cmd_spectrum, "leading eigenpairs of a kernel operator")
    kernel_options(p, n=401)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--indefinite", choices=("warn", "fail", "ignore"), default="warn")

    p = command("mercer", _cmd_mercer, "uniform reconstruction error of the Green kernel")
    p.add_argument("--kmax", type=int, default=100)
    p.add_argument("--lattice-n", type=int, default=101)

    p = command("basel", _cmd_basel, "partial sums of 1/k^2 against pi^2/6")
    p.add_argument("--kmax", type=int, default=1000000)

    p = command("bvp-compare", _cmd_bvp_compare, "direct vs spectral solver for -u''=f")
    p.add_argument("--n", type=int, default=1001)
    p.add_argument("--kmax", type=int, default=500)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = command("theta", _cmd_theta, "theta function and its transformation residual")
    p.add_argument("--s", type=finite, required=True)

    p = command("heat-compare", _cmd_heat_compare, "spectral vs kernel heat evolution")
    p.add_argument("--t", type=finite, default=0.25)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--modes", type=int, default=5)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--lmax", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = command("heat-trace", _cmd_heat_trace, "heat semigroup trace two ways")
    p.add_argument("--t", default="0.05,0.1,0.5",
                   help="comma-separated list of times")
    p.add_argument("--n", type=int, default=201)

    p = command("billiard", _cmd_billiard, "simulate one billiard trajectory")
    table_options(p)
    p.add_argument("--start", nargs=2, type=finite, default=(0.5, 0.25),
                   metavar=("X", "Y"))
    p.add_argument("--dir", nargs=2, type=finite, default=(1.0, 1.0),
                   metavar=("DX", "DY"), help="direction, normalized internally")
    p.add_argument("--budget", type=finite, default=10.0)
    p.add_argument("--tol", type=finite, default=1e-9)

    p = command("length-spectrum", _cmd_length_spectrum,
                "closed-orbit lengths up to a cutoff")
    table_options(p)
    p.add_argument("--l-max", type=finite, default=6.0)
    p.add_argument("--max-bounces", type=int, default=64)

    p = command("wave-trace", _cmd_wave_trace, "smoothed wave trace peaks vs orbit lengths")
    p.add_argument("--a", type=finite, default=1.0)
    p.add_argument("--b", type=finite, default=1.0)
    p.add_argument("--sigma", type=finite, default=0.05)
    p.add_argument("--mu-max", type=finite, default=None,
                   help="spectral cutoff; defaults to pi^2 (80^2 + 1)")
    p.add_argument("--t-min", type=finite, default=1.5)
    p.add_argument("--t-max", type=finite, default=6.2)
    p.add_argument("--t-step", type=finite, default=0.002)
    p.add_argument("--window", type=int, default=25)
    p.add_argument("--tol", type=finite, default=0.1)
    p.add_argument("--report", help="path for the JSON comparison report")

    for p in sub.choices.values():
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _argv_from_config(path: str) -> list[str]:
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("json config must be an object of option names and values")
    try:
        argv = [str(config.pop("command"))]
    except KeyError:
        raise ValueError("json config needs a 'command' entry") from None
    for key, value in config.items():
        flag = f"--{key.replace('_', '-')}"
        if isinstance(value, list):
            argv.append(flag)
            argv.extend(str(item) for item in value)
        else:
            # single --flag=value token so negative numbers parse cleanly
            argv.append(f"{flag}={value}")
    return argv


def main(argv=None) -> int:
    from . import fileio

    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if "--json-config" in argv:
            index = argv.index("--json-config")
            if index + 1 >= len(argv):
                raise ValueError("--json-config needs a file path")
            argv = _argv_from_config(argv[index + 1])
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        summary, record, to_csv = args.handler(args)
        if args.out:
            if args.format == "json":
                fileio.write_json(args.out, record)
            elif to_csv is not None:
                to_csv(args.out)
            else:
                fileio.write_csv(args.out, list(record), [[v] for v in record.values()])
        if getattr(args, "report", None):
            fileio.write_json(args.report, record)
        print(summary)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # imported here, so that a command that never loads linalg does not
        # load it for this clause; only a loaded linalg can raise it
        from .linalg import NumericalError

        if not isinstance(exc, NumericalError):
            raise
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    # Everything imported so far, numpy's ~20 000 objects among them, lives
    # as long as the process: frozen, the run's collections and the
    # interpreter's shutdown no longer scan it, and no collection runs
    # first: the collector has been off since the imports began.
    gc.freeze()
    gc.enable()
    sys.exit(main())
