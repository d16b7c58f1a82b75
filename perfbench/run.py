"""tracelab benchmark: seeded CLI workloads, end-to-end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload dense-nystrom --seed 1 --seconds 30 --trace 0

--trace 0 measures what a user sees.  Traffic is a closed loop with one
client: each experiment of the workload is a fresh `python -m tracelab.cli`
child, started only after the previous one exits.  Passes over the
experiment list repeat for --seconds; the run reports a typical pass's
wall_s, cpu_s (user + system of its children) and peak_rss_mb (largest
per-child peak), built from per-experiment medians, each child measured
with its own wait4 resource usage.
setup_s is the median time for a fresh interpreter to import tracelab.cli
and build its parser.  BLAS thread variables are inherited, not set.

--trace 1 drives tracelab.cli.main in-process over the same list,
alternating untraced and traced passes for --seconds, and reports per-layer
metrics from the traced ones (see tracing.py) with the tracing overhead.
On dense-nystrom it also runs one single-thread BLAS reference pass for
the environment record; that pass is not a metric.

Every experiment is checked: exit status 0, no traceback, every output
file written, the verified number within the acceptance suite's tolerance,
and output bytes identical to the run's first pass.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Without tracelab's sources under src/ the run exits with status 2
and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 7
# a run must end within 180 s; children still running at this point are killed
HARD_LIMIT_S = 160.0
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Outcome:
    experiment: str
    problem: str | None
    fingerprint: str


@dataclass
class Pass:
    """One pass over a workload; `usage` holds (wall, cpu, peak RSS MiB) per child."""

    wall: float
    usage: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)


def child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra or {})
    return env


def run_child(argv: list, env: dict, log: Path, deadline: float):
    """Run one child to completion; return (status, wall, cpu, peak RSS MiB).

    The child's own rusage from wait4 is used, not RUSAGE_CHILDREN, which
    holds the maximum over every child reaped so far.
    """
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _fingerprint(stdout: str, out_dir: Path, experiment) -> str:
    digest = hashlib.sha256(stdout.encode())
    for name in experiment.outputs:
        path = out_dir / name
        digest.update(path.read_bytes() if path.is_file() else b"<missing>")
    return digest.hexdigest()


def judge(experiment, status: int, stdout: str, stderr: str, out_dir: Path) -> Outcome:
    fingerprint = _fingerprint(stdout, out_dir, experiment)
    missing = [name for name in experiment.outputs if not (out_dir / name).is_file()]
    if status != 0:
        problem = f"exit status {status}: {stderr.strip()[-200:]}"
    elif "Traceback" in stderr:
        problem = "printed a traceback"
    elif missing:
        problem = "missing output " + ", ".join(missing)
    else:
        try:
            problem = experiment.check(out_dir, stdout)
        except Exception as exc:  # a malformed output is a failed experiment
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
    return Outcome(experiment.name, problem, fingerprint)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def subprocess_pass(experiments, work: Path, env: dict, deadline: float) -> Pass:
    out_dir, logs = _fresh(work / "out"), _fresh(work / "logs")
    runs = []
    start = time.perf_counter()
    for experiment in experiments:
        argv = [sys.executable, "-m", "tracelab.cli", *workloads.expand(experiment.argv, out_dir)]
        runs.append(run_child(argv, env, logs / experiment.name, deadline))
    result = Pass(wall=time.perf_counter() - start, usage=[r[1:] for r in runs])
    for experiment, (status, *_rest) in zip(experiments, runs):
        log = logs / experiment.name
        stdout = log.with_suffix(".out").read_text(errors="replace")
        stderr = log.with_suffix(".err").read_text(errors="replace")
        result.outcomes.append(judge(experiment, status, stdout, stderr, out_dir))
    return result


def inprocess_pass(cli, experiments, work: Path, tracer=None) -> Pass:
    out_dir = _fresh(work / "out")
    captured = []
    context = tracing.installed(tracer) if tracer else nullcontext()
    with context:
        start = time.perf_counter()
        for experiment in experiments:
            argv = workloads.expand(experiment.argv, out_dir)
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                try:
                    if tracer:
                        tracer.experiment = experiment.name
                        status = tracer.call(tracing.ROOT, tracing.ROOT_METRIC, cli.main, argv)
                    else:
                        status = cli.main(argv)
                except Exception:  # reported as a failed experiment
                    traceback.print_exc()
                    status = 1
            captured.append((status, stdout.getvalue(), stderr.getvalue()))
        wall = time.perf_counter() - start
    result = Pass(wall=wall)
    for experiment, (status, stdout, stderr) in zip(experiments, captured):
        result.outcomes.append(judge(experiment, status, stdout, stderr, out_dir))
    return result


def measure_setup(env: dict, work: Path, deadline: float) -> float:
    """Median seconds for a fresh interpreter to import tracelab.cli and build its parser."""
    argv = [sys.executable, "-c", "import tracelab.cli as c; c.build_parser()"]
    log = _fresh(work / "setup") / "setup"
    samples = []
    for index in range(SETUP_SAMPLES + 1):
        status, wall, _, _ = run_child(argv, env, log, deadline)
        if status != 0:
            raise RuntimeError("importing tracelab.cli failed: "
                               + log.with_suffix(".err").read_text()[-500:])
        if index:  # the first start compiles bytecode; users pay that once
            samples.append(wall)
    return statistics.median(samples)


def _blas_threads():
    """Threads of numpy's bundled OpenBLAS, read through ctypes, or "unknown"."""
    import ctypes

    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unknown"


def environment() -> dict:
    import platform

    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_variables": {k: os.environ[k] for k in BLAS_VARIABLES if k in os.environ},
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


def _failures(passes) -> list:
    """(pass index, experiment, problem) for every failed execution.

    An execution also fails when its stdout or output files differ from
    the same experiment's output in the run's first pass.
    """
    first = {o.experiment: o.fingerprint for o in passes[0].outcomes}
    found = []
    for index, one in enumerate(passes):
        for outcome in one.outcomes:
            problem = outcome.problem
            if problem is None and outcome.fingerprint != first[outcome.experiment]:
                problem = "output bytes differ from pass 0"
            if problem is not None:
                found.append((index, outcome.experiment, problem))
    return found


def measure_end_to_end(experiments, work, seconds, deadline):
    env = child_env()
    setup_s = measure_setup(env, work, deadline)
    passes = []
    start = time.monotonic()
    while True:
        passes.append(subprocess_pass(experiments, work, env, deadline))
        elapsed = time.monotonic() - start
        typical = statistics.median(p.wall for p in passes)
        if len(passes) >= 2 and (elapsed + typical > seconds
                                 or time.monotonic() + typical > deadline):
            break
    for index, one in enumerate(passes):
        print(f"pass {index}: wall={one.wall:.3f}s")
    wall, cpu, rss = typical_pass(experiments, passes)
    metrics = {"wall_s": (wall, "s"), "cpu_s": (cpu, "s"), "peak_rss_mb": (rss, "MiB"),
               "setup_s": (setup_s, "s")}
    print(f"{len(passes)} passes; per-experiment medians reported; "
          f"setup_s is the median of {SETUP_SAMPLES} starts")
    return passes, metrics


def typical_pass(experiments, passes) -> tuple[float, float, float]:
    """Wall and CPU seconds and peak RSS of a typical pass.

    Each experiment's median over the passes is taken first, then the
    walls and CPU times are summed and the largest peak kept, so a stall
    in one child of one pass moves the result less than a whole-pass
    median would.
    """
    medians = []
    for index, experiment in enumerate(experiments):
        wall, cpu, rss = (statistics.median(p.usage[index][k] for p in passes) for k in range(3))
        print(f"  {experiment.name}: wall={wall:.3f}s cpu={cpu:.3f}s peak_rss={rss:.1f}MiB")
        medians.append((wall, cpu, rss))
    return (sum(m[0] for m in medians), sum(m[1] for m in medians),
            max(m[2] for m in medians))


def _import_cli():
    sys.path.insert(0, str(SRC))
    import tracelab.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "tracelab":
        raise RuntimeError(f"imported tracelab from {cli.__file__}, not from {SRC}")
    return cli


def measure_layers(workload, experiments, work, seconds, deadline, record):
    cli = _import_cli()
    passes, traced, untraced, layer_samples = [], [], [], []
    start = time.monotonic()
    while not traced or (time.monotonic() - start + traced[-1] + untraced[-1] <= seconds
                         and time.monotonic() + 3 * traced[-1] < deadline):
        tracer = tracing.Tracer()
        # alternate which of the pair runs first, so that warm-up and drift
        # do not all land on one side of the overhead figure
        for one_tracer in ((None, tracer) if len(traced) % 2 == 0 else (tracer, None)):
            one = inprocess_pass(cli, experiments, work, one_tracer)
            passes.append(one)
            (traced if one_tracer else untraced).append(one.wall)
        sample, structure = tracing.summarize(tracer)
        layer_samples.append(sample)
    (work / "spans.json").write_text(json.dumps(tracer.spans))
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    print(f"{len(traced)} traced and {len(untraced)} untraced in-process passes; "
          f"median wall traced={statistics.median(traced):.3f}s "
          f"untraced={statistics.median(untraced):.3f}s overhead={overhead:+.2%}")
    for name, row in structure.items():
        print(f"  {name}: " + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                        for k, v in row.items()))
    record["tracing_overhead"] = overhead
    if workload == "dense-nystrom":
        reference = subprocess_pass(experiments, work / "reference",
                                    child_env({"OPENBLAS_NUM_THREADS": "1"}), deadline)
        print("single-thread BLAS reference pass:")
        wall, cpu, rss = typical_pass(experiments, [reference])
        record["reference_single_thread_pass"] = {
            "label": "dense-nystrom with OPENBLAS_NUM_THREADS=1; reference only, not a metric",
            "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
        }
        # other BLAS threading may round differently, so only the checks
        # apply to this pass, not byte identity with the others
        passes_failed = [("reference", o.experiment, o.problem) for o in reference.outcomes if o.problem]
        attempted = len(reference.outcomes)
    else:
        passes_failed, attempted = [], 0
    medians = tracing.median_metrics(layer_samples)
    units = dict(tracing.PER_LAYER)
    return passes, passes_failed, attempted, {k: (medians[k], units[k]) for k in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes of the same experiments, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not (SRC / "tracelab" / "cli.py").is_file():
        print(f"no tracelab sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    work = WORK / f"{args.workload}{'-smoke' if args.smoke else ''}-trace{args.trace}"
    experiments = workloads.build(args.workload, args.seed, _fresh(work / "inputs"), args.smoke)
    record = environment()
    extra_failed, extra_attempted = [], 0
    if args.trace:
        passes, extra_failed, extra_attempted, metrics = measure_layers(
            args.workload, experiments, work, args.seconds, deadline, record)
    else:
        passes, metrics = measure_end_to_end(experiments, work, args.seconds, deadline)
    failed = _failures(passes) + extra_failed
    attempted = sum(len(p.outcomes) for p in passes) + extra_attempted
    for index, experiment, problem in failed:
        print(f"FAILED pass {index} {experiment}: {problem}")
    print(f"failed_share={len(failed) / attempted:.4f} ({len(failed)}/{attempted})")
    (work / "environment.json").write_text(json.dumps(record, indent=2) + "\n")
    print("environment " + json.dumps(record))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
