"""The benchmark's workloads: seeded inputs, experiment lists and output checks.

Each workload is a list of `tracelab` CLI invocations.  Inputs come only
from the seed: it draws the tabulated-kernel CSVs and the `--seed`,
`--start` and `--dir` values; every other argument is fixed per workload.
Each experiment carries a check that reads what the experiment wrote or
printed and compares it with the acceptance suite's tolerance.

Sizes are chosen so that one pass over a workload takes a few seconds on a
2-vCPU machine, which lets a run measure several passes.  `smoke` selects
tiny sizes of the same lists for the benchmark's own tests.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("dense-nystrom", "small-jacobi", "spectral-series")


@dataclass(frozen=True)
class Experiment:
    """One CLI invocation and how to judge it.

    `argv` may contain "{out}", replaced by the pass's output directory.
    `outputs` are the files (relative to that directory) the run must write.
    `check(out_dir, stdout)` returns None when the result is within
    tolerance, else a one-line description of what is wrong.
    """

    name: str
    argv: tuple
    outputs: tuple
    check: Callable[[Path, str], str | None]


def _load(out_dir: Path, name: str):
    return json.loads((out_dir / name).read_text())


def _below(name: str, key: str, limit: float):
    def check(out_dir, stdout):
        value = _load(out_dir, name)[key]
        return None if value < limit else f"{key}={value!r} is not below {limit}"
    return check


def _trace_check(name: str, argv: list) -> Experiment:
    out = f"{name}.json"
    return Experiment(name, ("trace-check", *argv, "--format", "json", "--out",
                             "{out}/" + out),
                      (out,), _below(out, "residual", 1e-9))


def _green_relative_error(values, analytic) -> float:
    return max(abs(v - a) / a for v, a in zip(values, analytic))


def _spectrum_csv_check(name: str, count: int):
    def check(out_dir, stdout):
        with open(out_dir / name, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != count:
            return f"{name} has {len(rows)} eigenvalues, expected {count}"
        err = _green_relative_error([float(r["lambda"]) for r in rows],
                                    [float(r["analytic_lambda"]) for r in rows])
        return None if err < 1e-3 else f"max relative error {err:.3e} >= 1e-3"
    return check


def _spectrum_json_check(name: str, count: int):
    def check(out_dir, stdout):
        record = _load(out_dir, name)
        if len(record["eigenvalues"]) != count:
            return f"{name} has {len(record['eigenvalues'])} eigenvalues, expected {count}"
        err = _green_relative_error(record["eigenvalues"], record["analytic"])
        return None if err < 1e-3 else f"max relative error {err:.3e} >= 1e-3"
    return check


def _heat_trace_check(name: str):
    def check(out_dir, stdout):
        worst = max(row["residual"] for row in _load(out_dir, name))
        return None if worst < 1e-9 else f"heat-trace residual {worst!r} >= 1e-9"
    return check


def _wave_check(name: str):
    def check(out_dir, stdout):
        report = _load(out_dir, name)
        if not report["matched"] or report["missed"] or report["spurious"]:
            return (f"matched={len(report['matched'])} missed={len(report['missed'])} "
                    f"spurious={len(report['spurious'])}")
        return None
    return check


def _mercer_check(name: str):
    def check(out_dir, stdout):
        r = _load(out_dir, name)
        ok = r["sup_error"] <= r["tail_bound"]
        return None if ok else f"sup_error {r['sup_error']!r} > tail_bound {r['tail_bound']!r}"
    return check


def _basel_check(name: str, kmax: int):
    def check(out_dir, stdout):
        gap = _load(out_dir, name)["gap"]
        ok = 1.0 / (kmax + 1) < gap < 1.0 / kmax
        return None if ok else f"gap {gap!r} outside (1/{kmax + 1}, 1/{kmax})"
    return check


def _billiard_check(name: str, budget: float):
    def check(out_dir, stdout):
        ended = re.search(r"terminated_by=(\S+)", stdout)
        if ended is None:
            return "no terminated_by in the summary line"
        with open(out_dir / name, newline="") as fh:
            total = sum(float(row["length"]) for row in csv.DictReader(fh))
        if ended.group(1) == "corner-hit" or abs(total - budget) <= 1e-9 * budget:
            return None
        return f"total length {total!r} != budget {budget!r} ({ended.group(1)})"
    return check


def _shortest_check(name: str, expected: float):
    def check(out_dir, stdout):
        lengths = _load(out_dir, name)["lengths"]
        if not lengths or abs(lengths[0] - expected) > 1e-9:
            return f"shortest length {lengths[:1]} != {expected!r}"
        return None
    return check


def _write_tabulated_csv(path: Path, n: int, kind: str, rng) -> None:
    """Random symmetric kernel with U(-1, 1) entries on an n-node grid.

    The upper triangle is mirrored, and cells are written with repr, so the
    file is exactly symmetric after the round trip through text.
    """
    nodes = np.linspace(0.0, 1.0, n) if kind == "trapezoid" else (np.arange(n) + 0.5) / n
    upper = np.triu(rng.uniform(-1.0, 1.0, (n, n)))
    values = upper + np.triu(upper, 1).T
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", *(repr(float(x)) for x in nodes)])
        for x, row in zip(nodes, values):
            writer.writerow([repr(float(x)), *(repr(float(v)) for v in row)])


def _dense_nystrom(rng, inputs: Path, smoke: bool) -> list[Experiment]:
    # every n is above tracelab's JACOBI_SIZE_LIMIT (160), so `auto` picks LAPACK
    small, large, heat_n, count = (201, 241, 192, 4) if smoke else (1201, 2001, 768, 10)
    return [
        _trace_check(f"trace-check-n{small}", ["--n", str(small)]),
        _trace_check(f"trace-check-n{large}", ["--n", str(large)]),
        Experiment(f"spectrum-n{small}",
                   ("spectrum", "--n", str(small), "--count", str(count),
                    "--out", "{out}/s.csv"),
                   ("s.csv", "s_functions.csv"), _spectrum_csv_check("s.csv", count)),
        _trace_check(f"heat-circle-n{heat_n}",
                     ["--kernel", "heat-circle", "--t", "0.05", "--grid", "midpoint",
                      "--n", str(heat_n)]),
    ]


def _small_jacobi(rng, inputs: Path, smoke: bool) -> list[Experiment]:
    # every n is at most JACOBI_SIZE_LIMIT (160), so `auto` picks Jacobi;
    # the seed jitters each size a little around an evenly spread base, so
    # the Jacobi work of a pass stays about the same from seed to seed
    bases = (12, 16, 20, 24, 28) if smoke else (28, 38, 48, 58, 68)
    experiments = []
    for i, base in enumerate(bases):
        n = base + int(rng.integers(-4, 5))
        kind = ("trapezoid", "midpoint")[int(rng.integers(2))]
        path = inputs / f"tabulated-{i}-n{n}-{kind}.csv"
        _write_tabulated_csv(path, n, kind, rng)
        experiments.append(_trace_check(
            f"tabulated-{i}-n{n}", ["--kernel", str(path), "--indefinite", "ignore"]))
    green_a, green_b, spec_n, spec_count, heat_n = \
        (17, 21, 41, 1, 16) if smoke else (45, 61, 81, 2, 48)
    # count is kept where the O((k/n)^2) discretization error of the k-th
    # Green eigenvalue stays inside the 1e-3 tolerance
    experiments += [
        _trace_check(f"trace-check-n{green_a}", ["--n", str(green_a)]),
        _trace_check(f"trace-check-n{green_b}", ["--n", str(green_b)]),
        Experiment(f"spectrum-n{spec_n}",
                   ("spectrum", "--n", str(spec_n), "--count", str(spec_count),
                    "--format", "json", "--out", "{out}/s.json"),
                   ("s.json",), _spectrum_json_check("s.json", spec_count)),
        _trace_check(f"heat-circle-n{heat_n}",
                     ["--kernel", "heat-circle", "--grid", "midpoint", "--n", str(heat_n)]),
    ]
    return experiments


def _disc_start(rng) -> tuple[list[str], list[str]]:
    """A start inside the unit disc and a direction near the radial one.

    The impact parameter |start x dir| stays below 0.3, so every chord is
    longer than 1.9 and a budget of L gives about L/2 segments whatever
    the seed.
    """
    r = rng.uniform(0.2, 0.6)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    phi = theta + rng.uniform(-math.pi / 6, math.pi / 6) + math.pi * int(rng.integers(2))
    start = [repr(r * math.cos(theta)), repr(r * math.sin(theta))]
    direction = [repr(math.cos(phi)), repr(math.sin(phi))]
    return start, direction


def _spectral_series(rng, inputs: Path, smoke: bool) -> list[Experiment]:
    if smoke:
        heat_n, trace_n, mu2, t_step, bvp_n, bvp_k, lattice, basel_k, budget = \
            128, 101, 80, 0.002, 201, 50, 21, 10**4, 200.0
    else:
        heat_n, trace_n, mu2, t_step, bvp_n, bvp_k, lattice, basel_k, budget = \
            1024, 801, 100, 0.002, 2001, 500, 201, 10**7, 20000.0
    heat_seed, bvp_seed = (str(int(s)) for s in rng.integers(0, 2**31, 2))
    start, direction = _disc_start(rng)
    mu_max = repr(math.pi**2 * (mu2**2 + 1))
    return [
        Experiment("heat-compare", ("heat-compare", "--n", str(heat_n), "--seed", heat_seed,
                                    "--format", "json", "--out", "{out}/hc.json"),
                   ("hc.json",), _below("hc.json", "sup_diff", 1e-8)),
        Experiment("heat-trace", ("heat-trace", "--n", str(trace_n), "--format", "json",
                                  "--out", "{out}/ht.json"),
                   ("ht.json",), _heat_trace_check("ht.json")),
        Experiment("wave-trace", ("wave-trace", "--a", "1", "--b", "1.3", "--sigma", "0.04",
                                  "--out", "{out}/w.csv", "--report", "{out}/w.json"),
                   ("w.csv", "w.json"), _wave_check("w.json")),
        Experiment("wave-trace-fine",
                   ("wave-trace", "--a", "1", "--b", "1.3", "--sigma", "0.02",
                    "--mu-max", mu_max, "--t-min", "1.5", "--t-max", "6.2",
                    "--t-step", repr(t_step), "--report", "{out}/w2.json"),
                   ("w2.json",), _wave_check("w2.json")),
        Experiment("bvp-compare", ("bvp-compare", "--n", str(bvp_n), "--kmax", str(bvp_k),
                                   "--seed", bvp_seed, "--format", "json",
                                   "--out", "{out}/bvp.json"),
                   ("bvp.json",), _below("bvp.json", "max_sup_diff", 1e-3)),
        Experiment("mercer", ("mercer", "--kmax", "1000", "--lattice-n", str(lattice),
                              "--format", "json", "--out", "{out}/m.json"),
                   ("m.json",), _mercer_check("m.json")),
        Experiment("basel", ("basel", "--kmax", str(basel_k), "--format", "json",
                             "--out", "{out}/b.json"),
                   ("b.json",), _basel_check("b.json", basel_k)),
        Experiment("billiard", ("billiard", "--shape", "disc", "--budget", repr(budget),
                                "--start", *start, "--dir", *direction,
                                "--out", "{out}/traj.csv"),
                   ("traj.csv",), _billiard_check("traj.csv", budget)),
        Experiment("length-spectrum", ("length-spectrum", "--shape", "disc", "--l-max", "60",
                                       "--max-bounces", "256", "--format", "json",
                                       "--out", "{out}/ls.json"),
                   ("ls.json",), _shortest_check("ls.json", 4.0)),
    ]


_BUILDERS = {
    "dense-nystrom": _dense_nystrom,
    "small-jacobi": _small_jacobi,
    "spectral-series": _spectral_series,
}


def build(workload: str, seed: int, inputs: Path, smoke: bool = False) -> list[Experiment]:
    """The workload's experiments for this seed; input files go to `inputs`."""
    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, inputs, smoke)


def expand(argv: tuple, out_dir: Path) -> list[str]:
    return [arg.replace("{out}", str(out_dir)) for arg in argv]
