"""Spans around calls into each tracelab module, recorded from outside.

`installed(tracer)` wraps the public functions listed in WRAPS, plus
`numpy.linalg.eigh`/`eigvalsh` and `KernelSpec.matrix`, and rebinds each
wrapper in every tracelab namespace that holds the original: `nystrom`
imports `eigh_eigen` with `from .linalg import ...`, so wrapping only
`linalg.eigh_eigen` would miss nystrom's calls.  `unbound_names` is the
check that no namespace still holds an unwrapped original.

Spans stay in memory as [function, metric, start, end, parent, experiment]
until the run writes them out.  A span's self time is its duration minus
the part its child spans cover; each per-layer time metric is the summed
self time of the spans mapped to it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

ROOT = "cli.main"
ROOT_METRIC = "cli.self_s"
WRITE = "fileio.write_s"


def _heat_method(args) -> str:
    return f"heat.evolve_{args.get('method', 'spectral')}_s"


def _heat_images(args, result) -> dict:
    spec, grid = args["self"], args["grid"]
    if spec.kind != "heat-circle":
        return {}
    return {"kernels.heat_images": grid.n**2 * (2 * spec.l_max + 1)}


def _cos_evals(args, result) -> dict:
    return {"wavetrace.cos_evals": len(args["spectrum"].eigenvalues) * len(result.t_grid)}


def _pairs(args, result) -> dict:
    return {"wavetrace.compare_pairs": len(args["peaks"]) * len(args["spectrum"].lengths),
            "wavetrace.matched": len(result.matched),
            "wavetrace.unmatched": len(result.missed) + len(result.spurious)}


def _segments(args, result) -> dict:
    return {"billiard.segments": len(result.segments)}


def _bytes(args, result) -> dict:
    return {"fileio.bytes_written": os.path.getsize(args["path"])}


@dataclass(frozen=True)
class Wrap:
    """One wrapped callable.

    `metric` names the per-layer time its self time adds to, or computes
    that name from the bound arguments.  `observe(args, result)` returns
    counts derived from the call.  `memory` records the call's peak
    traced allocation under tracemalloc.
    """

    module: str
    attr: str
    metric: str | Callable
    observe: Callable | None = None
    memory: bool = False


WRAPS = (
    Wrap("tracelab.quadrature", "make_grid", "quadrature.self_s"),
    Wrap("tracelab.quadrature", "integrate", "quadrature.self_s"),
    Wrap("tracelab.quadrature", "inner_product", "quadrature.self_s"),
    Wrap("tracelab.kernels", "KernelSpec.matrix", "kernels.matrix_s", _heat_images),
    Wrap("tracelab.kernels", "kernel_from_csv", "kernels.kernel_from_csv_s"),
    Wrap("tracelab.nystrom", "discretize", "nystrom.discretize_s"),
    Wrap("tracelab.nystrom", "operator_spectrum", "nystrom.operator_spectrum_s"),
    Wrap("tracelab.nystrom", "trace_formula_check", "nystrom.trace_formula_check_s"),
    Wrap("tracelab.nystrom", "spectrum_to_csv", WRITE),
    Wrap("tracelab.linalg", "eigh_eigen", "linalg.eigh_eigen_s"),
    Wrap("tracelab.linalg", "jacobi_eigen", "linalg.jacobi_eigen_s"),
    Wrap("numpy.linalg", "eigh", "linalg.lapack_s"),
    Wrap("numpy.linalg", "eigvalsh", "linalg.lapack_s"),
    Wrap("tracelab.heat", "heat_evolve", _heat_method),
    Wrap("tracelab.heat", "theta", "heat.theta_s"),
    Wrap("tracelab.heat", "heat_trace_check", "heat.heat_trace_check_s"),
    Wrap("tracelab.heat", "trace_sweep_to_csv", WRITE),
    Wrap("tracelab.sturm", "solve_spectral", "sturm.solve_spectral_s"),
    Wrap("tracelab.sturm", "solve_direct", "sturm.solve_direct_s"),
    Wrap("tracelab.sturm", "solution_to_csv", WRITE),
    Wrap("tracelab.mercer", "mercer_reconstruct", "mercer.mercer_reconstruct_s"),
    Wrap("tracelab.mercer", "basel_via_trace", "mercer.basel_via_trace_s"),
    Wrap("tracelab.mercer", "report_to_json", WRITE),
    Wrap("tracelab.wavetrace", "rectangle_spectrum", "wavetrace.rectangle_spectrum_s"),
    Wrap("tracelab.wavetrace", "smoothed_wave_trace", "wavetrace.smoothed_wave_trace_s",
         _cos_evals, memory=True),
    Wrap("tracelab.wavetrace", "detect_peaks", "wavetrace.detect_peaks_s"),
    Wrap("tracelab.wavetrace", "compare_lengths", "wavetrace.compare_lengths_s", _pairs),
    Wrap("tracelab.wavetrace", "signal_to_csv", WRITE),
    Wrap("tracelab.wavetrace", "match_report_to_json", WRITE),
    Wrap("tracelab.billiard", "simulate", "billiard.simulate_s", _segments),
    Wrap("tracelab.billiard", "length_spectrum", "billiard.length_spectrum_s"),
    Wrap("tracelab.billiard", "is_closed", "billiard.is_closed_s"),
    Wrap("tracelab.billiard", "trajectory_to_csv", WRITE),
    Wrap("tracelab.billiard", "spectrum_to_csv", WRITE),
    Wrap("tracelab.fileio", "write_csv", WRITE, _bytes),
    Wrap("tracelab.fileio", "write_json", WRITE, _bytes),
    Wrap("tracelab.fileio", "read_csv", "fileio.read_csv_s"),
)

# Per-layer metrics, in the order they are reported, with their units.
TIME_METRICS = (
    ROOT_METRIC, "quadrature.self_s",
    "kernels.matrix_s", "kernels.kernel_from_csv_s",
    "nystrom.discretize_s", "nystrom.operator_spectrum_s", "nystrom.trace_formula_check_s",
    "linalg.lapack_s", "linalg.eigh_eigen_s", "linalg.jacobi_eigen_s",
    "heat.evolve_kernel_s", "heat.evolve_spectral_s", "heat.theta_s",
    "heat.heat_trace_check_s",
    "sturm.solve_spectral_s", "sturm.solve_direct_s",
    "mercer.mercer_reconstruct_s", "mercer.basel_via_trace_s",
    "wavetrace.rectangle_spectrum_s", "wavetrace.smoothed_wave_trace_s",
    "wavetrace.detect_peaks_s", "wavetrace.compare_lengths_s",
    "billiard.simulate_s", "billiard.length_spectrum_s", "billiard.is_closed_s",
    WRITE, "fileio.read_csv_s",
)
COUNT_METRICS = (
    ("linalg.decompositions", "count"),
    ("linalg.decompositions_per_solve", "ratio"),
    ("linalg.jacobi_eigen.calls", "count"),
    ("nystrom.discretize.calls", "count"),
    ("kernels.matrix.calls", "count"),
    ("kernels.heat_images", "count"),
    ("wavetrace.cos_evals", "count"),
    ("wavetrace.workspace_mb", "MiB"),
    ("wavetrace.compare_pairs", "count"),
    ("wavetrace.match_ratio", "ratio"),
    ("billiard.segments", "count"),
    ("fileio.bytes_written", "bytes"),
)
PER_LAYER = tuple((name, "s") for name in TIME_METRICS) + COUNT_METRICS


class TracingError(RuntimeError):
    """The wrappers do not cover every namespace, or the spans do not nest."""


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts: dict[str, Counter] = {}
        self.peaks: dict[str, int] = {}
        self.experiment = None
        self._stack = []

    def call(self, function: str, metric: str, fn, *args, **kwargs):
        span = [function, metric, time.perf_counter(), None,
                self._stack[-1] if self._stack else -1, self.experiment]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value) -> None:
        self.counts.setdefault(self.experiment, Counter())[name] += value


def _wrapper(tracer: Tracer, wrap: Wrap, fn):
    function = f"{wrap.module.rsplit('.', 1)[-1]}.{wrap.attr}"
    signature = inspect.signature(fn) if (callable(wrap.metric) or wrap.observe) else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = None
        if signature is not None:
            bound = signature.bind(*args, **kwargs).arguments
        metric = wrap.metric(bound) if callable(wrap.metric) else wrap.metric
        if wrap.memory:
            tracemalloc.start()
        try:
            result = tracer.call(function, metric, fn, *args, **kwargs)
        finally:
            if wrap.memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                tracer.peaks[function] = max(tracer.peaks.get(function, 0), peak)
        tracer.count(function + ".calls", 1)
        if wrap.observe is not None:
            for name, value in wrap.observe(bound, result).items():
                tracer.count(name, value)
        return result
    return traced


def _owner(wrap: Wrap):
    owner = importlib.import_module(wrap.module)
    *path, leaf = wrap.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _namespaces():
    """Every namespace a tracelab call can look a wrapped name up in."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "tracelab" or name.startswith("tracelab."))]
    found = [(m.__name__, m) for m in modules] + [("numpy.linalg", sys.modules["numpy.linalg"])]
    for module in modules:
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == module.__name__:
                found.append((f"{module.__name__}.{value.__name__}", value))
    return found


def unbound_names(originals) -> list[str]:
    """Names in a tracelab namespace still bound to an unwrapped original.

    Looks at module and class attributes and one level into module-level
    dicts, lists and tuples, where a dispatch table would keep a function.
    """
    targets = {id(fn) for fn in originals}
    found = []
    for label, namespace in _namespaces():
        for key, value in list(vars(namespace).items()):
            if id(value) in targets:
                found.append(f"{label}.{key}")
            elif isinstance(value, dict):
                found += [f"{label}.{key}[{k!r}]" for k, v in value.items() if id(v) in targets]
            elif isinstance(value, (list, tuple)):
                found += [f"{label}.{key}[{i}]" for i, v in enumerate(value) if id(v) in targets]
    return found


@contextmanager
def installed(tracer: Tracer):
    """Wrap every WRAPS entry for the duration of the block, then restore."""
    patches = []
    originals = []
    try:
        for wrap in WRAPS:
            owner, leaf = _owner(wrap)
            original = vars(owner)[leaf]
            wrapped = _wrapper(tracer, wrap, original)
            originals.append(original)
            for _, namespace in _namespaces():
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        patches.append((namespace, key, original))
                        setattr(namespace, key, wrapped)
        missing = unbound_names(originals)
        if missing:
            raise TracingError("wrapped names not rebound in: " + ", ".join(missing))
        yield
    finally:
        for namespace, key, original in reversed(patches):
            setattr(namespace, key, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[4] >= 0:
            children[span[4]].append(index)
    result = []
    for span, kids in zip(spans, children):
        start, end = span[2], span[3]
        covered, reach = 0.0, start
        for kid in sorted(kids, key=lambda k: spans[k][2]):
            lo, hi = max(spans[kid][2], reach), min(spans[kid][3], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def summarize(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and per-experiment structure.

    Raises TracingError when an experiment's self times do not add up to
    its cli.main span, which happens only if spans fail to nest.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    times = dict.fromkeys(TIME_METRICS, 0.0)
    per_experiment: dict = {}
    for span, own in zip(spans, selfs):
        if span[3] is None:
            raise TracingError(f"span {span[0]} was never closed")
        times[span[1]] = times.get(span[1], 0.0) + own
        entry = per_experiment.setdefault(span[5], {"self": Counter(), "root": 0.0})
        entry["self"][span[1]] += own
        if span[0] == ROOT:
            entry["root"] += span[3] - span[2]
    totals = Counter()
    structure = {}
    for experiment, entry in per_experiment.items():
        summed = sum(entry["self"].values())
        if abs(summed - entry["root"]) > 1e-6 + 1e-9 * entry["root"]:
            raise TracingError(f"{experiment}: self times sum to {summed!r}, "
                               f"cli.main span is {entry['root']!r}")
        counts = tracer.counts.get(experiment, Counter())
        totals.update(counts)
        structure[experiment] = _layer_counts(counts) | {
            "cli.main_s": entry["root"],
            "top_self": entry["self"].most_common(1)[0][0],
        }
    metrics = {name: times[name] for name in TIME_METRICS} | _layer_counts(totals)
    metrics |= {name: totals[name] for name in _SUMMED}
    metrics["wavetrace.workspace_mb"] = tracer.peaks.get("wavetrace.smoothed_wave_trace", 0) / 2**20
    matched, unmatched = totals["wavetrace.matched"], totals["wavetrace.unmatched"]
    metrics["wavetrace.match_ratio"] = matched / (matched + unmatched) if matched + unmatched else 0.0
    return metrics, structure


_SUMMED = ("kernels.heat_images", "wavetrace.cos_evals", "wavetrace.compare_pairs",
           "billiard.segments", "fileio.bytes_written")


def _layer_counts(counts: Counter) -> dict:
    decompositions = (counts["linalg.eigh.calls"] + counts["linalg.eigvalsh.calls"]
                      + counts["linalg.jacobi_eigen.calls"])
    solves = counts["nystrom.operator_spectrum.calls"] + counts["nystrom.trace_formula_check.calls"]
    return {
        "linalg.decompositions": decompositions,
        "linalg.decompositions_per_solve": decompositions / solves if solves else 0.0,
        "linalg.jacobi_eigen.calls": counts["linalg.jacobi_eigen.calls"],
        "nystrom.discretize.calls": counts["nystrom.discretize.calls"],
        "kernels.matrix.calls": counts["kernels.KernelSpec.matrix.calls"],
    }


def median_metrics(samples: list[dict]) -> dict:
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}
