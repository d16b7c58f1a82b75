"""Tests of the benchmark itself: tiny-size runs of every workload, the
rebinding check and the self-time arithmetic.

Run from the repository root with `python -m pytest perfbench`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170, check=False)
    return done


def _result(workload: str, trace: int) -> dict:
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    return result


def test_benchmark_json_names_every_workload_and_layer_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_smoke(workload):
    result = _result(workload, 0)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # at least two passes, so byte identity across passes was checked
    count = len(workloads.build(workload, 7, ROOT / ".perfbench_work" / "probe", smoke=True))
    assert result["attempted"] >= 2 * count


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke(workload):
    metrics = {k: v["value"] for k, v in _result(workload, 1)["metrics"].items()}
    assert list(metrics) == [name for name, _ in tracing.PER_LAYER]
    assert metrics["cli.self_s"] > 0
    if workload == "dense-nystrom":
        # each trace-check/spectrum discretizes twice and decomposes twice
        assert metrics["nystrom.discretize.calls"] == 8
        assert metrics["linalg.decompositions_per_solve"] == 2.0
        assert metrics["linalg.jacobi_eigen.calls"] == 0
        assert metrics["linalg.eigh_eigen_s"] > 0 and metrics["linalg.lapack_s"] > 0
        assert metrics["kernels.heat_images"] > 0
    elif workload == "small-jacobi":
        assert metrics["linalg.jacobi_eigen.calls"] == 9
        assert metrics["linalg.eigh_eigen_s"] == 0
        assert metrics["fileio.read_csv_s"] > 0 and metrics["kernels.kernel_from_csv_s"] > 0
    else:
        assert metrics["linalg.decompositions"] == 0 and metrics["linalg.lapack_s"] == 0
        assert metrics["wavetrace.match_ratio"] == 1.0
        assert metrics["wavetrace.cos_evals"] > 0 and metrics["wavetrace.workspace_mb"] > 0
        assert metrics["billiard.segments"] > 0 and metrics["fileio.bytes_written"] > 0
        assert metrics["heat.evolve_kernel_s"] > 0 and metrics["heat.evolve_spectral_s"] > 0


def test_unbound_names_reports_a_namespace_left_with_the_original(monkeypatch):
    from tracelab import linalg

    original = linalg.eigh_eigen
    monkeypatch.setattr(linalg, "eigh_eigen", lambda a: original(a))
    found = tracing.unbound_names([original])
    assert "tracelab.nystrom.eigh_eigen" in found
    assert "tracelab.linalg.eigh_eigen" not in found


def test_installed_rebinds_every_namespace_then_restores():
    import numpy as np
    from tracelab import kernels, linalg, nystrom

    originals = (nystrom.eigh_eigen, np.linalg.eigh, kernels.KernelSpec.matrix)
    with tracing.installed(tracing.Tracer()):
        assert nystrom.eigh_eigen is linalg.eigh_eigen
        assert nystrom.eigh_eigen is not originals[0]
        assert np.linalg.eigh is not originals[1]
        assert tracing.unbound_names(originals) == []
    assert (nystrom.eigh_eigen, np.linalg.eigh, kernels.KernelSpec.matrix) == originals


def test_self_times_subtract_covered_child_time():
    spans = [["cli.main", tracing.ROOT_METRIC, 0.0, 10.0, -1, "e"],
             ["a", "x", 1.0, 4.0, 0, "e"],
             ["b", "y", 2.0, 3.0, 1, "e"],
             ["c", "x", 5.0, 9.0, 0, "e"]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_spans_that_do_not_nest_fail_the_coverage_check():
    tracer = tracing.Tracer()
    tracer.spans = [["cli.main", tracing.ROOT_METRIC, 0.0, 1.0, -1, "e"],
                    ["a", "nystrom.discretize_s", 0.5, 1.5, 0, "e"]]
    with pytest.raises(tracing.TracingError):
        tracing.summarize(tracer)


def test_without_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("dense-nystrom", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
