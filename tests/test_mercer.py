import json
import math

import numpy as np
import pytest

from tracelab import mercer, sturm
from tracelab.kernels import eval_green, green_dirichlet
from tracelab.mercer import (
    basel_via_trace,
    mercer_reconstruct,
    report_to_json,
    trace_chain_check,
)
from tracelab.nystrom import operator_spectrum
from tracelab.quadrature import TRAPEZOID, make_grid


def test_uniform_bound_kmax_100():
    report = mercer_reconstruct(100, 101)
    assert report.sup_error <= 2.0 / (100 * math.pi**2) + 1e-12
    assert report.tail_bound == 2.0 / (math.pi**2 * 100)


def test_single_mode_pointwise_error_at_center():
    # truncating after one mode leaves |G(1/2,1/2) - 2/pi^2| ~ 0.0474
    report = mercer_reconstruct(1, 3)  # lattice includes the center point
    expected = abs(0.25 - 2.0 / math.pi**2)
    assert report.sup_error == pytest.approx(expected, abs=1e-15)
    assert math.isclose(expected, 0.04735763271532436, rel_tol=1e-12)


def test_sup_error_monotone_in_truncation():
    assert mercer_reconstruct(200, 101).sup_error < mercer_reconstruct(50, 101).sup_error


def test_uniform_convergence_witness():
    for k_max in (10, 50, 100, 500):
        report = mercer_reconstruct(k_max, 101)
        assert report.sup_error <= 2.0 / (math.pi**2 * k_max) + 1e-12


def test_partial_basel_monotone_bounded():
    previous = 0.0
    for k_max in (1, 2, 5, 10, 100):
        report = mercer_reconstruct(k_max, 5)
        assert report.partial_basel > previous
        assert report.partial_basel < math.pi**2 / 6.0
        previous = report.partial_basel


def test_basel_first_term():
    report = basel_via_trace(1)
    assert report.lhs == 1.0
    assert report.gap == pytest.approx(math.pi**2 / 6.0 - 1.0, abs=1e-15)


def test_basel_million_terms_bracketed():
    k = 10**6
    report = basel_via_trace(k)
    assert 1.0 / (k + 1) < report.gap < 1.0 / k


def test_basel_gap_always_positive():
    for k in (1, 3, 10, 1000):
        assert basel_via_trace(k).gap > 0.0


def test_basel_two_sided_bracket():
    for k in (7, 50, 12345):
        report = basel_via_trace(k)
        assert report.lhs + 1.0 / k >= math.pi**2 / 6.0
        assert report.lhs + 1.0 / (k + 1) <= math.pi**2 / 6.0


def test_basel_rejects_bad_kmax():
    with pytest.raises(ValueError):
        basel_via_trace(0)


def test_trace_chain_finite_exchange():
    g = make_grid(TRAPEZOID, 2001)
    report = trace_chain_check(50, g)
    assert report.diff < 1e-10


def test_trace_chain_value_bracket():
    g = make_grid(TRAPEZOID, 2001)
    k_max = 50
    report = trace_chain_check(k_max, g)
    # quadrature is exact enough that the truncated value sits in the
    # analytic tail bracket around 1/6
    low = 1.0 / 6.0 - 1.0 / (math.pi**2 * k_max)
    high = 1.0 / 6.0 - 1.0 / (math.pi**2 * (k_max + 1))
    assert low < report.integral_of_sum < high
    assert low < report.sum_of_integrals < high


def test_trace_chain_empty_truncation():
    g = make_grid(TRAPEZOID, 11)
    report = trace_chain_check(0, g)
    assert (report.integral_of_sum, report.sum_of_integrals, report.diff) == (0.0, 0.0, 0.0)


def test_analytic_partial_sums_match_nystrom():
    g = make_grid(TRAPEZOID, 801)
    numeric = operator_spectrum(green_dirichlet(), g, 10).eigenvalues.sum()
    analytic = sum(1.0 / (math.pi**2 * k**2) for k in range(1, 11))
    assert abs(numeric - analytic) < 1e-4


def test_reconstruction_against_kernel_values():
    # independent check at a fixed off-lattice style point on the lattice
    report = mercer_reconstruct(400, 51)
    xs = np.linspace(0.0, 1.0, 51)
    x, y = xs[13], xs[37]
    series = sum(
        (2.0 / (math.pi**2 * k**2)) * math.sin(k * math.pi * x) * math.sin(k * math.pi * y)
        for k in range(1, 401)
    )
    assert abs(series - eval_green(x, y)) <= report.sup_error + 1e-15


def test_report_json(tmp_path):
    report = mercer_reconstruct(10, 11)
    path = tmp_path / "mercer.json"
    report_to_json(report, path)
    payload = json.loads(path.read_text())
    assert set(payload) == {"k_max", "sup_error", "tail_bound", "partial_basel",
                            "basel_target"}
    assert payload["k_max"] == 10
    assert payload["basel_target"] == pytest.approx(math.pi**2 / 6.0, rel=1e-15)


def test_blocked_reconstruction_matches_one_block(monkeypatch):
    whole = mercer_reconstruct(300, 41)
    monkeypatch.setattr(sturm, "_BLOCK_VALUES", 41 * 7)  # 43 blocks of 7 modes
    blocked = mercer_reconstruct(300, 41)
    assert abs(blocked.sup_error - whole.sup_error) <= 1e-15
    assert blocked.sup_error <= blocked.tail_bound


def test_reconstruction_refuses_more_mode_samples_than_the_cap(monkeypatch):
    monkeypatch.setattr(sturm, "_MAX_MODE_VALUES", 1000)
    assert mercer_reconstruct(100, 10).k_max == 100
    with pytest.raises(ValueError, match="cap"):
        mercer_reconstruct(101, 10)


def test_chunked_basel_sum_matches_one_sum():
    chunk = mercer._BASEL_CHUNK
    for k_max in (1, 2, chunk - 1, chunk, chunk + 1, 3 * chunk + 5, 10**6):
        ks = np.arange(k_max, 0, -1, dtype=float)
        one_sum = float(np.sum(1.0 / (ks * ks)))
        assert basel_via_trace(k_max).lhs == pytest.approx(one_sum, rel=4e-16, abs=0.0)


def test_basel_refuses_more_terms_than_the_cap():
    cap = mercer._MAX_BASEL_TERMS
    with pytest.raises(ValueError, match="cap"):
        basel_via_trace(cap + 1)
