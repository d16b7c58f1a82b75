import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelab import mercer, sturm
from tracelab.kernels import eval_green, green_dirichlet
from tracelab.mercer import basel_via_trace, mercer_reconstruct, report_to_json
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


def mode_sum_sup_error(k_max, lattice_n):
    """sup |G - sum_k lam_k f_k(x) f_k(y)| with every mode sampled: the oracle of the fold."""
    xs = np.linspace(0.0, 1.0, lattice_n)
    mu, modes = sturm.sine_modes(np.arange(1, k_max + 1), xs)
    series = (modes.T / mu) @ modes
    return float(np.abs(eval_green(*np.meshgrid(xs, xs, indexing="ij")) - series).max())


@settings(derandomize=True, deadline=None, max_examples=60)
@given(lattice_n=st.integers(min_value=2, max_value=60), data=st.data())
def test_reconstruction_matches_the_mode_sum(lattice_n, data):
    # k_max up to twice the fold length 2(L-1), where the modes alias
    k_max = data.draw(st.integers(min_value=1, max_value=4 * lattice_n))
    report = mercer_reconstruct(k_max, lattice_n)
    assert abs(report.sup_error - mode_sum_sup_error(k_max, lattice_n)) <= 1e-15


def test_blocked_reconstruction_matches_one_block(monkeypatch):
    whole = mercer_reconstruct(300, 41)
    monkeypatch.setattr(sturm, "_BLOCK_VALUES", 7)  # the fold runs 43 blocks of 7 modes
    blocked = mercer_reconstruct(300, 41)
    assert abs(blocked.sup_error - whole.sup_error) <= 1e-15
    assert blocked.sup_error <= blocked.tail_bound


def test_reconstruction_memory_does_not_grow_with_k_max():
    # one L^2 array plus the gather's slack; the fold runs before that array
    # exists and holds at most a few blocks of sturm._BLOCK_VALUES floats
    lattice_n = 801
    peaks = {}
    for k_max in (100, 10**6):
        tracemalloc.start()
        mercer_reconstruct(k_max, lattice_n)
        peaks[k_max] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[100] < 2 * 8 * lattice_n**2
    assert peaks[10**6] - peaks[100] <= 4 * 8 * sturm._BLOCK_VALUES


def test_reconstruction_refuses_more_mode_samples_than_the_cap(monkeypatch):
    # k_max is capped by the fold alone, lattice_n by the L^2 array
    monkeypatch.setattr(sturm, "_MAX_MODES", 1000)
    assert mercer_reconstruct(1000, 10).k_max == 1000
    with pytest.raises(ValueError, match="cap"):
        mercer_reconstruct(1001, 3)
    monkeypatch.setattr(mercer, "_MAX_LATTICE", 12)
    assert mercer_reconstruct(1, 12).k_max == 1
    with pytest.raises(ValueError, match="lattice_n"):
        mercer_reconstruct(1, 13)


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


def basel_by_fresh_chunks(k_max):
    """Reference for the Basel sum: one new array per chunk, as before the buffer."""
    chunks = (np.arange(last, max(last - mercer._BASEL_CHUNK, 0), -1, dtype=float)
              for last in range(k_max, 0, -mercer._BASEL_CHUNK))
    return math.fsum(float(np.sum(1.0 / (ks * ks))) for ks in chunks)


def test_basel_buffer_gives_the_fresh_chunks_bits_in_bounded_memory():
    chunk = mercer._BASEL_CHUNK
    for k_max in (1, chunk - 1, chunk, chunk + 1, 10**6 + 3):
        assert mercer._partial_inverse_square_sum(k_max) == basel_by_fresh_chunks(k_max)
    tracemalloc.start()
    mercer._partial_inverse_square_sum(10**7)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 4 * 8 * chunk
