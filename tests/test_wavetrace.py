import json
import math

import numpy as np
import pytest

from tracelab.billiard import LengthSpectrum, is_closed, length_spectrum, rectangle, simulate
from tracelab.wavetrace import (
    compare_lengths,
    detect_peaks,
    match_report_to_json,
    rectangle_spectrum,
    signal_to_csv,
    smoothed_wave_trace,
    spectral_tail_bound,
    TraceSignal,
)

PI2 = math.pi**2


def test_unit_square_lowest_eigenvalues():
    spectrum = rectangle_spectrum(1.0, 1.0, 100.0)
    expected = PI2 * np.array([2.0, 5.0, 5.0, 8.0])
    assert np.allclose(spectrum.eigenvalues[:4], expected, atol=1e-10)


def test_multiplicities_retained():
    spectrum = rectangle_spectrum(1.0, 1.0, 150.0)
    # 5 pi^2 and 10 pi^2 and 13 pi^2 each appear twice
    for value in (5.0 * PI2, 10.0 * PI2, 13.0 * PI2):
        assert np.sum(np.isclose(spectrum.eigenvalues, value)) == 2


def test_empty_spectrum_is_valid():
    spectrum = rectangle_spectrum(1.0, 1.0, 10.0)  # below 2 pi^2
    assert len(spectrum.eigenvalues) == 0


def test_lattice_cap_counts_the_pairs_before_building_them():
    # a 1000 x 1000 lattice is the cap; a side that overflows to inf is refused, not raised on
    cutoff = PI2 * 1000.5**2
    assert len(rectangle_spectrum(1.0, 1.0, cutoff).eigenvalues) > 0
    for a, b, mu_max in ((1.0, 1.001, cutoff), (1.0, 1.0, 1e10), (1e308, 1.0, 1e10)):
        with pytest.raises(ValueError, match="mu_max=.*the cap"):
            rectangle_spectrum(a, b, mu_max)
    # a side below the fundamental empties the lattice, however long the other
    assert len(rectangle_spectrum(1e308, 1e-8, 1e10).eigenvalues) == 0


def test_eigenfunction_against_finite_differences():
    # oracle: 5-point Laplacian on a 101x101 lattice
    n = m = 1
    nodes = np.linspace(0.0, 1.0, 101)
    h = nodes[1] - nodes[0]
    X, Y = np.meshgrid(nodes, nodes, indexing="ij")
    u = 2.0 * np.sin(math.pi * n * X) * np.sin(math.pi * m * Y)  # normalized (n, m) mode
    lap = (u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]
           - 4.0 * u[1:-1, 1:-1]) / h**2
    mu = PI2 * (n**2 + m**2)
    residual = np.abs(-lap - mu * u[1:-1, 1:-1]).max()
    assert residual / (mu * np.abs(u).max()) < 1e-3


def test_weyl_counting_sanity():
    mu = 4000.0
    count = len(rectangle_spectrum(1.0, 1.0, mu).eigenvalues)
    weyl = mu / (4.0 * math.pi)
    assert abs(count - weyl) / weyl < 0.15


def test_enumeration_box_is_complete():
    a, b, mu_max = 1.0, 1.3, 900.0
    spectrum = rectangle_spectrum(a, b, mu_max)
    n_cap = int(a * math.sqrt(mu_max) / math.pi) + 2
    m_cap = int(b * math.sqrt(mu_max) / math.pi) + 2
    brute = sorted(
        PI2 * (n**2 / a**2 + m**2 / b**2)
        for n in range(1, n_cap + 1)
        for m in range(1, m_cap + 1)
        if PI2 * (n**2 / a**2 + m**2 / b**2) <= mu_max
    )
    assert np.allclose(spectrum.eigenvalues, brute, rtol=0, atol=0)


def test_signal_maximal_at_zero():
    spectrum = rectangle_spectrum(1.0, 1.0, 2000.0)
    t = np.linspace(-1.0, 1.0, 2001)
    signal = smoothed_wave_trace(spectrum, t, 0.1)
    assert np.argmax(signal.values) == 1000


def test_signal_even_in_time():
    spectrum = rectangle_spectrum(1.0, 1.0, 2000.0)
    t = (np.arange(161) - 80) * 0.01  # exactly symmetric about 0
    signal = smoothed_wave_trace(spectrum, t, 0.1)
    assert np.array_equal(signal.values, signal.values[::-1])


def test_smoothing_tail_bound():
    sigma = 0.05
    small = rectangle_spectrum(1.0, 1.0, PI2 * (40**2 + 1))
    large = rectangle_spectrum(1.0, 1.0, PI2 * (60**2 + 1))
    t = np.arange(1.5, 6.2, 0.01)
    s_small = smoothed_wave_trace(small, t, sigma)
    s_large = smoothed_wave_trace(large, t, sigma)
    bound = spectral_tail_bound(small, sigma, large)
    assert np.abs(s_small.values - s_large.values).max() <= bound + 1e-12


def test_detect_peaks_monotone_signal_empty():
    t = np.linspace(0.1, 1.0, 200)
    signal = TraceSignal(t_grid=t, values=np.exp(-t), sigma=0.1, mu_max=1.0)
    assert len(detect_peaks(signal, 5)) == 0


def test_detect_peaks_synthetic_bump():
    t = np.arange(0.0, 6.0, 0.01)
    values = np.exp(-((t - 3.0) / 0.05) ** 2 / 2.0)
    signal = TraceSignal(t_grid=t, values=values, sigma=0.05, mu_max=1.0)
    peaks = detect_peaks(signal, 10)
    assert len(peaks) == 1
    assert abs(peaks[0] - 3.0) < 0.011


def test_detect_peaks_excludes_zero():
    t = (np.arange(101) - 50) * 0.01  # contains exact 0.0
    values = np.exp(-(t / 0.05) ** 2 / 2.0)
    signal = TraceSignal(t_grid=t, values=values, sigma=0.05, mu_max=1.0)
    assert len(detect_peaks(signal, 5)) == 0


def test_detect_peaks_window_validation():
    t = np.linspace(0.0, 1.0, 9)
    signal = TraceSignal(t_grid=t, values=np.zeros(9), sigma=0.1, mu_max=1.0)
    with pytest.raises(ValueError):
        detect_peaks(signal, 5)
    with pytest.raises(ValueError):
        detect_peaks(signal, 0)


def test_compare_exact_peaks():
    spectrum = length_spectrum(rectangle(1.0, 1.0), 6.0)
    report = compare_lengths(spectrum.lengths.copy(), spectrum, 0.1)
    assert len(report.matched) == len(spectrum.lengths)
    assert report.missed == () and report.spurious == ()


def test_compare_empty_peaks():
    spectrum = length_spectrum(rectangle(1.0, 1.0), 6.0)
    report = compare_lengths(np.array([]), spectrum, 0.1)
    assert report.matched == ()
    assert len(report.missed) == len(spectrum.lengths)


def test_compare_marks_spurious():
    spectrum = length_spectrum(rectangle(1.0, 1.0), 6.0)
    peaks = np.concatenate([spectrum.lengths, [3.4]])
    report = compare_lengths(peaks, spectrum, 0.05)
    assert report.spurious == (3.4,)


def test_square_peaks_match_orbit_lengths():
    # smaller cutoff than the acceptance run, same correspondence
    spectrum = rectangle_spectrum(1.0, 1.0, PI2 * (40**2 + 1))
    t = np.arange(1.5, 6.2, 0.002)
    signal = smoothed_wave_trace(spectrum, t, 0.05)
    peaks = detect_peaks(signal, 25)
    lengths = length_spectrum(rectangle(1.0, 1.0), 6.2)
    keep = lengths.lengths >= 1.5
    scanned = LengthSpectrum(lengths.lengths[keep], lengths.descriptors[keep])
    report = compare_lengths(peaks, scanned, 0.1)
    assert report.missed == ()
    assert report.spurious == ()


def test_peak_stability_under_grid_refinement():
    spectrum = rectangle_spectrum(1.0, 1.0, PI2 * (40**2 + 1))
    coarse_step = 0.004
    coarse = detect_peaks(
        smoothed_wave_trace(spectrum, np.arange(1.5, 6.2, coarse_step), 0.05), 13)
    fine = detect_peaks(
        smoothed_wave_trace(spectrum, np.arange(1.5, 6.2, coarse_step / 2), 0.05), 26)
    assert len(coarse) == len(fine)
    assert np.abs(np.sort(coarse) - np.sort(fine)).max() < coarse_step


def test_signal_csv_and_report_json(tmp_path):
    spectrum = rectangle_spectrum(1.0, 1.0, 500.0)
    t = np.arange(1.5, 2.5, 0.01)
    signal = smoothed_wave_trace(spectrum, t, 0.05)
    csv_path = tmp_path / "signal.csv"
    signal_to_csv(signal, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == len(t) + 1

    lengths = length_spectrum(rectangle(1.0, 1.0), 6.0)
    report = compare_lengths(np.array([2.0]), lengths, 0.1)
    json_path = tmp_path / "report.json"
    match_report_to_json(report, json_path, extra={"sigma": 0.05})
    payload = json.loads(json_path.read_text())
    assert payload["matched"] == [[2.0, 2.0]]
    assert payload["sigma"] == 0.05


def test_spectrum_validation():
    with pytest.raises(ValueError):
        rectangle_spectrum(-1.0, 1.0, 100.0)
    spectrum = rectangle_spectrum(1.0, 1.0, 5.0)
    with pytest.raises(ValueError):
        smoothed_wave_trace(spectrum, np.linspace(0, 1, 10), 0.05)
    full = rectangle_spectrum(1.0, 1.0, 100.0)
    with pytest.raises(ValueError):
        smoothed_wave_trace(full, np.linspace(0, 1, 10), -0.1)


@pytest.mark.parametrize("call, message", [
    (lambda: is_closed(simulate(rectangle(1.0, 1.0), (0.5, 0.5), (0.0, 1.0), 3.0),
                       (0.5, 0.5), (0.0, 1.0), tol=math.nan), "tolerance must be positive, got nan"),
    (lambda: length_spectrum(rectangle(1.0, 1.0), math.nan), "l_max must be positive, got nan"),
    (lambda: rectangle_spectrum(math.nan, 1.0, 100.0), "got nan, 1.0, 100.0"),
    (lambda: rectangle_spectrum(1.0, math.nan, 100.0), "got 1.0, nan, 100.0"),
    (lambda: rectangle_spectrum(1.0, 1.0, math.nan), "got 1.0, 1.0, nan"),
    (lambda: compare_lengths(np.array([2.0]), length_spectrum(rectangle(1.0, 1.0), 6.0),
                             math.nan), "tolerance must be positive, got nan"),
], ids=["is_closed-tol", "length_spectrum-l_max", "rectangle_spectrum-a", "rectangle_spectrum-b",
        "rectangle_spectrum-mu_max", "compare_lengths-tol"])
def test_nan_is_not_a_positive_value(call, message):
    # let through, NaN would give an empty or None result, report every peak
    # spurious, or end in numpy's NaN-to-integer error
    with pytest.raises(ValueError, match=message):
        call()
