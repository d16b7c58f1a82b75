"""Smoothed wave trace of a rectangle and its peak/length correspondence.

The raw wave trace sum cos(sqrt(mu_k) t) over the Dirichlet spectrum does
not converge pointwise; damping mode k by exp(-mu_k sigma^2 / 2) is the
numerical stand-in, turning each underlying singularity into a bump of
width about sigma.  Peaks of the smoothed signal are then compared with
the billiard length spectrum, which is the geometric side of the story.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _count, _positive, _shown, _within
from .billiard import LengthSpectrum
from .fileio import write_csv, write_json

# Bound on the (eigenvalues x samples) workspace of the trace sums: 2 MiB
_BLOCK_VALUES = 2**18
# Work cap on the (n, m) lattice of rectangle_spectrum, counted before it is
# built: 10**6 pairs, a 1000^2 cutoff, hold about 0.8 10**6 eigenvalues,
# whose trace at the CLI's cap of 10**4 time samples takes about 9 s and 56 MB
_MAX_LATTICE = 10**6
# Cap on the smoothing width: sigma**2 overflows above 1.34e154
_MAX_SIGMA = 1e150
# Work cap on the (peak, length) pairs within 2 tol that compare_lengths
# matches in a Python loop, counted before they are built: 1.2 10**6 pairs
# took 0.6 s and 53 MiB, 7.3 10**6 pairs 6.1 s and 400 MiB (2-vCPU machine)
_MAX_PAIRS = 10**6


@dataclass(frozen=True, eq=False)
class LaplaceSpectrum:
    """Dirichlet eigenvalues of a rectangle, ascending with multiplicity."""

    a: float
    b: float
    mu_max: float
    eigenvalues: np.ndarray


def rectangle_spectrum(a: float, b: float, mu_max: float) -> LaplaceSpectrum:
    """All eigenvalues pi^2 (n^2/a^2 + m^2/b^2) <= mu_max, n, m >= 1.

    An empty spectrum (mu_max below the fundamental) is valid.
    """
    a, b, mu_max = _positive("a", a), _positive("b", b), _positive("mu_max", mu_max)
    # a product past 1e308, or one that overflowed to inf, counts as 1e308
    n_max, m_max = (math.floor(min(side * math.sqrt(mu_max) / math.pi, 1e308))
                    for side in (a, b))
    _within({"mu_max": mu_max, "a": a, "b": b}, n_max * m_max, "(n, m) pairs", _MAX_LATTICE)
    if n_max < 1 or m_max < 1:
        return LaplaceSpectrum(a=a, b=b, mu_max=mu_max, eigenvalues=np.empty(0))
    n = np.arange(1, n_max + 1)
    m = np.arange(1, m_max + 1)
    mu = math.pi**2 * (n[:, None] ** 2 / a**2 + m[None, :] ** 2 / b**2)
    mu = np.sort(mu[mu <= mu_max].ravel())
    return LaplaceSpectrum(a=a, b=b, mu_max=mu_max, eigenvalues=mu)


@dataclass(frozen=True, eq=False)
class TraceSignal:
    t_grid: np.ndarray
    values: np.ndarray
    sigma: float
    mu_max: float


def smoothed_wave_trace(spectrum: LaplaceSpectrum, t_grid,
                        sigma: float) -> TraceSignal:
    """Sum of cos(sqrt(mu_k) t) exp(-mu_k sigma^2 / 2) on the time grid.

    The sum is formed once per distinct |t| and gathered back, so the
    signal is exactly even in t.  The |t| of samples t >= 0 and the |t|
    only samples t < 0 reach are summed apart: a part that is uniform
    takes the block-factored sum, any other the direct one.  Both run over
    blocks of eigenvalues in ascending order, so repeated runs are bitwise
    identical and the workspace stays bounded.
    """
    _positive("sigma", sigma, _MAX_SIGMA)
    if len(spectrum.eigenvalues) == 0:
        raise ValueError("cannot form a trace signal from an empty spectrum")
    t = np.asarray(t_grid, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError(f"t_grid holds a time that is not finite: {t[~np.isfinite(t)].flat[0]}")
    freqs = np.sqrt(spectrum.eigenvalues)
    damping = np.exp(-spectrum.eigenvalues * sigma**2 / 2.0)
    times, back = np.unique(np.abs(t), return_inverse=True)
    # a uniform grid that crosses 0 is two uniform parts in |t|
    ahead = np.zeros(len(times), dtype=bool)
    ahead[back.ravel()[t.ravel() >= 0.0]] = True
    values = np.empty_like(times)
    for part in (ahead, ~ahead):
        if part.any():
            summed = _factored_sum if _is_uniform(times[part]) else _direct_sum
            values[part] = summed(freqs, damping, times[part])
    return TraceSignal(t_grid=t, values=values[back], sigma=sigma, mu_max=spectrum.mu_max)


def _is_uniform(times: np.ndarray) -> bool:
    """Whether sorted times are t_0 + i delta to within a few rounding errors."""
    if len(times) < 2:
        return False
    delta = (times[-1] - times[0]) / (len(times) - 1)
    grid = times[0] + delta * np.arange(len(times))
    return bool(np.abs(times - grid).max() <= 8.0 * np.finfo(float).eps * abs(times[-1]))


def _direct_sum(freqs: np.ndarray, damping: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sum_k damping_k cos(freqs_k t) at each time, one cosine per pair."""
    values = np.zeros_like(times)
    chunk = 512
    per_block = max(1, _BLOCK_VALUES // chunk)
    for i in range(0, len(times), chunk):
        block = times[i:i + chunk]
        for first in range(0, len(freqs), per_block):
            w = freqs[first:first + per_block]
            values[i:i + chunk] += (damping[first:first + per_block, None]
                                    * np.cos(np.outer(w, block))).sum(axis=0)
    return values


def _factored_sum(freqs: np.ndarray, damping: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The same sum on uniform times t_0 + i delta.

    Time t_b + j delta, with t_b the first of a block of B >= sqrt(T)
    samples, has cos(w t) = cos(w t_b) cos(w j delta) - sin(w t_b) sin(w j delta),
    so a block of eigenvalues adds one real matrix product of a (2K, T/B)
    and a (2K, B) factor: K (T/B + B) cosines and sines instead of K T.
    """
    width = math.isqrt(len(times) - 1) + 1
    anchors = times[::width]
    offsets = (times[-1] - times[0]) / (len(times) - 1) * np.arange(width)
    values = np.zeros((len(anchors), width))
    # at most 2**17 multiply-adds per product, which OpenBLAS runs on one
    # thread: with two threads, larger products doubled the CPU time of the
    # fine benchmark trace at the same wall time
    per_block = max(16, 2**16 // values.size)
    for first in range(0, len(freqs), per_block):
        w = freqs[first:first + per_block, None]
        d = damping[first:first + per_block, None]
        at, off = w * anchors, w * offsets
        left = np.concatenate((d * np.cos(at), -d * np.sin(at)))
        right = np.concatenate((np.cos(off), np.sin(off)))
        values += left.T @ right
    return values.ravel()[:len(times)]


def spectral_tail_bound(spectrum: LaplaceSpectrum, sigma: float,
                        larger: LaplaceSpectrum) -> float:
    """Sum of the damping weights of the modes present only in `larger`.

    Bounds the sup change of the smoothed signal when the cutoff grows.
    """
    extra = larger.eigenvalues[larger.eigenvalues > spectrum.mu_max]
    return float(np.sum(np.exp(-extra * sigma**2 / 2.0)))


def _median(values: np.ndarray) -> float:
    """np.median of a nonempty 1-d array, whose NaN check would load numpy.ma."""
    half, odd = divmod(len(values), 2)
    part = np.partition(values, (half - 1 + odd, half, -1))
    if np.isnan(part[-1]):  # partition puts NaN last
        return math.nan
    # summed from 0.0, as np.mean sums, so a median of -0.0 is 0.0
    middle = part[half] + 0.0 if odd else (part[half - 1] + part[half] + 0.0) / 2.0
    return float(middle)


def detect_peaks(signal: TraceSignal, window: int) -> np.ndarray:
    """Times of strict local maxima that clear the robust baseline.

    A sample qualifies when it exceeds every other value within +-window
    samples and the baseline median + 3 MAD of the scanned signal; t = 0
    never qualifies.
    """
    window = _count("window", window, 1)
    values = signal.values
    if len(values) < 2 * window + 1:
        raise ValueError(
            f"signal has {len(values)} samples, need at least {_shown(2 * window + 1)}"
        )
    median = _median(values)
    mad = _median(np.abs(values - median))
    threshold = median + 3.0 * mad
    windows = sliding_window_view(values, 2 * window + 1)
    centers = values[window:len(values) - window]
    # strict maximum: above every other value of its window (a NaN anywhere
    # in the window fails the comparison, as it fails max() == center)
    others = np.maximum(windows[:, :window].max(axis=1), windows[:, window + 1:].max(axis=1))
    times = signal.t_grid[window:len(values) - window]
    return times[~(centers <= threshold) & (times != 0.0) & (centers > others)]


@dataclass(frozen=True)
class LengthMatchReport:
    """Greedy nearest matching of detected peaks against orbit lengths."""

    matched: tuple      # pairs (peak time, orbit length)
    missed: tuple       # orbit lengths with no peak within tol
    spurious: tuple     # peaks with no orbit length within tol


def compare_lengths(peaks, spectrum: LengthSpectrum, tol: float) -> LengthMatchReport:
    _positive("tol", tol)
    peaks = np.asarray(peaks, dtype=float)
    lengths = spectrum.lengths
    # candidate pairs lie within a window of sorted lengths found by
    # searchsorted; the window is widened to 2 tol so that rounding at its
    # edges cannot drop a pair the exact |p - L| <= tol test keeps
    order = np.argsort(lengths, kind="stable")
    ranked = lengths[order]
    lo = np.searchsorted(ranked, peaks - 2.0 * tol, side="left")
    hi = np.searchsorted(ranked, peaks + 2.0 * tol, side="right")
    counts = hi - lo
    pairs = int(counts.sum())
    _within({"tol": tol}, pairs, "(peak, length) pairs within 2 tol", _MAX_PAIRS)
    peak_of = np.repeat(np.arange(len(peaks)), counts)
    rank = np.arange(pairs) - np.repeat(np.cumsum(counts) - counts - lo, counts)
    length_of = order[rank]
    distance = np.abs(peaks[peak_of] - lengths[length_of])
    near = distance <= tol
    distance, peak_of, length_of = distance[near], peak_of[near], length_of[near]
    # greedy in the order of sorted (distance, peak, length) triples
    used_peaks: set[int] = set()
    used_lengths: set[int] = set()
    matched = []
    for k in np.lexsort((length_of, peak_of, distance)):
        i, j = int(peak_of[k]), int(length_of[k])
        if i in used_peaks or j in used_lengths:
            continue
        used_peaks.add(i)
        used_lengths.add(j)
        matched.append((float(peaks[i]), float(lengths[j])))
    matched.sort()
    missed = tuple(float(L) for j, L in enumerate(lengths) if j not in used_lengths)
    spurious = tuple(float(p) for i, p in enumerate(peaks) if i not in used_peaks)
    return LengthMatchReport(matched=tuple(matched), missed=missed, spurious=spurious)


def signal_to_csv(signal: TraceSignal, path) -> None:
    write_csv(path, ("t", "value"), (signal.t_grid, signal.values))


def match_report_to_json(report: LengthMatchReport, path, extra: dict | None = None) -> None:
    write_json(path, asdict(report) | (extra or {}))
