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

from .billiard import LengthSpectrum
from .fileio import write_csv, write_json


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
    if a <= 0.0 or b <= 0.0 or mu_max <= 0.0:
        raise ValueError(f"need positive a, b, mu_max; got {a}, {b}, {mu_max}")
    n_max = int(math.floor(a * math.sqrt(mu_max) / math.pi))
    m_max = int(math.floor(b * math.sqrt(mu_max) / math.pi))
    if n_max < 1 or m_max < 1:
        return LaplaceSpectrum(a=a, b=b, mu_max=mu_max, eigenvalues=np.empty(0))
    n = np.arange(1, n_max + 1)
    m = np.arange(1, m_max + 1)
    mu = math.pi**2 * (n[:, None] ** 2 / a**2 + m[None, :] ** 2 / b**2)
    mu = np.sort(mu[mu <= mu_max].ravel())
    return LaplaceSpectrum(a=a, b=b, mu_max=mu_max, eigenvalues=mu)


def rectangle_mode(n: int, m: int, a: float, b: float, x1, x2):
    """Normalized Dirichlet eigenfunction of the rectangle for indices (n, m)."""
    if n < 1 or m < 1:
        raise ValueError(f"mode indices must be >= 1, got ({n}, {m})")
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return (2.0 / math.sqrt(a * b)) * np.sin(math.pi * n * x1 / a) \
        * np.sin(math.pi * m * x2 / b)


@dataclass(frozen=True, eq=False)
class TraceSignal:
    t_grid: np.ndarray
    values: np.ndarray
    sigma: float
    mu_max: float


def smoothed_wave_trace(spectrum: LaplaceSpectrum, t_grid,
                        sigma: float) -> TraceSignal:
    """Sum of cos(sqrt(mu_k) t) exp(-mu_k sigma^2 / 2) on the time grid.

    The summation order over eigenvalues is fixed (ascending), so repeated
    runs are bitwise identical.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if len(spectrum.eigenvalues) == 0:
        raise ValueError("cannot form a trace signal from an empty spectrum")
    t = np.asarray(t_grid, dtype=float)
    freqs = np.sqrt(spectrum.eigenvalues)
    damping = np.exp(-spectrum.eigenvalues * sigma**2 / 2.0)
    values = np.empty_like(t)
    chunk = 512  # bound the (eigenvalues x times) workspace
    for i in range(0, len(t), chunk):
        block = t[i:i + chunk]
        # axis-0 sum, not a BLAS matvec: the reduction order is then the
        # same for every time sample, making the signal exactly even in t
        values[i:i + chunk] = (damping[:, None] * np.cos(np.outer(freqs, block))).sum(axis=0)
    return TraceSignal(t_grid=t, values=values, sigma=sigma,
                       mu_max=spectrum.mu_max)


def spectral_tail_bound(spectrum: LaplaceSpectrum, sigma: float,
                        larger: LaplaceSpectrum) -> float:
    """Sum of the damping weights of the modes present only in `larger`.

    Bounds the sup change of the smoothed signal when the cutoff grows.
    """
    extra = larger.eigenvalues[larger.eigenvalues > spectrum.mu_max]
    return float(np.sum(np.exp(-extra * sigma**2 / 2.0)))


def detect_peaks(signal: TraceSignal, window: int) -> np.ndarray:
    """Times of strict local maxima that clear the robust baseline.

    A sample qualifies when it exceeds every other value within +-window
    samples and the baseline median + 3 MAD of the scanned signal; t = 0
    never qualifies.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    values = signal.values
    if len(values) < 2 * window + 1:
        raise ValueError(
            f"signal has {len(values)} samples, need at least {2 * window + 1}"
        )
    median = float(np.median(values))
    mad = float(np.median(np.abs(values - median)))
    threshold = median + 3.0 * mad
    peaks = []
    for i in range(window, len(values) - window):
        center = values[i]
        if center <= threshold or signal.t_grid[i] == 0.0:
            continue
        neighborhood = values[i - window:i + window + 1]
        if center == neighborhood.max() and np.count_nonzero(neighborhood == center) == 1:
            peaks.append(signal.t_grid[i])
    return np.array(peaks)


@dataclass(frozen=True)
class LengthMatchReport:
    """Greedy nearest matching of detected peaks against orbit lengths."""

    matched: tuple      # pairs (peak time, orbit length)
    missed: tuple       # orbit lengths with no peak within tol
    spurious: tuple     # peaks with no orbit length within tol


def compare_lengths(peaks, spectrum: LengthSpectrum, tol: float) -> LengthMatchReport:
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    peaks = np.asarray(peaks, dtype=float)
    lengths = spectrum.lengths
    pairs = sorted(
        (abs(p - L), i, j)
        for i, p in enumerate(peaks)
        for j, L in enumerate(lengths)
    )
    used_peaks: set[int] = set()
    used_lengths: set[int] = set()
    matched = []
    for distance, i, j in pairs:
        if distance > tol:
            break
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
    write_csv(path, ("t", "value"), zip(signal.t_grid, signal.values))


def match_report_to_json(report: LengthMatchReport, path, extra: dict | None = None) -> None:
    write_json(path, asdict(report) | (extra or {}))
