"""Uniform kernel reconstruction from eigenpairs and the Basel sum.

The Dirichlet Green kernel equals the uniformly convergent series
sum_k lam_k f_k(x) f_k(y) over its analytic eigenpairs.  Truncating the
series gives a computable sup-error with the explicit tail bound
2/(pi^2 K); integrating the diagonal of the same series yields the
partial sums of 1/k^2 converging to pi^2/6.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import sturm
from .fileio import write_json
from .kernels import green_dirichlet
from .quadrature import TRAPEZOID, make_grid

# Basel terms per chunk, and the work cap on k_max: 10**8 terms take about
# 0.33 s on a 2-vCPU machine, so the cap is about 3 s of work
_BASEL_CHUNK = 2**16
_MAX_BASEL_TERMS = 10**9
# Cap on the lattice side: the reconstruction holds one lattice_n^2 float64
# array, so a run at the cap takes about 1.1 s and 800 MiB on a 2-vCPU machine
_MAX_LATTICE = 10**4


@dataclass(frozen=True)
class MercerReport:
    """Truncation quality of the eigen-expansion of the Green kernel."""

    k_max: int
    sup_error: float
    tail_bound: float
    partial_basel: float
    basel_target: float


def _partial_inverse_square_sum(k_max: int) -> float:
    """Sum of 1/k^2 for k = 1..k_max in O(_BASEL_CHUNK) memory.

    Chunks are summed from the smallest terms up, and the chunk sums are
    added exactly by math.fsum, so the float error stays near eps.  Each
    chunk k = last, last-1, ... is computed in place in one reused buffer.
    """
    if k_max > _MAX_BASEL_TERMS:
        raise ValueError(f"k_max={k_max} exceeds the cap of {_MAX_BASEL_TERMS:.0e} "
                         "terms of the Basel sum")
    steps = np.arange(_BASEL_CHUNK, dtype=float)
    buffer = np.empty(_BASEL_CHUNK)
    sums = []
    for last in range(k_max, 0, -_BASEL_CHUNK):
        size = min(last, _BASEL_CHUNK)
        ks = np.subtract(last, steps[:size], out=buffer[:size])
        np.multiply(ks, ks, out=ks)
        np.divide(1.0, ks, out=ks)
        sums.append(float(np.sum(ks)))
    return math.fsum(sums)


def mercer_reconstruct(k_max: int, lattice_n: int) -> MercerReport:
    """Compare the truncated eigen-series with the Green kernel on a lattice.

    sup_error is the max over the lattice_n x lattice_n lattice of nodes
    x_i = i/(L-1) of the absolute truncation error; since the modes are
    bounded by sqrt(2), the dropped tail is pointwise at most 2/(pi^2 k_max).

    No mode is sampled.  With M = 2(L-1), 2 sin(k pi x_i) sin(k pi x_j) is
    cos(2 pi k (i-j)/M) - cos(2 pi k (i+j)/M), so the truncated series is
    c[|i-j|] - c[i+j] with c_m = sum_s b_s cos(2 pi s m / M), where b holds
    the gains 1/mu_k folded into bins k mod M (`sturm._folded_gains`): one
    real FFT of M values.  Memory is one L^2 array and the fold's blocks,
    whatever k_max; k_max is capped by sturm._MAX_MODES and lattice_n by
    _MAX_LATTICE.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if not 2 <= lattice_n <= _MAX_LATTICE:
        raise ValueError(f"lattice_n must be in [2, {_MAX_LATTICE}], got {lattice_n}")
    bins = sturm._folded_gains(math.pi**2, k_max, 2 * (lattice_n - 1), lambda mu: 1.0 / mu)
    c = np.fft.rfft(bins).real  # c_0 .. c_{L-1}; c_{M-m} = c_m gives the rest
    error = green_dirichlet().matrix(make_grid(TRAPEZOID, lattice_n))
    # window s of [c_{L-1}, ..., c_1, c_0, c_1, ..., c_{L-1}] is row L-1-s of
    # c[|i-j|], and window i of [c_0, ..., c_{L-1}, ..., c_0] is row i of c[i+j]
    error -= sliding_window_view(np.concatenate((c[:0:-1], c)), lattice_n)[::-1]
    error += sliding_window_view(np.concatenate((c, c[-2::-1])), lattice_n)
    sup_error = float(np.abs(error, out=error).max())
    return MercerReport(
        k_max=k_max,
        sup_error=sup_error,
        tail_bound=2.0 / (math.pi**2 * k_max),
        partial_basel=_partial_inverse_square_sum(k_max),
        basel_target=math.pi**2 / 6.0,
    )


@dataclass(frozen=True)
class BaselReport:
    lhs: float
    rhs: float
    gap: float


def basel_via_trace(k_max: int) -> BaselReport:
    """Partial sum of 1/k^2 against pi^2/6.

    lhs is pi^2 times the partial sum of the Green-operator eigenvalues
    1/(pi^2 k^2); the remaining gap is bracketed by the integral
    comparison: 1/(k_max+1) < gap < 1/k_max.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    lhs = _partial_inverse_square_sum(k_max)
    rhs = math.pi**2 / 6.0
    return BaselReport(lhs=lhs, rhs=rhs, gap=rhs - lhs)


def report_to_json(report: MercerReport, path) -> None:
    write_json(path, asdict(report))
