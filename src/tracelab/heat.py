"""Heat flow on the circle, solved two ways, and the theta identity.

The semigroup trace computed through the eigenbasis gives the sum of
exp(-4 pi^2 k^2 t); computed through the periodized Gaussian kernel it
gives the dual sum — equating them is the transformation formula
theta(s) = theta(1/s)/sqrt(s) with s = 4 pi t.

The periodic eigendata come from `sturm.trig_modes`; the spectral evolution
is `sturm.filtered_series`, one real FFT on the grid.  The kernel evolution
samples the periodized Gaussian once, as a row, and convolves with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fileio import write_csv
from .kernels import _check_heat_time, diagonal_trace, heat_circle
from .quadrature import MIDPOINT, Grid, _check_sampled
from .sturm import filtered_series, trig_modes

_TERM_CUTOFF = 1e-18
_MAX_TERMS = 10**6
# The largest s whose theta(1/s) stays within _MAX_TERMS terms
_MAX_TRANSFORM_S = math.pi * _MAX_TERMS**2 / -math.log(_TERM_CUTOFF)


@dataclass(frozen=True)
class ThetaEvaluation:
    """Value of theta(s) = sum over integers k of exp(-s pi k^2)."""

    s: float
    value: float
    k_used: int
    tail_estimate: float


def _terms_needed(s: float) -> float:
    # first k with exp(-s pi k^2) < cutoff
    return math.sqrt(-math.log(_TERM_CUTOFF) / (math.pi * s))


def theta(s: float) -> ThetaEvaluation:
    """Evaluate theta(s) by direct summation.

    Terms are added until one drops below 1e-18; the remainder is bounded
    by a geometric series since consecutive term ratios shrink.  For s so
    small that more than a million terms would be needed, evaluation is
    refused: use the transformed side theta(1/s)/sqrt(s) instead, which
    converges fast exactly when this side does not.
    """
    if not 0.0 < s < math.inf:  # NaN would never meet the term cutoff
        raise ValueError(f"theta needs finite s > 0, got {s}")
    if _terms_needed(s) > _MAX_TERMS:
        raise ValueError(
            f"theta(s) at s={s} needs more than {_MAX_TERMS} terms; "
            "evaluate theta(1/s)/sqrt(s) instead"
        )
    total = 1.0
    k = 0
    while True:
        k += 1
        term = math.exp(-s * math.pi * k * k)
        total += 2.0 * term
        if term < _TERM_CUTOFF:
            break
    next_term = math.exp(-s * math.pi * (k + 1) ** 2)
    ratio = math.exp(-s * math.pi * (2 * k + 3))
    tail = 2.0 * next_term / (1.0 - ratio)
    return ThetaEvaluation(s=s, value=total, k_used=k, tail_estimate=tail)


def theta_transform_residual(s: float) -> float:
    """|theta(s) - theta(1/s)/sqrt(s)|; exactly zero in exact arithmetic.

    Refused above _MAX_TRANSFORM_S, where theta(1/s) would need more than
    _MAX_TERMS terms.
    """
    direct = theta(s).value
    if s > _MAX_TRANSFORM_S:
        raise ValueError(f"theta transform at s={s} needs theta(1/s) with more than "
                         f"{_MAX_TERMS} terms; s <= {_MAX_TRANSFORM_S!r} is accepted")
    transformed = theta(1.0 / s).value / math.sqrt(s)
    return abs(direct - transformed)


SPECTRAL = "spectral"
KERNEL = "kernel"


def heat_evolve(f: np.ndarray, grid: Grid, t: float, method: str = SPECTRAL,
                k_max: int | None = None, l_max: int | None = None) -> np.ndarray:
    """Evolve 1-periodic initial data f for time t.

    spectral: project f on the real trigonometric modes (exact discrete
    orthogonality on a midpoint grid), damp each coefficient by exp(-mu t),
    resum.  k_max defaults to every mode below the grid Nyquist limit.
    kernel: quadrature against the periodized heat kernel with cutoff
    l_max (defaulting per the Gaussian tail rule).  Its matrix is the
    Toeplitz matrix of one sampled row, so the quadrature is a linear
    convolution of the weighted samples with that row, done by real FFTs
    of the first power of two >= 2n - 1: the same sum as the dense matrix
    product, for any l_max.
    """
    _check_heat_time(t)
    if grid.kind != MIDPOINT:
        raise ValueError("heat_evolve expects a uniform-midpoint grid "
                         "(periodic sampling without duplicated endpoints)")
    values = _check_sampled(f, grid)
    if method == SPECTRAL:
        if k_max is None:
            k_max = (grid.n - 1) // 2
        if k_max < 1:
            raise ValueError(f"spectral method needs k_max >= 1, got {k_max}")
        mean = float(np.dot(grid.weights, values))
        with np.errstate(over="ignore"):  # mu t beyond the float range damps to 0
            return mean + filtered_series(values, grid, k_max, trig_modes,
                                          lambda mu: np.exp(-mu * t))
    if method == KERNEL:
        row = heat_circle(t, l_max=l_max).row(grid)
        # circulant embedding of the Toeplitz matrix, first column c_0 ..
        # c_{n-1}, zeros, c_{n-1} .. c_1, of a power-of-two length: numpy's
        # FFT takes up to 10x longer on lengths with large prime factors
        size = 1 << (2 * grid.n - 2).bit_length()
        column = np.zeros(size)
        column[:grid.n] = row
        column[size - grid.n + 1:] = row[:0:-1]
        image = np.fft.rfft(column) * np.fft.rfft(grid.weights * values, size)
        return np.fft.irfft(image, size)[:grid.n]
    raise ValueError(f"unknown method {method!r}")


def random_trig_sample(grid: Grid, modes: int = 5, seed: int = 0) -> np.ndarray:
    """Seeded random 1-periodic function: constant plus `modes` cos/sin pairs."""
    if modes < 1:
        raise ValueError(f"modes must be >= 1, got {modes}")
    rng = np.random.default_rng(seed)
    # the same stream as drawing the constant, then a_k and b_k in turn
    draws = rng.standard_normal(2 * modes + 1)
    rows = trig_modes(np.arange(1, modes + 1), grid.nodes)[1]
    rows *= draws[1:, None]
    return draws[0] + rows.sum(axis=0)


@dataclass(frozen=True)
class HeatTraceReport:
    spectral_side: float
    kernel_side: float
    residual: float


def heat_trace_check(t: float, grid: Grid) -> HeatTraceReport:
    """Semigroup trace two ways: eigenvalue sum vs periodized-kernel diagonal.

    spectral_side sums exp(-4 pi^2 k^2 t) over all integers (truncated as
    in theta; note this is theta(4 pi t)); kernel_side is the quadrature
    of the periodized kernel diagonal, which is constant in x, so the
    residual probes the theta transformation identity itself.
    """
    _check_heat_time(t)
    spectral_side = theta(4.0 * math.pi * t).value
    kernel_side = diagonal_trace(heat_circle(t), grid)
    return HeatTraceReport(spectral_side=spectral_side, kernel_side=kernel_side,
                           residual=abs(spectral_side - kernel_side))


def trace_sweep_to_csv(ts, reports, path) -> None:
    """Write heat-trace results as CSV rows t,lhs,rhs,residual."""
    write_csv(path, ("t", "lhs", "rhs", "residual"),
              (ts, [r.spectral_side for r in reports], [r.kernel_side for r in reports],
               [r.residual for r in reports]))
