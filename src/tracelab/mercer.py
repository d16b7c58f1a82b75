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

from . import sturm
from .fileio import write_json
from .kernels import eval_green
from .quadrature import Grid, integrate

# Basel terms per chunk, and the work cap on k_max: 10**8 terms take about
# 0.33 s on a 2-vCPU machine, so the cap is about 3 s of work
_BASEL_CHUNK = 2**16
_MAX_BASEL_TERMS = 10**9
# Work cap on the k_max x lattice_n mode samples of the reconstruction
_MAX_MODE_VALUES = 10**8


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
    added exactly by math.fsum, so the float error stays near eps.
    """
    if k_max > _MAX_BASEL_TERMS:
        raise ValueError(f"k_max={k_max} exceeds the cap of {_MAX_BASEL_TERMS:.0e} "
                         "terms of the Basel sum")
    chunks = (np.arange(last, max(last - _BASEL_CHUNK, 0), -1, dtype=float)
              for last in range(k_max, 0, -_BASEL_CHUNK))
    return math.fsum(float(np.sum(1.0 / (ks * ks))) for ks in chunks)


def mercer_reconstruct(k_max: int, lattice_n: int) -> MercerReport:
    """Compare the truncated eigen-series with the Green kernel on a lattice.

    sup_error is the max over a lattice_n x lattice_n uniform lattice of
    the absolute truncation error; since the modes are bounded by sqrt(2),
    the dropped tail is pointwise at most 2/(pi^2 k_max).  The series is
    accumulated over blocks of at most sturm._BLOCK_VALUES mode samples,
    and k_max * lattice_n is capped at _MAX_MODE_VALUES.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if lattice_n < 2:
        raise ValueError(f"lattice_n must be >= 2, got {lattice_n}")
    if k_max * lattice_n > _MAX_MODE_VALUES:
        raise ValueError(f"k_max={k_max} and lattice_n={lattice_n} need "
                         f"{k_max * lattice_n:.3g} sampled mode values; "
                         f"the cap is {_MAX_MODE_VALUES:.0e}")
    xs = np.linspace(0.0, 1.0, lattice_n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    target = eval_green(X, Y)
    step = max(1, sturm._BLOCK_VALUES // lattice_n)
    series = np.zeros_like(target)
    for first in range(1, k_max + 1, step):
        mu, modes = sturm.sine_modes(np.arange(first, min(first + step, k_max + 1)), xs)
        series += (modes.T / mu) @ modes
    sup_error = float(np.abs(target - series).max())
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


@dataclass(frozen=True)
class ExchangeReport:
    """Both orders of summing/integrating the truncated diagonal series."""

    integral_of_sum: float
    sum_of_integrals: float
    diff: float


def trace_chain_check(k_max: int, grid: Grid) -> ExchangeReport:
    """Swap integral and (finite) sum over lam_k f_k(x)^2 and compare.

    integral_of_sum integrates the pointwise-truncated series once;
    sum_of_integrals integrates each mode separately and sums.  Finite
    sums commute with the quadrature exactly, so diff exposes only
    floating-point summation-order effects.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    mu, modes = sturm.sine_modes(np.arange(1, k_max + 1), grid.nodes)
    terms = modes**2 / mu[:, None]
    integral_of_sum = integrate(terms.sum(axis=0), grid)
    sum_of_integrals = float(np.sum((terms * grid.weights).sum(axis=1)[::-1]))
    return ExchangeReport(
        integral_of_sum=integral_of_sum,
        sum_of_integrals=sum_of_integrals,
        diff=abs(integral_of_sum - sum_of_integrals),
    )


def report_to_json(report: MercerReport, path) -> None:
    write_json(path, asdict(report))
