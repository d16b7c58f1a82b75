"""The two-point boundary value problem -u'' = f, u(0) = u(1) = 0.

Solved two independent ways: directly via the split form of the Green
integral (cumulative trapezoid sums, O(n)), and spectrally through the
sine eigenbasis.  Their agreement for arbitrary continuous data is the
point of the exercise; each solver is the oracle for the other.

The analytic eigendata of -d^2/dx^2 on [0,1] live here alone: `sine_modes`
(Dirichlet) and `trig_modes` (periodic) return mu_k and the sampled modes
for an index array, and every gain (1/mu, exp(-mu t)) is computed from
those mu.  `filtered_series` projects onto the modes, applies the gain and
resums with one real FFT on the uniform grid: the modes are exponentials
e^{i nu k x}, which on nodes x0 + i h are DFT columns, so neither the mode
matrix nor a block of it is ever formed.
"""

from __future__ import annotations

import math

import numpy as np

from . import _count
from .fileio import write_csv
from .quadrature import Grid, _check_sampled

# Block size of the gain fold below: 2**18 float64 gains are 2 MiB
_BLOCK_VALUES = 2**18
# The sine modes of each `random_fourier_sum`
FOURIER_MODES = 30
# Work cap on k_max, checked before the work starts: folding 10**8 gains
# takes 1 s (1/mu) to 4 s (exp) on a 2-vCPU machine; the transforms add
# O(n log n), so n does not enter the cap
_MAX_MODES = 10**8


def sine_modes(k, x) -> tuple[np.ndarray, np.ndarray]:
    """Dirichlet eigenvalues mu = (pi k)^2 and rows sqrt(2) sin(k pi x), for k >= 1."""
    k = np.asarray(k, dtype=float)
    rows = np.multiply.outer(k * math.pi, x)
    np.sin(rows, out=rows)
    rows *= math.sqrt(2.0)
    return math.pi**2 * k**2, rows


def trig_modes(k, x) -> tuple[np.ndarray, np.ndarray]:
    """Periodic eigenvalues mu = 4 pi^2 k^2 and rows sqrt(2) cos, sin(2 pi k x).

    The rows alternate cos, sin for each k >= 1 and each mu is repeated to
    match; the constant mode (mu = 0) is left to the caller as the mean.
    """
    k = np.asarray(k, dtype=float)
    phase = np.multiply.outer(2.0 * math.pi * k, x)
    rows = np.stack((np.cos(phase), np.sin(phase)), axis=1).reshape(2 * len(k), -1)
    rows *= math.sqrt(2.0)
    return np.repeat(4.0 * math.pi**2 * k**2, 2), rows


def _folded_gains(mu_1: float, k_max: int, size: int, gain) -> np.ndarray:
    """gain(mu_k) for k = 1..k_max, mu_k = mu_1 k^2, summed into bins k mod size.

    The gains are made and folded in blocks of _BLOCK_VALUES, so memory
    does not grow with k_max, and k_max is capped at _MAX_MODES.  `gain`
    must map mu to values that are >= 0 and nonincreasing in mu, as 1/mu
    and exp(-mu t) are: the fold stops after the first block that ends in
    a gain of exactly 0, since every later gain is 0 too.
    """
    k_max = _count("k_max", k_max, 1, _MAX_MODES)
    bins = np.zeros(size)
    for first in range(1, k_max + 1, _BLOCK_VALUES):
        k = np.arange(first, min(first + _BLOCK_VALUES, k_max + 1))
        gains = gain(mu_1 * k.astype(float) ** 2)  # the mu of the mode families, bit for bit
        bins += np.bincount(k % size, weights=gains, minlength=size)
        if gains[-1] == 0.0:
            break
    return bins


def filtered_series(values: np.ndarray, grid: Grid, k_max: int, modes, gain) -> np.ndarray:
    """Sum of gain(mu) <values, phi> phi over the rows phi of modes(1..k_max, x).

    The inner products use the grid weights.  Both families are made of
    e^{i nu k x} with mu_k = (nu k)^2.  On nodes x_i = x0 + i h this is
    e^{i nu k x0} w^{k i} with w = e^{2 pi i / M} and M = 2 pi / (nu h), so
    the projections are one real FFT of the weighted samples, zero-padded
    or folded to length M, and the resummation is one inverse real FFT.
    On the grid, modes k + M and M - k take the values of mode k up to a
    sign, which projection and resummation square away.  So the gains are
    first summed into bins k mod M: the result is the mode sum for every
    k_max, also k_max >= n, where the modes alias.  M and 2 x0 / h are
    whole numbers on both grid kinds.  `gain` is folded by `_folded_gains`,
    which states what it must satisfy.
    """
    periodic = modes is trig_modes  # cos and sin rows; sine_modes has sin rows only
    mu_1 = float(modes([1], grid.nodes[:0])[0][0])
    nu = math.sqrt(mu_1)
    h, x0 = grid.spacing, float(grid.nodes[0])
    size = round(2.0 * math.pi / (nu * h))
    bins = _folded_gains(mu_1, k_max, size, gain)
    half = np.arange(size // 2 + 1)
    folded = bins[half] + bins[-half % size]
    weighted = np.bincount(np.arange(grid.n) % size, weights=grid.weights * values,
                           minlength=size)
    phase = np.exp(1j * nu * x0 * half)
    # sum_i weighted_i e^{-i nu s x_i}: its real part projects on cos, its
    # imaginary part on -sin
    projection = np.fft.rfft(weighted) * phase.conj()
    if not periodic:
        projection.real = 0.0
    return np.resize(np.fft.irfft(size * folded * phase * projection, size), grid.n)


def _cumulative_trapezoid(values: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    increments = 0.5 * (values[1:] + values[:-1]) * np.diff(nodes)
    out = np.empty_like(values)
    out[0] = 0.0
    np.cumsum(increments, out=out[1:])
    return out


def solve_direct(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Solve -u'' = f, u(0)=u(1)=0 via the split Green-integral form.

    u(x) = (1-x) * int_0^x y f(y) dy + x * int_x^1 (1-y) f(y) dy, evaluated
    with cumulative trapezoid sums: O(n) work and exactly zero boundary
    values whenever the grid includes the endpoints.
    """
    values = _check_sampled(f, grid)
    x = grid.nodes
    lower = _cumulative_trapezoid(x * values, x)
    upper_from_zero = _cumulative_trapezoid((1.0 - x) * values, x)
    upper = upper_from_zero[-1] - upper_from_zero
    return (1.0 - x) * lower + x * upper


def solve_spectral(f: np.ndarray, grid: Grid, k_max: int) -> np.ndarray:
    """Solve the same problem by sine-series truncation.

    Projects f on the first k_max Dirichlet modes with the discrete inner
    product, scales coefficient k by 1/mu_k = 1/(pi k)^2, and resums on the
    grid.
    """
    values = _check_sampled(f, grid)
    return filtered_series(values, grid, k_max, sine_modes, lambda mu: 1.0 / mu)


def random_fourier_sum(grid: Grid, seed: int = 0) -> np.ndarray:
    """Seeded random smooth function: FOURIER_MODES sines with 1/k^2 coefficient decay."""
    rng = np.random.default_rng(_count("seed", seed, 0))
    k = np.arange(1, FOURIER_MODES + 1)
    coeffs = rng.standard_normal(FOURIER_MODES) / k**2
    rows = sine_modes(k, grid.nodes)[1]
    rows *= coeffs[:, None]
    return rows.sum(axis=0)


def residual_check(u: np.ndarray, f: np.ndarray, grid: Grid) -> float:
    """Second-order finite-difference verification of -u'' = f.

    Max over interior nodes of |-(u_{i-1} - 2 u_i + u_{i+1})/h^2 - f_i|
    plus the absolute boundary values of u.  Requires at least 5 nodes.
    """
    uv = _check_sampled(u, grid, name="u")
    fv = _check_sampled(f, grid)
    if grid.n < 5:
        raise ValueError(f"residual check needs n >= 5, got {grid.n}")
    h = grid.spacing
    laplacian = (uv[:-2] - 2.0 * uv[1:-1] + uv[2:]) / h**2
    interior = float(np.abs(-laplacian - fv[1:-1]).max())
    return interior + abs(float(uv[0])) + abs(float(uv[-1]))


def solution_to_csv(grid: Grid, u: np.ndarray, f: np.ndarray, path) -> None:
    """Write a solved problem as CSV rows node,u,f."""
    write_csv(path, ("node", "u", "f"), (grid.nodes, u, f))
