"""Symmetric integral kernels on the unit square.

Built-in kernels: the Dirichlet Green function of -u'' on [0,1], the
Gaussian heat kernel on the line, its 1-periodization, and tabulated
kernels sampled on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fileio import read_csv, write_csv
from .quadrature import MIDPOINT, TRAPEZOID, Grid, _check_sampled, integrate, make_grid

GREEN = "green-dirichlet"
HEAT_LINE = "heat-line"
HEAT_CIRCLE = "heat-circle"
TABULATED = "tabulated"

# Cap on the images per side of the periodized heat kernel, which the default
# truncation reaches near t = 4e4, where the kernel is constant to double precision
_MAX_IMAGES = 10**4


def eval_green(x, y):
    """Green function of -u'' with u(0)=u(1)=0: x(1-y) for x <= y, else y(1-x).

    Continuous on the square, vanishes on its boundary, symmetric; the
    diagonal carries a kink (C0 but not C1 across x = y).
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if np.any(xv < 0.0) or np.any(xv > 1.0) or np.any(yv < 0.0) or np.any(yv > 1.0):
        raise ValueError("green kernel arguments must lie in [0,1]")
    out = np.where(xv <= yv, xv * (1.0 - yv), yv * (1.0 - xv))
    return float(out) if out.ndim == 0 else out


def eval_heat(t: float, x, y):
    """Heat kernel on the line: exp(-(x-y)^2 / 4t) / sqrt(4 pi t)."""
    if t <= 0.0:
        raise ValueError(f"heat kernel needs t > 0, got {t}")
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    out = np.exp(-((xv - yv) ** 2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    return float(out) if out.ndim == 0 else out


def default_heat_truncation(t: float, eps: float = 1e-16) -> int:
    """Periodization cutoff ceil(1 + 8 sqrt(t) sqrt(-ln eps)).

    Chosen so the dropped Gaussian tail is far below eps; see
    periodic_tail_bound for the bound actually guaranteed.
    """
    if t <= 0.0:
        raise ValueError(f"needs t > 0, got {t}")
    return math.ceil(1.0 + 8.0 * math.sqrt(t) * math.sqrt(-math.log(eps)))


def periodic_tail_bound(t: float, l_max: int) -> float:
    """Bound on the truncation error of the periodized heat kernel.

    For x, y in [0,1] the dropped terms have |x - y - l| >= |l| - 1, so the
    tail is at most 2 * K_t(0, l_max) * (1 + 2t / l_max), using the integral
    comparison sum_{m >= M} exp(-m^2/4t) <= exp(-M^2/4t) (1 + 2t/M).
    """
    if l_max < 1:
        raise ValueError(f"needs l_max >= 1, got {l_max}")
    return 2.0 * eval_heat(t, 0.0, float(l_max)) * (1.0 + 2.0 * t / l_max)


def eval_heat_periodic(t: float, x, y, l_max: int):
    """1-periodized heat kernel: sum of K_t(x, y + l) over |l| <= l_max."""
    if t <= 0.0:
        raise ValueError(f"heat kernel needs t > 0, got {t}")
    if l_max < 1:
        raise ValueError(f"periodization needs l_max >= 1, got {l_max}")
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast(xv, yv).shape)
    for ell in range(-l_max, l_max + 1):
        out += np.exp(-((xv - yv - ell) ** 2) / (4.0 * t))
    out /= math.sqrt(4.0 * math.pi * t)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """An evaluable symmetric kernel; use the factory helpers below.

    Tabulated kernels carry the grid they were sampled on; evaluating them
    off-grid falls back to bilinear interpolation and is only approximate.
    """

    kind: str
    t: float | None = None
    l_max: int | None = None
    values: np.ndarray | None = None
    grid: Grid | None = None

    def __post_init__(self):
        if self.kind == GREEN:
            pass
        elif self.kind in (HEAT_LINE, HEAT_CIRCLE):
            if self.t is None or self.t <= 0.0:
                raise ValueError(f"{self.kind} requires t > 0, got {self.t}")
            if self.kind == HEAT_CIRCLE:
                if self.l_max is None or not 1 <= self.l_max <= _MAX_IMAGES:
                    raise ValueError(f"{self.kind} at t={self.t} requires 1 <= l_max <= "
                                     f"{_MAX_IMAGES} images per side, got {self.l_max}")
        elif self.kind == TABULATED:
            if self.values is None or self.grid is None:
                raise ValueError("tabulated kernel requires values and their grid")
            vals = np.asarray(self.values, dtype=float)
            n = self.grid.n
            if vals.shape != (n, n):
                raise ValueError(f"tabulated values must be {n}x{n}, got {vals.shape}")
            asym = float(np.abs(vals - vals.T).max())
            if asym > 1e-12:
                raise ValueError(f"tabulated kernel is asymmetric by {asym:.3e}")
            vals = 0.5 * (vals + vals.T)
            vals.setflags(write=False)
            object.__setattr__(self, "values", vals)
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")

    def evaluate(self, x, y):
        """Kernel value(s) at (x, y); accepts scalars or broadcastable arrays."""
        if self.kind == GREEN:
            return eval_green(x, y)
        if self.kind == HEAT_LINE:
            return eval_heat(self.t, x, y)
        if self.kind == HEAT_CIRCLE:
            return eval_heat_periodic(self.t, x, y, self.l_max)
        return self._interpolate(x, y)

    def _interpolate(self, x, y):
        nodes = self.grid.nodes
        scalar = np.asarray(x).ndim == 0 and np.asarray(y).ndim == 0
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        yv = np.atleast_1d(np.asarray(y, dtype=float))
        xv, yv = np.broadcast_arrays(xv, yv)
        ix = np.clip(np.searchsorted(nodes, xv) - 1, 0, len(nodes) - 2)
        iy = np.clip(np.searchsorted(nodes, yv) - 1, 0, len(nodes) - 2)
        sx = (xv - nodes[ix]) / (nodes[ix + 1] - nodes[ix])
        sy = (yv - nodes[iy]) / (nodes[iy + 1] - nodes[iy])
        sx = np.clip(sx, 0.0, 1.0)
        sy = np.clip(sy, 0.0, 1.0)
        v = self.values
        out = ((1 - sx) * (1 - sy) * v[ix, iy]
               + sx * (1 - sy) * v[ix + 1, iy]
               + (1 - sx) * sy * v[ix, iy + 1]
               + sx * sy * v[ix + 1, iy + 1])
        return float(out[0]) if scalar else out

    def row(self, grid: Grid) -> np.ndarray:
        """Heat kernel values k(x_m, x_0), m = 0..n-1, on a uniform grid.

        A heat kernel depends only on x - y, so on nodes x_0 + i h its
        matrix is the symmetric Toeplitz matrix of this row.  Kernels
        narrower than the grid are refused: below a standard deviation
        sqrt(2t) of one node spacing the samples no longer represent the
        kernel, and spectral and kernel heat flow part ways.
        """
        if self.kind not in (HEAT_LINE, HEAT_CIRCLE):
            raise ValueError(f"{self.kind} kernel is not a function of x - y")
        if math.sqrt(2.0 * self.t) < grid.spacing:
            raise ValueError(f"{self.kind} kernel at t={self.t} is narrower than the grid "
                             f"spacing {grid.spacing:.3g}; needs t >= spacing^2 / 2")
        return np.asarray(self.evaluate(grid.nodes - grid.nodes[0], 0.0))

    def matrix(self, grid: Grid) -> np.ndarray:
        """Kernel sampled at all node pairs of the given grid.

        Heat kernels gather their row into the Toeplitz matrix c[|i - j|],
        which is exactly symmetric; see `row` for what they refuse.
        """
        if self.kind == TABULATED and np.array_equal(grid.nodes, self.grid.nodes):
            return self.values
        if self.kind in (HEAT_LINE, HEAT_CIRCLE):
            row = self.row(grid)
            # window s of [c_{n-1}, ..., c_1, c_0, c_1, ..., c_{n-1}] is row n-1-s
            return sliding_window_view(np.concatenate((row[:0:-1], row)), grid.n)[::-1].copy()
        X, Y = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
        return np.asarray(self.evaluate(X, Y))


def green_dirichlet() -> KernelSpec:
    return KernelSpec(kind=GREEN)


def heat_line(t: float) -> KernelSpec:
    return KernelSpec(kind=HEAT_LINE, t=t)


def heat_circle(t: float, l_max: int | None = None) -> KernelSpec:
    if l_max is None:
        l_max = default_heat_truncation(t)
    return KernelSpec(kind=HEAT_CIRCLE, t=t, l_max=l_max)


def tabulated(values: np.ndarray, grid: Grid) -> KernelSpec:
    return KernelSpec(kind=TABULATED, values=values, grid=grid)


def apply_kernel(spec: KernelSpec, f: np.ndarray, grid: Grid) -> np.ndarray:
    """Image of f under the kernel: (Gf)(x_i) = sum_j w_j k(x_i, x_j) f_j."""
    values = _check_sampled(f, grid)
    kmat = spec.matrix(grid)
    return kmat @ (grid.weights * values)


def diagonal_trace(spec: KernelSpec, grid: Grid) -> float:
    """Quadrature of the kernel diagonal x -> k(x, x)."""
    diag = np.asarray(spec.evaluate(grid.nodes, grid.nodes))
    return integrate(diag, grid)


def kernel_to_csv(spec: KernelSpec, path) -> None:
    """Save a tabulated kernel as a matrix CSV bordered by its grid nodes."""
    if spec.kind != TABULATED:
        raise ValueError("only tabulated kernels serialize to CSV")
    nodes = spec.grid.nodes
    header = ["node", *nodes]
    rows = [[x, *row] for x, row in zip(nodes, spec.values)]
    write_csv(path, header, rows)


def kernel_from_csv(path) -> KernelSpec:
    """Load a tabulated kernel; the grid kind is inferred from the nodes."""
    header, rows = read_csv(path)
    nodes = np.array([float(c) for c in header[1:]])
    values = np.array([row[1:] for row in rows], dtype=float)
    n = len(nodes)
    for kind in (TRAPEZOID, MIDPOINT):
        candidate = make_grid(kind, n)
        if np.allclose(candidate.nodes, nodes, rtol=0.0, atol=1e-12):
            return tabulated(values, candidate)
    raise ValueError("CSV nodes match neither uniform grid kind")
