"""Symmetric integral kernels on the unit square, one class per kind.

The Dirichlet Green function of -u'' on [0,1], the 1-periodized Gaussian
heat kernel, and tabulated kernels, which are defined on the nodes of the
grid they were sampled on and nowhere else; made by the factories below.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fileio import read_csv
from .linalg import SymMatrix, row_blocks
from .quadrature import MIDPOINT, TRAPEZOID, Grid, integrate, make_grid

# Tail tolerance of the default heat-kernel truncation
_HEAT_EPS = 1e-16
# Cap on the images per side of the periodized heat kernel, which the default
# truncation reaches near t = 4.2e4, where the kernel is constant to double precision
_MAX_IMAGES = 10**4
# Largest max|T - JTJ| of a reflective table per u max|T|: Green's reach 5, heat-circle's 0
_REFLECTION_ODD_TOL = 16.0 * 2.0**-53


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


def _check_heat_time(t: float) -> None:
    if not 0.0 < t < math.inf:  # NaN too
        raise ValueError(f"needs t > 0 and finite, got {t}")


def default_heat_truncation(t: float) -> int:
    """Periodization cutoff ceil(1 + 8 sqrt(t) sqrt(-ln eps)), eps = _HEAT_EPS.

    Chosen so the dropped Gaussian tail is far below eps; see
    periodic_tail_bound for the bound actually guaranteed.
    """
    _check_heat_time(t)
    return math.ceil(1.0 + 8.0 * math.sqrt(t) * math.sqrt(-math.log(_HEAT_EPS)))


def periodic_tail_bound(t: float, l_max: int) -> float:
    """Bound on the truncation error of the periodized heat kernel.

    For x, y in [0,1] the dropped terms have |x - y - l| >= |l| - 1, so the
    tail is at most 2 * K_t(0, l_max) * (1 + 2t / l_max), using the integral
    comparison sum_{m >= M} exp(-m^2/4t) <= exp(-M^2/4t) (1 + 2t/M).
    """
    _check_heat_time(t)
    if l_max < 1:
        raise ValueError(f"needs l_max >= 1, got {l_max}")
    gaussian = float(np.exp(-float(l_max) ** 2 / (4.0 * t)) / math.sqrt(4.0 * math.pi * t))
    return 2.0 * gaussian * (1.0 + 2.0 * t / l_max)


def eval_heat_periodic(t: float, x, y, l_max: int):
    """1-periodized heat kernel: sum of K_t(x, y + l) over |l| <= l_max.

    Summed in place by blocks of about 2**16 images below their running sum.
    """
    _check_heat_time(t)
    if l_max < 1:
        raise ValueError(f"periodization needs l_max >= 1, got {l_max}")
    gaps = np.subtract(x, y, dtype=float)
    # np.add.reduce adds the rows of two or more columns in turn, with the bits
    # of a loop over l, but one column pairwise: a lone column gets a twin
    columns = np.resize(gaps, max(gaps.size, 2))
    blocks = row_blocks(2 * l_max + 1, columns.size)
    work = np.zeros((blocks[0].stop + 1, columns.size))
    for rows in blocks:
        terms = work[1:rows.stop - rows.start + 1]
        np.subtract(columns, np.arange(rows.start - l_max, rows.stop - l_max)[:, None], out=terms)
        np.divide(np.square(terms, out=terms), -4.0 * t, out=terms)  # -(d^2) / (4t), bit for bit
        np.exp(terms, out=terms)
        work[0] = np.add.reduce(work[:len(terms) + 1])
    out = work[0, :gaps.size].reshape(gaps.shape) / math.sqrt(4.0 * math.pi * t)
    return float(out) if out.ndim == 0 else out


class KernelSpec:
    """A symmetric kernel sampled on grids; one subclass per kind.

    Every kind samples finite values, and `nystrom.discretize` checks none:
    Green on [0,1]^2, heat-circle for 0 < t < inf and 1 <= l_max <= 10**4
    (at t >= 1e308 sqrt(4 pi t) overflows and the samples are 0), and a
    table because it is checked when made, refused for a non-finite entry
    or an asymmetry above 1e-12 of its largest |entry|.

    `reflective` says that each Nystrom matrix B equals JBJ to round-off,
    J reversing the node order, and that the pad -4h max|B| of
    `linalg._fold_halves` is finite: Green and heat-circle on both grids,
    a table where max|T - JTJ| <= 16u max|T| and 4n max|T| is finite.
    """

    reflective = True

    def matrix(self, grid: Grid) -> np.ndarray:
        """Kernel sampled at all node pairs of the given grid.

        Green fills one new n x n array, heat-circle returns a read-only
        Toeplitz view of its `row`, and a table its read-only table, for
        its own grid only.
        """
        # no kind overrides matrix, so perfbench's one wrap of it sees every kind
        return self._matrix(grid)

    def diag(self, grid: Grid) -> np.ndarray:
        """The kernel on the node pairs (x_i, x_i): the diagonal of `matrix`."""
        # a contiguous copy: np.dot sums a strided view in another order
        return np.diagonal(self.matrix(grid)).copy()

    def sampler(self, grid: Grid) -> Callable[[slice, np.ndarray], np.ndarray]:
        """Function of a row slice and a buffer that returns those rows of `matrix(grid)`.

        Unless a kind forms its rows in the buffer, `matrix` is called once
        and read-only views of it are returned, leaving the buffer alone.
        """
        table = self.matrix(grid)
        return lambda rows, out: table[rows]


class GreenDirichlet(KernelSpec):
    """The Green function of -u'' with u(0) = u(1) = 0; see `eval_green`."""

    kind = "green-dirichlet"

    def _matrix(self, grid: Grid) -> np.ndarray:
        out = np.empty((grid.n, grid.n))
        for rows in row_blocks(grid.n):
            _green_rows(grid.nodes, rows, out=out[rows])
        return out

    def diag(self, grid: Grid) -> np.ndarray:
        return grid.nodes * (1.0 - grid.nodes)

    def sampler(self, grid: Grid) -> Callable[[slice, np.ndarray], np.ndarray]:
        # formed in the buffer, so no n x n array is made
        return functools.partial(_green_rows, grid.nodes)


class HeatCircle(KernelSpec):
    """The heat kernel at time t on the circle, summed over l_max images per side."""

    kind = "heat-circle"

    def __init__(self, t: float, l_max: int):
        _check_heat_time(t)
        self.t, self.l_max = t, operator.index(l_max)
        if not 1 <= self.l_max <= _MAX_IMAGES:
            raise ValueError(f"{self.kind} at t={t} requires 1 <= l_max <= "
                             f"{_MAX_IMAGES} images per side, got {l_max}")

    def row(self, grid: Grid) -> np.ndarray:
        """Heat kernel values k(x_m, x_0), m = 0..n-1, on a uniform grid.

        A heat kernel depends only on x - y, so on nodes x_0 + i h its
        matrix is the symmetric Toeplitz matrix of this row.  Kernels
        narrower than the grid are refused: below a standard deviation
        sqrt(2t) of one node spacing the samples no longer represent the
        kernel, and spectral and kernel heat flow part ways.
        """
        if math.sqrt(2.0 * self.t) < grid.spacing:
            raise ValueError(f"{self.kind} kernel at t={self.t} is narrower than the grid "
                             f"spacing {grid.spacing:.3g}; needs t >= spacing^2 / 2")
        return eval_heat_periodic(self.t, grid.nodes - grid.nodes[0], 0.0, self.l_max)

    def _matrix(self, grid: Grid) -> np.ndarray:
        row = self.row(grid)
        # window s of [c_{n-1}, ..., c_1, c_0, c_1, ..., c_{n-1}] is row n-1-s
        return sliding_window_view(np.concatenate((row[:0:-1], row)), grid.n)[::-1]

    def diag(self, grid: Grid) -> np.ndarray:
        return np.full(grid.n, eval_heat_periodic(self.t, 0.0, 0.0, self.l_max))


class Tabulated(KernelSpec):
    """A kernel table on the nodes of `grid`, symmetrized and checked when made."""

    kind = "tabulated"

    def __init__(self, values: np.ndarray, grid: Grid):
        vals = np.asarray(values, dtype=float)
        n = grid.n
        if vals.shape != (n, n):
            raise ValueError(f"tabulated values must be {n}x{n}, got {vals.shape}")
        # NaN if an entry is
        scale = max(float(vals.max()), -float(vals.min()))
        if not math.isfinite(scale):
            # symmetrization spreads a bad entry to its mirror; name the first
            bad = ~np.isfinite(vals)
            x, y = grid.nodes[np.argwhere(bad | bad.T)[0]].tolist()
            raise ValueError(f"kernel value is not finite at nodes ({x!r}, {y!r})")
        table = SymMatrix(entries=vals)
        if table.asymmetry > 1e-12 * scale:
            raise ValueError(f"tabulated kernel is asymmetric by {table.asymmetry:.3e}, "
                             f"above 1e-12 of its largest value {scale:.3e}")
        self.values, self.grid = table.entries, grid
        # rows before the centre against their mirrors; the centre row is a column
        self.reflective = math.isfinite(4.0 * n * scale) and all(
            np.abs(table.entries[r] - table.entries[::-1, ::-1][r]).max()
            <= _REFLECTION_ODD_TOL * scale for r in row_blocks(n // 2, n))

    def _matrix(self, grid: Grid) -> np.ndarray:
        if grid != self.grid:
            raise ValueError("a tabulated kernel is defined on the nodes of its own grid only")
        return self.values


def _green_rows(nodes: np.ndarray, rows: slice, out: np.ndarray) -> np.ndarray:
    """eval_green on the node pairs of the given rows, into out.

    min(x, y) (1 - max(x, y)) is x(1-y) for x <= y and y(1-x) otherwise,
    rounded the same way.
    """
    block = np.maximum.outer(nodes[rows], nodes, out=out)
    np.subtract(1.0, block, out=block)
    block *= np.minimum.outer(nodes[rows], nodes)
    return block


def green_dirichlet() -> KernelSpec:
    return GreenDirichlet()


def heat_circle(t: float, l_max: int | None = None) -> KernelSpec:
    if l_max is None:
        l_max = default_heat_truncation(t)
        if l_max > _MAX_IMAGES:
            # the largest t whose default truncation stays within the cap
            t_cap = ((_MAX_IMAGES - 1) / (8.0 * math.sqrt(-math.log(_HEAT_EPS)))) ** 2
            raise ValueError(f"{HeatCircle.kind} at t={t} needs more than {_MAX_IMAGES} images "
                             f"per side; the cap allows t <= {t_cap:.3g}")
    return HeatCircle(t, l_max)


def tabulated(values: np.ndarray, grid: Grid) -> KernelSpec:
    return Tabulated(values, grid)


def diagonal_trace(spec: KernelSpec, grid: Grid) -> float:
    """Quadrature of the kernel diagonal x -> k(x, x)."""
    return integrate(spec.diag(grid), grid)


def kernel_from_csv(path) -> KernelSpec:
    """Load a tabulated kernel; its nodes label the columns and rows and fix the grid."""
    header, table = read_csv(path)
    nodes = np.array([float(c) for c in header[1:]])
    n = len(nodes)
    for kind in (TRAPEZOID, MIDPOINT):
        candidate = make_grid(kind, n)
        if np.allclose(candidate.nodes, nodes, rtol=0.0, atol=1e-12):
            # the row labels, before tabulated refuses a table that is not n x n
            ok = np.isclose(table[:n, 0], nodes[:len(table)], rtol=0.0, atol=1e-12)
            if not ok.all():
                raise ValueError(f"{path}: row {ok.argmin() + 1} is not labelled with its node")
            return tabulated(table[:, 1:], candidate)
    raise ValueError(f"{path}: CSV nodes match neither uniform grid kind")
