"""Quadrature grids on [0,1] and the induced inner product.

Sampled functions are plain numpy arrays of node values; every operation
downstream of this module exchanges functions in that form so results can
be reproduced exactly from CSV dumps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _count

TRAPEZOID = "uniform-trapezoid"
MIDPOINT = "uniform-midpoint"
# Cap on the nodes, as on the CLI's sampled values: a grid of 10**7 nodes
# holds 160 MB of nodes and weights
_MAX_NODES = 10**7


@dataclass(frozen=True)
class Grid:
    """A uniform quadrature rule on [0,1], given by its kind and its size n.

    Trapezoid: nodes i/(n-1) with half weights at the endpoints.
    Midpoint: nodes (i+1/2)/n, constant weights 1/n (no endpoint nodes,
    which suits periodic sampling and kernels awkward at the boundary).
    The read-only nodes and weights follow from (kind, n), and so does
    equality.  Weights integrate the constant 1 exactly (up to round-off),
    so ``integrate(f, grid)`` is the discrete stand-in for the integral of
    f over the unit interval.
    """

    kind: str
    n: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = _count("n", self.n, 2, _MAX_NODES)
        if self.kind == TRAPEZOID:
            h = 1.0 / (n - 1)
            nodes = np.linspace(0.0, 1.0, n)
            weights = np.full(n, h)
            weights[0] = weights[-1] = h / 2.0
        elif self.kind == MIDPOINT:
            nodes = (np.arange(n) + 0.5) / n
            weights = np.full(n, 1.0 / n)
        else:
            raise ValueError(f"unknown grid kind {self.kind!r}")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def spacing(self) -> float:
        """Common spacing h of the nodes x_0 + i h."""
        return float(self.nodes[1] - self.nodes[0])


def make_grid(kind: str, n: int) -> Grid:
    """The grid of the given kind with n nodes; see `Grid`."""
    return Grid(kind, n)


def _check_sampled(f: np.ndarray, grid: Grid, name: str = "f") -> np.ndarray:
    values = np.asarray(f, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ValueError(
            f"{name} has {values.shape[0] if values.ndim == 1 else values.shape} "
            f"values but the grid has {grid.n} nodes"
        )
    return values


def integrate(f: np.ndarray, grid: Grid) -> float:
    """Weighted sum of node values: the quadrature for the integral of f."""
    values = _check_sampled(f, grid)
    return float(np.dot(grid.weights, values))


def inner_product(f: np.ndarray, g: np.ndarray, grid: Grid) -> float:
    """Discrete L2 inner product: integral of the pointwise product f*g."""
    fv = _check_sampled(f, grid)
    gv = _check_sampled(g, grid, name="g")
    return float(np.dot(grid.weights, fv * gv))
