"""Quadrature grids on [0,1] and the induced inner product.

Sampled functions are plain numpy arrays of node values; every operation
downstream of this module exchanges functions in that form so results can
be reproduced exactly from CSV dumps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


TRAPEZOID = "uniform-trapezoid"
MIDPOINT = "uniform-midpoint"

GRID_KINDS = (TRAPEZOID, MIDPOINT)


@dataclass(frozen=True, eq=False)
class Grid:
    """Quadrature nodes and positive weights on [0,1].

    Weights integrate the constant 1 exactly (up to round-off), so
    ``integrate(f, grid)`` is the discrete stand-in for the integral of f
    over the unit interval.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or weights.ndim != 1:
            raise ValueError("nodes and weights must be one-dimensional")
        if len(nodes) != len(weights) or len(nodes) < 2:
            raise ValueError("need matching nodes/weights with at least 2 entries")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if nodes[0] < 0.0 or nodes[-1] > 1.0:
            raise ValueError("nodes must lie in [0,1]")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-14:
            raise ValueError("weights must sum to 1 within 1e-14")
        if self.kind not in GRID_KINDS:
            raise ValueError(f"unknown grid kind {self.kind!r}")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def spacing(self) -> float:
        """Common node spacing (both built-in kinds are uniform)."""
        return float(self.nodes[1] - self.nodes[0])


def make_grid(kind: str, n: int) -> Grid:
    """Build a uniform grid of either kind with n nodes.

    Trapezoid: nodes i/(n-1) with half weights at the endpoints.
    Midpoint: nodes (i+1/2)/n, constant weights 1/n (no endpoint nodes,
    which suits periodic sampling and kernels awkward at the boundary).
    """
    if n < 2:
        raise ValueError(f"grid needs n >= 2, got {n}")
    if kind == TRAPEZOID:
        h = 1.0 / (n - 1)
        nodes = np.linspace(0.0, 1.0, n)
        weights = np.full(n, h)
        weights[0] = weights[-1] = h / 2.0
    elif kind == MIDPOINT:
        nodes = (np.arange(n) + 0.5) / n
        weights = np.full(n, 1.0 / n)
    else:
        raise ValueError(f"unknown grid kind {kind!r}")
    return Grid(nodes=nodes, weights=weights, kind=kind)


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
