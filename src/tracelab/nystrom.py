"""Nystrom discretization: kernel + grid -> symmetric matrix -> spectrum.

The discretization is the symmetrized variant B = D K D with D =
diag(sqrt(w)): B stays exactly symmetric, its eigenvalues approximate the
operator eigenvalues, and its trace equals the quadrature of the kernel
diagonal by construction — which is what makes the trace-formula check an
exact discrete identity up to eigensolver round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import write_csv
from .kernels import KernelSpec, diagonal_trace
from .linalg import (
    Halves,
    SymMatrix,
    _fold_halves,
    _values,
    eigh_eigen,
    jacobi_eigen,
    row_blocks,
)
from .quadrature import Grid

# above this size the cyclic Jacobi sweeps get slow; hand off to LAPACK
JACOBI_SIZE_LIMIT = 160


def discretize(spec: KernelSpec, grid: Grid, *, split: bool = False) -> SymMatrix | Halves:
    """Symmetrized Nystrom matrix B[i,j] = sqrt(w_i) k(x_i, x_j) sqrt(w_j).

    Every built-in kernel matrix, and a tabulated kernel's symmetrized
    table, equals its transpose bit for bit, and s_i s_j = s_j s_i, so B
    is exactly symmetric as weighted and is adopted without a second
    symmetrizing pass.  The kernel is sampled by row blocks of about 2**16
    entries (see `KernelSpec.sampler`), each weighted as it is read.

    split=True returns B's even and odd reflection halves instead where
    `spec.reflective`, as for Green and heat-circle on both grids: each
    row block and its mirror rows are sampled, weighted and folded
    straight into the (2, h, h) stack, bit for bit the stack
    `linalg._reflection_blocks` folds from B, so B is never made.  Any
    other B, as of a table without the symmetry, is sampled once, whole.

    Memory: B, one n x n float64 buffer, or the halves, half of that, and
    buffers of a few row blocks; a tabulated kernel's read-only table is
    read in place.  `trace-check --n N` holds the halves and LAPACK's
    copy of one of them, and peaks near the interpreter's base plus
    0.75 * 8 N^2 bytes: 90 MiB at N = 3201.
    """
    sample, s = spec.sampler(grid), np.sqrt(grid.weights)

    def weighted(rows, out):
        return np.multiply(sample(rows, out), np.multiply.outer(s[rows], s), out=out)

    if split and spec.reflective:
        return Halves(_fold_halves(weighted, grid.n), grid.n)
    b = np.empty((grid.n, grid.n))
    for rows in row_blocks(grid.n):
        weighted(rows, b[rows])
    return SymMatrix._from_buffer(b)


@dataclass(frozen=True, eq=False)
class OperatorSpectrum:
    """Leading eigenpairs of the discretized operator.

    Eigenfunctions are rows of `eigenfunctions`, sampled on the grid and
    normalized to unit discrete norm; eigenvalues are sorted by descending
    absolute value.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    grid: Grid


def operator_spectrum(spec: KernelSpec, grid: Grid, count: int) -> OperatorSpectrum:
    """Leading `count` eigenpairs of the kernel operator on the grid.

    Jacobi decomposes matrices up to JACOBI_SIZE_LIMIT, LAPACK larger ones.
    Eigenvector samples are un-weighted back to function samples via
    f_k(x_i) = v_ik / sqrt(w_i).  The sign is fixed by making the first
    component above 1e-8 max|f_k| positive: the largest magnitude can be
    reached at nodes of opposite sign, where round-off would pick the sign.
    For the Green kernel this gives the sines' positive slope at x = 0.
    """
    if count < 1 or count > grid.n:
        raise ValueError(f"count must be in [1, {grid.n}], got {count}")
    if grid.n <= JACOBI_SIZE_LIMIT:
        decomposition = jacobi_eigen(discretize(spec, grid))
    else:
        # no name here holds the halves, so eigh_eigen frees them before it unfolds
        decomposition = eigh_eigen(discretize(spec, grid, split=True))
    order = np.argsort(-np.abs(decomposition.values), kind="stable")[:count]
    values = decomposition.values[order]
    functions = decomposition.vectors[:, order].T / np.sqrt(grid.weights)
    magnitudes = np.abs(functions)
    first = (magnitudes > 1e-8 * magnitudes.max(axis=1, keepdims=True)).argmax(axis=1)
    anchors = functions[np.arange(count), first]
    functions[anchors < 0.0] *= -1.0
    return OperatorSpectrum(eigenvalues=values, eigenfunctions=functions, grid=grid)


@dataclass(frozen=True)
class TraceFormulaReport:
    eig_sum: float
    diag_integral: float
    residual: float


def trace_formula_check(spec: KernelSpec, grid: Grid) -> TraceFormulaReport:
    """Sum of all Nystrom eigenvalues against the quadrature of the diagonal.

    The two sides agree exactly through the matrix trace, so the residual
    measures only eigensolver round-off; the interesting quantity is how
    fast diag_integral converges to the continuum value as the grid refines.
    Only eigenvalues are computed: Jacobi values-only on B up to
    JACOBI_SIZE_LIMIT, one LAPACK call above it, on B's even and odd
    halves, sampled without B, where B is reflection-symmetric, and on
    any other B whole.  Jacobi and the whole-matrix LAPACK call remain
    the oracles the split is tested against.
    """
    if grid.n <= JACOBI_SIZE_LIMIT:
        values = jacobi_eigen(discretize(spec, grid), values_only=True)
    else:
        values = _values(discretize(spec, grid, split=True))
    # summed scaled by a power of two, exactly, so that it cannot overflow
    exponent = int(np.frexp(np.abs(values).max())[1])
    eig_sum = float(np.ldexp(np.sum(np.ldexp(values, -exponent)), exponent))
    diag_integral = diagonal_trace(spec, grid)
    return TraceFormulaReport(eig_sum=eig_sum, diag_integral=diag_integral,
                              residual=abs(eig_sum - diag_integral))


def spectrum_to_csv(spectrum: OperatorSpectrum, values_path, functions_path,
                    analytic=None) -> None:
    """Export eigenvalues (k, lambda[, analytic_lambda]) and eigenfunction rows."""
    values = spectrum.eigenvalues
    columns = (range(1, len(values) + 1), values) + (() if analytic is None else (analytic,))
    write_csv(values_path, ("k", "lambda", "analytic_lambda")[:len(columns)], columns)
    write_csv(functions_path, [f"x{i}" for i in range(spectrum.grid.n)],
              spectrum.eigenfunctions.T)
