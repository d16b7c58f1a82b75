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
    SymMatrix,
    _reflection_blocks,
    _values,
    eigh_eigen,
    jacobi_eigen,
    row_blocks,
)
from .quadrature import Grid

# above this size the cyclic Jacobi sweeps get slow; hand off to LAPACK
JACOBI_SIZE_LIMIT = 160


def discretize(spec: KernelSpec, grid: Grid) -> SymMatrix:
    """Symmetrized Nystrom matrix B[i,j] = sqrt(w_i) k(x_i, x_j) sqrt(w_j).

    Every built-in kernel matrix, and a tabulated kernel's symmetrized
    table, equals its transpose bit for bit, and s_i s_j = s_j s_i, so B
    is exactly symmetric as weighted and is adopted without a second
    symmetrizing pass.

    Memory: one n x n float64 buffer per call.  The kernel matrix is
    checked and weighted in place by row blocks of about 2**16 entries;
    only a tabulated kernel's read-only table is copied first.  The
    eigenvalue checks write B's even and odd halves, N^2/2 entries, into
    B's own buffer, and LAPACK copies one half, N^2/4 entries, so
    `trace-check --n N` peaks near the interpreter's base plus
    1.25 * 8 N^2 bytes: 129 MiB at N = 3201 (149 MiB with the halves in a
    second array).
    """
    kmat = spec.matrix(grid)
    if not kmat.flags.writeable:
        kmat = kmat.copy()
    s = np.sqrt(grid.weights)
    for rows in row_blocks(grid.n):
        block = kmat[rows]
        if not np.isfinite(block).all():
            i, j = np.argwhere(~np.isfinite(block))[0]
            x, y = grid.nodes[rows.start + i], grid.nodes[j]
            raise ValueError(f"kernel value is not finite at nodes "
                             f"({float(x)!r}, {float(y)!r})")
        block *= np.multiply.outer(s[rows], s)
    return SymMatrix._from_buffer(kmat)


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
    matrix = discretize(spec, grid)
    decomposition = (jacobi_eigen if grid.n <= JACOBI_SIZE_LIMIT else eigh_eigen)(matrix)
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


def _eigenvalues(spec: KernelSpec, grid: Grid, *, jacobi: bool) -> np.ndarray:
    """All eigenvalues of discretize(spec, grid), sorted descending and read-only.

    jacobi=True runs Jacobi values-only.  Otherwise one LAPACK call: a
    reflection-symmetric B (the Green and heat-circle kernels on either
    grid) is split into its even and odd halves as `linalg.eigh_eigen`
    splits it, but the halves are written into B's own buffer, so B and
    the halves are never held at once.  That is safe because this
    function holds the only reference to B, and the fold writes each row
    only after reading every row it overwrites (see
    `linalg._reflection_blocks`).  Any other B, such as an asymmetric
    tabulated kernel, goes to LAPACK whole and unchanged.
    """
    matrix = discretize(spec, grid)
    if jacobi:
        return jacobi_eigen(matrix, values_only=True)
    b = matrix.entries
    del matrix  # B is given up: its buffer may hold the halves
    b.setflags(write=True)
    halves = _reflection_blocks(b, in_place=True)
    return _values(b if halves is None else halves, grid.n)


def trace_formula_check(spec: KernelSpec, grid: Grid) -> TraceFormulaReport:
    """Sum of all Nystrom eigenvalues against the quadrature of the diagonal.

    The two sides agree exactly through the matrix trace, so the residual
    measures only eigensolver round-off; the interesting quantity is how
    fast diag_integral converges to the continuum value as the grid refines.
    Only eigenvalues are computed: Jacobi values-only up to
    JACOBI_SIZE_LIMIT, one LAPACK call above it, on B's even and odd
    halves where B is reflection-symmetric (see `_eigenvalues`).  Jacobi
    and the whole-matrix LAPACK call remain the oracles the split is
    tested against.
    """
    values = _eigenvalues(spec, grid, jacobi=grid.n <= JACOBI_SIZE_LIMIT)
    eig_sum = float(np.sum(values))
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
