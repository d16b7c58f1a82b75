"""Dense symmetric eigensolver and the matrix trace identity.

The trace identity — sum of eigenvalues equals sum of diagonal entries —
is the finite-dimensional anchor for every experiment in this package, so
it gets a dedicated checker that reports both sides and their residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NumericalError(RuntimeError):
    """An iterative routine failed to converge."""


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Exactly symmetric dense matrix.

    Construction symmetrizes (A + A^T)/2 and records how asymmetric the
    input was, so silently "almost symmetric" inputs remain visible.
    """

    entries: np.ndarray
    asymmetry: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        asym = float(np.abs(a - a.T).max()) if a.size else 0.0
        sym = 0.5 * (a + a.T)
        sym.setflags(write=False)
        object.__setattr__(self, "entries", sym)
        object.__setattr__(self, "asymmetry", asym)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _as_sym(a) -> SymMatrix:
    return a if isinstance(a, SymMatrix) else SymMatrix(entries=a)


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues sorted descending; column k of vectors belongs to values[k]."""

    values: np.ndarray
    vectors: np.ndarray


def _sorted_decomposition(values: np.ndarray, vectors: np.ndarray) -> EigenDecomposition:
    # ties broken by descending first-nonzero component index, so repeated
    # eigenvalues come out in a reproducible vector order.  An all-zero column
    # counts as 0, argmax cannot reduce the empty axis of a 0x0 matrix, and
    # the mask stays a temporary so it does not add to the copies' peak memory.
    tiebreak = (-(np.abs(vectors) > 1e-12).argmax(axis=0) if vectors.size
                else np.zeros(0, dtype=int))
    order = np.lexsort((tiebreak, -values))
    values = values[order].copy()
    vectors = vectors[:, order].copy()
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenDecomposition(values=values, vectors=vectors)


def jacobi_eigen(a, tol: float = 1e-12, max_sweeps: int = 100) -> EigenDecomposition:
    """Cyclic Jacobi eigensolver for symmetric matrices.

    Row-major sweeps of plane rotations until the off-diagonal Frobenius
    norm drops below tol times the Frobenius norm of the input.  The sweep
    order is fixed, so the output is deterministic.  Each rotation keeps
    the working matrix exactly symmetric, which is the whole point of
    preferring Jacobi over QR here.

    Raises NumericalError if max_sweeps cyclic sweeps do not converge
    (practically unreachable for finite symmetric input).
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    sym = _as_sym(a)
    mat = np.array(sym.entries, dtype=float)
    n = mat.shape[0]
    vec = np.eye(n)
    frob = float(np.linalg.norm(mat))
    if frob == 0.0:
        return _sorted_decomposition(np.zeros(n), vec)
    iu = np.triu_indices(n, 1)
    sweeps = 0
    while True:
        # off-norm from the off-diagonal entries themselves; the textbook
        # sqrt(|A|_F^2 - sum diag^2) cancels catastrophically near convergence
        off = math.sqrt(2.0) * float(np.linalg.norm(mat[iu]))
        if off <= tol * frob:
            break
        sweeps += 1
        if sweeps > max_sweeps:
            raise NumericalError(f"jacobi sweeps did not converge after {max_sweeps}")
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = mat[p, q]
                guard = 100.0 * abs(apq)
                if apq == 0.0:
                    continue
                if (sweeps > 4 and abs(mat[p, p]) + guard == abs(mat[p, p])
                        and abs(mat[q, q]) + guard == abs(mat[q, q])):
                    # entry is beyond double precision relative to the
                    # diagonal; rotating would only churn round-off
                    mat[p, q] = mat[q, p] = 0.0
                    continue
                diff = mat[q, q] - mat[p, p]
                if abs(diff) + guard == abs(diff):
                    t = apq / diff
                else:
                    theta = 0.5 * diff / apq
                    t = 1.0 / (abs(theta) + math.sqrt(1.0 + theta * theta))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                row_p = mat[p, :].copy()
                row_q = mat[q, :].copy()
                mat[p, :] = c * row_p - s * row_q
                mat[q, :] = s * row_p + c * row_q
                col_p = mat[:, p].copy()
                col_q = mat[:, q].copy()
                mat[:, p] = c * col_p - s * col_q
                mat[:, q] = s * col_p + c * col_q
                mat[p, q] = mat[q, p] = 0.0
                vec_p = vec[:, p].copy()
                vec_q = vec[:, q].copy()
                vec[:, p] = c * vec_p - s * vec_q
                vec[:, q] = s * vec_p + c * vec_q
    return _sorted_decomposition(np.diag(mat).copy(), vec)


def eigh_eigen(a) -> EigenDecomposition:
    """LAPACK-backed decomposition with the same contract as jacobi_eigen.

    Used where problem sizes make O(n^3)-with-large-constant Jacobi sweeps
    impractical; tests pin the two solvers against each other.
    """
    sym = _as_sym(a)
    values, vectors = np.linalg.eigh(sym.entries)
    return _sorted_decomposition(values[::-1].copy(), vectors[:, ::-1].copy())


@dataclass(frozen=True)
class TraceIdentityReport:
    eig_sum: float
    diag_sum: float
    residual: float


def matrix_trace_identity(a, tol: float = 1e-12) -> TraceIdentityReport:
    """Both sides of the trace identity: sum of eigenvalues vs matrix trace."""
    sym = _as_sym(a)
    decomposition = jacobi_eigen(sym, tol=tol)
    eig_sum = float(np.sum(decomposition.values))
    diag_sum = float(np.trace(sym.entries))
    return TraceIdentityReport(eig_sum=eig_sum, diag_sum=diag_sum,
                               residual=abs(eig_sum - diag_sum))


def spectral_outer_reconstruction(decomposition: EigenDecomposition) -> SymMatrix:
    """Rebuild the matrix from its spectral data: sum of lambda_k v_k v_k^T."""
    v = decomposition.vectors
    rebuilt = (v * decomposition.values) @ v.T
    return SymMatrix(entries=rebuilt)
