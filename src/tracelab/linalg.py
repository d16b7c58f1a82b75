"""Dense symmetric eigensolver and the matrix trace identity.

The trace identity — sum of eigenvalues equals sum of diagonal entries —
is the finite-dimensional anchor for every experiment in this package, so
it gets a dedicated checker that reports both sides and their residual.
"""

from __future__ import annotations

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


def _round_robin(m: int) -> np.ndarray:
    """Layout permutation for the next round of a round-robin sweep.

    Pair i sits at positions 2i and 2i+1.  Position 0 stays put and the
    others move one step along the ring 2, 4, ..., m-2, m-1, m-3, ..., 1
    (the circle method), so m-1 rounds pair every two indices exactly once
    and return the layout to the identity.  new[k] = old[perm[k]].
    """
    ring = np.r_[2:m:2, m - 1:0:-2]
    perm = np.arange(m)
    perm[np.roll(ring, -1)] = ring
    return perm


def jacobi_eigen(a, tol: float = 1e-12, max_sweeps: int = 100, *,
                 values_only: bool = False) -> EigenDecomposition | np.ndarray:
    """Round-robin cyclic Jacobi eigensolver for symmetric matrices.

    Each sweep runs n-1 rounds of the round-robin ordering (Brent & Luk,
    SIAM J. Sci. Stat. Comput. 6, 1985); a round rotates floor(n/2)
    disjoint pairs at once, and an odd n is padded with one inert zero
    index.  The working matrix is kept in pair order, so a round is one
    batched 2x2 product for the rows, one for the columns (applied to the
    transpose) and a fixed permutation to the next round's pairs.  Sweeps
    stop when the off-diagonal Frobenius norm drops below tol times the
    Frobenius norm of the input.  The schedule is fixed, so the output is
    deterministic.  Jacobi is kept as the high-relative-accuracy reference
    for LAPACK (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1992).

    values_only=True skips the eigenvector accumulation and returns only
    the eigenvalues, sorted descending; they are bit-identical to the
    values of the full decomposition.

    Raises NumericalError if max_sweeps sweeps do not converge
    (practically unreachable for finite symmetric input).
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    sym = _as_sym(a)
    n = sym.n
    m = n + n % 2
    h = m // 2
    # scaled by a power of two, so that the largest entry lies in [0.5, 1):
    # exact, and the Frobenius norms can then neither overflow nor underflow
    exponent = int(np.frexp(np.abs(sym.entries).max())[1]) if n else 0
    mat = np.zeros((m, m))
    mat[:n, :n] = np.ldexp(sym.entries, -exponent)
    # rows of vec are the eigenvector estimates, in the same layout as mat
    vec = None if values_only else np.eye(m, n)
    frob = float(np.linalg.norm(mat))
    perm = _round_robin(m)
    p = np.arange(0, m, 2)
    pivots = np.r_[p * m + p + 1, (p + 1) * m + p]
    offdiag = ~np.eye(m, dtype=bool)
    rotations = np.empty((h, 2, 2))
    sweeps = 0
    while frob > 0.0:
        # off-norm from the off-diagonal entries themselves; the textbook
        # sqrt(|A|_F^2 - sum diag^2) cancels catastrophically near convergence
        off = float(np.linalg.norm(mat[offdiag]))
        if off <= tol * frob:
            break
        sweeps += 1
        if sweeps > max_sweeps:
            raise NumericalError(f"jacobi sweeps did not converge after {max_sweeps}")
        for _ in range(m - 1):
            diag = mat.diagonal()
            app, aqq = diag[0::2], diag[1::2]
            apq = mat.diagonal(1)[0::2]
            # t = tan of the angle that zeroes apq, the smaller root of
            # t^2 + 2 theta t - 1 with theta = (aqq - app) / (2 apq); the
            # hypot form cannot overflow and gives t = 0 where apq = 0
            diff = aqq - app
            den = diff + np.copysign(np.hypot(diff, 2.0 * apq), diff)
            t = np.divide(2.0 * apq, den, out=np.zeros(h), where=den != 0.0)
            if sweeps > 4:
                # entries beyond double precision relative to both diagonal
                # entries: rotating would only churn round-off, so they are
                # zeroed below without a rotation
                guard = 100.0 * np.abs(apq)
                t[(np.abs(app) + guard == np.abs(app))
                  & (np.abs(aqq) + guard == np.abs(aqq))] = 0.0
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            rotations[:, 0, 0] = rotations[:, 1, 1] = c
            rotations[:, 0, 1] = -s
            rotations[:, 1, 0] = s
            # rows, then the columns as rows of the transpose: the result is
            # (R A R^T)^T, which differs from R A R^T only by rounding
            rows = np.matmul(rotations, mat.reshape(h, 2, m)).reshape(m, m)
            both = np.matmul(rotations, rows.T.copy().reshape(h, 2, m)).reshape(m, m)
            both.reshape(-1)[pivots] = 0.0
            mat = both.take(perm, axis=0).take(perm, axis=1)
            if vec is not None:
                vec = np.matmul(rotations, vec.reshape(h, 2, n)).reshape(m, n).take(perm, axis=0)
    values = np.ldexp(mat.diagonal()[:n], exponent)
    if values_only:
        values = np.sort(values)[::-1].copy()
        values.setflags(write=False)
        return values
    return _sorted_decomposition(values, vec[:n].T)


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
    eig_sum = float(np.sum(jacobi_eigen(sym, tol=tol, values_only=True)))
    diag_sum = float(np.trace(sym.entries))
    return TraceIdentityReport(eig_sum=eig_sum, diag_sum=diag_sum,
                               residual=abs(eig_sum - diag_sum))


def spectral_outer_reconstruction(decomposition: EigenDecomposition) -> SymMatrix:
    """Rebuild the matrix from its spectral data: sum of lambda_k v_k v_k^T."""
    v = decomposition.vectors
    rebuilt = (v * decomposition.values) @ v.T
    return SymMatrix(entries=rebuilt)
