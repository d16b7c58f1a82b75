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


# Entries per row block of the blocked matrix passes: 512 KiB temporaries
_BLOCK_ENTRIES = 2**16


def row_blocks(n: int) -> list[slice]:
    """Consecutive row slices of an n x n matrix, about 2**16 entries each."""
    step = max(1, _BLOCK_ENTRIES // max(n, 1))
    return [slice(first, min(first + step, n)) for first in range(0, n, step)]


def symmetrize_in_place(a: np.ndarray, *, require_finite: bool = False) -> float:
    """Overwrite the square array a with (a + a^T)/2; return max |a - a^T| before.

    Block r pairs rows r right of the diagonal with columns r below it, so
    each temporary holds one row block and every entry is formed as in the
    whole-array expressions.  Two finite entries whose sum overflows are
    halved before they are added, so every finite a gives a finite result;
    an asymmetry beyond the float range is inf.  A NaN entry makes the
    result NaN, as numpy's max does.  require_finite raises ValueError on a
    non-finite entry, possibly after earlier blocks of a were overwritten.
    """
    asym = 0.0
    for rows in row_blocks(a.shape[0]):
        upper = a[rows, rows.start:]
        lower = a[rows.start:, rows].T
        if require_finite and not (np.isfinite(upper).all() and np.isfinite(lower).all()):
            raise ValueError("matrix entries must be finite")
        with np.errstate(over="ignore"):
            work = np.subtract(upper, lower)
            asym = np.maximum(asym, np.abs(work, out=work).max())
            np.add(upper, lower, out=work)
        work *= 0.5
        overflowed = np.isinf(work)
        if overflowed.any():
            # halved first, the two cannot overflow; an inf entry stays inf
            work[overflowed] = upper[overflowed] * 0.5 + lower[overflowed] * 0.5
        # the diagonal square lies in both views and gets the same values twice
        upper[...] = work
        lower[...] = work
        del work  # so that it is freed before the next block's is made
    return float(asym)


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Exactly symmetric dense matrix.

    Construction copies the input, symmetrizes the copy to (A + A^T)/2 and
    records how asymmetric the input was, so silently "almost symmetric"
    inputs remain visible.  The caller's array is never modified.
    """

    entries: np.ndarray
    asymmetry: float = 0.0

    def __post_init__(self):
        a = np.array(self.entries, dtype=float, order="C")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        self._adopt(a, symmetrize_in_place(a, require_finite=True))

    @classmethod
    def _from_buffer(cls, buffer: np.ndarray) -> SymMatrix:
        """Adopt a float64 buffer the caller gives up, uncopied and unchecked.

        The buffer must be finite and equal to its transpose bit for bit,
        as `nystrom.discretize` makes it; it becomes the read-only
        `entries` of the result, with asymmetry 0.
        """
        sym = object.__new__(cls)
        sym._adopt(buffer, 0.0)
        return sym

    def _adopt(self, a: np.ndarray, asymmetry: float) -> None:
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "asymmetry", asymmetry)

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
    # the mask stays a temporary so it does not add to the gather's peak
    # memory.  The inputs may be views: the gathers make the only copies.
    tiebreak = (-(np.abs(vectors) > 1e-12).argmax(axis=0) if vectors.size
                else np.zeros(0, dtype=int))
    order = np.lexsort((tiebreak, -values))
    values = values[order]
    vectors = vectors[:, order]
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


# Largest reflection-odd part (B - JBJ)/2 that still counts as round-off, in
# units of u max|B|: Green matrices reach 2.5u, heat-circle matrices are exact
_REFLECTION_ODD_TOL = 8.0 * 2.0**-53
_HALF_SQRT2 = math.sqrt(0.5)


def _reflection_blocks(a: np.ndarray, *, in_place: bool = False) -> np.ndarray | None:
    """The even and odd diagonal blocks of Q B Q^T, stacked as (2, h, h), h = ceil(n/2).

    J reverses the node order, which is x -> 1 - x on a symmetric grid.  Q
    pairs node i with node n-1-i: its rows are (e_i + e_{n-1-i})/sqrt 2,
    for odd n the centre node, then (e_i - e_{n-1-i})/sqrt 2.  When
    JBJ = B, Q B Q^T is block diagonal, so B's eigenpairs are those of two
    half-size blocks, a quarter of the dense LAPACK work (Cantoni & Butler,
    Linear Algebra Appl. 13, 1976).  The dropped coupling is the
    reflection-odd part (B - JBJ)/2.  None is returned where it exceeds
    8u max|B|, checked row block by row block, so a matrix without the
    symmetry costs about one block; and for n < 2 or entries near
    overflow.  For odd n the odd block has n // 2 rows, and its last row
    and column are a decoupled pad entry below every Gershgorin disc, so
    the pad is the block's smallest eigenvalue.

    in_place=True writes the stack into a's own buffer, which must be
    writeable and C-contiguous, and which the caller then gives up: row i
    of both blocks is a's flat entries [2h i, 2h (i+1)).  That row is made
    from rows i and n-1-i of a, and for odd n it reaches into row i+1.  So
    the check runs over every row before the first write (a matrix without
    the symmetry is left unchanged), the centre entry is read first, and
    the pairs are folded from the centre outward: each write lands on rows
    already read, and the last row, the centre's, on the first pair's
    partner row.  Without in_place the stack is a new array, folded by the
    same loop, and a is not changed.

    Memory: the stack, about n^2/2 entries unless it lives in a, and
    temporaries of one row block of B, formed as `symmetrize_in_place`
    forms its own.
    """
    n = a.shape[0]
    if n < 2:
        return None
    m, h = n // 2, (n + 1) // 2
    # a Python float, so that an overflowing pad is inf without a RuntimeWarning
    scale = float(max(a.max(), -a.min()))
    # odd-block entries are at most 2 max|B|, so its Gershgorin discs lie
    # above -2m max|B|; -1 for B = 0
    pad = -4.0 * h * scale or -1.0
    if not math.isfinite(pad):
        return None
    bound = 2.0 * _REFLECTION_ODD_TOL * scale
    flipped = a[::-1, ::-1]
    pairs = [slice(rows.start, min(rows.stop, m)) for rows in row_blocks(n) if rows.start < m]
    for rows in pairs:
        odd_part = np.subtract(a[rows], flipped[rows])
        if np.abs(odd_part, out=odd_part).max() > bound:
            return None
        del odd_part  # so that it is freed before the next block's is made
    centre = a[m, m]
    blocks = (a.reshape(-1)[:2 * h * h].reshape(h, 2, h).transpose(1, 0, 2) if in_place
              else np.empty((2, h, h)))
    for rows in reversed(pairs):
        # work = 2M on these rows, M = (B + JBJ)/2; the even block is
        # M[r, j] + M[r, n-1-j] and the odd block M[r, j] - M[r, n-1-j]
        work = np.add(a[rows], flipped[rows])
        left, right = work[:, :m], work[:, ::-1][:, :m]
        np.add(left, right, out=blocks[0, rows, :m])
        np.subtract(left, right, out=blocks[1, rows, :m])
        if n % 2:
            np.multiply(work[:, m], _HALF_SQRT2, out=blocks[0, rows, m])
        del work, left, right  # so that work is freed before the next block's is made
    blocks[:, :m, :m] *= 0.5
    if n % 2:
        blocks[0, m, :m] = blocks[0, :m, m]
        blocks[0, m, m] = centre
        blocks[1, m, :] = blocks[1, :, m] = 0.0
        blocks[1, m, m] = pad
    return blocks


def _unfold(values: np.ndarray, halves: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of B from the eigenpairs of its stacked reflection blocks.

    An even-block vector (u, c) becomes (u, sqrt 2 c, Ju)/sqrt 2, an
    odd-block vector w becomes (w, -Jw)/sqrt 2; for odd n the pad's pair,
    the odd block's first in ascending order, is dropped.  Columns are the
    even block's, then the odd block's.
    """
    m, h, odd = n // 2, (n + 1) // 2, n % 2
    vectors = np.empty((n, n))
    for cols, block, sign in ((slice(0, h), halves[0], 1.0),
                              (slice(h, n), halves[1, :, odd:], -1.0)):
        np.multiply(block[:m], _HALF_SQRT2, out=vectors[:m, cols])
        np.multiply(block[:m], sign * _HALF_SQRT2, out=vectors[n - m:][::-1, cols])
    if odd:
        vectors[m, :h] = halves[0, m]
        vectors[m, h:] = 0.0
    return np.concatenate((values[0], values[1, odd:])), vectors


def eigh_eigen(a) -> EigenDecomposition:
    """LAPACK-backed decomposition with the same contract as jacobi_eigen.

    Used where problem sizes make O(n^3)-with-large-constant Jacobi sweeps
    impractical.  A reflection-symmetric matrix (JBJ = B to round-off,
    J reversing the node order), as the Green and heat-circle kernels give
    on both grids, is split into its even and odd halves, and one
    `numpy.linalg.eigh` call decomposes both; any other matrix, such as a
    tabulated kernel without the symmetry, is decomposed whole.  Jacobi
    (n <= 160 in `nystrom`) and the whole-matrix LAPACK call stay the
    oracles tests pin this against.
    """
    sym = _as_sym(a)
    blocks = _reflection_blocks(sym.entries)
    if blocks is None:
        values, vectors = np.linalg.eigh(sym.entries)
        return _sorted_decomposition(values[::-1], vectors[:, ::-1])
    values, halves = np.linalg.eigh(blocks)
    del blocks  # freed before the n x n vectors are made
    values, vectors = _unfold(values, halves, sym.n)
    del halves  # freed before the sorting gather
    return _sorted_decomposition(values, vectors)


def _values(a: np.ndarray, n: int) -> np.ndarray:
    """B's eigenvalues, descending and read-only, from one `eigvalsh` call on a.

    a is B itself, n x n, or the (2, h, h) stack `_reflection_blocks`
    made of it.  The stack may be a view into B's own buffer, written by
    the in-place fold after every row was read, so a caller that gives up
    B holds one n x n buffer while LAPACK copies one half.
    """
    values = np.linalg.eigvalsh(a)
    if a.ndim == 3:
        values = np.sort(np.concatenate((values[0], values[1, n % 2:])))
    values = values[::-1]
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class TraceIdentityReport:
    eig_sum: float
    diag_sum: float
    residual: float


def matrix_trace_identity(a) -> TraceIdentityReport:
    """Both sides of the trace identity: sum of eigenvalues vs matrix trace."""
    sym = _as_sym(a)
    eig_sum = float(np.sum(jacobi_eigen(sym, values_only=True)))
    diag_sum = float(np.trace(sym.entries))
    return TraceIdentityReport(eig_sum=eig_sum, diag_sum=diag_sum,
                               residual=abs(eig_sum - diag_sum))
