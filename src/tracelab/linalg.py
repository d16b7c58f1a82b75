"""Dense symmetric eigensolver and the matrix trace identity.

The trace identity — sum of eigenvalues equals sum of diagonal entries —
is the finite-dimensional anchor for every experiment in this package, so
it gets a dedicated checker that reports both sides and their residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class NumericalError(RuntimeError):
    """An iterative routine failed to converge."""


# Entries per row block of the blocked matrix passes: 512 KiB temporaries
_BLOCK_ENTRIES = 2**16


def row_blocks(n: int, width: int | None = None) -> list[slice]:
    """Consecutive slices of n rows of `width` entries (default n), about 2**16 entries each."""
    step = max(1, _BLOCK_ENTRIES // max(n if width is None else width, 1))
    return [slice(first, min(first + step, n)) for first in range(0, n, step)]


def symmetric_toeplitz(row: np.ndarray) -> np.ndarray:
    """Read-only [row[|i - j|]]: window s of [row[n-1], .., row[0], .., row[n-1]] is row n-1-s."""
    return sliding_window_view(np.concatenate((row[:0:-1], row)), len(row))[::-1]


def symmetrize_in_place(a: np.ndarray) -> float:
    """Overwrite the square array a with (a + a^T)/2; return max |a - a^T| before.

    Block r pairs rows r right of the diagonal with columns r below it, so
    each temporary holds one row block and every entry is formed as in the
    whole-array expressions.  Two finite entries whose sum overflows are
    halved before they are added, so the result is finite; an asymmetry
    beyond the float range is inf.  Raises ValueError on a non-finite
    entry, possibly after earlier blocks of a were overwritten.
    """
    asym = 0.0
    for rows in row_blocks(a.shape[0]):
        upper = a[rows, rows.start:]
        lower = a[rows.start:, rows].T
        if not (np.isfinite(upper).all() and np.isfinite(lower).all()):
            raise ValueError("matrix entries must be finite")
        with np.errstate(over="ignore"):
            work = np.subtract(upper, lower)
            asym = np.maximum(asym, np.abs(work, out=work).max())
            np.add(upper, lower, out=work)
        work *= 0.5
        overflowed = np.isinf(work)
        if overflowed.any():
            # halved first, the two cannot overflow
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
    asymmetry: float = field(init=False)

    def __post_init__(self):
        a = np.array(self.entries, dtype=float, order="C")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        self._adopt(a, symmetrize_in_place(a))

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
    """Eigenvalues sorted descending; column k of vectors belongs to values[k].

    A stable sort: tied values keep the order their solver gives them in.
    """

    values: np.ndarray
    vectors: np.ndarray


def _sorted_decomposition(values: np.ndarray, vectors: np.ndarray) -> EigenDecomposition:
    # the inputs may be views: the gathers make the only copies
    order = np.argsort(-values, kind="stable")
    return _read_only(values[order], vectors[:, order])


def _read_only(values: np.ndarray, vectors: np.ndarray) -> EigenDecomposition:
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


_TOL = 1e-12
_MAX_SWEEPS = 100


def jacobi_eigen(a) -> EigenDecomposition:
    """Round-robin cyclic Jacobi eigensolver with the same contract as eigh_eigen.

    `Halves` are decomposed one by one and unfolded as LAPACK's are; the
    odd half's pad row is zero, so the pad is never rotated and stays least.
    Each sweep runs n-1 rounds of the round-robin ordering (Brent & Luk,
    SIAM J. Sci. Stat. Comput. 6, 1985); a round rotates floor(n/2)
    disjoint pairs at once, and an odd n is padded with one inert zero
    index.  The working matrix is kept in pair order, so a round is one
    batched 2x2 product for the rows, one for the columns (applied to the
    transpose) and a fixed permutation to the next round's pairs.  Sweeps
    stop when the off-diagonal Frobenius norm drops below _TOL times the
    Frobenius norm of the input.  The schedule is fixed, so the output is
    deterministic.  Jacobi is kept as the high-relative-accuracy reference
    for LAPACK (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1992).

    Raises NumericalError if _MAX_SWEEPS sweeps do not converge
    (practically unreachable for finite symmetric input).
    """
    if not isinstance(a, Halves):
        return _sorted_decomposition(*_jacobi(_as_sym(a).entries))
    values, vectors = zip(*map(_jacobi, a.blocks))
    return _unfolded(np.stack(values), np.stack(vectors), a.n)


def _jacobi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A finite symmetric array's eigenpairs as `numpy.linalg.eigh` gives them, stably sorted."""
    n = a.shape[0]
    m = n + n % 2
    h = m // 2
    # scaled by a power of two, so that the largest entry lies in [0.5, 1):
    # exact, and the Frobenius norms can then neither overflow nor underflow
    exponent = int(np.frexp(np.abs(a).max())[1]) if n else 0
    mat = np.zeros((m, m))
    mat[:n, :n] = np.ldexp(a, -exponent)
    # rows of vec are the eigenvector estimates, in the same layout as mat
    vec = np.eye(m, n)
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
        if off <= _TOL * frob:
            break
        sweeps += 1
        if sweeps > _MAX_SWEEPS:
            raise NumericalError(f"jacobi sweeps did not converge after {_MAX_SWEEPS}")
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
            vec = np.matmul(rotations, vec.reshape(h, 2, n)).reshape(m, n).take(perm, axis=0)
    values = np.ldexp(mat.diagonal()[:n], exponent)
    order = np.argsort(values, kind="stable")
    return values[order], vec[order].T


_HALF_SQRT2 = math.sqrt(0.5)


class Halves:
    """The even and odd reflection blocks of an n x n matrix B, stacked as (2, h, h).

    h = ceil(n/2); see `_fold_halves`.  B's eigenvalues are those of the
    two blocks, less the odd block's pad for odd n.  A plain class: a
    dataclass compiles its generated methods when the CLI imports this
    module, about 0.4 ms.
    """

    __slots__ = ("blocks", "n")

    def __init__(self, blocks: np.ndarray, n: int):
        self.blocks, self.n = blocks, n


def _fold_halves(rows_of, n: int) -> np.ndarray:
    """The even and odd diagonal blocks of Q B Q^T, stacked as (2, h, h), h = ceil(n/2).

    J reverses the node order, which is x -> 1 - x on a symmetric grid.  Q
    pairs node i with node n-1-i: its rows are (e_i + e_{n-1-i})/sqrt 2,
    for odd n the centre node, then (e_i - e_{n-1-i})/sqrt 2.  When
    JBJ = B, Q B Q^T is block diagonal, so B's eigenpairs are those of two
    half-size blocks, a quarter of the dense LAPACK work (Cantoni & Butler,
    Linear Algebra Appl. 13, 1976).  For odd n the odd block has n // 2
    rows, and its last row and column are a decoupled pad entry below
    every Gershgorin disc, so the pad is the block's smallest eigenvalue.

    rows_of(rows, out) returns B[rows] for a slice of rows, written into
    the buffer out or as a view.  It is asked for each row block r before
    the centre and for its mirror rows n-1-r, which are folded into the
    stack at once, and for odd n then for the centre row; B itself is
    never held.  It drops the reflection-odd part (B - JBJ)/2, and B is
    folded only where `KernelSpec.reflective` says that is round-off and
    the pad finite.  n >= 2, as on every `Grid`.

    Memory: the stack, about n^2/2 entries, and three buffers of about
    2**15 entries, for a row block, its mirror rows and their sum.  They
    serve every block: temporaries made and freed per block would shrink
    and regrow glibc's heap, a page fault per 4 KiB.
    """
    m, h = n // 2, (n + 1) // 2
    blocks = np.empty((2, h, h))
    scale = 0.0
    pairs = row_blocks(m, 2 * n)
    top_rows, bottom_rows, work_rows = np.empty((3, pairs[0].stop, n))
    for rows in pairs:
        size = rows.stop - rows.start
        top = rows_of(rows, top_rows[:size])
        bottom = rows_of(slice(n - rows.stop, n - rows.start), bottom_rows[:size])[::-1, ::-1]
        scale = max(scale, float(top.max()), float(-top.min()),
                    float(bottom.max()), float(-bottom.min()))
        # work = 2M on these rows, M = (B + JBJ)/2; the even block is
        # M[r, j] + M[r, n-1-j] and the odd block M[r, j] - M[r, n-1-j]
        work = np.add(top, bottom, out=work_rows[:size])
        left, right = work[:, :m], work[:, ::-1][:, :m]
        np.add(left, right, out=blocks[0, rows, :m])
        np.subtract(left, right, out=blocks[1, rows, :m])
        blocks[:, rows, :m] *= 0.5
        if n % 2:
            np.multiply(work[:, m], _HALF_SQRT2, out=blocks[0, rows, m])
    if n % 2:
        centre = rows_of(slice(m, m + 1), top_rows[:1])
        scale = max(scale, float(centre.max()), float(-centre.min()))
        # odd-block entries are at most 2 max|B|, so its Gershgorin discs lie
        # above -2m max|B|; -1 for B = 0
        pad = -4.0 * h * scale or -1.0
        blocks[0, m, :m] = blocks[0, :m, m]
        blocks[0, m, m] = centre[0, m]
        blocks[1, m, :] = blocks[1, :, m] = 0.0
        blocks[1, m, m] = pad
    return blocks


def _reflection_blocks(a: np.ndarray) -> np.ndarray:
    """`_fold_halves` of the square matrix a, n >= 2, which is not changed.

    The tests' dense reference for the halves `nystrom.discretize` samples.
    """
    return _fold_halves(lambda rows, out: a[rows], a.shape[0])


def _unfolded(values: np.ndarray, halves: np.ndarray, n: int) -> EigenDecomposition:
    """B's sorted eigenpairs from the eigenpairs of its stacked reflection blocks.

    An even-block vector (u, c) becomes (u, sqrt 2 c, Ju)/sqrt 2, an
    odd-block vector w becomes (w, -Jw)/sqrt 2; for odd n the pad's pair,
    the odd block's first in ascending order, is dropped.  The pairs are
    sorted as `_sorted_decomposition` sorts them, the even block's before
    the odd block's, and the vectors are written straight into their
    sorted columns, row block by row block.

    Memory: the n x n vectors, and temporaries of one row block.
    """
    m, h, odd = n // 2, (n + 1) // 2, n % 2
    even, odd_block = halves[0], halves[1, :, odd:]
    values = np.concatenate((values[0], values[1, odd:]))
    order = np.argsort(-values, kind="stable")
    vectors = np.empty((n, n))
    mirrored = vectors[n - m:][::-1]
    for rows in row_blocks(m, n):
        unsorted = np.concatenate((even[rows], odd_block[rows]), axis=1)
        unsorted *= _HALF_SQRT2
        np.take(unsorted, order, axis=1, out=vectors[rows], mode="clip")
        np.negative(unsorted[:, h:], out=unsorted[:, h:])
        np.take(unsorted, order, axis=1, out=mirrored[rows], mode="clip")
    if odd:
        centre = np.concatenate((even[m], np.zeros(n - h)))
        np.take(centre, order, out=vectors[m], mode="clip")
    return _read_only(values[order], vectors)


def eigh_eigen(a) -> EigenDecomposition:
    """LAPACK-backed decomposition with the same contract as jacobi_eigen.

    Used where problem sizes make O(n^3)-with-large-constant Jacobi sweeps
    impractical.  a is a matrix or the `Halves` of one, as
    `nystrom.discretize` gives them; one `numpy.linalg.eigh` call
    decomposes both halves, or the matrix whole.

    Memory, in units of 8 n^2 bytes: given the halves (0.5), LAPACK adds
    its half-size vectors (0.5), workspace (0.5) and copy of one half
    (0.25).  The halves, unless the caller keeps them, are freed before
    the n x n vectors (1.0) are made, which receive the unfolded pairs in
    sorted order with no n x n temporary.
    """
    if not isinstance(a, Halves):
        return _sorted_decomposition(*np.linalg.eigh(_as_sym(a).entries))
    n = a.n
    values, halves = np.linalg.eigh(a.blocks)
    del a  # the only reference, unless the caller keeps one
    return _unfolded(values, halves, n)


def _values(a: SymMatrix | Halves) -> np.ndarray:
    """B's eigenvalues, descending and read-only, from one `eigvalsh` call on B or its halves.

    Given the halves, LAPACK copies one half at a time, so B's
    eigenvalues cost about 0.75 * 8 n^2 bytes.
    """
    if isinstance(a, Halves):
        values = np.linalg.eigvalsh(a.blocks)
        values = np.sort(np.concatenate((values[0], values[1, a.n % 2:])))
    else:
        values = np.linalg.eigvalsh(a.entries)
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
    eig_sum = float(np.sum(_values(sym)))
    diag_sum = float(np.trace(sym.entries))
    return TraceIdentityReport(eig_sum=eig_sum, diag_sum=diag_sum,
                               residual=abs(eig_sum - diag_sum))
