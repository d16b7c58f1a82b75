import math

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelab import linalg
from tracelab.linalg import (
    EigenDecomposition,
    NumericalError,
    SymMatrix,
    eigh_eigen,
    jacobi_eigen,
    matrix_trace_identity,
    symmetrize_in_place,
)


def random_symmetric(rng, n):
    a = rng.uniform(-1.0, 1.0, (n, n))
    return 0.5 * (a + a.T)


def test_two_by_two_by_hand():
    # characteristic polynomial (z-2)^2 - 1 has roots 3 and 1
    d = jacobi_eigen([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(d.values, [3.0, 1.0], atol=1e-14)
    s = 1.0 / math.sqrt(2.0)
    v0 = d.vectors[:, 0] * np.sign(d.vectors[0, 0])
    v1 = d.vectors[:, 1] * np.sign(d.vectors[0, 1])
    assert np.allclose(v0, [s, s], atol=1e-14)
    assert np.allclose(v1, [s, -s], atol=1e-14)


def test_identity_matrix():
    d = jacobi_eigen(np.eye(5))
    assert np.allclose(d.values, np.ones(5), atol=0)


def test_already_diagonal_sorted():
    d = jacobi_eigen(np.diag([5.0, -1.0, 0.0]))
    assert np.allclose(d.values, [5.0, 0.0, -1.0], atol=0)
    values = jacobi_eigen(np.diag([5.0, -1.0, 0.0]), values_only=True)
    assert np.array_equal(values, [5.0, 0.0, -1.0])
    assert not values.flags.writeable


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        jacobi_eigen([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(ValueError):
        jacobi_eigen([[np.inf, 0.0], [0.0, 1.0]])


def test_decomposition_invariants():
    rng = np.random.default_rng(21)
    for n in (3, 17, 60):
        a = random_symmetric(rng, n)
        d = jacobi_eigen(a)
        orth = np.abs(d.vectors.T @ d.vectors - np.eye(n)).max()
        assert orth < 1e-10
        residual = np.abs(a @ d.vectors - d.vectors * d.values)
        for k in range(n):
            assert residual[:, k].max() < 1e-10 * (1.0 + abs(d.values[k]))
        assert np.all(np.diff(d.values) <= 0)


def test_trace_identity_two_by_two():
    report = matrix_trace_identity([[2.0, 1.0], [1.0, 2.0]])
    assert report.eig_sum == pytest.approx(4.0, abs=1e-12)
    assert report.diag_sum == 4.0
    assert report.residual < 1e-12


def test_trace_identity_zero_matrix():
    for n in (4, 0):
        report = matrix_trace_identity(np.zeros((n, n)))
        assert (report.eig_sum, report.diag_sum, report.residual) == (0.0, 0.0, 0.0)
        assert eigh_eigen(np.zeros((n, n))).values.shape == (n,)


def test_trace_identity_random_50():
    rng = np.random.default_rng(50)
    report = matrix_trace_identity(random_symmetric(rng, 50))
    assert report.residual < 1e-9


def test_trace_identity_many_random():
    # lighter version of the acceptance sweep
    rng = np.random.default_rng(123)
    for _ in range(25):
        n = int(rng.integers(2, 61))
        report = matrix_trace_identity(random_symmetric(rng, n))
        assert report.residual < 1e-9


def test_weyl_perturbation_bound():
    rng = np.random.default_rng(7)
    a = random_symmetric(rng, 20)
    e = random_symmetric(rng, 20)
    e /= np.linalg.norm(e)
    eps = 1e-3
    base = jacobi_eigen(a).values
    moved = jacobi_eigen(a + eps * e).values
    assert np.abs(moved - base).max() <= eps + 1e-10


def test_outer_reconstruction_round_trip():
    d = jacobi_eigen([[2.0, 1.0], [1.0, 2.0]])
    rebuilt = (d.vectors * d.values) @ d.vectors.T
    assert np.abs(rebuilt - [[2.0, 1.0], [1.0, 2.0]]).max() < 1e-12


def test_outer_reconstruction_rank_one():
    d = EigenDecomposition(values=np.array([3.5, 0.0, 0.0]), vectors=np.eye(3))
    rebuilt = (d.vectors * d.values) @ d.vectors.T
    expected = np.zeros((3, 3))
    expected[0, 0] = 3.5
    assert np.array_equal(rebuilt, expected)


def test_outer_reconstruction_identity():
    d = jacobi_eigen(np.eye(4))
    assert np.abs((d.vectors * d.values) @ d.vectors.T - np.eye(4)).max() < 1e-14


def test_reconstruction_inverts_solver():
    rng = np.random.default_rng(77)
    a = random_symmetric(rng, 30)
    d = jacobi_eigen(a)
    assert np.abs((d.vectors * d.values) @ d.vectors.T - a).max() < 1e-9


def test_tie_break_deterministic():
    # repeated eigenvalue 1: vectors ordered by descending first-nonzero index
    d = jacobi_eigen(np.eye(4))
    expected = np.eye(4)[:, ::-1]
    assert np.array_equal(np.abs(d.vectors), expected)
    again = jacobi_eigen(np.eye(4))
    assert np.array_equal(d.vectors, again.vectors)


def sorted_decomposition(values, vectors):
    """The sort eigh_eigen ran on the whole unfolded eigenvectors, kept as the oracle.

    Ties broken by descending first-nonzero component index; an all-zero
    column counts as 0.
    """
    tiebreak = (-(np.abs(vectors) > 1e-12).argmax(axis=0) if vectors.size
                else np.zeros(0, dtype=int))
    order = np.lexsort((tiebreak, -values))
    return values[order], vectors[:, order]


def unfold(values, halves, n):
    """B's eigenpairs from those of its reflection blocks, even block's columns first."""
    m, h, odd = n // 2, (n + 1) // 2, n % 2
    vectors = np.empty((n, n))
    for cols, block, sign in ((slice(0, h), halves[0], 1.0),
                              (slice(h, n), halves[1, :, odd:], -1.0)):
        np.multiply(block[:m], math.sqrt(0.5), out=vectors[:m, cols])
        np.multiply(block[:m], sign * math.sqrt(0.5), out=vectors[n - m:][::-1, cols])
    if odd:
        vectors[m, :h] = halves[0, m]
        vectors[m, h:] = 0.0
    return np.concatenate((values[0], values[1, odd:])), vectors


def tied_matrices():
    pair = np.array([[2.0, 1.0], [1.0, 2.0]])
    rng = np.random.default_rng(8)
    for n in (2, 3, 6, 7, 40, 41):
        yield f"zeros-{n}", np.zeros((n, n))
        yield f"identity-{n}", np.eye(n)
        # 1, 2, 1, 2, ...: reflection-symmetric for odd n only
        yield f"repeated-diagonal-{n}", np.diag(np.tile([1.0, 2.0], n)[:n])
        if n % 2 == 0:
            yield f"repeated-pairs-{n}", np.kron(np.eye(n // 2), pair)
        a = rng.uniform(-1.0, 1.0, (n, n))
        a = a + a.T
        yield f"random-reflection-symmetric-{n}", a + a[::-1, ::-1]


@pytest.mark.parametrize("name, a", list(tied_matrices()))
def test_eigh_eigen_orders_ties_as_the_whole_sort_did(name, a):
    # the sort before: unfold the halves' eigenpairs into n x n vectors,
    # then break ties on the whole of them; a matrix without the symmetry
    # went to LAPACK whole, as it still does
    n = len(a)
    if not np.array_equal(a, a[::-1, ::-1]):
        values, vectors = np.linalg.eigh(a)
        expected = sorted_decomposition(values[::-1], vectors[:, ::-1])
        d = eigh_eigen(a)
    else:
        blocks = linalg._reflection_blocks(a)
        expected = sorted_decomposition(*unfold(*np.linalg.eigh(blocks), n))
        d = eigh_eigen(linalg.Halves(blocks, n))
    assert d.values.tobytes() == expected[0].tobytes()
    assert d.vectors.tobytes() == expected[1].tobytes()
    assert not d.values.flags.writeable and not d.vectors.flags.writeable


def test_symmetrization_reports_asymmetry():
    m = SymMatrix(entries=[[1.0, 2.0], [1.0, 1.0]])
    assert m.asymmetry == 1.0
    assert np.array_equal(m.entries, [[1.0, 1.5], [1.5, 1.0]])


def test_symmetrization_copies_and_leaves_the_input_alone():
    a = np.random.default_rng(3).uniform(-1.0, 1.0, (300, 300))
    before = a.copy()
    m = SymMatrix(entries=a)
    assert a.flags.writeable
    assert np.array_equal(a, before)
    assert not np.shares_memory(m.entries, a)
    assert not m.entries.flags.writeable
    assert np.array_equal(m.entries, 0.5 * (before + before.T))
    assert m.asymmetry == float(np.abs(before - before.T).max())


def test_symmetrization_rejects_nonfinite_entries():
    # below the diagonal and right of it, in a late row block
    for bad in (np.nan, np.inf, -np.inf):
        for where in ((250, 3), (250, 260)):
            a = np.eye(300)
            a[where] = bad
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                SymMatrix(entries=a)
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                symmetrize_in_place(a)


def test_asymmetry_is_measured_not_passed_in():
    with pytest.raises(TypeError):
        SymMatrix(entries=np.eye(2), asymmetry=1.0)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(n=st.integers(min_value=1, max_value=300), seed=st.integers(0, 2**32 - 1),
       low=st.integers(-1021, 1021), span=st.integers(0, 2042))
def test_symmetrization_keeps_the_bits_of_normal_range_entries(n, seed, low, span):
    # signed entries of magnitude 2^e, 1 <= mantissa < 2, e in [low, low + span]
    # clipped to the normal range below DBL_MAX/2, where no sum overflows
    rng = np.random.default_rng(seed)
    high = min(low + span, 1021)
    a = rng.choice((-1.0, 1.0), (n, n)) * np.ldexp(rng.uniform(1.0, 2.0, (n, n)),
                                                   rng.integers(low, high + 1, (n, n)))
    m = SymMatrix(entries=a)
    assert m.entries.tobytes() == (0.5 * (a + a.T)).tobytes()
    assert m.asymmetry == float(np.abs(a - a.T).max())


def test_symmetrization_of_entries_above_half_the_float_range_stays_finite():
    # a + a^T overflowed for these finite entries, with a RuntimeWarning
    big = np.finfo(float).max
    a = np.array([[1e308, 1.5e308, -big], [1.5e308, -1.5e308, 1.0], [-big, 1.0, big]])
    a[0, 1] = big
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = SymMatrix(entries=a)
    assert np.isfinite(m.entries).all()
    assert m.entries[0, 1] == m.entries[1, 0] == big / 2 + 0.75e308
    assert m.entries[0, 2] == -big and m.entries[2, 2] == big
    assert m.asymmetry == big - 1.5e308
    a[1, 0] = -1.5e308  # an asymmetry beyond the float range is inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert SymMatrix(entries=a).asymmetry == math.inf


def test_jacobi_agrees_with_lapack():
    rng = np.random.default_rng(31)
    a = random_symmetric(rng, 40)
    dj = jacobi_eigen(a)
    de = eigh_eigen(a)
    assert np.abs(dj.values - de.values).max() < 1e-10


def test_sweep_limit_raises_numerical_error(monkeypatch):
    rng = np.random.default_rng(30)
    a = random_symmetric(rng, 30)
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_MAX_SWEEPS", 1)
        with pytest.raises(NumericalError, match="after 1"):
            jacobi_eigen(a)
        with pytest.raises(NumericalError):
            jacobi_eigen(a, values_only=True)
    assert jacobi_eigen(a).values.shape == (30,)


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_scales_beyond_the_norm_range(scale):
    # |A|_F overflows (1e160) or underflows (1e-170) unless the matrix is scaled
    a = scale * np.array([[1.0, 2.0], [2.0, 1.0]])
    expected = scale * np.array([3.0, -1.0])
    assert np.allclose(jacobi_eigen(a).values, expected, rtol=1e-15, atol=0.0)
    assert np.allclose(jacobi_eigen(a, values_only=True), expected, rtol=1e-15, atol=0.0)


def test_power_of_two_scaling_is_exact():
    # the internal scaling is exact, so a power-of-two factor on the input
    # scales the eigenvalues exactly and leaves the vectors bit-identical
    rng = np.random.default_rng(37)
    for n in (1, 2, 7, 30):
        a = random_symmetric(rng, n)
        d = jacobi_eigen(a)
        for exponent in (-900, -40, 1, 40, 900):
            scaled = jacobi_eigen(np.ldexp(a, exponent))
            assert np.array_equal(scaled.values, np.ldexp(d.values, exponent))
            assert np.array_equal(scaled.vectors, d.vectors)
            assert np.array_equal(jacobi_eigen(np.ldexp(a, exponent), values_only=True),
                                  np.ldexp(d.values, exponent))
