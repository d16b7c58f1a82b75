import math
import tracemalloc

import numpy as np
import pytest

from tracelab import cli, nystrom
from tracelab.kernels import green_dirichlet, heat_circle, tabulated
from tracelab.linalg import _reflection_blocks, _values, eigh_eigen, jacobi_eigen, row_blocks
from tracelab.nystrom import (
    JACOBI_SIZE_LIMIT,
    discretize,
    operator_spectrum,
    spectrum_to_csv,
    trace_formula_check,
)
from tracelab.quadrature import MIDPOINT, TRAPEZOID, inner_product, make_grid


def analytic_green_eigenvalue(k):
    return 1.0 / (math.pi**2 * k**2)


def test_discretize_constant_kernel_rank_one(whole_b):
    g = make_grid(TRAPEZOID, 12)
    c = 0.7
    spec = tabulated(np.full((12, 12), c), g)
    b = whole_b(spec, g)
    s = np.sqrt(g.weights)
    assert np.abs(b.entries - c * np.outer(s, s)).max() < 1e-15
    assert np.array_equal(discretize(spec, g).blocks, _reflection_blocks(b.entries))
    values = operator_spectrum(spec, g, 12).eigenvalues
    assert abs(values[0] - c) < 1e-12
    assert np.abs(values[1:]).max() < 1e-12


def test_discretize_green_leading_eigenvalue():
    g = make_grid(TRAPEZOID, 201)
    spectrum = operator_spectrum(green_dirichlet(), g, 1)
    assert abs(spectrum.eigenvalues[0] - analytic_green_eigenvalue(1)) < 1e-4


def test_discretize_zero_kernel():
    g = make_grid(TRAPEZOID, 9)
    halves = discretize(tabulated(np.zeros((9, 9)), g), g)
    # all zero but the odd half's pad, -1 for B = 0
    assert np.abs(halves.blocks[:, :4]).max() == 0.0 and halves.blocks[1, 4, 4] == -1.0


def test_discretize_allocates_one_matrix():
    # a table without the reflection symmetry, which is sampled whole
    n = 801
    g = make_grid(TRAPEZOID, n)
    table = np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))
    spec = tabulated(table + table.T, g)
    assert spec.reflective is False
    del table
    tracemalloc.start()
    try:
        b = discretize(spec, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert b.n == n
    # the matrix itself plus row-block temporaries of about 2**16 entries
    assert peak < 1.25 * 8 * n**2


def test_eigh_decomposition_gathers_once():
    n = 801
    b = discretize(green_dirichlet(), make_grid(TRAPEZOID, n))
    tracemalloc.start()
    try:
        d = eigh_eigen(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.vectors.shape == (n, n)
    # LAPACK's half-size eigenvectors, 0.5, and the n x n vectors they are
    # unfolded into, in sorted order, with row-block temporaries.  An n x n
    # gather temporary would add 1.0
    assert peak < 1.8 * 8 * n**2


def test_split_eigenvalues_make_no_full_size_temporary():
    for n in (800, 801):
        g = make_grid(TRAPEZOID, n)
        tracemalloc.start()
        try:
            values = _values(discretize(green_dirichlet(), g))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (n,)
        # the halves, sampled without B, and the fold's row-block buffers;
        # B itself would add 1.0
        assert peak < 0.8 * 8 * n**2, n


@pytest.mark.parametrize("check", ["trace_formula_check", "indefiniteness"])
def test_lapack_gets_the_halves_in_the_discretized_buffer(monkeypatch, check):
    n = 801
    g = make_grid(TRAPEZOID, n)
    results, received = [], []
    eigvalsh, discretized = np.linalg.eigvalsh, nystrom.discretize

    def recording_discretize(spec, grid, **options):
        result = discretized(spec, grid, **options)
        results.append(result)
        return result

    def recording(a):
        received.append((a.shape, a is results[-1].blocks))
        return eigvalsh(a)

    monkeypatch.setattr(nystrom, "discretize", recording_discretize)
    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    tracemalloc.start()
    try:
        if check == "trace_formula_check":
            assert trace_formula_check(green_dirichlet(), g).residual < 1e-12
        else:
            cli._indefiniteness(green_dirichlet(), g, "fail")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert received == [((2, 401, 401), True)]
    # no n x n float64 array, 8 n^2 bytes, was made
    assert peak < 8 * n**2


@pytest.mark.parametrize("n", [600, 601])
@pytest.mark.parametrize("block", [0, -1], ids=["outermost", "last before the centre"])
def test_matrix_without_the_symmetry_reaches_lapack_unchanged(monkeypatch, n, block):
    # a Green table, even under x -> 1 - x except in one row block before
    # the centre, the first or the last one the fold would sample: the
    # table's check when it is made must see every block, and the whole B,
    # discretized once, must reach LAPACK as it would without the split
    g = make_grid(TRAPEZOID, n)
    rows = row_blocks(n // 2, 2 * n)[block]  # as linalg._fold_halves reads them
    table = green_dirichlet().matrix(g)
    i, j = rows.start, rows.stop - 1
    table[i, j] = table[j, i] = table[i, j] + 1e-3
    spec = tabulated(table, g)
    assert spec.reflective is False
    b = discretize(spec, g)
    whole = np.linalg.eigvalsh(b.entries)[::-1]
    assert _values(b).tobytes() == whole.tobytes()
    calls, discretized = [], nystrom.discretize
    monkeypatch.setattr(nystrom, "discretize",
                        lambda *a, **k: calls.append(k) or discretized(*a, **k))
    assert trace_formula_check(spec, g).eig_sum == float(np.sum(whole))
    assert calls == [{}]


@pytest.mark.parametrize("n", [200, 201])
def test_split_never_folds_a_table_without_the_symmetry(monkeypatch, n, whole_b):
    # the table says when it is made that it has no reflection symmetry, so
    # its B is sampled once, whole, with no halves made and dropped
    g = make_grid(TRAPEZOID, n)
    table = np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))
    spec = tabulated(table + table.T, g)
    folds = []
    monkeypatch.setattr(nystrom, "_fold_halves", lambda *a: folds.append(a))
    b = discretize(spec, g)
    assert folds == []
    assert b.entries.tobytes() == whole_b(spec, g).entries.tobytes()


@pytest.mark.parametrize("n", [101, 201], ids=["jacobi", "lapack"])
def test_eigenvalue_sum_of_a_table_near_the_float_maximum_is_finite(n):
    # eigenvalues near 1e307: np.sum of them overflowed to inf and then nan,
    # with RuntimeWarnings, which the suite turns into errors
    g = make_grid(MIDPOINT, n)
    u = np.random.default_rng(0).uniform(-1.0, 1.0, (n, n))
    spec = tabulated((u + u.T) * 0.85e308, g)
    report = trace_formula_check(spec, g)
    largest = np.abs(np.linalg.eigvalsh(discretize(spec, g).entries)).max()
    assert math.isfinite(report.eig_sum) and math.isfinite(report.diag_integral)
    assert report.residual <= 8.0 * n * n * 2.0**-53 * largest


def parity_sums(n):
    """Sums of the Green trapezoid eigenvalues whose eigenvectors are even / odd about 1/2."""
    d = eigh_eigen(discretize(green_dirichlet(), make_grid(TRAPEZOID, n)))
    parity = np.einsum("ij,ij->j", d.vectors, d.vectors[::-1])
    assert np.abs(np.abs(parity) - 1.0).max() < 1e-12
    return float(d.values[parity > 0].sum()), float(d.values[parity < 0].sum())


def test_eulers_split_of_basel_by_parity():
    # pi^2/6 = pi^2/8 + pi^2/24: sin(k pi x) is even about 1/2 for odd k and
    # odd for even k, so the even half of the spectrum sums to
    # sum_{k odd} 1/(k pi)^2 = 1/8 and the odd half to sum_{k even} = 1/24
    gaps = {n: np.subtract(parity_sums(n), (1 / 8, 1 / 24)) for n in (400, 800)}
    ratio = gaps[400] / gaps[800]
    assert np.all((3.9 < ratio) & (ratio < 4.1)), ratio
    # at odd n the even half's trace h^2 m(m-1)/2 + h/4, h = 1/(2m), is 1/8
    # exactly, and the whole gap -h^2/6 of the diagonal quadrature is the odd half's
    gaps = {}
    for n in (401, 801):
        h = 1.0 / (n - 1)
        even, odd = parity_sums(n)
        assert abs(even - 1 / 8) < 1e-15
        assert abs(odd - (1 / 24 - h**2 / 6)) < 1e-15
        gaps[n] = odd - 1 / 24
    assert 3.9 < gaps[401] / gaps[801] < 4.1


def test_operator_spectrum_green_eigenvalues():
    g = make_grid(TRAPEZOID, 401)
    spectrum = operator_spectrum(green_dirichlet(), g, 5)
    for k in range(1, 6):
        analytic = analytic_green_eigenvalue(k)
        assert abs(spectrum.eigenvalues[k - 1] - analytic) / analytic < 1e-3


def test_operator_spectrum_first_eigenfunction():
    g = make_grid(TRAPEZOID, 401)
    spectrum = operator_spectrum(green_dirichlet(), g, 1)
    target = math.sqrt(2) * np.sin(math.pi * g.nodes)
    assert np.abs(spectrum.eigenfunctions[0] - target).max() < 1e-2


def test_operator_spectrum_constant_kernel_flat_mode():
    g = make_grid(TRAPEZOID, 30)
    spec = tabulated(np.ones((30, 30)), g)
    spectrum = operator_spectrum(spec, g, 1)
    assert abs(spectrum.eigenvalues[0] - 1.0) < 1e-12
    assert np.abs(spectrum.eigenfunctions[0] - 1.0).max() < 1e-9


def test_operator_spectrum_count_validation():
    g = make_grid(TRAPEZOID, 10)
    with pytest.raises(ValueError):
        operator_spectrum(green_dirichlet(), g, 11)
    with pytest.raises(ValueError):
        operator_spectrum(green_dirichlet(), g, 0)


def test_operator_spectrum_orthonormal():
    g = make_grid(TRAPEZOID, 201)
    spectrum = operator_spectrum(green_dirichlet(), g, 8)
    for i in range(8):
        for j in range(8):
            expected = 1.0 if i == j else 0.0
            got = inner_product(spectrum.eigenfunctions[i],
                                spectrum.eigenfunctions[j], g)
            assert abs(got - expected) < 1e-8


def test_operator_spectrum_residuals():
    g = make_grid(TRAPEZOID, 201)
    spec = green_dirichlet()
    spectrum = operator_spectrum(spec, g, 10)
    for lam, f in zip(spectrum.eigenvalues, spectrum.eigenfunctions):
        image = spec.matrix(g) @ (g.weights * f)
        assert np.abs(image - lam * f).max() < 1e-6 * (1.0 + abs(lam))


def test_trace_formula_green():
    g = make_grid(TRAPEZOID, 201)
    report = trace_formula_check(green_dirichlet(), g)
    assert report.residual < 1e-10
    h = g.spacing
    assert abs(report.diag_integral - 1.0 / 6.0) < h**2


def test_trace_formula_zero_kernel():
    g = make_grid(TRAPEZOID, 15)
    report = trace_formula_check(tabulated(np.zeros((15, 15)), g), g)
    assert (report.eig_sum, report.diag_integral, report.residual) == (0.0, 0.0, 0.0)


def test_trace_formula_heat_circle_against_theta_sum():
    # oracle: direct summation of exp(-2 pi^2 k^2) over the integers
    t = 0.5
    theta_sum = 1.0 + 2.0 * sum(math.exp(-4.0 * math.pi**2 * k * k * t)
                                for k in range(1, 30))
    g = make_grid(TRAPEZOID, 201)
    report = trace_formula_check(heat_circle(t), g)
    assert abs(report.eig_sum - theta_sum) < 1e-6
    assert abs(report.diag_integral - theta_sum) < 1e-6


def test_eigenvalue_convergence_under_refinement():
    errors = {}
    for n in (201, 401, 801):
        g = make_grid(TRAPEZOID, n)
        values = operator_spectrum(green_dirichlet(), g, 10).eigenvalues
        analytic = np.array([analytic_green_eigenvalue(k) for k in range(1, 11)])
        errors[n] = np.abs(values - analytic)
    assert np.all(errors[401] / errors[201] <= 0.35)
    assert np.all(errors[801] / errors[401] <= 0.35)


def test_eigensolvers_agree(whole_b):
    # Jacobi against LAPACK eigvalsh, odd and even n; the random tabulated
    # kernel is indefinite, so no eigenvalue is negligible
    rng = np.random.default_rng(6)
    table = rng.uniform(-1.0, 1.0, (40, 40))
    for spec, n in ((green_dirichlet(), 101), (heat_circle(0.05), 63),
                    (tabulated(table + table.T, make_grid(TRAPEZOID, 40)), 40)):
        b = whole_b(spec, make_grid(TRAPEZOID, n))
        jac = jacobi_eigen(b).values
        lap = np.linalg.eigvalsh(b.entries)[::-1]
        trace = np.trace(b.entries)
        assert abs(jac.sum() - lap.sum()) < 1e-12
        assert max(abs(jac.sum() - trace), abs(lap.sum() - trace)) < 1e-12
    b = whole_b(green_dirichlet(), make_grid(TRAPEZOID, 101))
    vals_j = jacobi_eigen(b).values[:10]
    vals_e = eigh_eigen(b).values[:10]
    assert np.abs(vals_j - vals_e).max() < 1e-12
    # Jacobi on the halves against LAPACK on the halves, pairs and all
    for spec, n in ((green_dirichlet(), 101), (green_dirichlet(), 100), (heat_circle(0.05), 63)):
        g = make_grid(TRAPEZOID, n)
        halves = discretize(spec, g)
        dj, de = jacobi_eigen(halves), eigh_eigen(halves)
        scale = np.abs(de.values).max()
        assert np.abs(dj.values - de.values).max() < 1e-12 * scale
        assert np.abs(dj.vectors.T @ dj.vectors - np.eye(n)).max() < 1e-12
        b = whole_b(spec, g).entries
        assert np.abs(b @ dj.vectors - dj.vectors * dj.values).max() < 1e-12 * scale


def test_eigenfunction_signs_match_per_pair_loop():
    # the per-eigenpair loop the vectorized sign fix replaced, as reference;
    # operator_spectrum decomposes by Jacobi at n = 61 and by LAPACK at n = 201
    spec = heat_circle(0.01)
    for n, solve in ((61, jacobi_eigen), (201, eigh_eigen)):
        assert (n <= JACOBI_SIZE_LIMIT) == (solve is jacobi_eigen)
        g = make_grid(TRAPEZOID, n)
        spectrum = operator_spectrum(spec, g, 8)
        d = solve(discretize(spec, g))
        order = np.argsort(-np.abs(d.values), kind="stable")[:8]
        for row, k in enumerate(order):
            f = d.vectors[:, k] / np.sqrt(g.weights)
            if f[int(np.argmax(np.abs(f) > 1e-8 * np.abs(f).max()))] < 0.0:
                f = -f
            assert np.array_equal(spectrum.eigenfunctions[row], f)


def test_exact_discrete_identity_various_kernels(whole_b):
    for spec, n in ((green_dirichlet(), 101), (heat_circle(0.2), 64)):
        for kind in (TRAPEZOID,):
            g = make_grid(kind, n)
            b = whole_b(spec, g)
            report = trace_formula_check(spec, g)
            assert abs(report.eig_sum - np.trace(b.entries)) < 1e-10


def test_green_discretization_positive():
    g = make_grid(TRAPEZOID, 201)
    values = operator_spectrum(green_dirichlet(), g, 201).eigenvalues
    assert values.min() >= -1e-12


def test_spectrum_csv_export(tmp_path):
    g = make_grid(TRAPEZOID, 51)
    spectrum = operator_spectrum(green_dirichlet(), g, 3)
    values_path = tmp_path / "values.csv"
    functions_path = tmp_path / "functions.csv"
    analytic = [analytic_green_eigenvalue(k) for k in (1, 2, 3)]
    spectrum_to_csv(spectrum, values_path, functions_path, analytic=analytic)
    lines = values_path.read_text().splitlines()
    assert lines[0] == "k,lambda,analytic_lambda"
    assert len(lines) == 4
    assert len(functions_path.read_text().splitlines()) == 4


def test_spectrum_csv_bytes_match_cell_by_cell_numpy_scalars(tmp_path, write_csv_by_cell):
    # the bytes are those of the numpy scalars rendered one cell at a time
    g = make_grid(TRAPEZOID, 201)
    spectrum = operator_spectrum(green_dirichlet(), g, 4)
    analytic = 1.0 / (math.pi * np.arange(1, 5)) ** 2
    for with_analytic in (False, True):
        reference_values, reference_functions = tmp_path / "rv.csv", tmp_path / "rf.csv"
        if with_analytic:
            write_csv_by_cell(reference_values, ("k", "lambda", "analytic_lambda"),
                              [(k + 1, v, a) for k, (v, a) in
                               enumerate(zip(spectrum.eigenvalues, analytic))])
        else:
            write_csv_by_cell(reference_values, ("k", "lambda"),
                              [(k + 1, v) for k, v in enumerate(spectrum.eigenvalues)])
        write_csv_by_cell(reference_functions, [f"x{i}" for i in range(g.n)],
                          spectrum.eigenfunctions)
        values_path, functions_path = tmp_path / "v.csv", tmp_path / "f.csv"
        spectrum_to_csv(spectrum, values_path, functions_path,
                        analytic=analytic if with_analytic else None)
        assert values_path.read_bytes() == reference_values.read_bytes()
        assert functions_path.read_bytes() == reference_functions.read_bytes()
