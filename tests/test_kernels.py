import math

import numpy as np
import pytest

from tracelab.kernels import (
    apply_kernel,
    default_heat_truncation,
    diagonal_trace,
    eval_green,
    eval_heat,
    eval_heat_periodic,
    green_dirichlet,
    heat_circle,
    heat_line,
    kernel_from_csv,
    kernel_to_csv,
    periodic_tail_bound,
    tabulated,
)
from tracelab.quadrature import MIDPOINT, TRAPEZOID, make_grid


def brute_force_periodic(t, x, y, cutoff=400):
    """Independent oracle: plain term-by-term periodization sum."""
    return sum(
        math.exp(-((x - y - ell) ** 2) / (4 * t)) for ell in range(-cutoff, cutoff + 1)
    ) / math.sqrt(4 * math.pi * t)


def test_green_center():
    assert eval_green(0.5, 0.5) == 0.25


def test_green_boundary_zero():
    for y in (0.0, 0.3, 0.77, 1.0):
        assert eval_green(0.0, y) == 0.0
        assert eval_green(y, 1.0) == 0.0


def test_green_symmetric_pair():
    assert eval_green(0.25, 0.75) == 0.0625
    assert eval_green(0.25, 0.75) == eval_green(0.75, 0.25)


def test_green_rejects_outside():
    with pytest.raises(ValueError):
        eval_green(1.5, 0.5)
    with pytest.raises(ValueError):
        eval_green(0.5, -0.1)


def test_heat_diagonal_value():
    for t in (0.05, 0.3, 2.0):
        assert math.isclose(eval_heat(t, 0.4, 0.4), 1.0 / math.sqrt(4 * math.pi * t),
                            rel_tol=1e-15)


def test_heat_unit_prefactor():
    assert math.isclose(eval_heat(1.0 / (4 * math.pi), 0.0, 0.0), 1.0, rel_tol=1e-15)


def test_heat_mass_one():
    # integral over the line by wide trapezoid quadrature
    t = 0.37
    span = 1.0 + 14.0 * math.sqrt(t)
    y = np.linspace(-span, 1 + span, 40001)
    h = y[1] - y[0]
    w = np.full_like(y, h)
    w[0] = w[-1] = h / 2
    assert abs(np.dot(w, eval_heat(t, 0.3, y)) - 1.0) < 1e-10


def test_heat_rejects_bad_t():
    with pytest.raises(ValueError):
        eval_heat(0.0, 0.1, 0.2)
    with pytest.raises(ValueError):
        eval_heat(-1.0, 0.1, 0.2)


def test_periodic_truncation_insensitive():
    a = eval_heat_periodic(0.1, 0.0, 0.0, 10)
    b = eval_heat_periodic(0.1, 0.0, 0.0, 20)
    assert abs(a - b) < 1e-15


def test_periodic_shift_invariance():
    v0 = eval_heat_periodic(0.2, 0.3, 0.8, 30)
    v1 = eval_heat_periodic(0.2, 1.3, 0.8, 31)
    assert abs(v0 - v1) < 1e-13


def test_periodic_matches_brute_force():
    got = eval_heat_periodic(0.25, 0.0, 0.5, 40)
    assert math.isclose(got, brute_force_periodic(0.25, 0.0, 0.5), rel_tol=1e-14)


def test_periodic_tail_bound_covers_truncation():
    for t, l_max in ((0.1, 3), (0.5, 4), (1.0, 6)):
        truncated = eval_heat_periodic(t, 0.2, 0.9, l_max)
        full = brute_force_periodic(t, 0.2, 0.9)
        assert abs(full - truncated) <= periodic_tail_bound(t, l_max)


def test_default_truncation_guards_tail():
    for t in (0.01, 0.1, 1.0, 5.0):
        l_max = default_heat_truncation(t)
        assert periodic_tail_bound(t, l_max) < 1e-16


def test_builtin_kernels_symmetric():
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, 1000)
    y = rng.uniform(0, 1, 1000)
    for spec in (green_dirichlet(), heat_line(0.3), heat_circle(0.3)):
        asym = np.abs(spec.evaluate(x, y) - spec.evaluate(y, x)).max()
        assert asym < 1e-14


def test_apply_kernel_green_eigenfunction():
    g = make_grid(TRAPEZOID, 2001)
    f = math.sqrt(2) * np.sin(np.pi * g.nodes)
    image = apply_kernel(green_dirichlet(), f, g)
    assert np.abs(image - f / math.pi**2).max() < 1e-5


def test_apply_kernel_zero():
    g = make_grid(TRAPEZOID, 51)
    out = apply_kernel(heat_circle(0.2), np.zeros(51), g)
    assert np.abs(out).max() == 0.0


def test_apply_kernel_discrete_identity():
    g = make_grid(MIDPOINT, 40)
    spec = tabulated(np.diag(1.0 / g.weights), g)
    rng = np.random.default_rng(9)
    f = rng.standard_normal(40)
    assert np.allclose(apply_kernel(spec, f, g), f, rtol=0, atol=1e-13)


def test_apply_kernel_linear():
    g = make_grid(TRAPEZOID, 101)
    rng = np.random.default_rng(17)
    f1, f2 = rng.standard_normal((2, 101))
    spec = green_dirichlet()
    lhs = apply_kernel(spec, 2.0 * f1 - 3.0 * f2, g)
    rhs = 2.0 * apply_kernel(spec, f1, g) - 3.0 * apply_kernel(spec, f2, g)
    assert np.abs(lhs - rhs).max() < 1e-13


def test_diagonal_trace_green():
    g = make_grid(TRAPEZOID, 1001)
    assert abs(diagonal_trace(green_dirichlet(), g) - 1.0 / 6.0) < 1e-6


def test_diagonal_trace_zero_kernel():
    g = make_grid(TRAPEZOID, 21)
    spec = tabulated(np.zeros((21, 21)), g)
    assert diagonal_trace(spec, g) == 0.0


def test_diagonal_trace_heat_circle_matches_eigen_sum():
    # oracle: direct summation of exp(-4 pi^2 k^2 t) over the integers
    t = 0.1
    eigen_sum = 1.0 + 2.0 * sum(math.exp(-4 * math.pi**2 * k * k * t)
                                for k in range(1, 60))
    g = make_grid(MIDPOINT, 2001)
    assert abs(diagonal_trace(heat_circle(t), g) - eigen_sum) < 1e-10


def test_kernel_spec_validation():
    g = make_grid(TRAPEZOID, 4)
    with pytest.raises(ValueError):
        heat_line(-0.5)
    with pytest.raises(ValueError):
        heat_circle(0.5, l_max=0)
    with pytest.raises(ValueError):
        tabulated(np.zeros((3, 3)), g)  # wrong size
    lopsided = np.zeros((4, 4))
    lopsided[0, 1] = 1.0
    with pytest.raises(ValueError):
        tabulated(lopsided, g)


@pytest.mark.parametrize("make", [heat_line, heat_circle])
def test_heat_matrix_refuses_kernels_narrower_than_the_grid(make):
    g = make_grid(MIDPOINT, 16)
    t = g.spacing**2 / 2.0  # standard deviation sqrt(2t) equal to the spacing
    assert np.all(np.isfinite(make(t * (1.0 + 1e-9)).matrix(g)))
    with pytest.raises(ValueError, match="spacing"):
        make(t / 2.0).matrix(g)


def test_tabulated_interpolation_between_nodes():
    g = make_grid(TRAPEZOID, 11)
    spec_exact = green_dirichlet()
    table = tabulated(spec_exact.matrix(g), g)
    # bilinear interpolation of a kink-free region is second-order accurate
    assert abs(table.evaluate(0.22, 0.74) - eval_green(0.22, 0.74)) < 5e-3
    # and exact on the nodes themselves
    assert table.evaluate(g.nodes[3], g.nodes[7]) == spec_exact.evaluate(
        g.nodes[3], g.nodes[7])


def test_tabulated_csv_roundtrip(tmp_path):
    g = make_grid(MIDPOINT, 9)
    spec = tabulated(heat_circle(0.3).matrix(g), g)
    path = tmp_path / "kernel.csv"
    kernel_to_csv(spec, path)
    loaded = kernel_from_csv(path)
    assert loaded.grid.kind == MIDPOINT
    assert np.array_equal(loaded.values, spec.values)
    assert np.array_equal(loaded.grid.nodes, g.nodes)
