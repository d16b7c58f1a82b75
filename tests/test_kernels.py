import math
import re

import numpy as np
import pytest

from tracelab.kernels import (
    GreenDirichlet,
    KernelSpec,
    Tabulated,
    default_heat_truncation,
    diagonal_trace,
    eval_green,
    eval_heat_periodic,
    green_dirichlet,
    heat_circle,
    kernel_from_csv,
    periodic_tail_bound,
    tabulated,
)
from tracelab.linalg import SymMatrix
from tracelab.quadrature import MIDPOINT, TRAPEZOID, make_grid


def brute_force_periodic(t, x, y, cutoff=400):
    """Independent oracle: plain term-by-term periodization sum."""
    return sum(
        math.exp(-((x - y - ell) ** 2) / (4 * t)) for ell in range(-cutoff, cutoff + 1)
    ) / math.sqrt(4 * math.pi * t)


def per_image_periodic(t, x, y, l_max):
    """The images added one numpy call at a time: the bit-level reference of the blocked sum."""
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast(xv, yv).shape)
    for ell in range(-l_max, l_max + 1):
        out += np.exp(-((xv - yv - ell) ** 2) / (4.0 * t))
    out /= math.sqrt(4.0 * math.pi * t)
    return float(out) if out.ndim == 0 else out


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
    # NaN fails the domain test too, alone or in one place of an array
    for x, y in ((math.nan, 0.5), (0.5, math.nan), (np.array([0.2, math.nan, 0.7]), 0.5)):
        with pytest.raises(ValueError, match=r"must lie in \[0,1\]"):
            eval_green(x, y)


def test_heat_diagonal_value():
    # Poisson summation: the periodized diagonal is the theta sum over k
    for t in (0.05, 0.3, 2.0):
        theta_sum = 1.0 + 2.0 * sum(math.exp(-4 * math.pi**2 * k * k * t) for k in range(1, 40))
        assert math.isclose(eval_heat_periodic(t, 0.4, 0.4, default_heat_truncation(t)),
                            theta_sum, rel_tol=1e-14)


def test_heat_unit_prefactor():
    # 1/sqrt(4 pi t) = 1 here, and one image per side adds 2 exp(-1/4t)
    t = 1.0 / (4 * math.pi)
    assert math.isclose(eval_heat_periodic(t, 0.0, 0.0, 1), 1.0 + 2.0 * math.exp(-math.pi),
                        rel_tol=1e-15)


def test_heat_mass_one():
    # integral over one period by the midpoint rule, spectrally exact here
    t = 0.37
    g = make_grid(MIDPOINT, 400)
    mass = np.dot(g.weights, eval_heat_periodic(t, 0.3, g.nodes, default_heat_truncation(t)))
    assert abs(mass - 1.0) < 1e-14


def test_heat_rejects_bad_t():
    for t in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^t must be positive and finite, got {t}$"):
            eval_heat_periodic(t, 0.1, 0.2, 5)
        with pytest.raises(ValueError, match=f"^t must be positive and finite, got {t}$"):
            periodic_tail_bound(t, 5)
        with pytest.raises(ValueError, match=f"^t must be positive and finite, got {t}$"):
            default_heat_truncation(t)


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
    for kernel in (eval_green,
                   lambda x, y: eval_heat_periodic(0.3, x, y, default_heat_truncation(0.3))):
        asym = np.abs(kernel(x, y) - kernel(y, x)).max()
        assert asym < 1e-14


def test_apply_kernel_green_eigenfunction():
    g = make_grid(TRAPEZOID, 2001)
    f = math.sqrt(2) * np.sin(np.pi * g.nodes)
    image = green_dirichlet().matrix(g) @ (g.weights * f)
    assert np.abs(image - f / math.pi**2).max() < 1e-5


def test_apply_kernel_discrete_identity():
    g = make_grid(MIDPOINT, 40)
    spec = tabulated(np.diag(1.0 / g.weights), g)
    rng = np.random.default_rng(9)
    f = rng.standard_normal(40)
    assert np.allclose(spec.matrix(g) @ (g.weights * f), f, rtol=0, atol=1e-13)


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


# at t = 4e4 every image counts; 40 nodes take 13 blocks of images at l_max = 10**4
@pytest.mark.parametrize("l_max, t", [(1, 0.05), (12, 0.05), (12, 4e4), (2000, 4e4),
                                      (10**4, 4e4)])
def test_heat_image_blocks_keep_the_bits_of_the_per_image_sum(l_max, t):
    nodes = make_grid(MIDPOINT, 40).nodes
    for x, y in ((0.0, 0.0), (0.3, 0.7), (nodes, 0.0), (nodes[:8, None], nodes[::8])):
        got, expected = eval_heat_periodic(t, x, y, l_max), per_image_periodic(t, x, y, l_max)
        assert type(got) is type(expected)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def test_a_tiny_heat_time_sums_without_an_overflow_warning():
    # -(d^2) / (4t) overflowed to -inf with a RuntimeWarning, an error under
    # the test settings; exp(-inf) is the right 0, and the bits stay the same
    for x, y in ((0.1, 0.2), (0.3, 0.3), (make_grid(MIDPOINT, 8).nodes, 0.0)):
        got = eval_heat_periodic(5e-324, x, y, 5)
        with np.errstate(over="ignore"):
            expected = per_image_periodic(5e-324, x, y, 5)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def test_kernel_spec_validation():
    g = make_grid(TRAPEZOID, 4)
    for t in (-0.5, math.nan, math.inf):
        for l_max in (None, 5):
            with pytest.raises(ValueError, match=f"^t must be positive and finite, got {t}$"):
                heat_circle(t, l_max=l_max)
    with pytest.raises(ValueError):
        heat_circle(0.5, l_max=0)
    # refused when made, not at the first sample; numpy integers are integers
    with pytest.raises(TypeError):
        heat_circle(0.1, l_max=2.5)
    assert heat_circle(0.1, l_max=np.int64(3)).l_max == 3
    with pytest.raises(ValueError):
        tabulated(np.zeros((3, 3)), g)  # wrong size
    lopsided = np.zeros((4, 4))
    lopsided[0, 1] = 1.0
    with pytest.raises(ValueError):
        tabulated(lopsided, g)


def test_tabulated_table_is_its_symmetric_matrix():
    g = make_grid(MIDPOINT, 300)
    values = np.random.default_rng(4).uniform(-1.0, 1.0, (300, 300))
    values += values.T + np.random.default_rng(5).uniform(-1e-13, 1e-13, (300, 300))
    table = tabulated(values, g).values
    assert table.tobytes() == SymMatrix(entries=values).entries.tobytes()
    assert not table.flags.writeable and not np.shares_memory(table, values)


def test_tabulated_rejects_nonfinite_with_location():
    g = make_grid(TRAPEZOID, 5)
    values = np.zeros((5, 5))
    values[2, 3] = values[3, 2] = np.nan
    with pytest.raises(ValueError, match=re.escape("not finite at nodes (0.5, 0.75)")):
        tabulated(values, g)


def test_tabulated_symmetry_tolerance_is_relative_to_the_largest_entry():
    g = make_grid(TRAPEZOID, 4)
    # asymmetric by more than its largest entry, yet every entry below 1e-12
    tiny = np.random.default_rng(1).uniform(-1.0, 1.0, (4, 4)) * 1e-13
    asym, scale = np.abs(tiny - tiny.T).max(), np.abs(tiny).max()
    assert asym > scale
    message = f"asymmetric by {asym:.3e}, above 1e-12 of its largest value {scale:.3e}"
    with pytest.raises(ValueError, match=re.escape(message)):
        tabulated(tiny, g)
    # a relative asymmetry of 1e-15, above 1e-12 in absolute terms
    big = np.full((4, 4), 1e6)
    big[0, 1] += 1e-9
    assert np.abs(tabulated(big, g).values - 1e6).max() < 1e-9


def test_reflective_is_set_when_made_and_not_passed():
    assert green_dirichlet().reflective and heat_circle(0.05).reflective
    g = make_grid(TRAPEZOID, 5)
    # each kind takes its own fields only, and the kind is its class
    for make in (lambda: GreenDirichlet(reflective=False), lambda: GreenDirichlet(t=5.0),
                 lambda: Tabulated(np.ones((5, 5)), g, reflective=False),
                 lambda: KernelSpec(kind="green-dirichlet")):
        with pytest.raises(TypeError):
            make()
    # even under x -> 1 - x up to an odd part max|T - JTJ| of 16u max|T|, then above it
    table = np.ones((5, 5))
    table[0, 1] = table[1, 0] = 1.0 - 2.0**-49
    assert tabulated(table, g).reflective
    table[0, 1] = table[1, 0] = 1.0 - 2.0**-48
    assert not tabulated(table, g).reflective
    # the centre row is the centre column, checked with the rows before it
    table = np.ones((5, 5))
    table[2, 0] = table[0, 2] = 2.0
    assert not tabulated(table, g).reflective
    # exactly even, and 4n max|T| finite, then not: the fold's pad could overflow
    assert tabulated(np.full((5, 5), 8e306), g).reflective
    assert not tabulated(np.full((5, 5), 1e307), g).reflective


@pytest.mark.parametrize("make", [heat_circle])
def test_heat_matrix_refuses_kernels_narrower_than_the_grid(make):
    g = make_grid(MIDPOINT, 16)
    t = g.spacing**2 / 2.0  # standard deviation sqrt(2t) equal to the spacing
    assert np.all(np.isfinite(make(t * (1.0 + 1e-9)).matrix(g)))
    with pytest.raises(ValueError, match="spacing"):
        make(t / 2.0).matrix(g)


def test_tabulated_kernel_is_exact_on_its_nodes_and_refused_elsewhere():
    g = make_grid(TRAPEZOID, 11)
    table = tabulated(green_dirichlet().matrix(g), g)
    assert table.matrix(make_grid(TRAPEZOID, 11))[3, 7] == eval_green(g.nodes[3], g.nodes[7])
    assert np.array_equal(table.diag(g), eval_green(g.nodes, g.nodes))
    assert diagonal_trace(table, g) == diagonal_trace(green_dirichlet(), g)
    for call in (lambda: table.matrix(make_grid(TRAPEZOID, 12)),
                 lambda: table.matrix(make_grid(MIDPOINT, 11)),
                 lambda: table.diag(make_grid(MIDPOINT, 11)),
                 lambda: diagonal_trace(table, make_grid(MIDPOINT, 11))):
        with pytest.raises(ValueError, match="own grid") as info:
            call()
        assert "\n" not in str(info.value)


def test_tabulated_csv_roundtrip(write_kernel_csv):
    g = make_grid(MIDPOINT, 9)
    spec = tabulated(heat_circle(0.3).matrix(g), g)
    loaded = kernel_from_csv(write_kernel_csv(spec))
    assert loaded.grid.kind == MIDPOINT
    assert np.array_equal(loaded.values, spec.values)
    assert np.array_equal(loaded.grid.nodes, g.nodes)
