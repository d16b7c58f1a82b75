import math

import numpy as np
import pytest

from tracelab.quadrature import (
    MIDPOINT,
    TRAPEZOID,
    Grid,
    inner_product,
    integrate,
    make_grid,
)


def test_trapezoid_three_nodes():
    g = make_grid(TRAPEZOID, 3)
    assert np.allclose(g.nodes, [0.0, 0.5, 1.0], atol=0)
    assert np.allclose(g.weights, [0.25, 0.5, 0.25], atol=0)


def test_midpoint_four_nodes():
    g = make_grid(MIDPOINT, 4)
    assert np.allclose(g.nodes, [0.125, 0.375, 0.625, 0.875], atol=0)
    assert np.allclose(g.weights, [0.25, 0.25, 0.25, 0.25], atol=0)


def test_too_few_nodes_rejected():
    with pytest.raises(ValueError):
        make_grid(TRAPEZOID, 1)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        make_grid("gauss", 5)


@pytest.mark.parametrize("kind", [TRAPEZOID, MIDPOINT])
@pytest.mark.parametrize("n", [2, 3, 10, 101, 1000])
def test_weights_normalized(kind, n):
    g = make_grid(kind, n)
    assert abs(g.weights.sum() - 1.0) <= 1e-14
    assert np.all(g.weights > 0)
    assert np.all(np.diff(g.nodes) > 0)


def test_integrate_parabola():
    g = make_grid(TRAPEZOID, 1001)
    x = g.nodes
    assert abs(integrate(x * (1 - x), g) - 1.0 / 6.0) < 1e-6


def test_integrate_constant_exact():
    for kind in (TRAPEZOID, MIDPOINT):
        g = make_grid(kind, 37)
        assert abs(integrate(np.ones(37), g) - 1.0) <= 1e-14


def test_integrate_normalized_sine():
    g = make_grid(TRAPEZOID, 1001)
    assert abs(integrate(2.0 * np.sin(np.pi * g.nodes) ** 2, g) - 1.0) < 1e-6


def test_integrate_affine_exact_under_trapezoid():
    g = make_grid(TRAPEZOID, 17)
    x = g.nodes
    assert abs(integrate(3.0 * x - 0.5, g) - 1.0) < 1e-14


def test_integrate_length_mismatch():
    g = make_grid(TRAPEZOID, 5)
    with pytest.raises(ValueError):
        integrate(np.ones(4), g)


def test_inner_product_orthogonal_modes():
    g = make_grid(TRAPEZOID, 2001)
    f = math.sqrt(2) * np.sin(np.pi * g.nodes)
    h = math.sqrt(2) * np.sin(2 * np.pi * g.nodes)
    assert abs(inner_product(f, h, g)) < 1e-8


def test_inner_product_unit_norm():
    g = make_grid(TRAPEZOID, 2001)
    f = math.sqrt(2) * np.sin(3 * np.pi * g.nodes)
    assert abs(inner_product(f, f, g) - 1.0) < 1e-6


def test_inner_product_zero():
    g = make_grid(TRAPEZOID, 11)
    z = np.zeros(11)
    assert inner_product(z, z, g) == 0.0


def test_inner_product_length_mismatch():
    g = make_grid(MIDPOINT, 6)
    with pytest.raises(ValueError):
        inner_product(np.ones(6), np.ones(7), g)


def test_integrate_linearity_random():
    rng = np.random.default_rng(11)
    g = make_grid(TRAPEZOID, 101)
    for _ in range(20):
        a, b = rng.standard_normal(2)
        f, h = rng.standard_normal((2, 101))
        lhs = integrate(a * f + b * h, g)
        rhs = a * integrate(f, g) + b * integrate(h, g)
        assert abs(lhs - rhs) < 1e-13


def test_inner_product_positive_definite_on_nodes():
    rng = np.random.default_rng(5)
    g = make_grid(MIDPOINT, 64)
    f = rng.standard_normal(64)
    assert inner_product(f, f, g) > 0.0


def test_trapezoid_second_order_convergence():
    # halving h must shrink the x(1-x) error by ~4
    def err(n):
        g = make_grid(TRAPEZOID, n)
        return abs(integrate(g.nodes * (1 - g.nodes), g) - 1.0 / 6.0)

    for n in (11, 51, 201):
        ratio = err(n) / err(2 * n - 1)
        assert 3.8 <= ratio <= 4.2


def test_grid_validation():
    # a grid is its kind and its size; nothing else can be asked of it
    for kind, n in (("uniform-simpson", 5), (TRAPEZOID, 1), (MIDPOINT, 0), (MIDPOINT, -3)):
        with pytest.raises(ValueError):
            Grid(kind, n)


@pytest.mark.parametrize("n", [2, 3, 10, 401, 1000])
def test_grid_is_its_kind_and_size(n):
    for kind, nodes in ((TRAPEZOID, np.linspace(0.0, 1.0, n)),
                        (MIDPOINT, (np.arange(n) + 0.5) / n)):
        g = Grid(kind, n)
        assert g == make_grid(kind, n) and hash(g) == hash(make_grid(kind, n))
        assert g != Grid(kind, n + 1)
        assert np.array_equal(g.nodes, nodes)
        assert g.spacing == nodes[1] - nodes[0]
        assert not g.nodes.flags.writeable and not g.weights.flags.writeable
    assert Grid(TRAPEZOID, n) != Grid(MIDPOINT, n)
    h = 1.0 / (n - 1)
    assert np.array_equal(Grid(TRAPEZOID, n).weights,
                          np.concatenate(([h / 2.0], np.full(n - 2, h), [h / 2.0])))
    assert np.array_equal(Grid(MIDPOINT, n).weights, np.full(n, 1.0 / n))
