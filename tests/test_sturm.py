import math

import numpy as np
import pytest

from tracelab.kernels import green_dirichlet
from tracelab.quadrature import MIDPOINT, TRAPEZOID, inner_product, make_grid
from tracelab.sturm import (
    random_fourier_sum,
    residual_check,
    sine_modes,
    solution_to_csv,
    solve_direct,
    solve_spectral,
    trig_modes,
)


def test_solve_direct_constant_load():
    g = make_grid(TRAPEZOID, 1001)
    u = solve_direct(np.ones(1001), g)
    exact = g.nodes * (1.0 - g.nodes) / 2.0
    assert np.abs(u - exact).max() < 1e-6


def test_solve_direct_sine_modes():
    g = make_grid(TRAPEZOID, 1001)
    mu, modes = sine_modes(np.arange(1, 6), g.nodes)
    for m, f in zip(mu, modes):
        u = solve_direct(f, g)
        assert np.abs(u - f / m).max() < 1e-5


def test_solve_direct_zero():
    g = make_grid(TRAPEZOID, 101)
    assert np.abs(solve_direct(np.zeros(101), g)).max() == 0.0


def test_solve_direct_exact_boundary_values():
    g = make_grid(TRAPEZOID, 301)
    u = solve_direct(np.cos(7 * g.nodes), g)
    assert u[0] == 0.0 and u[-1] == 0.0


def test_solve_spectral_single_mode():
    g = make_grid(TRAPEZOID, 1001)
    f = sine_modes([3], g.nodes)[1][0]
    for k_max in (3, 5):  # the mode is the last one kept, or an inner one
        u = solve_spectral(f, g, k_max)
        assert np.abs(u - f / (9.0 * math.pi**2)).max() < 1e-6


def test_solve_spectral_constant_matches_direct():
    g = make_grid(TRAPEZOID, 1001)
    f = np.ones(1001)
    u_spec = solve_spectral(f, g, 200)
    u_dir = solve_direct(f, g)
    assert np.abs(u_spec - u_dir).max() < 1e-4


def test_solve_spectral_orthogonal_mode_truncated_away():
    g = make_grid(TRAPEZOID, 801)
    f = sine_modes([2], g.nodes)[1][0]
    u = solve_spectral(f, g, 1)
    assert np.abs(u).max() < 1e-12


def test_residual_check_quadratic_exact():
    g = make_grid(TRAPEZOID, 1001)
    u = g.nodes * (1.0 - g.nodes) / 2.0
    assert residual_check(u, np.ones(1001), g) < 1e-10


def test_residual_check_solved_problem():
    g = make_grid(TRAPEZOID, 1001)
    f = np.sin(math.pi * g.nodes)
    u = solve_direct(f, g)
    assert residual_check(u, f, g) < 1e-3


def test_residual_check_zero():
    g = make_grid(TRAPEZOID, 11)
    assert residual_check(np.zeros(11), np.zeros(11), g) == 0.0


def test_residual_check_needs_enough_nodes():
    g = make_grid(TRAPEZOID, 4)
    with pytest.raises(ValueError):
        residual_check(np.zeros(4), np.zeros(4), g)


def test_two_methods_agree_on_random_smooth_data():
    g = make_grid(TRAPEZOID, 1001)
    for trial in range(20):
        f = random_fourier_sum(g, seed=trial)
        diff = np.abs(solve_direct(f, g) - solve_spectral(f, g, 500)).max()
        assert diff < 1e-3


def test_solvers_linear():
    g = make_grid(TRAPEZOID, 501)
    f1 = random_fourier_sum(g, seed=1)
    f2 = random_fourier_sum(g, seed=2)
    for solver in (solve_direct, lambda f, g: solve_spectral(f, g, 100)):
        lhs = solver(1.5 * f1 - 0.5 * f2, g)
        rhs = 1.5 * solver(f1, g) - 0.5 * solver(f2, g)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_solver_self_adjoint():
    g = make_grid(TRAPEZOID, 801)
    f = random_fourier_sum(g, seed=3)
    h = random_fourier_sum(g, seed=4)
    lhs = inner_product(solve_direct(f, g), h, g)
    rhs = inner_product(f, solve_direct(h, g), g)
    assert abs(lhs - rhs) < 1e-8


def test_green_kernel_reproduces_solution():
    # the integral operator route must solve the same boundary value problem
    g = make_grid(TRAPEZOID, 1001)
    f = np.sin(math.pi * g.nodes)
    u = green_dirichlet().matrix(g) @ (g.weights * f)
    assert residual_check(u, f, g) < 1e-3


def test_basis_inverse_pairs():
    k = np.arange(1, 51)
    mu, _ = sine_modes(k, np.linspace(0.0, 1.0, 5))
    lams = 1.0 / mu
    for m, lam, kk in zip(mu, lams, k):
        assert math.isclose(lam * m, 1.0, rel_tol=1e-15)
        assert math.isclose(m, math.pi**2 * kk**2, rel_tol=1e-15)
    assert all(a > b for a, b in zip(lams, lams[1:]))
    assert lams[-1] > 0.0


def test_periodic_basis_eigenvalues():
    mu, rows = trig_modes(np.array([0, 1, 2, 5]), np.linspace(0.0, 1.0, 5))
    assert rows.shape == (8, 5)
    assert mu[0] == mu[1] == 0.0  # the constant mode: callers take it as the mean
    for m, k in zip(mu[2:], (1, 1, 2, 2, 5, 5)):  # cos and sin row for each k
        assert math.isclose(m, 4.0 * math.pi**2 * k**2, rel_tol=1e-15)


def test_periodic_modes_orthonormal_on_midpoint_grid():
    g = make_grid(MIDPOINT, 64)
    _, rows = trig_modes(np.arange(1, 4), g.nodes)
    fns = np.vstack((np.ones(g.n), rows))
    gram = (fns * g.weights) @ fns.T
    assert np.abs(gram - np.eye(len(fns))).max() < 1e-13


def test_solution_csv(tmp_path):
    g = make_grid(TRAPEZOID, 5)
    f = np.ones(5)
    u = solve_direct(f, g)
    path = tmp_path / "solution.csv"
    solution_to_csv(g, u, f, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "node,u,f"
    assert len(lines) == 6
