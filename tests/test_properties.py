"""Two-method agreement, solver invariants and block-size independence
over generated inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelab import sturm
from tracelab.heat import KERNEL, SPECTRAL, heat_evolve, random_trig_sample
from tracelab.linalg import jacobi_eigen
from tracelab.quadrature import MIDPOINT, TRAPEZOID, make_grid

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@PROPERTY
@given(n=st.integers(min_value=61, max_value=1201), seed=SEEDS)
def test_bvp_direct_matches_spectral(n, seed):
    # the trapezoid sums of the direct solve are second order: about 0.34 h^2
    # for these 30-mode data at every size, so h^2 leaves a factor 3
    g = make_grid(TRAPEZOID, n)
    f = sturm.random_fourier_sum(g, modes=30, seed=seed)
    diff = np.abs(sturm.solve_direct(f, g) - sturm.solve_spectral(f, g, (n - 1) // 2)).max()
    assert diff <= g.spacing**2


@PROPERTY
@given(n=st.integers(min_value=32, max_value=512), seed=SEEDS,
       t=st.floats(min_value=0.002, max_value=10.0))
def test_heat_spectral_matches_kernel(n, seed, t):
    # five modes are resolved by 32 nodes; the kernel's aliased Fourier tail
    # exp(-4 pi^2 (n - 5)^2 t) is below 1e-60 on this range
    g = make_grid(MIDPOINT, n)
    f = random_trig_sample(g, modes=5, seed=seed)
    spectral = heat_evolve(f, g, t, method=SPECTRAL)
    kernel = heat_evolve(f, g, t, method=KERNEL)
    assert np.abs(spectral - kernel).max() < 1e-12


@PROPERTY
@given(n=st.integers(min_value=8, max_value=300), k_max=st.integers(min_value=1, max_value=120),
       per_block=st.integers(min_value=1, max_value=7), seed=SEEDS,
       periodic=st.booleans())
def test_blocked_series_matches_one_block(n, k_max, per_block, seed, periodic):
    kind, modes = (MIDPOINT, sturm.trig_modes) if periodic else (TRAPEZOID, sturm.sine_modes)
    g = make_grid(kind, n)
    f = np.random.default_rng(seed).standard_normal(n)

    def series():  # gain 1: the projection of f onto the first k_max modes
        return sturm.filtered_series(f, g, k_max, modes, np.ones_like)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sturm, "_BLOCK_VALUES", 2 * n * (k_max + 1))
        whole = series()
        patch.setattr(sturm, "_BLOCK_VALUES", 2 * n * per_block)
        blocked = series()
    assert np.abs(blocked - whole).max() <= 1e-13


def symmetric_matrix(kind: str, n: int, seed: int) -> np.ndarray:
    """Entries in [-1, 1]: random, diagonal, few repeated eigenvalues, or zero rows."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (n, n))
    a = 0.5 * (a + a.T)
    if kind == "diagonal":
        return np.diag(np.diag(a))
    if kind == "repeated":
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        values = rng.choice([-0.5, 0.0, 0.25, 0.25, 1.0], size=n)
        return (q * values) @ q.T
    if kind == "zero rows":
        zero = rng.random(n) < 0.3
        a[zero] = 0.0
        a[:, zero] = 0.0
    return a


@settings(derandomize=True, deadline=None, max_examples=40)
@given(kind=st.sampled_from(["random", "diagonal", "repeated", "zero rows"]),
       n=st.integers(min_value=1, max_value=160), seed=SEEDS)
def test_jacobi_matches_lapack(kind, n, seed):
    a = symmetric_matrix(kind, n, seed)
    scale = max(1.0, float(np.linalg.norm(a)))
    d = jacobi_eigen(a)
    assert np.abs(d.values - np.linalg.eigvalsh(a)[::-1]).max() <= 1e-10 * scale
    assert abs(float(np.sum(d.values)) - float(np.trace(a))) < 1e-9
    assert np.abs(d.vectors.T @ d.vectors - np.eye(n)).max() <= 1e-10
    assert np.abs(a @ d.vectors - d.vectors * d.values).max() <= 1e-10 * scale
    assert np.array_equal(jacobi_eigen(a, values_only=True), d.values)
