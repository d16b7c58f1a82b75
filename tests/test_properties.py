"""Two-method agreement, transforms against their direct sums and solver
invariants over generated inputs."""

import math
import re
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tracelab import kernels, linalg, nystrom, sturm, wavetrace
from tracelab.billiard import LengthSpectrum
from tracelab.heat import KERNEL, SPECTRAL, heat_evolve, random_trig_sample
from tracelab.linalg import SymMatrix, eigh_eigen, jacobi_eigen
from tracelab.quadrature import MIDPOINT, TRAPEZOID, make_grid

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@PROPERTY
@given(n=st.integers(min_value=61, max_value=1201), seed=SEEDS)
def test_bvp_direct_matches_spectral(n, seed):
    # the trapezoid sums of the direct solve are second order: about 0.34 h^2
    # for these 30-mode data at every size, so h^2 leaves a factor 3
    g = make_grid(TRAPEZOID, n)
    f = sturm.random_fourier_sum(g, seed=seed)
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
@given(n=st.integers(min_value=8, max_value=240), kind=st.sampled_from((TRAPEZOID, MIDPOINT)))
def test_green_eigenfunctions_are_the_sines_signs_included(n, kind):
    # Jacobi decomposes up to n = 160 and LAPACK above; on both grids the
    # discrete Green eigenvectors are sqrt(2) sin(k pi x) on the nodes
    g = make_grid(kind, n)
    spectrum = nystrom.operator_spectrum(kernels.green_dirichlet(), g, 6)
    sines = sturm.sine_modes(np.arange(1, 7), g.nodes)[1]
    sines /= np.sqrt(sines**2 @ g.weights)[:, None]
    assert np.abs(spectrum.eigenfunctions - sines).max() < 1e-9


def mode_sum(values, grid, k_max, modes, gain):
    """The series as an explicit sum over mode rows: the oracle of the FFT.

    Row k is modes([1], x') at x' = k x_i reduced exactly by the period of
    the family.  On a built-in grid x_i = (2i + c) / D, so k x_i is an
    integer residue over D.  Evaluating sin(k pi x_i) directly carries an
    argument error of about eps k, up to 6e-12 in the series at n = 1200,
    k_max = 3600, while the FFT stays within 2e-14 of a long-double sum.
    """
    periodic = modes is sturm.trig_modes
    n = grid.n
    denominator, shift = (2 * (n - 1), 0) if grid.kind == TRAPEZOID else (2 * n, 1)
    period = denominator if periodic else 2 * denominator  # trig 1, sine 2 in x
    numerators = 2 * np.arange(n) + shift
    weighted = grid.weights * values
    u = np.zeros(n)
    for first in range(1, k_max + 1, 64):
        k = np.arange(first, min(first + 64, k_max + 1))
        mu = modes(k, grid.nodes[:0])[0]
        x = (np.outer(k, numerators) % period) / denominator
        rows = modes([1], x.ravel())[1].reshape(-1, len(k), n).transpose(1, 0, 2).reshape(-1, n)
        u += ((gain(mu) * (rows * weighted).sum(axis=1))[:, None] * rows).sum(axis=0)
    return u


@settings(derandomize=True, deadline=None, max_examples=50)
@given(n=st.integers(min_value=3, max_value=1200), k_ratio=st.floats(0.0, 3.0),
       seed=SEEDS, periodic=st.booleans(), midpoint=st.booleans(), inverse=st.booleans())
@example(n=1200, k_ratio=3.0, seed=1, periodic=False, midpoint=False, inverse=False)
@example(n=1200, k_ratio=3.0, seed=2, periodic=True, midpoint=True, inverse=False)
@example(n=1200, k_ratio=1.0, seed=3, periodic=False, midpoint=True, inverse=True)
@example(n=1199, k_ratio=3.0, seed=4, periodic=True, midpoint=False, inverse=True)
def test_fft_series_matches_mode_sum(n, k_ratio, seed, periodic, midpoint, inverse):
    # k_max from 1 to 3n: beyond n the modes alias on the grid
    k_max = max(1, round(k_ratio * n))
    g = make_grid(MIDPOINT if midpoint else TRAPEZOID, n)
    modes = sturm.trig_modes if periodic else sturm.sine_modes
    gain = (lambda mu: 1.0 / mu) if inverse else np.ones_like
    f = np.random.default_rng(seed).standard_normal(n)
    fft = sturm.filtered_series(f, g, k_max, modes, gain)
    oracle = mode_sum(f, g, k_max, modes, gain)
    assert np.abs(fft - oracle).max() <= 1e-13 * max(1.0, np.abs(f).max())


@PROPERTY
@given(n=st.integers(min_value=8, max_value=512), seed=SEEDS,
       t=st.floats(min_value=1e-4, max_value=5.0), l_max=st.sampled_from([None, 1, 2, 5]))
# 2n is no power of two: the convolution is zero-padded to 2048
@example(n=999, seed=0, t=0.01, l_max=None)
@example(n=1000, seed=0, t=0.01, l_max=2)
def test_heat_convolution_matches_dense_apply(n, seed, t, l_max):
    # small l_max keeps the kernel Toeplitz but not circulant
    g = make_grid(MIDPOINT, n)
    assume(math.sqrt(2.0 * t) >= g.spacing)
    f = np.random.default_rng(seed).standard_normal(n)
    spec = kernels.heat_circle(t, l_max=l_max)
    x, y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    dense = kernels.eval_heat_periodic(t, x, y, spec.l_max) @ (g.weights * f)
    kernel = heat_evolve(f, g, t, method=KERNEL, l_max=l_max)
    assert np.abs(kernel - dense).max() <= 1e-13 * max(1.0, np.abs(f).max())


@PROPERTY
@given(n=st.integers(min_value=2, max_value=512), t=st.floats(min_value=1e-4, max_value=5.0),
       midpoint=st.booleans())
def test_heat_circle_matrix_is_the_kernel_on_node_pairs(n, t, midpoint):
    g = make_grid(MIDPOINT if midpoint else TRAPEZOID, n)
    assume(math.sqrt(2.0 * t) >= g.spacing)
    spec = kernels.heat_circle(t)
    x, y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    pairs = kernels.eval_heat_periodic(t, x, y, spec.l_max)
    toeplitz = spec.matrix(g)
    assert np.array_equal(toeplitz, toeplitz.T)
    assert np.abs(toeplitz - pairs).max() <= 1e-13 * np.abs(pairs).max()


WAVE = dict(a=st.floats(0.5, 2.0), b=st.floats(0.5, 2.0), cutoff=st.floats(20.0, 4000.0),
            sigma=st.floats(0.02, 0.2))


def rectangle(a, b, cutoff):
    spectrum = wavetrace.rectangle_spectrum(a, b, cutoff)
    assume(len(spectrum.eigenvalues) > 0)
    return spectrum


def direct_sum(spectrum, sigma, t):
    damping = np.exp(-spectrum.eigenvalues * sigma**2 / 2.0)
    values = (damping[:, None] * np.cos(np.outer(np.sqrt(spectrum.eigenvalues), t))).sum(axis=0)
    return values, damping.sum()


@PROPERTY
@given(start=st.floats(0.0, 6.0), step=st.floats(1e-3, 0.05), count=st.integers(2, 3000), **WAVE)
def test_factored_wave_trace_matches_direct_sum(start, step, count, a, b, cutoff, sigma):
    spectrum = rectangle(a, b, cutoff)
    t = start + step * np.arange(count)
    assert wavetrace._is_uniform(t)  # so the factored sum is what runs
    signal = wavetrace.smoothed_wave_trace(spectrum, t, sigma)
    direct, total_weight = direct_sum(spectrum, sigma, t)
    assert np.abs(signal.values - direct).max() <= 1e-13 * total_weight


@PROPERTY
@given(step=st.floats(1e-3, 0.05), half=st.integers(1, 1500), **WAVE)
def test_wave_trace_even_on_symmetric_grids(step, half, a, b, cutoff, sigma):
    spectrum = rectangle(a, b, cutoff)
    t = step * np.arange(-half, half + 1)
    signal = wavetrace.smoothed_wave_trace(spectrum, t, sigma)
    assert np.array_equal(signal.values, signal.values[::-1])
    direct, total_weight = direct_sum(spectrum, sigma, t)
    assert np.abs(signal.values - direct).max() <= 1e-13 * total_weight


@PROPERTY
@given(negative=st.integers(1, 1500), positive=st.integers(1, 1500),
       step=st.floats(1e-3, 0.05), shift=st.sampled_from([0.0, 0.25, 0.5, 0.7]), **WAVE)
@example(negative=250, positive=3351 - 250, step=0.002, shift=0.0, a=1.0, b=1.0,
         cutoff=4000.0, sigma=0.05)
def test_wave_trace_crossing_zero_stays_factored(negative, positive, step, shift,
                                                 a, b, cutoff, sigma):
    # grids that cross t = 0 without being symmetric, as np.arange(-0.5, 6.201, 0.002)
    spectrum = rectangle(a, b, cutoff)
    t = step * (np.arange(-negative, positive) + shift)
    calls = []

    def spy(name, summed):
        def run(freqs, damping, times):
            calls.append((name, len(times)))
            return summed(freqs, damping, times)
        return run

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wavetrace, "_factored_sum", spy("factored", wavetrace._factored_sum))
        patch.setattr(wavetrace, "_direct_sum", spy("direct", wavetrace._direct_sum))
        signal = wavetrace.smoothed_wave_trace(spectrum, t, sigma)
    # each part of two or more times is uniform, so only a lone time is summed directly
    assert all(name == "factored" or size == 1 for name, size in calls)
    assert sum(size for _, size in calls) == len(np.unique(np.abs(t)))
    damping = np.exp(-spectrum.eigenvalues * sigma**2 / 2.0)
    direct = wavetrace._direct_sum(np.sqrt(spectrum.eigenvalues), damping, np.abs(t))
    assert np.abs(signal.values - direct).max() <= 1e-13 * damping.sum()
    # exactly even: one value per distinct |t|
    _, back = np.unique(np.abs(t), return_inverse=True)
    first = np.empty(back.max() + 1)
    first[back] = signal.values
    assert np.array_equal(signal.values, first[back])


def detect_peaks_loop(signal, window):
    """The per-sample loop detect_peaks replaced, kept as its reference."""
    values = signal.values
    median = float(np.median(values))
    mad = float(np.median(np.abs(values - median)))
    threshold = median + 3.0 * mad
    peaks = []
    for i in range(window, len(values) - window):
        center = values[i]
        if center <= threshold or signal.t_grid[i] == 0.0:
            continue
        neighborhood = values[i - window:i + window + 1]
        if center == neighborhood.max() and np.count_nonzero(neighborhood == center) == 1:
            peaks.append(signal.t_grid[i])
    return np.array(peaks)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(levels=st.lists(st.integers(0, 4), min_size=3, max_size=300),
       window=st.integers(1, 8), zero_at=st.integers(0, 299))
def test_detect_peaks_matches_loop(levels, window, zero_at):
    # few distinct levels: plateaus, ties and equal neighbours everywhere
    assume(len(levels) >= 2 * window + 1)
    values = np.array(levels, dtype=float) ** 2
    t = 0.01 * (np.arange(len(values)) - min(zero_at, len(values) - 1))  # t = 0 somewhere
    signal = wavetrace.TraceSignal(t_grid=t, values=values, sigma=0.1, mu_max=1.0)
    assert np.array_equal(wavetrace.detect_peaks(signal, window), detect_peaks_loop(signal, window))


def compare_lengths_loop(peaks, lengths, tol):
    """The all-pairs greedy matching compare_lengths replaced, as its reference."""
    pairs = sorted((abs(p - L), i, j) for i, p in enumerate(peaks) for j, L in enumerate(lengths))
    used_peaks, used_lengths, matched = set(), set(), []
    for distance, i, j in pairs:
        if distance > tol:
            break
        if i in used_peaks or j in used_lengths:
            continue
        used_peaks.add(i)
        used_lengths.add(j)
        matched.append((float(peaks[i]), float(lengths[j])))
    matched.sort()
    missed = tuple(float(L) for j, L in enumerate(lengths) if j not in used_lengths)
    spurious = tuple(float(p) for i, p in enumerate(peaks) if i not in used_peaks)
    return tuple(matched), missed, spurious


@settings(derandomize=True, deadline=None, max_examples=300)
@given(tol=st.sampled_from([0.1, 0.125]),
       length_steps=st.lists(st.integers(0, 40), max_size=25),
       peak_steps=st.lists(st.tuples(st.integers(0, 40), st.sampled_from([0, 1, 2, -2, 4]),
                                     st.integers(-2, 2)), max_size=25))
def test_compare_lengths_matches_all_pairs(tol, length_steps, peak_steps):
    # lengths on a tol/2 lattice, peaks at 0, tol/2, tol, -tol or 2 tol from
    # a lattice point and nudged by up to two ulps: distances tie and sit on
    # the tolerance, exactly (tol = 1/8) or after rounding (tol = 0.1)
    lengths = 1.5 + 0.5 * tol * np.array(length_steps, dtype=float)
    peaks = np.array([1.5 + 0.5 * tol * (k + off) for k, off, _ in peak_steps])
    peaks += np.array([nudge for _, _, nudge in peak_steps]) * np.spacing(peaks)
    spectrum = LengthSpectrum(lengths=lengths, descriptors=np.zeros((len(lengths), 2), dtype=int))
    report = wavetrace.compare_lengths(peaks, spectrum, tol)
    assert (report.matched, report.missed, report.spurious) == \
        compare_lengths_loop(peaks, lengths, tol)


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


@contextmanager
def lapack_shapes():
    """Record the shape of every numpy.linalg.eigh/eigvalsh input inside the block."""
    shapes = []

    def recording(solve):
        def wrapped(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return solve(a, *args, **kwargs)
        return wrapped

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eigh", recording(np.linalg.eigh))
        patch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
        yield shapes


def split_solves(spec, grid):
    """linalg._values and eigh_eigen of B's halves, and the shapes LAPACK was handed.

    Where B lacks the symmetry, `discretize` gives B whole, and so does LAPACK.
    """
    halves = nystrom.discretize(spec, grid, split=True)
    with lapack_shapes() as shapes:
        values = linalg._values(halves)
        d = eigh_eigen(halves)
    return values, d, shapes


@PROPERTY
@given(n=st.integers(min_value=2, max_value=400), midpoint=st.booleans(),
       heat=st.booleans(), t=st.floats(min_value=1e-4, max_value=5.0))
@example(n=2, midpoint=False, heat=False, t=1.0)  # the zero matrix
@example(n=3, midpoint=False, heat=False, t=1.0)  # only the centre entry
def test_reflection_split_matches_dense_lapack(n, midpoint, heat, t):
    # both built-in kernels are even under x -> 1 - x on both grids, so each
    # solve makes one LAPACK call on the stacked (2, h, h) halves
    g = make_grid(MIDPOINT if midpoint else TRAPEZOID, n)
    if heat:
        assume(math.sqrt(2.0 * t) >= g.spacing)
        spec = kernels.heat_circle(t)
    else:
        spec = kernels.green_dirichlet()
    b = nystrom.discretize(spec, g)
    values, d, shapes = split_solves(spec, g)
    h = (n + 1) // 2
    assert shapes == [(2, h, h)] * 2
    dense = np.linalg.eigvalsh(b.entries)[::-1]
    tol = 4.0 * n * 2.0**-53 * np.abs(dense).max()
    assert np.abs(values - dense).max() <= tol
    assert np.abs(d.values - np.linalg.eigh(b.entries)[0][::-1]).max() <= tol
    assert np.all(np.diff(values) <= 0) and np.all(np.diff(d.values) <= 0)
    assert np.abs(d.vectors.T @ d.vectors - np.eye(n)).max() <= 4.0 * n * 2.0**-53
    assert np.abs(b.entries @ d.vectors - d.vectors * d.values).max() <= tol


@pytest.mark.parametrize("n", [200, 201])
@pytest.mark.parametrize("midpoint", [False, True])
@pytest.mark.parametrize("heat", [False, True])
def test_eigh_eigen_decomposes_a_whole_matrix_whole(n, midpoint, heat):
    # only discretize splits: B itself, reflection-symmetric, goes to LAPACK
    # whole, and agrees with the decomposition of its halves
    g = make_grid(MIDPOINT if midpoint else TRAPEZOID, n)
    spec = kernels.heat_circle(0.01) if heat else kernels.green_dirichlet()
    b = nystrom.discretize(spec, g)
    with lapack_shapes() as shapes:
        d = eigh_eigen(b)
    assert shapes == [(n, n)]
    split = eigh_eigen(nystrom.discretize(spec, g, split=True))
    tol = 4.0 * n * 2.0**-53 * np.abs(split.values).max()
    assert np.abs(d.values - split.values).max() <= tol


@PROPERTY
@given(n=st.integers(min_value=2, max_value=400), midpoint=st.booleans(), seed=SEEDS)
def test_reflection_split_only_where_the_matrix_has_the_symmetry(n, midpoint, seed):
    g = make_grid(MIDPOINT if midpoint else TRAPEZOID, n)
    # a random table has no reflection symmetry: LAPACK gets the whole matrix
    table = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))
    spec = kernels.tabulated(table + table.T, g)
    b = nystrom.discretize(spec, g)
    whole = nystrom.discretize(spec, g, split=True)
    assert isinstance(whole, SymMatrix) and same_bits(whole.entries, b.entries)
    values, d, shapes = split_solves(spec, g)
    assert shapes == [(n, n)] * 2
    assert same_bits(values, np.linalg.eigvalsh(b.entries)[::-1].copy())
    assert same_bits(d.values, np.linalg.eigh(b.entries)[0][::-1].copy())
    # a table of Green values on its own grid has it, and takes the split
    green = kernels.green_dirichlet()
    values, _, shapes = split_solves(kernels.tabulated(green.matrix(g), g), g)
    h = (n + 1) // 2
    assert shapes == [(2, h, h)] * 2
    assert same_bits(values, linalg._values(nystrom.discretize(green, g, split=True)))


@PROPERTY
@given(n=st.integers(min_value=2, max_value=400), midpoint=st.booleans(),
       kind=st.sampled_from(["green", "heat-circle", "table"]),
       t=st.floats(min_value=1e-4, max_value=5.0), seed=SEEDS)
@example(n=2, midpoint=False, kind="green", t=1.0, seed=0)
@example(n=3, midpoint=False, kind="green", t=1.0, seed=0)
# several row blocks before the centre
@example(n=399, midpoint=False, kind="green", t=1.0, seed=0)
@example(n=399, midpoint=True, kind="heat-circle", t=0.01, seed=0)
def test_sampled_halves_are_the_halves_folded_from_b_bit_for_bit(n, midpoint, kind, t, seed):
    g = make_grid(MIDPOINT if midpoint else TRAPEZOID, n)
    if kind == "heat-circle":
        assume(math.sqrt(2.0 * t) >= g.spacing)
        spec = kernels.heat_circle(t)
    elif kind == "green":
        spec = kernels.green_dirichlet()
    else:  # a table even under x -> 1 - x
        table = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))
        table = table + table.T
        spec = kernels.tabulated(table + table[::-1, ::-1], g)
    halves = nystrom.discretize(spec, g, split=True)
    assert isinstance(halves, linalg.Halves) and halves.n == n
    assert same_bits(halves.blocks, linalg._reflection_blocks(nystrom.discretize(spec, g).entries))
    assert same_bits(linalg._values(nystrom.discretize(spec, g, split=True)),
                     linalg._values(halves))


def reference_kernel(spec, grid):
    """The kernel on all node pairs, sampled without row blocks."""
    if spec.kind == "green-dirichlet":
        x, y = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
        return kernels.eval_green(x, y)
    if spec.kind == "heat-circle":
        index = np.arange(grid.n)
        return spec.row(grid)[np.abs(index[:, None] - index[None, :])]
    return spec.values


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n=st.integers(min_value=2, max_value=300), midpoint=st.booleans(),
       kind=st.sampled_from(["green", "heat-circle", "symmetric table", "asymmetric table"]),
       t=st.floats(min_value=1e-5, max_value=2.0), l_max=st.sampled_from([None, 1, 2, 7]),
       seed=SEEDS)
def test_discretize_is_bit_identical_to_whole_array_reference(n, midpoint, kind, t, l_max, seed):
    g = make_grid(MIDPOINT if midpoint else TRAPEZOID, n)
    rng = np.random.default_rng(seed)
    if kind == "green":
        spec = kernels.green_dirichlet()
    elif kind == "heat-circle":
        assume(math.sqrt(2.0 * t) >= g.spacing)
        spec = kernels.heat_circle(t, l_max=l_max)
    else:
        table = rng.uniform(-1.0, 1.0, (n, n))
        table = table + table.T
        if kind == "asymmetric table":
            table += rng.uniform(-4e-13, 4e-13, (n, n))
        spec = kernels.tabulated(table, g)
        assert same_bits(spec.values, 0.5 * (table + table.T))
    s = np.sqrt(g.weights)
    weighted = reference_kernel(spec, g) * np.outer(s, s)
    b = nystrom.discretize(spec, g)
    # exactly symmetric as weighted, so discretize needs no symmetrizing pass
    assert same_bits(b.entries, b.entries.T.copy()) and b.asymmetry == 0.0
    assert same_bits(b.entries, 0.5 * (weighted + weighted.T))
    assert b.asymmetry == float(np.abs(weighted - weighted.T).max())
    reference = SymMatrix(entries=weighted)
    assert same_bits(b.entries, reference.entries) and b.asymmetry == reference.asymmetry
    assert not b.entries.flags.writeable


@PROPERTY
@given(n=st.integers(min_value=2, max_value=300), midpoint=st.booleans(),
       kind=st.sampled_from(["green", "heat-circle", "table"]),
       t=st.floats(min_value=1e-5, max_value=2.0), l_max=st.sampled_from([None, 1, 2, 7]),
       seed=SEEDS)
@example(n=300, midpoint=False, kind="green", t=0.01, l_max=None, seed=0)  # two row blocks
@example(n=300, midpoint=True, kind="green", t=0.01, l_max=None, seed=0)
@example(n=300, midpoint=False, kind="heat-circle", t=0.01, l_max=None, seed=0)
@example(n=300, midpoint=True, kind="heat-circle", t=0.01, l_max=None, seed=0)
@example(n=300, midpoint=False, kind="table", t=0.01, l_max=None, seed=0)
@example(n=300, midpoint=True, kind="table", t=0.01, l_max=None, seed=0)
def test_diag_is_the_matrix_diagonal_bit_for_bit(n, midpoint, kind, t, l_max, seed):
    # diagonal_trace integrates diag, so the trace check's two sides see the same values;
    # sampler's rows are matrix's too, and only the base class's matrix is timed and counted
    g = make_grid(MIDPOINT if midpoint else TRAPEZOID, n)
    if kind == "green":
        spec = kernels.green_dirichlet()
    elif kind == "heat-circle":
        assume(math.sqrt(2.0 * t) >= g.spacing)
        spec = kernels.heat_circle(t, l_max=l_max)
    else:
        table = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))
        spec = kernels.tabulated(table + table.T, g)
    diag = spec.diag(g)
    assert diag.flags.c_contiguous and same_bits(diag, np.diagonal(spec.matrix(g)).copy())
    assert "matrix" not in vars(type(spec))
    sample = spec.sampler(g)
    rows = [sample(r, np.empty((r.stop - r.start, n))) for r in linalg.row_blocks(n)]
    assert same_bits(np.concatenate(rows), np.asarray(spec.matrix(g)))


@PROPERTY
@given(n=st.integers(min_value=2, max_value=300), midpoint=st.booleans(),
       row=st.floats(0.0, 1.0, exclude_max=True), column=st.floats(0.0, 1.0, exclude_max=True),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
@example(n=300, midpoint=False, row=0.99, column=0.9, bad=np.nan)  # past the first row block
def test_tabulated_names_the_first_nonfinite_node_pair(n, midpoint, row, column, bad):
    g = make_grid(MIDPOINT if midpoint else TRAPEZOID, n)
    i, j = int(row * n), int(column * n)
    table = np.ones((n, n))
    table[i, j] = bad
    # symmetrization would spread it to (j, i); row-major order meets the upper one first
    first, second = min(i, j), max(i, j)
    # plain floats, not numpy reprs such as np.float64(0.5)
    x, y = float(g.nodes[first]), float(g.nodes[second])
    message = f"kernel value is not finite at nodes ({x!r}, {y!r})"
    with pytest.raises(ValueError, match=re.escape(message)):
        kernels.tabulated(table, g)


@settings(derandomize=True, deadline=None, max_examples=10)
@given(n=st.integers(min_value=2, max_value=64), midpoint=st.booleans(),
       t=st.floats(min_value=1e-4, max_value=1.7e308), l_max=st.sampled_from([1, 2, 7, 10**4]))
@example(n=64, midpoint=True, t=1e-4, l_max=10**4)
@example(n=2, midpoint=False, t=1.7e308, l_max=10**4)
def test_built_in_kernels_sample_finite_values(n, midpoint, t, l_max):
    # the invariant that lets discretize sample them unchecked; a RuntimeWarning
    # of an overflow on the way is an error here too
    g = make_grid(MIDPOINT if midpoint else TRAPEZOID, n)
    t = max(t, g.spacing**2 / 2.0)  # the narrowest heat kernel `row` accepts
    for spec in (kernels.green_dirichlet(), kernels.heat_circle(t, l_max=l_max)):
        assert np.isfinite(spec.matrix(g)).all() and np.isfinite(spec.diag(g)).all()


def green_closed_form(grid) -> np.ndarray:
    """The Green Nystrom eigenvalues h^2 / (4 sin^2(k pi h / 2)), descending.

    On the midpoint grid k = 1..n.  On the trapezoid grid the end nodes
    carry a zero row and column, so k = 1..n-2 and two zeros.
    """
    n, h = grid.n, grid.spacing
    k = np.arange(1, n + 1 if grid.kind == MIDPOINT else n - 1)
    values = h * h / (4.0 * np.sin(k * math.pi * h / 2.0) ** 2)
    return np.concatenate((values, np.zeros(n - len(k))))


@settings(derandomize=True, deadline=None, max_examples=20)
@given(n=st.integers(min_value=2, max_value=600), midpoint=st.booleans())
@example(n=64, midpoint=False)
@example(n=600, midpoint=True)
def test_green_values_are_the_closed_form(n, midpoint):
    # measured: LAPACK within 1.0 n u max|lambda| up to n = 1201, Jacobi within 1.7
    g = make_grid(MIDPOINT if midpoint else TRAPEZOID, n)
    spec, exact = kernels.green_dirichlet(), green_closed_form(g)
    tol = 4.0 * n * 2.0**-53 * exact.max()
    assert np.abs(linalg._values(nystrom.discretize(spec, g, split=True)) - exact).max() <= tol
    if n <= 64:
        values = jacobi_eigen(nystrom.discretize(spec, g), values_only=True)
        assert np.abs(values - exact).max() <= tol


def heat_circle_closed_form(spec, grid) -> np.ndarray:
    """The heat-circle Nystrom eigenvalues, descending, from one FFT of the kernel row.

    On the midpoint grid B is the circulant of the row over n.  On the
    trapezoid grid nodes 0 and n-1 are one point of the circle: B has the
    eigenvalues of the circulant of the first n-1 entries over n-1, and
    a zero.
    """
    row, n = spec.row(grid), grid.n
    if grid.kind == MIDPOINT:
        values = np.fft.fft(row).real / n
    else:
        values = np.append(np.fft.fft(row[:n - 1]).real / (n - 1), 0.0)
    return np.sort(values)[::-1]


@settings(derandomize=True, deadline=None, max_examples=20)
@given(n=st.integers(min_value=3, max_value=600), midpoint=st.booleans(),
       t=st.floats(min_value=0.01, max_value=3.0))
@example(n=3, midpoint=False, t=3.0)
@example(n=600, midpoint=True, t=0.01)
def test_heat_circle_values_are_the_closed_form(n, midpoint, t):
    # measured: LAPACK within 1.0 n u max|lambda| for n 3-1201, t 0.01-3
    g = make_grid(MIDPOINT if midpoint else TRAPEZOID, n)
    spec = kernels.heat_circle(max(t, g.spacing**2 / 2.0))  # the narrowest `row` accepts
    exact = heat_circle_closed_form(spec, g)
    tol = 4.0 * n * 2.0**-53 * np.abs(exact).max()
    assert np.abs(linalg._values(nystrom.discretize(spec, g, split=True)) - exact).max() <= tol


@settings(derandomize=True, deadline=None, max_examples=20)
@given(n=st.integers(min_value=2, max_value=600), midpoint=st.booleans(),
       t=st.floats(min_value=1e-4, max_value=5.0))
@example(n=2, midpoint=False, t=1.0)
@example(n=600, midpoint=True, t=1e-4)
def test_built_in_kernels_are_reflective_as_tables(n, midpoint, t):
    # the built-in kinds say they are reflective without a check; the check
    # a table of their values gets, max|T - JTJ| <= 16u max|T|, agrees
    g = make_grid(MIDPOINT if midpoint else TRAPEZOID, n)
    for spec in (kernels.green_dirichlet(), kernels.heat_circle(max(t, g.spacing**2 / 2.0))):
        assert spec.reflective and kernels.tabulated(spec.matrix(g), g).reflective


@settings(derandomize=True, deadline=None, max_examples=20)
@given(n=st.integers(min_value=2, max_value=300), midpoint=st.booleans(),
       kind=st.sampled_from(["green", "gram", "indefinite"]), seed=SEEDS)
def test_trace_formula_residual_is_round_off(n, midpoint, kind, seed):
    # summing n eigenvalues and n diagonal entries, each accurate to a few
    # u |B|_F, leaves a residual of order n u |B|_F (Higham, Accuracy and
    # Stability of Numerical Algorithms, ch. 4); measured up to 2.03
    g = make_grid(MIDPOINT if midpoint else TRAPEZOID, n)
    rng = np.random.default_rng(seed)
    if kind == "green":
        spec = kernels.green_dirichlet()
    else:
        table = rng.uniform(-1.0, 1.0, (n, n))
        spec = kernels.tabulated(table @ table.T if kind == "gram" else table + table.T, g)
    frobenius = float(np.linalg.norm(nystrom.discretize(spec, g).entries))
    report = nystrom.trace_formula_check(spec, g)
    assert report.residual <= 8.0 * n * 2.0**-53 * frobenius
