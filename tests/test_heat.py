import math
import re

import numpy as np
import pytest

from tracelab import heat
from tracelab.heat import (
    KERNEL,
    SPECTRAL,
    heat_evolve,
    heat_trace_check,
    random_trig_sample,
    theta,
    theta_transform_residual,
    trace_sweep_to_csv,
)
from tracelab.kernels import heat_circle
from tracelab.quadrature import MIDPOINT, TRAPEZOID, integrate, make_grid
from tracelab.sturm import trig_modes


def test_theta_large_argument_is_one():
    evaluation = theta(100.0)
    assert abs(evaluation.value - 1.0) <= 2e-18


def test_theta_fixed_point():
    direct = theta(1.0).value
    transformed = theta(1.0).value / math.sqrt(1.0)
    assert direct == transformed
    assert theta_transform_residual(1.0) == 0.0


def test_theta_reference_value():
    # frozen from direct summation: 1 + 2(e^-pi + e^-4pi + e^-9pi + ...)
    assert abs(theta(1.0).value - 1.0864348112) < 1e-9


def test_theta_invariants():
    for s in (0.05, 0.3, 1.0, 4.0):
        evaluation = theta(s)
        assert evaluation.value > 1.0
        assert evaluation.tail_estimate < 1e-15 * evaluation.value


def test_theta_rejects_nonpositive():
    with pytest.raises(ValueError):
        theta(0.0)
    with pytest.raises(ValueError):
        theta(-2.0)


@pytest.mark.parametrize("s", [math.nan, math.inf])
def test_theta_rejects_nonfinite(s):
    with pytest.raises(ValueError, match="finite"):
        theta(s)


def test_theta_refuses_tiny_argument():
    with pytest.raises(ValueError, match="theta\\(1/s\\)"):
        theta(1e-13)


def test_transform_residual_refuses_s_whose_inverse_needs_too_many_terms():
    # theta(1e300) is one term, but theta(1e-300) is beyond the cap; the
    # message names the s given, not 1/s, and the terms of theta(1/s)
    largest = heat._MAX_TRANSFORM_S
    assert heat._terms_needed(1.0 / largest) <= heat._MAX_TERMS
    assert heat._terms_needed(1.0 / math.nextafter(largest, math.inf)) > heat._MAX_TERMS
    for s, terms in ((1e300, "3.632e+150"), (math.nextafter(largest, math.inf), "1000001")):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"s={s} needs {terms} terms of theta(1/s); the cap is 1000000") + "$"):
            theta_transform_residual(s)
    assert theta_transform_residual(1e10) < 1e-12


def test_transform_residual_small():
    for s in (0.2, 0.5, 1.0, 2.0, 5.0):
        assert theta_transform_residual(s) < 1e-12


def test_transform_in_heat_parametrization():
    # both sides of the semigroup trace identity at t = 0.05, by summation
    t = 0.05
    lhs = 1.0 + 2.0 * sum(math.exp(-4.0 * math.pi**2 * k * k * t)
                          for k in range(1, 40))
    rhs = (1.0 + 2.0 * sum(math.exp(-(ell * ell) / (4.0 * t))
                           for ell in range(1, 40))) / math.sqrt(4.0 * math.pi * t)
    assert abs(lhs - rhs) < 1e-12


def test_heat_evolve_single_mode_decay():
    g = make_grid(MIDPOINT, 512)
    f = np.sin(2.0 * math.pi * g.nodes)
    t = 0.1
    expected = math.exp(-4.0 * math.pi**2 * t) * f
    for method, kw in ((SPECTRAL, {}), (KERNEL, {})):
        u = heat_evolve(f, g, t, method=method, **kw)
        assert np.abs(u - expected).max() < 1e-6


def test_heat_evolve_constant_invariant():
    g = make_grid(MIDPOINT, 128)
    f = np.ones(128)
    for t in (0.01, 0.5, 3.0):
        u = heat_evolve(f, g, t, method=SPECTRAL)
        assert np.abs(u - 1.0).max() < 1e-12
        u = heat_evolve(f, g, t, method=KERNEL)
        assert np.abs(u - 1.0).max() < 1e-10


def test_heat_evolve_methods_agree_on_random_data():
    g = make_grid(MIDPOINT, 512)
    f = random_trig_sample(g, modes=5, seed=7)
    spectral = heat_evolve(f, g, 0.25, method=SPECTRAL)
    kernel = heat_evolve(f, g, 0.25, method=KERNEL)
    assert np.abs(spectral - kernel).max() < 1e-8


def test_spectral_heat_flow_stops_where_the_gains_underflow():
    # exp(-4 pi^2 k^2 / 4) is exactly 0 from k = 9 on, so modes past the
    # grid's own (k_max = 255) add nothing, even aliased onto its bins
    g = make_grid(MIDPOINT, 512)
    f = random_trig_sample(g, modes=5, seed=7)
    assert np.array_equal(heat_evolve(f, g, 0.25, k_max=10**8),
                          heat_evolve(f, g, 0.25, k_max=255))


def test_heat_evolve_validation():
    g = make_grid(MIDPOINT, 16)
    with pytest.raises(ValueError):
        heat_evolve(np.ones(16), g, 0.0)
    with pytest.raises(ValueError):
        heat_evolve(np.ones(16), g, 0.1, method="exact")
    trapezoid = make_grid(TRAPEZOID, 16)
    with pytest.raises(ValueError):
        heat_evolve(np.ones(16), trapezoid, 0.1)


@pytest.mark.parametrize("t", [math.nan, math.inf, 0.0])
def test_heat_time_checked_like_the_kernel(t):
    # let through, t = NaN would make the spectral method return all NaN
    g = make_grid(MIDPOINT, 16)
    for method in (SPECTRAL, KERNEL):
        with pytest.raises(ValueError, match=f"^t must be positive and finite, got {t}$"):
            heat_evolve(np.ones(16), g, t, method=method)
    with pytest.raises(ValueError, match=f"^t must be positive and finite, got {t}$"):
        heat_trace_check(t, g)


def test_semigroup_property():
    g = make_grid(MIDPOINT, 256)
    f = random_trig_sample(g, seed=2)
    two_steps = heat_evolve(heat_evolve(f, g, 0.07), g, 0.13)
    one_step = heat_evolve(f, g, 0.2)
    assert np.abs(two_steps - one_step).max() < 1e-8


def test_mass_conserved():
    g = make_grid(MIDPOINT, 256)
    f = random_trig_sample(g, seed=5)
    mass = integrate(f, g)
    for t in (0.01, 0.2, 1.0):
        assert abs(integrate(heat_evolve(f, g, t), g) - mass) < 1e-10


def test_kernel_method_at_a_power_of_two_is_the_length_2n_embedding():
    n = 512
    g = make_grid(MIDPOINT, n)
    f = random_trig_sample(g, seed=5)
    row = heat_circle(0.05).row(g)
    column = np.concatenate((row, [0.0], row[:0:-1]))
    image = np.fft.rfft(column) * np.fft.rfft(g.weights * f, 2 * n)
    reference = np.fft.irfft(image, 2 * n)[:n]
    assert heat_evolve(f, g, 0.05, method=KERNEL).tobytes() == reference.tobytes()


def test_maximum_principle_kernel_method():
    g = make_grid(MIDPOINT, 256)
    f = random_trig_sample(g, seed=8)
    u = heat_evolve(f, g, 0.05, method=KERNEL)
    assert u.max() <= f.max() + 1e-10
    assert u.min() >= f.min() - 1e-10


def test_energy_decay():
    g = make_grid(MIDPOINT, 256)
    f = random_trig_sample(g, seed=13)
    energies = [integrate(heat_evolve(f, g, t) ** 2, g)
                for t in (0.01, 0.05, 0.2, 1.0)]
    for before, after in zip(energies, energies[1:]):
        assert after <= before + 1e-10


def test_heat_trace_check_small_times():
    g = make_grid(MIDPOINT, 2001)
    report = heat_trace_check(0.1, g)
    assert report.residual < 1e-9


def test_heat_trace_check_large_time():
    g = make_grid(MIDPOINT, 201)
    report = heat_trace_check(5.0, g)
    assert report.residual < 1e-12
    assert abs(report.spectral_side - 1.0) < 1e-12


def test_heat_trace_check_validation():
    g = make_grid(MIDPOINT, 64)
    with pytest.raises(ValueError):
        heat_trace_check(0.0, g)


def test_periodic_mode_eigenpairs_used_by_evolution():
    # evolving an exact cos or sin mode scales it by exp(-mu t)
    g = make_grid(MIDPOINT, 128)
    t = 0.02
    mu, rows = trig_modes([3], g.nodes)
    for m, f in zip(mu, rows):  # cos, then sin
        for k_max in (None, 3):  # all modes, or the last one kept
            u = heat_evolve(f, g, t, k_max=k_max)
            assert np.abs(u - math.exp(-m * t) * f).max() < 1e-12


def test_trace_sweep_csv(tmp_path):
    g = make_grid(MIDPOINT, 101)
    ts = [0.05, 0.1, 0.5]
    reports = [heat_trace_check(t, g) for t in ts]
    path = tmp_path / "sweep.csv"
    trace_sweep_to_csv(ts, reports, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,lhs,rhs,residual"
    assert len(lines) == 4
