import math

import numpy as np
import pytest

from tracelab.billiard import (
    CORNER_HIT,
    LENGTH_BUDGET,
    disc,
    is_closed,
    length_spectrum,
    rectangle,
    simulate,
    spectrum_to_csv,
    trajectory_end,
    trajectory_to_csv,
)

SQRT2 = math.sqrt(2.0)


def rect_normal(point, a, b):
    """Inward wall normal at a rectangle boundary point (test-side oracle)."""
    x, y = point
    if abs(x) < 1e-9:
        return np.array([1.0, 0.0])
    if abs(x - a) < 1e-9:
        return np.array([-1.0, 0.0])
    if abs(y) < 1e-9:
        return np.array([0.0, 1.0])
    assert abs(y - b) < 1e-9
    return np.array([0.0, -1.0])


def check_reflections(traj, normal_of):
    worst = 0.0
    for before, after in zip(traj.segments, traj.segments[1:]):
        n = normal_of(after.start)
        expected = before.direction - 2.0 * float(before.direction @ n) * n
        worst = max(worst, float(np.abs(after.direction - expected).max()))
    return worst


def test_vertical_bouncing_ball():
    table = rectangle(1.0, 1.0)
    traj = simulate(table, (0.5, 0.5), (0.0, 1.0), 3.0)
    lengths = [s.length for s in traj.segments]
    assert lengths == [0.5, 1.0, 1.0, 0.5]
    bounce_ys = [s.start[1] for s in traj.segments[1:]]
    assert bounce_ys == [1.0, 0.0, 1.0]
    assert traj.terminated_by == LENGTH_BUDGET
    assert traj.total_length == 3.0


def test_diagonal_bounces_on_walls():
    table = rectangle(1.0, 1.0)
    traj = simulate(table, (0.5, 0.25), (1.0 / SQRT2, 1.0 / SQRT2), 10.0)
    for seg in traj.segments[1:]:
        x, y = seg.start
        assert min(abs(x), abs(x - 1.0), abs(y), abs(y - 1.0)) < 1e-12
    assert check_reflections(traj, lambda p: rect_normal(p, 1.0, 1.0)) < 1e-12


def test_disc_equal_chords():
    radius = 1.0
    table = disc(radius)
    phi = 0.3  # incidence angle against the inward normal
    start = np.array([1.0, 0.0])
    direction = np.array([-math.cos(phi), math.sin(phi)])
    traj = simulate(table, start, direction, 12.0)
    chord = 2.0 * radius * math.cos(phi)
    for seg in traj.segments[:-1]:
        assert abs(seg.length - chord) < 1e-12


def test_disc_reflection_law():
    table = disc(2.0)
    traj = simulate(table, (0.3, -0.4), (0.6, 0.8), 30.0)
    worst = check_reflections(traj, lambda p: -np.asarray(p) / 2.0)
    assert worst < 1e-12


def test_corner_hit_terminates():
    table = rectangle(1.0, 1.0)
    traj = simulate(table, (0.25, 0.25), (1.0 / SQRT2, 1.0 / SQRT2), 10.0)
    assert traj.terminated_by == CORNER_HIT
    end, _ = trajectory_end(traj)
    assert np.allclose(end, [1.0, 1.0], atol=1e-12)


def test_invalid_starts():
    table = rectangle(1.0, 1.0)
    with pytest.raises(ValueError):
        simulate(table, (1.5, 0.5), (0.0, 1.0), 1.0)  # outside
    with pytest.raises(ValueError):
        simulate(table, (0.5, 0.0), (1.0, 0.0), 1.0)  # boundary, tangent
    with pytest.raises(ValueError):
        simulate(table, (0.5, 0.0), (0.0, -1.0), 1.0)  # boundary, outward
    with pytest.raises(ValueError):
        simulate(table, (0.0, 0.0), (1.0 / SQRT2, 1.0 / SQRT2), 1.0)  # corner
    with pytest.raises(ValueError):
        simulate(table, (0.5, 0.5), (1.0, 1.0), 1.0)  # not a unit vector
    disk = disc(1.0)
    with pytest.raises(ValueError):
        simulate(disk, (2.0, 0.0), (-1.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        simulate(disk, (1.0, 0.0), (1.0, 0.0), 1.0)  # on circle, outward


@pytest.mark.parametrize("budget", [math.nan, math.inf])
def test_nonfinite_budget_rejected(budget):
    with pytest.raises(ValueError, match="finite"):
        simulate(rectangle(1.0, 1.0), (0.5, 0.25), (1.0 / SQRT2, 1.0 / SQRT2), budget)


def test_budget_is_exhausted_exactly():
    table = rectangle(1.0, 2.0)
    traj = simulate(table, (0.3, 0.4), (0.8, 0.6), 7.7)
    assert traj.terminated_by == LENGTH_BUDGET
    total = 0.0
    for seg in traj.segments:
        total += seg.length
    assert total == traj.total_length
    assert abs(traj.total_length - 7.7) < 1e-12


def test_directions_stay_unit():
    table = rectangle(1.0, 1.3)
    traj = simulate(table, (0.2, 0.9), (0.6, -0.8), 40.0)
    for seg in traj.segments:
        assert abs(np.linalg.norm(seg.direction) - 1.0) < 1e-12


def test_segments_join_continuously():
    for table, start, direction in (
        (rectangle(1.0, 1.0), (0.23, 0.61), (0.6, 0.8)),
        (disc(1.5), (0.2, -0.3), (0.28, 0.96)),
    ):
        traj = simulate(table, start, direction, 25.0)
        for before, after in zip(traj.segments, traj.segments[1:]):
            end = before.start + before.length * before.direction
            assert np.abs(end - after.start).max() < 1e-12


def test_closed_diagonal_orbit():
    table = rectangle(1.0, 1.0)
    start, direction = (0.5, 0.0), (1.0 / SQRT2, 1.0 / SQRT2)
    traj = simulate(table, start, direction, 4.0)
    orbit = is_closed(traj, start, direction)
    assert orbit is not None
    assert abs(orbit.length - 2.0 * SQRT2) < 1e-12


def test_closed_bouncing_ball():
    table = rectangle(1.0, 1.0)
    start, direction = (0.5, 0.0), (0.0, 1.0)
    traj = simulate(table, start, direction, 3.0)
    orbit = is_closed(traj, start, direction)
    assert orbit is not None
    assert abs(orbit.length - 2.0) < 1e-12


def test_closed_from_interior_point():
    table = rectangle(1.0, 1.0)
    start, direction = (0.5, 0.5), (0.0, 1.0)
    traj = simulate(table, start, direction, 3.0)
    orbit = is_closed(traj, start, direction)
    assert orbit is not None
    assert abs(orbit.length - 2.0) < 1e-12


def test_irrational_slope_never_closes():
    table = rectangle(1.0, 1.0)
    raw = np.array([1.0, SQRT2])
    direction = raw / np.linalg.norm(raw)
    start = (0.3, 0.55)
    traj = simulate(table, start, direction, 50.0)
    assert is_closed(traj, start, direction) is None


def test_reversibility():
    table = rectangle(1.0, 1.0)
    traj = simulate(table, (0.312, 0.47), (0.8, 0.6), 9.0)
    end, end_dir = trajectory_end(traj)
    back = simulate(table, end, -end_dir, 9.0)
    forward_bounces = [seg.start for seg in traj.segments[1:]]
    backward_bounces = [seg.start for seg in back.segments[1:]]
    assert len(forward_bounces) == len(backward_bounces)
    for f, b in zip(forward_bounces, reversed(backward_bounces)):
        assert np.abs(f - b).max() < 1e-9


def test_unit_square_length_spectrum():
    spectrum = length_spectrum(rectangle(1.0, 1.0), 6.0)
    expected = 2.0 * np.sqrt([1.0, 2.0, 4.0, 5.0, 8.0, 9.0])
    assert np.allclose(spectrum.lengths, expected, atol=1e-12)
    assert spectrum.descriptors[0] in ((0, 1), (1, 0))


def test_disc_length_spectrum_contains_polygons():
    spectrum = length_spectrum(disc(1.0), 7.0)
    for value in (4.0, 3.0 * math.sqrt(3.0), 4.0 * SQRT2):
        assert np.abs(spectrum.lengths - value).min() < 1e-12


def test_spectrum_empty_below_shortest_orbit():
    spectrum = length_spectrum(rectangle(1.0, 1.0), 1.9)
    assert len(spectrum.lengths) == 0


def test_spectrum_sorted_deduplicated():
    spectrum = length_spectrum(rectangle(1.0, 1.0), 12.0)
    diffs = np.diff(spectrum.lengths)
    assert np.all(diffs > 1e-9)


def test_dynamics_agrees_with_length_spectrum():
    table = rectangle(1.0, 1.0)
    spectrum = length_spectrum(table, 12.0)
    start = (0.3, 0.45)
    # primitive winding pairs; non-primitive ones close first at the
    # primitive length, checked separately below
    for p, q in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 1)):
        length = 2.0 * math.hypot(p, q)
        raw = np.array([p, q], dtype=float)
        direction = raw / np.linalg.norm(raw)
        traj = simulate(table, start, direction, length + 1.0)
        orbit = is_closed(traj, start, direction)
        assert orbit is not None
        assert abs(orbit.length - length) < 1e-8
        assert np.abs(spectrum.lengths - orbit.length).min() < 1e-8


def test_iterated_orbit_closes_at_primitive_length():
    table = rectangle(1.0, 1.0)
    start = (0.3, 0.45)
    direction = np.array([2.0, 2.0]) / math.hypot(2.0, 2.0)
    traj = simulate(table, start, direction, 2.0 * math.hypot(2, 2) + 1.0)
    orbit = is_closed(traj, start, direction)
    assert abs(orbit.length - 2.0 * SQRT2) < 1e-8


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_disc_polygon_orbits(n):
    radius = 1.0
    table = disc(radius)
    start = np.array([radius, 0.0])
    vertex = radius * np.array([math.cos(2 * math.pi / n), math.sin(2 * math.pi / n)])
    direction = (vertex - start) / np.linalg.norm(vertex - start)
    expected = 2.0 * n * radius * math.sin(math.pi / n)
    traj = simulate(table, start, direction, expected + 0.5)
    orbit = is_closed(traj, start, direction)
    assert orbit is not None
    assert abs(orbit.length - expected) < 1e-9
    chord = 2.0 * radius * math.sin(math.pi / n)
    bounces_to_close = round(orbit.length / chord)
    assert bounces_to_close == n
    for seg in traj.segments[:n]:
        assert abs(seg.length - chord) < 1e-9


def test_trajectory_csv(tmp_path):
    traj = simulate(rectangle(1.0, 1.0), (0.5, 0.5), (0.0, 1.0), 3.0)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "segment,start_x,start_y,dir_x,dir_y,length"
    assert len(lines) == 5


def test_spectrum_csv(tmp_path):
    spectrum = length_spectrum(rectangle(1.0, 1.0), 6.0)
    path = tmp_path / "lengths.csv"
    spectrum_to_csv(spectrum, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "length,descriptor"
    assert len(lines) == 7
