import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tracelab.billiard import (
    CORNER_HIT,
    CORNER_TOL,
    LENGTH_BUDGET,
    SEGMENT_DTYPE,
    Disc,
    Rectangle,
    Table,
    disc,
    is_closed,
    length_spectrum,
    rectangle,
    simulate,
    spectrum_to_csv,
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
    last = traj.segments[-1]
    assert np.allclose(last.start + last.length * last.direction, [1.0, 1.0], atol=1e-12)


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
    for table in (rectangle(1.0, 1.0), disk):
        with pytest.raises(ValueError, match="start must be finite"):
            simulate(table, (math.nan, 0.5), (1.0, 0.0), 1.0)  # would never reach a wall
        with pytest.raises(ValueError, match="unit vector"):
            simulate(table, (0.5, 0.5), (math.nan, 0.0), 1.0)


@pytest.mark.parametrize("budget", [math.nan, math.inf])
def test_nonfinite_budget_rejected(budget):
    with pytest.raises(ValueError, match="finite"):
        simulate(rectangle(1.0, 1.0), (0.5, 0.25), (1.0 / SQRT2, 1.0 / SQRT2), budget)


@pytest.mark.parametrize("make, named", [
    (lambda: rectangle(math.nan, 1.0), "a=nan"),
    (lambda: rectangle(1.0, math.nan), "b=nan"),
    (lambda: disc(math.nan), "got nan"),
], ids=["rectangle-a", "rectangle-b", "disc-radius"])
def test_nan_sizes_rejected_when_made(make, named):
    # let through, a NaN side would make simulate run without end and a
    # NaN radius give an empty length spectrum
    with pytest.raises(ValueError, match=named):
        make()


def test_each_shape_is_its_own_class():
    assert isinstance(rectangle(1.0, 2.0), Rectangle) and isinstance(disc(1.0), Disc)
    assert issubclass(Rectangle, Table) and issubclass(Disc, Table)
    assert vars(rectangle(1.0, 2.0)) == {"a": 1.0, "b": 2.0}
    assert vars(disc(3.0)) == {"radius": 3.0}
    with pytest.raises(TypeError):
        Rectangle(1.0, 1.0, radius=2.0)
    with pytest.raises(TypeError):
        Disc(1.0, a=1.0)


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


SIZES = st.floats(min_value=0.5, max_value=2.0)
FRACTIONS = st.floats(min_value=0.01, max_value=0.99)
ANGLES = st.floats(min_value=0.0, max_value=2.0 * math.pi)


def closed_length_by_loop(traj, start, direction, tol):
    """Reference for is_closed: the segment-by-segment scan it replaced."""
    p0 = np.asarray(start, dtype=float)
    d0 = np.asarray(direction, dtype=float)
    d0 = d0 / float(np.linalg.norm(d0))
    cumulative = 0.0
    for seg in traj.segments:
        along = float((p0 - seg.start) @ seg.direction)
        if -tol <= along <= seg.length + tol:
            along = min(max(along, 0.0), seg.length)
            point = seg.start + along * seg.direction
            if (np.linalg.norm(point - p0) <= tol
                    and np.linalg.norm(seg.direction - d0) <= tol
                    and cumulative + along > tol):
                return float(cumulative + along)
        cumulative += seg.length
    return None


@settings(derandomize=True, deadline=None, max_examples=100)
@given(a=SIZES, b=SIZES, u=FRACTIONS, v=FRACTIONS,
       p=st.integers(min_value=-3, max_value=3), q=st.integers(min_value=-3, max_value=3),
       tol=st.sampled_from([1e-9, 1e-6, 1e-3]))
def test_is_closed_matches_segment_loop(a, b, u, v, p, q, tol):
    # winding directions (p a, q b) close after 2 |(p a, q b)|, unless a corner intervenes
    assume((p, q) != (0, 0))
    raw = np.array([p * a, q * b])
    direction = raw / np.linalg.norm(raw)
    start = (u * a, v * b)
    traj = simulate(rectangle(a, b), start, direction, 2.0 * np.linalg.norm(raw) + 1.0)
    orbit = is_closed(traj, start, direction, tol)
    assert (orbit and orbit.length) == closed_length_by_loop(traj, start, direction, tol)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(is_disc=st.booleans(), a=SIZES, b=SIZES, u=FRACTIONS, v=FRACTIONS, angle=ANGLES,
       budget=st.floats(min_value=0.5, max_value=200.0))
def test_reversibility(is_disc, a, b, u, v, angle, budget):
    # disc: radius a, start at radius u a and polar angle 2 pi v;
    # rectangle: a x b, start at (u a, v b)
    if is_disc:
        table = disc(a)
        start = u * a * np.array([math.cos(2.0 * math.pi * v), math.sin(2.0 * math.pi * v)])
    else:
        table = rectangle(a, b)
        start = np.array([u * a, v * b])
    forward = simulate(table, start, (math.cos(angle), math.sin(angle)), budget)
    assume(forward.terminated_by == LENGTH_BUDGET)
    last = forward.segments[-1]
    back = simulate(table, last.start + last.length * last.direction, -last.direction, budget)
    assume(back.terminated_by == LENGTH_BUDGET)
    assert len(back.segments) == len(forward.segments)
    bounces = forward.segments.start[1:]
    assert np.abs(bounces - back.segments.start[1:][::-1]).max(initial=0.0) <= 1e-9
    end = back.segments[-1]
    assert np.abs(end.start + end.length * end.direction - start).max() <= 1e-9


def rectangle_by_vectors(a, b, start, direction, budget):
    """Reference for simulate on rectangles: the loop on numpy 2-vectors it replaced."""
    p = np.asarray(start, dtype=float).copy()
    d = np.asarray(direction, dtype=float)
    d = d / float(np.linalg.norm(d))
    rows, spent, terminated_by = [], 0.0, LENGTH_BUDGET
    while True:
        remaining = budget - spent
        (px, py), (dx, dy) = p.tolist(), d.tolist()
        if dx > 0.0:
            tx, wall_x = (a - px) / dx, a
        elif dx < 0.0:
            tx, wall_x = -px / dx, 0.0
        else:
            tx, wall_x = math.inf, None
        if dy > 0.0:
            ty, wall_y = (b - py) / dy, b
        elif dy < 0.0:
            ty, wall_y = -py / dy, 0.0
        else:
            ty, wall_y = math.inf, None
        t_hit = min(tx, ty)
        q = p + t_hit * d
        if tx <= ty:
            q[0] = wall_x
        if ty <= tx:
            q[1] = wall_y
        qx, qy = q.tolist()
        corner = math.sqrt(min(qx * qx, (a - qx) * (a - qx)) + min(qy * qy, (b - qy) * (b - qy)))
        length = min(t_hit, remaining)
        rows.append((p, d, length))
        spent += length
        if t_hit >= remaining:
            break
        if corner <= CORNER_TOL:
            terminated_by = CORNER_HIT
            break
        d = d.copy()
        if tx <= ty:
            d[0] = -d[0]
        if ty <= tx:
            d[1] = -d[1]
        p = q
    return np.rec.array(rows, dtype=SEGMENT_DTYPE), spent, terminated_by


@settings(derandomize=True, deadline=None, max_examples=200)
@given(a=SIZES, b=SIZES, u=FRACTIONS, v=FRACTIONS, angle=ANGLES,
       budget=st.floats(min_value=0.5, max_value=200.0))
@example(a=1.0, b=1.0, u=0.25, v=0.25, angle=math.pi / 4, budget=10.0)  # corner hit
@example(a=1.0, b=1.0, u=0.5, v=0.5, angle=math.pi / 2, budget=3.0)  # dx = cos(pi/2) != 0
def test_rectangle_matches_the_vector_loop_bit_for_bit(a, b, u, v, angle, budget):
    start, direction = (u * a, v * b), (math.cos(angle), math.sin(angle))
    traj = simulate(rectangle(a, b), start, direction, budget)
    segments, spent, terminated_by = rectangle_by_vectors(a, b, start, direction, budget)
    assert traj.segments.tobytes() == segments.tobytes()
    assert (traj.total_length, traj.terminated_by) == (spent, terminated_by)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(radius=st.floats(min_value=0.1, max_value=10.0), u=st.floats(0.0, 0.95),
       polar=ANGLES, angle=ANGLES, chords=st.integers(min_value=1, max_value=10**4))
# |p|^2 - R^2 formed directly drifts to 2e-12 R here, (|p| - R)(|p| + R) to 4.4e-13 R
@example(radius=3.31, u=0.95, polar=6.08, angle=4.21, chords=10**4)
def test_disc_conserves_the_impact_parameter_and_the_chord(radius, u, polar, angle, chords):
    # the impact parameter b = p x d of a start at radius u R stays below 0.95 R,
    # so every chord 2 sqrt(R^2 - b^2) is longer than 0.6 R
    (x, y), (dx, dy) = (u * radius * math.cos(polar), u * radius * math.sin(polar)), \
        (math.cos(angle), math.sin(angle))
    chord = 2.0 * math.sqrt(radius**2 - (x * dy - y * dx) ** 2)
    s = simulate(disc(radius), (x, y), (dx, dy), chords * chord).segments
    impact = s.start[:, 0] * s.direction[:, 1] - s.start[:, 1] * s.direction[:, 0]
    assert np.abs(impact - impact[0]).max() <= 1e-12 * radius
    assert np.abs(s.length[1:-1] - chord).max(initial=0.0) <= 1e-12 * radius


def test_unit_square_length_spectrum():
    spectrum = length_spectrum(rectangle(1.0, 1.0), 6.0)
    expected = 2.0 * np.sqrt([1.0, 2.0, 4.0, 5.0, 8.0, 9.0])
    assert np.allclose(spectrum.lengths, expected, atol=1e-12)
    assert spectrum.descriptors.shape == (len(spectrum.lengths), 2)
    assert tuple(spectrum.descriptors[0]) in ((0, 1), (1, 0))


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


def test_trajectory_csv_bytes_match_cell_by_cell_numpy_scalars(tmp_path, write_csv_by_cell):
    # the bytes are those of the numpy scalars rendered one cell at a time
    traj = simulate(disc(1.0), (0.1, -0.3), (0.6, 0.8), 40.0)
    s = traj.segments
    reference = tmp_path / "reference.csv"
    write_csv_by_cell(reference, ("segment", "start_x", "start_y", "dir_x", "dir_y", "length"),
                      zip(range(len(s)), *s.start.T, *s.direction.T, s.length))
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    assert len(s) > 10 and path.read_bytes() == reference.read_bytes()


def test_spectrum_csv(tmp_path):
    spectrum = length_spectrum(rectangle(1.0, 1.0), 6.0)
    path = tmp_path / "lengths.csv"
    spectrum_to_csv(spectrum, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "length,descriptor"
    assert len(lines) == 7
