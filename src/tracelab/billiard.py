"""Specular billiards in rectangles and discs, and their length spectra.

Trajectories are computed event by event from closed-form ray/boundary
intersections — no time stepping — so the reflection law is testable at
the 1e-12 level and closed orbits can be certified against the analytic
length formulas.  One event loop serves both tables; each shape's class
finds its own next wall hit, and the segments form one record array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fileio import write_csv

LENGTH_BUDGET = "length-budget"
CORNER_HIT = "corner-hit"

# orbits landing this close to a rectangle corner terminate the simulation;
# the reflection there is not defined
CORNER_TOL = 1e-12

_BOUNDARY_TOL = 1e-12

# Work caps, counted before the work starts: 10**5 segments take about 0.3 s
# and 30 MiB (disc or rectangle, 2-vCPU machine), 10**6 winding pairs about
# 2 s and 150 MB.
_MAX_SEGMENTS = 10**5
_MAX_CANDIDATES = 10**6
# Cap on a disc's radius: Disc._hit squares lengths up to the radius, and
# above 1.34e154 the square overflows to inf, and the hit distance with it
_MAX_RADIUS = 1e150


class Table:
    """A billiard table; one subclass per shape, made by the factories below.

    Each shape checks its own sizes when made and supplies the steps that
    `simulate` and `length_spectrum` call, on (x, y) tuples of floats:
    `_start(p, d, budget)` refuses a bad start and returns about how many
    bounces the budget takes; `_hit(p, d)` returns the distance to the wall
    ahead, the hit point and the reflected direction (None where no
    reflection is defined); `_orbits(l_max, max_bounces)` yields the
    (length, descriptor) pairs of closed orbits up to l_max.
    """


class Rectangle(Table):
    """The rectangle [0,a] x [0,b]."""

    def __init__(self, a: float, b: float):
        if not (a > 0.0 and b > 0.0):  # NaN too
            raise ValueError(f"rectangle needs positive sides, got a={a} b={b}")
        self.a, self.b = a, b

    def _start(self, p, d, budget: float) -> float:
        a, b = self.a, self.b
        (px, py), (dx, dy) = p, d
        if px < -_BOUNDARY_TOL or px > a + _BOUNDARY_TOL \
                or py < -_BOUNDARY_TOL or py > b + _BOUNDARY_TOL:
            raise ValueError(f"start {list(p)} lies outside the rectangle")
        on_left = px <= _BOUNDARY_TOL
        on_right = px >= a - _BOUNDARY_TOL
        on_bottom = py <= _BOUNDARY_TOL
        on_top = py >= b - _BOUNDARY_TOL
        if (on_left or on_right) and (on_bottom or on_top):
            raise ValueError(f"start {list(p)} is a corner")
        # boundary starts are allowed when aimed strictly into the interior
        if on_left and dx <= 0.0 or on_right and dx >= 0.0:
            raise ValueError("start on a vertical wall must point inward")
        if on_bottom and dy <= 0.0 or on_top and dy >= 0.0:
            raise ValueError("start on a horizontal wall must point inward")
        # along the unfolded line, walls are a/|dx| and b/|dy| apart
        return budget * (abs(dx) / a + abs(dy) / b)

    def _hit(self, p, d):
        """The wall hit ahead; the reflected direction is None at a corner.

        A subnormal direction component gives the right infinite distance
        without a RuntimeWarning.
        """
        a, b = self.a, self.b
        (px, py), (dx, dy) = p, d
        # distance to the wall ahead on each axis
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
        # snap onto the wall hit to stop drift
        qx = wall_x if tx <= ty else px + t_hit * dx
        qy = wall_y if ty <= tx else py + t_hit * dy
        # distance to the nearest corner: rounding is monotone, so the nearer
        # wall on each axis gives the same minimum as all four corner distances
        corner = math.sqrt(min(qx * qx, (a - qx) * (a - qx)) + min(qy * qy, (b - qy) * (b - qy)))
        if corner <= CORNER_TOL:
            return t_hit, (qx, qy), None
        return t_hit, (qx, qy), (-dx if tx <= ty else dx, -dy if ty <= tx else dy)

    def _orbits(self, l_max: float, max_bounces: int):
        """2 sqrt((p a)^2 + (q b)^2) over winding pairs p, q >= 0, (p, q) != (0, 0).

        The pairs (p, 0) and (0, q) are the bouncing-ball families;
        max_bounces is not used.
        """
        # a side whose quotient passes the cap is refused alike, also one
        # whose quotient overflowed to inf
        p_max, q_max = (math.floor(min(l_max / (2.0 * side), _MAX_CANDIDATES))
                        for side in (self.a, self.b))
        if (p_max + 1) * (q_max + 1) > _MAX_CANDIDATES:
            raise ValueError(f"l_max={l_max} with a={self.a}, b={self.b} needs more "
                             f"than {_MAX_CANDIDATES} winding pairs, the cap")
        for p in range(p_max + 1):
            for q in range(q_max + 1):
                length = 2.0 * math.hypot(p * self.a, q * self.b)
                if (p or q) and length <= l_max:
                    yield length, (p, q)


class Disc(Table):
    """The disc of the given radius about the origin."""

    def __init__(self, radius: float):
        if not radius > 0.0:  # NaN too
            raise ValueError(f"disc needs a positive radius, got {radius}")
        self.radius = radius

    def _start(self, p, d, budget: float) -> float:
        radius = self.radius
        if radius > _MAX_RADIUS:
            raise ValueError(f"disc radius={radius} is above the cap of {_MAX_RADIUS:g}")
        (px, py), (dx, dy) = p, d
        r = math.hypot(px, py)
        if r > radius + _BOUNDARY_TOL:
            raise ValueError(f"start {list(p)} lies outside the disc")
        if r >= radius - _BOUNDARY_TOL and px * dx + py * dy >= 0.0:
            raise ValueError("start on the circle must point inward")
        # the impact parameter |p x d| is conserved, so all chords are equal;
        # R^2 - b^2 is formed as (R - |b|)(R + |b|), as in _hit
        impact = abs(px * dy - py * dx)
        chord = 2.0 * math.sqrt(max((radius - impact) * (radius + impact), 0.0))
        return budget / chord if chord > 0.0 else math.inf

    def _hit(self, p, d):
        radius = self.radius
        (px, py), (dx, dy) = p, d
        # positive root of |p + t d|^2 = R^2; |p|^2 - R^2 is formed as
        # (|p| - R)(|p| + R), which keeps its relative precision for a start on
        # the circle, so the chord lengths do not drift with the bounces
        r = math.hypot(px, py)
        beta = px * dx + py * dy
        t_hit = -beta + math.sqrt(max(beta * beta - (r - radius) * (r + radius), 0.0))
        qx, qy = px + t_hit * dx, py + t_hit * dy
        norm = math.hypot(qx, qy)
        nx, ny = qx / norm, qy / norm  # the outward normal; the hit snaps to R n
        dn = 2.0 * (dx * nx + dy * ny)
        dx, dy = dx - dn * nx, dy - dn * ny
        norm = math.hypot(dx, dy)
        return t_hit, (radius * nx, radius * ny), (dx / norm, dy / norm)

    def _orbits(self, l_max: float, max_bounces: int):
        """2 n R sin(pi q / n) over n-bounce polygons of turning number q coprime to n.

        n = 2 is the diameter.  The lengths accumulate at multiples of the
        circumference, so n is capped at max_bounces.
        """
        # the (n, q) pairs below number about max_bounces^2 / 4
        if max_bounces < 2:
            raise ValueError(f"max_bounces must be >= 2 (the diameter), got {max_bounces}")
        if max_bounces > math.isqrt(_MAX_CANDIDATES):
            raise ValueError(f"max_bounces={max_bounces} is above the cap of "
                             f"{math.isqrt(_MAX_CANDIDATES)}")
        for n in range(2, max_bounces + 1):
            for q in range(1, n // 2 + 1):
                length = 2.0 * n * self.radius * math.sin(math.pi * q / n)
                if math.gcd(q, n) == 1 and length <= l_max:
                    yield length, (n, q)


def rectangle(a: float, b: float) -> Rectangle:
    return Rectangle(a, b)


def disc(radius: float) -> Disc:
    return Disc(radius)


# one row per straight piece of a trajectory, in path order
SEGMENT_DTYPE = np.dtype([("start", float, (2,)), ("direction", float, (2,)), ("length", float)])


@dataclass(frozen=True, eq=False)
class Trajectory:
    segments: np.recarray  # SEGMENT_DTYPE rows; segments[-1] ends where the ball stops
    total_length: float
    terminated_by: str


@dataclass(frozen=True)
class ClosedOrbit:
    length: float


def _unit(direction) -> np.ndarray:
    d = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(d))
    if not abs(norm - 1.0) <= 1e-12:  # NaN too
        raise ValueError(f"direction must be a unit vector, |d| = {norm}")
    return d / norm


def simulate(table: Table, start, direction, length_budget: float) -> Trajectory:
    """Roll a billiard ball until the length budget is spent.

    Starts strictly inside the table, or on its boundary aimed strictly
    inward (corners excluded).  Rectangle trajectories that land within
    1e-12 of a corner stop early with the corner-hit tag, since no
    reflection is defined there.  Each step runs on Python floats, which
    for a 2-vector cost less than numpy's per-call overhead.
    """
    if not 0.0 < length_budget < math.inf:  # NaN or inf would never be spent
        raise ValueError(f"length budget must be positive and finite, got {length_budget}")
    p = np.asarray(start, dtype=float)
    if p.shape != (2,):
        raise ValueError(f"start must be a point in the plane, got shape {p.shape}")
    if not np.isfinite(p).all():  # a NaN start would never reach a wall
        raise ValueError(f"start must be finite, got {p.tolist()}")
    p, d = p.tolist(), _unit(direction).tolist()
    bounces = table._start(p, d, length_budget)
    if bounces > _MAX_SEGMENTS:
        raise ValueError(f"length budget {length_budget} needs about {bounces:.3g} "
                         f"bounces; the cap is {_MAX_SEGMENTS}")
    hit = table._hit
    rows = []  # (start_x, start_y, dir_x, dir_y, length), the SEGMENT_DTYPE layout
    spent = 0.0
    terminated_by = LENGTH_BUDGET
    while True:
        remaining = length_budget - spent
        t_hit, q, reflected = hit(p, d)
        length = min(t_hit, remaining)
        rows.append((*p, *d, length))
        spent += length
        if t_hit >= remaining:
            break
        if reflected is None:
            terminated_by = CORNER_HIT
            break
        p, d = q, reflected
    segments = np.array(rows).view(SEGMENT_DTYPE).reshape(-1).view(np.recarray)
    return Trajectory(segments=segments, total_length=spent, terminated_by=terminated_by)


def _row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # row by row the same BLAS dot as u[i] @ v[i] and np.linalg.norm, so
    # the results match the one-segment-at-a-time arithmetic bit for bit
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def is_closed(traj: Trajectory, start, direction, tol: float = 1e-9):
    """Smallest arc length at which the path returns to (start, direction).

    Scans each segment for a point matching the start position with the
    same running direction, both within tol; returns a ClosedOrbit with
    that length, or None if the trajectory never closes within budget.
    """
    if not tol > 0.0:  # NaN too
        raise ValueError(f"tolerance must be positive, got {tol}")
    p0 = np.asarray(start, dtype=float)
    d0 = _unit(direction)
    seg = traj.segments
    along = _row_dot(p0 - seg.start, seg.direction)
    within = (along >= -tol) & (along <= seg.length + tol)
    along = np.minimum(np.maximum(along, 0.0), seg.length)
    offset = seg.start + along[:, None] * seg.direction - p0
    turn = seg.direction - d0
    # arc length before each segment, summed in path order like a running total
    length = np.concatenate(([0.0], np.cumsum(seg.length[:-1]))) + along
    found = np.flatnonzero(within
                           & (np.sqrt(_row_dot(offset, offset)) <= tol)
                           & (np.sqrt(_row_dot(turn, turn)) <= tol)
                           & (length > tol))
    return ClosedOrbit(length=float(length[found[0]])) if len(found) else None


@dataclass(frozen=True, eq=False)
class LengthSpectrum:
    """Sorted distinct closed-orbit lengths with one descriptor per length.

    Rectangle descriptors are unfolding winding pairs (p, q); disc
    descriptors are (bounces, turning number).  Iterates of primitive
    orbits appear as their own entries — e.g. (2,0) alongside (1,0) —
    because the enumeration is over all winding pairs up to the cutoff.
    """

    lengths: np.ndarray
    descriptors: np.ndarray  # (m, 2) ints, one row per length


def length_spectrum(table: Table, l_max: float, max_bounces: int = 64) -> LengthSpectrum:
    """All closed-orbit lengths up to l_max, from the table's `_orbits`.

    A length within 1e-9 of the one before is dropped with its descriptor.
    Only a disc reads max_bounces.
    """
    if not l_max > 0.0:  # NaN too
        raise ValueError(f"l_max must be positive, got {l_max}")
    lengths = []
    descriptors = []
    for length, descriptor in sorted(table._orbits(l_max, max_bounces)):
        if lengths and length - lengths[-1] <= 1e-9:
            continue
        lengths.append(length)
        descriptors.append(descriptor)
    return LengthSpectrum(lengths=np.array(lengths),
                          descriptors=np.array(descriptors, dtype=int).reshape(-1, 2))


def trajectory_to_csv(traj: Trajectory, path) -> None:
    s = traj.segments
    write_csv(path, ("segment", "start_x", "start_y", "dir_x", "dir_y", "length"),
              (range(len(s)), *s.start.T, *s.direction.T, s.length))


def spectrum_to_csv(spectrum: LengthSpectrum, path) -> None:
    write_csv(path, ("length", "descriptor"),
              (spectrum.lengths, [f"{p},{q}" for p, q in spectrum.descriptors]))
