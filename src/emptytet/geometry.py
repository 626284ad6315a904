"""Lattice tetrahedra, exact point location, and brute-force lattice-point oracles.

Every predicate is decided by signs of integer determinants; there is no
floating point, and the only divisions are integer floor divisions and
exact ones guarded by asserts.  The *_bruteforce functions scan an integer
bounding box and serve as ground truth for the fast number-theoretic
criteria in `white`.  One scan core does all the scanning: `_points_in`
takes a polytope as affine forms that are >= 0 on it (the four faces of a
tetrahedron, or the strict sides of a parallelepiped) and yields its
lattice points, solving the interval each (x, y) row of the box has
inside it rather than visiting the box point by point.

A tetrahedron is *empty* when its only lattice points are its four
vertices, and *clean* when its boundary carries no lattice points besides
the vertices (interior points are allowed).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from enum import Enum

from .intlin import (
    E1,
    E2,
    ZERO,
    AffineUnimodularMap,
    Vec3,
    add,
    cross,
    det3,
    dot,
    neg,
    sub,
)
from .white import _MAX_ENUMERATE_C, CanonicalForm


class DegenerateTetrahedronError(ValueError):
    """Vertices whose edge vectors have zero determinant."""


class PointLocation(Enum):
    OUTSIDE = "outside"
    VERTEX = "vertex"
    BOUNDARY_NON_VERTEX = "boundary-non-vertex"
    INTERIOR = "interior"


class Tetrahedron(namedtuple("Tetrahedron", "v0 v1 v2 v3")):
    """Nondegenerate lattice tetrahedron given by four integer vertices."""

    __slots__ = ()

    def __init__(self, v0: Vec3, v1: Vec3, v2: Vec3, v3: Vec3) -> None:
        for p in self:
            if type(p) is not tuple or len(p) != 3 or not (
                type(p[0]) is int and type(p[1]) is int and type(p[2]) is int
            ):
                raise TypeError(f"vertex must be a tuple of 3 ints, got {p!r}")
        if det3(self.edge_vectors()) == 0:
            raise DegenerateTetrahedronError(
                f"degenerate tetrahedron (coplanar vertices): {self.vertices()}"
            )

    def vertices(self) -> tuple[Vec3, Vec3, Vec3, Vec3]:
        return tuple(self)

    def edge_vectors(self) -> tuple[Vec3, Vec3, Vec3]:
        """The three edge vectors based at v0."""
        return (sub(self.v1, self.v0), sub(self.v2, self.v0), sub(self.v3, self.v0))

    def transformed(self, m: AffineUnimodularMap) -> Tetrahedron:
        return Tetrahedron(m(self.v0), m(self.v1), m(self.v2), m(self.v3))


def standard_tetrahedron(a: int, b: int, c: int) -> Tetrahedron:
    """The tetrahedron with vertices 0, e1, e2 and (a, b, c)."""
    return Tetrahedron(ZERO, E1, E2, (a, b, c))


def volume6(t: Tetrahedron) -> int:
    """Six times the euclidean volume: |det| of the edge vectors at v0."""
    return abs(det3(t.edge_vectors()))


def _face_forms(t: Tetrahedron):
    """Affine forms whose signs locate a point against the four faces.

    Returns ((n0, c0), (n1, c1), (n2, c2), (n3, c3)) where the values
    d_i(p) = dot(n_i, p) + c_i are `total` times the barycentric
    coordinates of p, with `total` the positively-oriented determinant of
    the edge vectors, so d0 = total - d1 - d2 - d3.  p lies in the closed
    tetrahedron iff all four values are >= 0.
    """
    u1, u2, u3 = t.edge_vectors()
    total = det3((u1, u2, u3))
    n1, n2, n3 = cross(u2, u3), cross(u3, u1), cross(u1, u2)
    if total < 0:
        total, n1, n2, n3 = -total, neg(n1), neg(n2), neg(n3)
    c1, c2, c3 = -dot(n1, t.v0), -dot(n2, t.v0), -dot(n3, t.v0)
    return (
        (neg(add(add(n1, n2), n3)), total - c1 - c2 - c3),
        (n1, c1),
        (n2, c2),
        (n3, c3),
    )


# Location of an in-tetrahedron point by how many face forms vanish there;
# four zeros would force total == 0, excluded by nondegeneracy.
_LOCATION_BY_ZEROS = (
    PointLocation.INTERIOR,
    PointLocation.BOUNDARY_NON_VERTEX,
    PointLocation.BOUNDARY_NON_VERTEX,
    PointLocation.VERTEX,
)


def _bounding_box(points) -> tuple[range, range, range]:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    zs = [p[2] for p in points]
    return (
        range(min(xs), max(xs) + 1),
        range(min(ys), max(ys) + 1),
        range(min(zs), max(zs) + 1),
    )


# Lattice points in the scanned bounding box that the scan accepts per
# call, for the tetrahedron and parallelepiped oracles alike: past
# it an oracle refuses rather than running for hours.  On a 2-core VM with
# Python 3.11, full boxes of 20M points around thin tetrahedra took 0.03 s
# when cube-shaped, 1.5 s when 5 points deep in z and 4.0 s when 2 deep
# with a shadow of 5M rows, the slowest shape.
_MAX_SCAN_POINTS = 20_000_000


def _points_in(forms, corners) -> Iterator[tuple[Vec3, int]]:
    """The scan core: every lattice point p of the integer bounding box of
    corners with dot(n, p) + k >= 0 for every form (n, k) in forms.

    Yields (p, zeros) in lexicographic (x, y, z) order, where zeros is the
    number of forms vanishing at p; for a tetrahedron's four face forms
    that is 0 for interior points, 3 for vertices and 1 or 2 for the rest
    of the boundary.  The box is not visited point by point.  For each x,
    the y-range of the polytope's shadow on the xy-plane is solved exactly
    from the forms that eliminating z leaves; for each (x, y) row in it,
    the z-interval where every form is >= 0 is solved the same way, and
    only its points are visited.  So a scan costs the box's x-extent plus
    the shadow's rows plus the polytope's points; callers stop at the
    first point that decides.  Whole x-rows are scanned while the box
    points so far stay within _MAX_SCAN_POINTS; the row that would pass
    that budget raises ValueError.
    """
    # Fourier-Motzkin: the shadow is where every z-free form, and every
    # positive combination of a rising and a falling form that cancels z,
    # is >= 0.  Each is kept as (x, y, constant) coefficients.
    shadow = []
    for (ax, ay, az), ak in forms:
        if az == 0:
            shadow.append((ax, ay, ak))
        elif az > 0:
            for (bx, by, bz), bk in forms:
                if bz < 0:
                    shadow.append((az * bx - bz * ax, az * by - bz * ay, az * bk - bz * ak))
    # Split by the sign of y: a rising shadow form bounds y below, a falling
    # one above, and a y-free one keeps or drops the whole x.
    rising = [f for f in shadow if f[1] > 0]
    falling = [f for f in shadow if f[1] < 0]
    free = [(ax, k) for ax, ay, k in shadow if ay == 0]
    xr, yr, zr = _bounding_box(corners)
    z_first, z_last = zr[0], zr[-1]
    row = len(yr) * len(zr)
    for x in xr[: _MAX_SCAN_POINTS // row]:
        y_lo, y_hi = yr[0], yr[-1]
        for ax, ay, k in rising:
            q = -((ax * x + k) // ay)
            if q > y_lo:
                y_lo = q
        for ax, ay, k in falling:
            q = (ax * x + k) // -ay
            if q < y_hi:
                y_hi = q
        if y_lo > y_hi or any(ax * x + k < 0 for ax, k in free):
            continue
        at_x = [(nx * x + k, ny, nz) for (nx, ny, nz), k in forms]
        for y in range(y_lo, y_hi + 1):
            # The z-range, solved the same way; the z-free forms are >= 0
            # on the whole shadow.
            lo, hi = z_first, z_last
            for r, ny, nz in at_x:
                if nz > 0:
                    q = -((r + ny * y) // nz)
                    if q > lo:
                        lo = q
                elif nz < 0:
                    q = (r + ny * y) // -nz
                    if q < hi:
                        hi = q
            for z in range(lo, hi + 1):
                zeros = 0
                for r, ny, nz in at_x:
                    zeros += r + ny * y + nz * z == 0
                yield (x, y, z), zeros
    if len(xr) * row > _MAX_SCAN_POINTS:
        raise ValueError(
            f"oracle scan exceeds its budget of {_MAX_SCAN_POINTS} lattice points "
            f"(bounding box of {len(xr) * row} points)"
        )


def lattice_points_in(t: Tetrahedron) -> list[tuple[Vec3, PointLocation]]:
    """Every lattice point of the closed tetrahedron with its location,
    in lexicographic (x, y, z) order."""
    return [(p, _LOCATION_BY_ZEROS[zeros]) for p, zeros in _points_in(_face_forms(t), t.vertices())]


def is_empty_bruteforce(t: Tetrahedron) -> bool:
    """Oracle: no lattice point besides the four vertices; stops at the first other one."""
    return all(zeros == 3 for _, zeros in _points_in(_face_forms(t), t.vertices()))


def bruteforce_verdicts(t: Tetrahedron) -> tuple[bool, bool]:
    """Oracle pair (empty, clean) decided in one bounding-box sweep.

    A boundary point that is not a vertex settles both verdicts at once,
    so the sweep stops there; an interior point only refutes emptiness and
    the sweep continues hunting for boundary points.
    """
    empty = True
    for _, zeros in _points_in(_face_forms(t), t.vertices()):
        if zeros == 0:
            empty = False
        elif zeros != 3:
            return False, False
    return empty, True


def parallelepiped_interior_points(a: int, b: int, c: int) -> list[Vec3]:
    """The c - 1 interior lattice points of the parallelepiped spanned by
    e1, e2 and (a, b, c), in order of increasing height z = k.

    Point k (k = 1..c-1) is <k(c-a)/c> e1 + <k(c-b)/c> e2 + (k/c)(a, b, c)
    where <.> is the fractional part.  Each coordinate is assembled over
    the common denominator c and asserted integral rather than assumed.
    Requires gcd(a, c) = gcd(b, c) = 1; otherwise some of these points
    would degenerate onto the boundary.  Raises ValueError for
    c > white._MAX_ENUMERATE_C, the budget of both O(c) listings.
    """
    CanonicalForm(a, b, c)  # validates types and ranges
    if c > _MAX_ENUMERATE_C:
        raise ValueError(f"interior-point listing exceeds its budget of c <= {_MAX_ENUMERATE_C}, got c = {c}")
    if math.gcd(a, c) != 1 or math.gcd(b, c) != 1:
        raise ValueError(
            f"need gcd(a, c) = gcd(b, c) = 1, got a={a}, b={b}, c={c}"
        )
    points = []
    for k in range(1, c):
        x_num = k * (c - a) % c + k * a
        y_num = k * (c - b) % c + k * b
        assert x_num % c == 0 and y_num % c == 0, (a, b, c, k)
        points.append((x_num // c, y_num // c, k))
    return points


def parallelepiped_interior_bruteforce(a: int, b: int, c: int) -> list[Vec3]:
    """Oracle: interior lattice points of the same parallelepiped by scanning.

    p = (x, y, z) is interior iff its coefficients over the spanning
    vectors lie strictly between 0 and 1, i.e. 0 < z < c,
    0 < x*c - z*a < c and 0 < y*c - z*b < c, passed to the scan core as
    forms >= 1 over the box from 0 to (a + 1, b + 1, c).  Lexicographic
    order.
    """
    CanonicalForm(a, b, c)  # validates types and ranges
    forms = (
        ((0, 0, 1), -1),
        ((0, 0, -1), c - 1),
        ((c, 0, -a), -1),
        ((-c, 0, a), c - 1),
        ((0, c, -b), -1),
        ((0, -c, b), c - 1),
    )
    return [p for p, _ in _points_in(forms, (ZERO, (a + 1, b + 1, c)))]
