"""Lattice tetrahedra, exact point location, and brute-force lattice-point oracles.

Every predicate is decided by signs of integer determinants; there is no
floating point, and the only divisions are integer floor divisions, in
the oracle scans and in the parallelepiped's interior points by their
closed form.  The *_bruteforce functions scan an integer
bounding box and serve as ground truth for the fast number-theoretic
criteria in `white`.  One scan core does all the scanning: `_rows` takes
a polytope as affine forms that are >= 0 on it and a box that holds it
(a tetrahedron's four faces over its vertices' box, or a parallelepiped's
strict x- and y-slabs over the integer box of its interior, which stands
in for its z-slab) and yields the z-interval each (x, y) row of the box
has inside it, rather than visiting the box point by point: its cost is
one pass over the corners and forms per call, one y-solve per x of the
polytope's x-interval, which divides only the y-bounds that narrow the
box there, and one floor division per form per row.  The
parallelepiped oracle reads those rows directly; the tetrahedron oracles
read them through `_points_in`, which locates each point by the number
of faces through it (`lattice_points_in` says what each count means),
counted in one pass over the faces per row: at its two ends, and once
for the points between them.  A `Tetrahedron` computes its four face
forms once, at construction.

A tetrahedron is *empty* when its only lattice points are its four
vertices, and *clean* when its boundary carries no lattice points besides
the vertices (interior points are allowed).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator

from .intlin import E1, E2, ZERO, AffineUnimodularMap, Vec3
from .white import _MAX_ENUMERATE_C, CanonicalForm


class DegenerateTetrahedronError(ValueError):
    """Vertices whose edge vectors have zero determinant."""


class Tetrahedron(namedtuple("Tetrahedron", "v0 v1 v2 v3")):
    """Nondegenerate lattice tetrahedron given by four integer vertices; its
    face forms are computed once, at construction, and `_replace` re-checks."""

    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __init__(self, v0: Vec3, v1: Vec3, v2: Vec3, v3: Vec3) -> None:
        for p in self:
            if type(p) is not tuple or len(p) != 3 or not (
                type(p[0]) is int and type(p[1]) is int and type(p[2]) is int
            ):
                raise TypeError(f"vertex must be a tuple of 3 ints, got {p!r}")
        self._faces = _face_forms(self)

    def vertices(self) -> tuple[Vec3, Vec3, Vec3, Vec3]:
        return tuple(self)

    def transformed(self, m: AffineUnimodularMap) -> Tetrahedron:
        return Tetrahedron(m(self.v0), m(self.v1), m(self.v2), m(self.v3))


def standard_tetrahedron(a: int, b: int, c: int) -> Tetrahedron:
    """The tetrahedron with vertices 0, e1, e2 and (a, b, c)."""
    return Tetrahedron(ZERO, E1, E2, (a, b, c))


def volume6(t: Tetrahedron) -> int:
    """Six times the euclidean volume: the sum of the face forms' constants, computed at construction."""
    (_, k0), (_, k1), (_, k2), (_, k3) = t._faces
    return k0 + k1 + k2 + k3


def _face_forms(t: Tetrahedron):
    """Affine forms whose signs locate a point against the four faces.

    Returns ((n0, c0), (n1, c1), (n2, c2), (n3, c3)) where the values
    d_i(p) = dot(n_i, p) + c_i are `total` times the barycentric
    coordinates of p, with `total` the positively-oriented determinant of
    the edge vectors, so d0 = total - d1 - d2 - d3 and total is the sum of
    the four c_i.  p lies in the closed tetrahedron iff all four values
    are >= 0.  Each `Tetrahedron` computes them once, at construction;
    coplanar vertices, where total is 0, raise DegenerateTetrahedronError.
    """
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = t
    ux, uy, uz = x1 - x0, y1 - y0, z1 - z0
    vx, vy, vz = x2 - x0, y2 - y0, z2 - z0
    wx, wy, wz = x3 - x0, y3 - y0, z3 - z0
    # n1, n2, n3 = cross(v, w), cross(w, u), cross(u, v); total = det(u, v, w)
    n1x, n1y, n1z = vy * wz - vz * wy, vz * wx - vx * wz, vx * wy - vy * wx
    n2x, n2y, n2z = wy * uz - wz * uy, wz * ux - wx * uz, wx * uy - wy * ux
    n3x, n3y, n3z = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    total = ux * n1x + uy * n1y + uz * n1z
    if total == 0:
        raise DegenerateTetrahedronError(f"degenerate tetrahedron (coplanar vertices): {tuple(t)}")
    if total < 0:
        total = -total
        n1x, n1y, n1z, n2x, n2y, n2z = -n1x, -n1y, -n1z, -n2x, -n2y, -n2z
        n3x, n3y, n3z = -n3x, -n3y, -n3z
    c1 = -(n1x * x0 + n1y * y0 + n1z * z0)
    c2 = -(n2x * x0 + n2y * y0 + n2z * z0)
    c3 = -(n3x * x0 + n3y * y0 + n3z * z0)
    return (
        ((-(n1x + n2x + n3x), -(n1y + n2y + n3y), -(n1z + n2z + n3z)), total - c1 - c2 - c3),
        ((n1x, n1y, n1z), c1),
        ((n2x, n2y, n2z), c2),
        ((n3x, n3y, n3z), c3),
    )


# Lattice points in the scanned bounding box that the scan accepts per
# call, for the tetrahedron and parallelepiped oracles alike: past
# it an oracle refuses rather than running for hours.  On a 2-core VM with
# Python 3.11, lattice_points_in over full boxes of 20M points around thin
# tetrahedra with a vertex at 0 took 0.001 s when cube-shaped (e1, e2,
# (270, 270, 271)), 1.2 s when 5 points deep in z ((1999, 1, 0),
# (1, 1998, 4), (0, 1999, 4)) and 3.0 s when 2 deep with a shadow of 5M
# rows ((1999, 1, 0), (1, 4998, 1), (0, 4999, 1)), the slowest shape.
# bruteforce_verdicts took 0.8 to 1.1 s on the densest clean one, whose
# 6,566,873 interior points fill a third of its box of 19,975,952
# ((269, 270, 0), (270, 0, 271), (0, 269, 271)).  A box past the budget
# is refused after the x-rows that fit in it: 278k rows of 72 points with
# a 4000-digit coordinate took about 3.3 s.
_MAX_SCAN_POINTS = 20_000_000


def _rows(forms, corners) -> Iterator[tuple[int, int, int, int]]:
    """The scan core: the rows of lattice points p of the integer bounding
    box of corners with dot(n, p) + k >= 0 for every form (n, k) in forms.

    Yields (x, y, z_lo, z_hi) for every (x, y) whose row holds such points,
    in lexicographic order; they are the points (x, y, z) with
    z_lo <= z <= z_hi.  The box is not visited point by point.  Once per
    call, the forms are sorted: z-only forms narrow the call's z-range, and
    the rest bound z from below (rising) or above (falling) by the sign of
    their z coefficient.  Fourier-Motzkin gives the polytope's shadow on the
    xy-plane, where every z-free form, and every positive combination of a
    rising and a falling form that cancels z, is >= 0.  A y-free shadow
    form narrows the call's x-interval, and a constant one keeps the
    polytope or empties it; the rest bound y.  For each x in the interval
    the y-range of the shadow is solved exactly, each y-bound by a floor
    division on the x-values where it narrows the box's y-range and by a
    comparison elsewhere, and for each (x, y) in that the z-interval, from
    the rising and falling forms' x-parts, which are kept once per call and
    step by their x coefficients as x advances.  So a scan costs one pass
    over the corners and forms per call, one y-solve and one step of the
    row forms per x of the interval, one floor division per form per row,
    and the points its caller reads; a caller that stops early stops the
    scan.  Whole x-rows are scanned while the box points so far stay within
    _MAX_SCAN_POINTS; after the last of them, a box past that budget raises
    ValueError.  Past it each y-bound is divided by the content of its x-
    and y-coefficients first, so that, with no bound far outside the box
    ever divided, the x-rows before the refusal cost time linear in the
    coordinates' length.
    """
    xs, ys, zs = zip(*corners)
    x_lo, y_first, z_lo = min(xs), min(ys), min(zs)
    y_last, z_hi = max(ys), max(zs)
    row = (y_last - y_first + 1) * (z_hi - z_lo + 1)
    box = (max(xs) - x_lo + 1) * row
    x_hi = x_lo + min(box, _MAX_SCAN_POINTS) // row - 1
    # Forms in z as [x-part, y, |z|], each x-part paired in steps with its
    # x coefficient to advance it with x, and the shadow's forms as
    # (x, y, constant).
    rising, falling, steps, shadow = [], [], [], []
    for (ax, ay, az), ak in forms:
        if az == 0:
            shadow.append((ax, ay, ak))
            continue
        if az > 0:
            for (bx, by, bz), bk in forms:
                if bz < 0:
                    shadow.append((az * bx - bz * ax, az * by - bz * ay, az * bk - bz * ak))
        if ax == ay == 0:
            if az > 0:
                z_lo = max(z_lo, -(ak // az))
            else:
                z_hi = min(z_hi, ak // -az)
        else:
            row_form = [ak, ay, abs(az)]
            (rising if az > 0 else falling).append(row_form)
            steps.append((row_form, ax))
    if z_lo > z_hi:
        x_hi = x_lo - 1
    # Shadow forms rising in y bound it below, falling ones above, each with
    # its cut: the bound narrows the box's y-range [y_first, y_last] exactly
    # when ax * x + k < cut, and is divided only then.  Past the budget a
    # coefficient can be as long as the coordinates, so there each y-bound
    # is divided by g = gcd(ax, ay) first, which keeps its integer points:
    # floor((g u x + k) / (g v)) = floor((u x + floor(k / g)) / v).
    y_rising, y_falling = [], []
    for ax, ay, k in shadow:
        if ay and box > _MAX_SCAN_POINTS:
            g = math.gcd(ax, ay)
            ax, ay, k = ax // g, ay // g, k // g
        if ay > 0:
            y_rising.append((ax, ay, k, -y_first * ay))
        elif ay < 0:
            y_falling.append((ax, -ay, k, -y_last * ay))
        elif ax > 0:
            x_lo = max(x_lo, -(k // ax))
        elif ax < 0:
            x_hi = min(x_hi, k // -ax)
        elif k < 0:
            x_hi = x_lo - 1
    for row_form, ax in steps:
        row_form[0] += ax * x_lo
    for x in range(x_lo, x_hi + 1):
        y_lo, y_hi = y_first, y_last
        for ax, ay, k, cut in y_rising:
            v = ax * x + k
            if v < cut:
                q = -(v // ay)
                if q > y_lo:
                    y_lo = q
        for ax, ay, k, cut in y_falling:
            v = ax * x + k
            if v < cut:
                q = v // ay
                if q < y_hi:
                    y_hi = q
        for y in range(y_lo, y_hi + 1):
            # The z-interval; the z-free forms hold on the whole shadow.
            lo, hi = z_lo, z_hi
            for r, ny, nz in rising:
                q = -((r + ny * y) // nz)
                if q > lo:
                    lo = q
            for r, ny, nz in falling:
                q = (r + ny * y) // nz
                if q < hi:
                    hi = q
            if lo <= hi:
                yield x, y, lo, hi
        for row_form, ax in steps:
            row_form[0] += ax
    if box > _MAX_SCAN_POINTS:
        raise ValueError(
            f"oracle scan exceeds its budget of {_MAX_SCAN_POINTS} lattice points "
            f"(bounding box of {_decimal(box)} points)"
        )


def _decimal(n: int) -> str:
    """n > 0 in decimal or, past Python's int-string limit, as its first 12
    digits and its digit count, the form the CLI prints for a long digit
    run; those two are found by powers of 10, not by str().  The count
    starts below it, as 0.30102 < log10(2)."""
    try:
        return str(n)
    except ValueError:
        pass
    digits = (n.bit_length() - 1) * 30102 // 100000
    while 10**digits <= n:
        digits += 1
    return f"{n // 10 ** (digits - 12)}... ({digits} digits)"


def _points_in(forms, corners) -> Iterator[tuple[Vec3, int]]:
    """Point location on the scan core's rows: every point p of the rows
    _rows(forms, corners) yields, as (p, zeros) in lexicographic (x, y, z)
    order, where zeros is the number of forms vanishing at p.

    For a tetrahedron's four face forms zeros locates p as
    lattice_points_in says.  It is counted in one pass over the forms per
    row, never per point: each form is evaluated at z_lo and, on a row of
    more than one point, at z_hi.  Strictly inside such a row only the
    z-free forms can vanish, since a form that moves with z and is >= 0 at
    both ends is > 0 between them.
    """
    for x, y, lo, hi in _rows(forms, corners):
        at_lo = at_hi = inside = 0
        for (nx, ny, nz), k in forms:
            v = nx * x + ny * y + k
            at_lo += v + nz * lo == 0
            if lo < hi:
                at_hi += v + nz * hi == 0
                inside += nz == 0 == v
        yield (x, y, lo), at_lo
        if lo < hi:
            for z in range(lo + 1, hi):
                yield (x, y, z), inside
            yield (x, y, hi), at_hi


def lattice_points_in(t: Tetrahedron) -> list[tuple[Vec3, int]]:
    """Every lattice point p of the closed tetrahedron, in lexicographic
    (x, y, z) order, as (p, faces) with faces the number of faces through
    p: 0 inside, 1 inside a face, 2 inside an edge and 3 at a vertex.  No
    point lies on all four faces, as their forms sum to 6 times the volume."""
    return list(_points_in(t._faces, t))


def is_empty_bruteforce(t: Tetrahedron) -> bool:
    """Oracle: no lattice point besides the four vertices; stops at the first other one."""
    return all(zeros == 3 for _, zeros in _points_in(t._faces, t))


def bruteforce_verdicts(t: Tetrahedron) -> tuple[bool, bool]:
    """Oracle pair (empty, clean) decided in one bounding-box sweep.

    A boundary point that is not a vertex settles both verdicts at once,
    so the sweep stops there; an interior point only refutes emptiness and
    the sweep continues hunting for boundary points.
    """
    empty = True
    for _, zeros in _points_in(t._faces, t):
        if zeros == 0:
            empty = False
        elif zeros != 3:
            return False, False
    return empty, True


def parallelepiped_interior_points(a: int, b: int, c: int) -> list[Vec3]:
    """The c - 1 interior lattice points of the parallelepiped spanned by
    e1, e2 and (a, b, c), in order of increasing height z = k.  That order
    is lexicographic, the order parallelepiped_interior_bruteforce scans
    in: along it x and y never decrease and z rises.

    Point k (k = 1..c-1) is <k(c-a)/c> e1 + <k(c-b)/c> e2 + (k/c)(a, b, c)
    where <.> is the fractional part, that is (1 + floor(k*a/c),
    1 + floor(k*b/c), k), which is how it is listed: two floor divisions
    per point.  Requires gcd(a, c) = gcd(b, c) = 1, so that k*a and k*b
    are not multiples of c for 0 < k < c and every point is strictly
    inside; otherwise some of them would degenerate onto the boundary.
    Raises ValueError for c > white._MAX_ENUMERATE_C, the budget of both
    O(c) listings.
    """
    CanonicalForm(a, b, c)  # validates types and ranges
    if c > _MAX_ENUMERATE_C:
        raise ValueError(f"interior-point listing exceeds its budget of c <= {_MAX_ENUMERATE_C}, got c = {c}")
    if math.gcd(a, c) != 1 or math.gcd(b, c) != 1:
        raise ValueError(
            f"need gcd(a, c) = gcd(b, c) = 1, got a={a}, b={b}, c={c}"
        )
    return [(1 + k * a // c, 1 + k * b // c, k) for k in range(1, c)]


def parallelepiped_interior_bruteforce(a: int, b: int, c: int) -> list[Vec3]:
    """Oracle: interior lattice points of the same parallelepiped by scanning.

    p = (x, y, z) is interior iff its coefficients over the spanning
    vectors lie strictly between 0 and 1, i.e. 0 < z < c,
    0 < x*c - z*a < c and 0 < y*c - z*b < c.  The scan core gets the x-
    and y-slabs as forms >= 1 and the z-slab as the box from (1, 1, 1) to
    (a, b, c - 1), which holds every interior point: 0 < z < c gives
    1 <= z <= c - 1, x*c > z*a >= 0 gives x >= 1, and
    x*c < c + z*a < c*(a + 1) gives x <= a; likewise y.  At a = 0 or
    c = 1 the box is still the corners' min to max, and the slabs leave
    it without a point.  The points are read off its rows, with no count
    of vanishing forms.  Lexicographic order.
    """
    CanonicalForm(a, b, c)  # validates types and ranges
    forms = (
        ((c, 0, -a), -1),
        ((-c, 0, a), c - 1),
        ((0, c, -b), -1),
        ((0, -c, b), c - 1),
    )
    rows = _rows(forms, ((1, 1, 1), (a, b, c - 1)))
    return [(x, y, z) for x, y, lo, hi in rows for z in range(lo, hi + 1)]
