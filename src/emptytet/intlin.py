"""Exact integer linear algebra on Z^3.

Everything works on plain integer 3-tuples and row-major 3x3 tuples of
tuples.  Python integers are unbounded, so every determinant, Bezout
vector and adjugate below is exact; no floating point appears anywhere
in this package.  AffineUnimodularMap, like the package's other value
types, is a named tuple with read-only fields that `_replace` re-checks:
it unpacks like a tuple and compares equal to the plain tuple of them.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

Vec3 = tuple[int, int, int]
Mat3 = tuple[Vec3, Vec3, Vec3]

ZERO: Vec3 = (0, 0, 0)
E1: Vec3 = (1, 0, 0)
E2: Vec3 = (0, 1, 0)
E3: Vec3 = (0, 0, 1)

IDENTITY: Mat3 = (E1, E2, E3)


class NotPrimitiveError(ValueError):
    """A vector pair that must extend to a lattice basis does not."""


def dot(u: Vec3, v: Vec3) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def det3(m: Mat3) -> int:
    """Determinant of a 3x3 integer matrix given as rows."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y == g.  x is the
    inverse of a/g modulo |b|/g, so 0 <= x < |b|/g; b == 0 gives x = +-1."""
    g = gcd(a, b)
    if b == 0:
        return g, -1 if a < 0 else 1, 0
    x = pow(a // g, -1, abs(b) // g)
    return g, x, (g - a * x) // b


def extended_gcd3(a: int, b: int, c: int) -> tuple[int, int, int, int]:
    """(g, x, y, z) with g = gcd(a, b, c) >= 0 and a*x + b*y + c*z == g.

    Coefficients are pinned by nesting gcd(gcd(a, b), c), so repeated runs
    give identical output.  All-zero input returns (0, 0, 0, 0).
    """
    if a == 0 and b == 0 and c == 0:
        return 0, 0, 0, 0
    g_ab, x_ab, y_ab = xgcd(a, b)
    g, s, z = xgcd(g_ab, c)
    return g, x_ab * s, y_ab * s, z


def extend_to_basis(u: Vec3, v: Vec3) -> Vec3:
    """Complete a primitive pair {u, v} to a basis of Z^3.

    Returns w with det3((u, v, w)) == +1.  The pair is primitive exactly
    when its cross product n has gcd 1; a collinear or non-primitive pair
    raises NotPrimitiveError.  Since dot(n, w) == det3((u, v, w)), n is
    read off det3 one row of the identity at a time.
    """
    n = tuple(det3((u, v, e)) for e in IDENTITY)
    if n == ZERO:
        raise NotPrimitiveError(f"collinear pair: {u}, {v}")
    g, x, y, z = extended_gcd3(*n)
    if g != 1:
        raise NotPrimitiveError(
            f"pair is not primitive (cross product has gcd {g}): {u}, {v}"
        )
    # det3((u, v, w)) equals dot(n, w) == g == 1, so the orientation is
    # already the required +1.
    return (x, y, z)


def adjugate(m: Mat3) -> Mat3:
    """Transposed cofactor matrix: m times adjugate(m) is det3(m) * I."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


class AffineUnimodularMap(
    namedtuple("AffineUnimodularMap", "matrix translation", defaults=(ZERO,))
):
    """Affine map p -> matrix @ p + translation with det(matrix) = +-1.

    These are exactly the affine bijections of the lattice Z^3, so
    applying one never changes which lattice points a body contains,
    only where they sit.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __init__(self, matrix: Mat3, translation: Vec3 = ZERO) -> None:
        d = det3(matrix)
        if d not in (1, -1):
            raise ValueError(f"matrix is not unimodular (det = {d})")

    def apply(self, p: Vec3) -> Vec3:
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = self.matrix
        x, y, z = p
        tx, ty, tz = self.translation
        return (
            m00 * x + m01 * y + m02 * z + tx,
            m10 * x + m11 * y + m12 * z + ty,
            m20 * x + m21 * y + m22 * z + tz,
        )

    __call__ = apply

    def compose(self, other: AffineUnimodularMap) -> AffineUnimodularMap:
        """Map applying `other` first: L1.compose(L2)(p) == L1(L2(p))."""
        columns = tuple(zip(*other.matrix))
        return AffineUnimodularMap(
            tuple(tuple(dot(row, col) for col in columns) for row in self.matrix),
            self.apply(other.translation),
        )

