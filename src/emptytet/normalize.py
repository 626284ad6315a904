"""Reduction of lattice tetrahedra to the standard form T(a, b, c).

Any tetrahedron one of whose faces spans an empty triangle can be carried
onto a standard form by an affine unimodular map, and that map is read off
its barycentric coordinates.  `geometry._face_forms` gives the four face
forms d_m(p) = dot(n_m, p) + k_m = c lambda_m(p), with lambda_m the
barycentric coordinate of vertex p_m and c = |det| of the edge vectors,
six times the volume and the sum of the k_m; a `Tetrahedron` computes
them once, at construction.  For an assignment of vertex roles (origin
o, e1 role x, e2 role y, apex l) the map is

    p -> ((d_x + a d_l) / c, (d_y + b d_l) / c, d_l),

which sends p_o, p_x, p_y, p_l to 0, e1, e2 and (a, b, c); its linear part
carries the edge vectors, of determinant +-c, to a basis of determinant c,
so it is unimodular once it is integral.  It is integral for some a, b
exactly when the face opposite l is an empty triangle, that is when n_l is
primitive (tests/test_normalize.py checks this decision against the
tetrahedron scan of `geometry`).

Each q in Z^3 is sum lambda_m p_m with sum lambda_m = 0 and c lambda
integral; q lies in the edge lattice exactly when lambda is integral, so
the class of q modulo that lattice is (dot(n_m, q) mod c)_m.  That group
has order c, and q -> dot(n_l, q) mod c is a bijection from it onto Z/c
exactly when it takes the value 1, that is when n_l is primitive.  Then
for a Bezout vector s, dot(n_l, s) = 1, every class is a multiple of the
class of s, so dot(n_x + a n_l, q) = 0 mod c for every q, with a =
-dot(n_x, s) mod c: the vector n_x + a n_l is divisible by c, and so is
k_x + a k_l, as d_x + a d_l vanishes at p_o.  Likewise for b and y.
`normalize` writes the map's rows (n_x + a n_l) / c, (n_y + b n_l) / c, n_l
and its translation by these exact divisions.

`canonicalize` keeps the first of the 24 role assignments, in enumeration
order, whose (c, a, b) is smallest, giving a deterministic canonical form
(White's normal form, after Morrison-Stevens); two tetrahedra are
unimodular-equivalent when their canonical forms coincide.  It scores the
assignments before any map is made, with one Bezout vector per tetrahedron
rather than one per assignment.  Take the first face, opposite l0, whose
normal is primitive, and a Bezout vector s of it; its class g, g_m =
dot(n_m, s) mod c with g_l0 = 1, generates the group.  For any face l,
dot(n_l, .) is onto Z/c exactly when g_l is a unit mod c, that is when
gcd(g_l, c) == 1, and then the class that takes the value -1 there is m g
mod c with m = -g_l^-1 mod c.  These are face l's weights W, with W_l = -1
mod c, and the assignment (o, x, y, l) reaches T(W_x, W_y, c).

The scoring walks the 24 assignments once, in `permutations` order,
skips each whose apex face is not an empty triangle, and keeps the first
with the smallest (W[e1], W[e2]): c is the same for all of them.  Only
the winner's map is built and checked, by one `normalize` call.  When no
face spans an empty triangle, NotNormalizableError is raised.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import permutations
from math import gcd

from .geometry import Tetrahedron
from .intlin import E1, E2, ZERO, AffineUnimodularMap, NotPrimitiveError, dot, extended_gcd3
from .white import CanonicalForm

RoleAssignment = tuple[int, int, int, int]

IDENTITY_ROLES: RoleAssignment = (0, 1, 2, 3)


class NotNormalizableError(ValueError):
    """No vertex-role assignment has a primitive face pair."""


class NormalizationResult(namedtuple("NormalizationResult", "map form")):
    """A witnessing unimodular map together with the form it produces."""

    __slots__ = ()


def normalize(t: Tetrahedron, roles: RoleAssignment = IDENTITY_ROLES) -> NormalizationResult:
    """Reduce t to standard form using the given vertex-role assignment.

    roles = (origin, e1 role, e2 role, apex) as indices into t.vertices().
    Raises NotPrimitiveError("face pair not primitive ...") when the two
    edge vectors with e1/e2 roles do not span an empty triangle.
    """
    if sorted(roles) != [0, 1, 2, 3]:
        raise ValueError(f"roles must be a permutation of 0..3, got {roles}")
    forms = t._faces
    n_l, k_l = forms[roles[3]]
    g, s0, s1, s2 = extended_gcd3(*n_l)
    if g != 1:
        raise NotPrimitiveError(f"face pair not primitive: roles {roles} of {t.vertices()}")
    (x0, x1, x2), k_x = forms[roles[1]]
    (y0, y1, y2), k_y = forms[roles[2]]
    z0, z1, z2 = n_l
    c = forms[0][1] + forms[1][1] + forms[2][1] + forms[3][1]
    a = -(x0 * s0 + x1 * s1 + x2 * s2) % c
    b = -(y0 * s0 + y1 * s1 + y2 * s2) % c
    # Exact divisions (module docstring): the rows of the barycentric map.
    lmap = AffineUnimodularMap(
        (
            ((x0 + a * z0) // c, (x1 + a * z1) // c, (x2 + a * z2) // c),
            ((y0 + b * z0) // c, (y1 + b * z1) // c, (y2 + b * z2) // c),
            n_l,
        ),
        ((k_x + a * k_l) // c, (k_y + b * k_l) // c, k_l),
    )
    image = set(map(lmap, t))
    if image != {ZERO, E1, E2, (a, b, c)}:
        raise AssertionError((t, roles, image))
    return NormalizationResult(lmap, CanonicalForm(a, b, c))


# The 24 vertex-role assignments (origin, e1, e2, apex) in enumeration order.
_ROLES = tuple(permutations(range(4)))


def _face_weights(t: Tetrahedron) -> list[list[int] | None]:
    """For each vertex l, None when the face opposite l is not an empty
    triangle, else its weights W: W[x] is the weight mod c of each face
    vertex x and W[l] = -1 mod c.  One Bezout vector s, of the first face
    l0 with a primitive normal, gives the generator g of the cyclic group;
    face l is empty exactly when gcd(g[l], c) == 1, and then W = m g mod c
    with m = -g[l]^-1 mod c (module docstring)."""
    forms = t._faces
    for l0, (n, _) in enumerate(forms):
        if gcd(*n) == 1:
            break
    else:
        return [None] * 4
    s = extended_gcd3(*n)[1:]
    c = forms[0][1] + forms[1][1] + forms[2][1] + forms[3][1]
    g = [dot(n_m, s) % c for n_m, _ in forms]
    faces: list[list[int] | None] = [None] * 4
    for l in range(l0, 4):
        if gcd(g[l], c) == 1:
            m = -pow(g[l], -1, c)
            faces[l] = [m * x % c for x in g]
    return faces


def canonicalize(t: Tetrahedron) -> NormalizationResult:
    """Deterministic normalization over all 24 vertex-role assignments.

    Keeps the first assignment, in enumeration order, whose (c, a, b) is
    smallest.  (origin, e1, e2, apex) reaches (c, W[e1], W[e2]), with W the
    weights of the face opposite the apex, and is skipped when that face
    is not an empty triangle; c is the same for every assignment (module
    docstring).  Only the winner's map is built, by one normalize call.
    """
    faces = _face_weights(t)
    best = best_key = None
    for roles in _ROLES:
        weights = faces[roles[3]]
        if weights is None:
            continue
        key = (weights[roles[1]], weights[roles[2]])
        if best is None or key < best_key:
            best, best_key = roles, key
    if best is None:
        raise NotNormalizableError(
            f"not normalizable (non-clean): no face of {t.vertices()} spans an empty triangle"
        )
    return normalize(t, best)


def canonical_form(t: Tetrahedron) -> CanonicalForm:
    """Canonical form of t; equal forms characterize unimodular equivalence."""
    return canonicalize(t).form
