"""Reduction of lattice tetrahedra to the standard form T(a, b, c).

Any tetrahedron one of whose faces spans an empty triangle can be carried
onto a standard form by an affine unimodular map p -> M (p - origin),
whose rows are written once for a chosen assignment of vertex roles
(origin, e1, e2, apex):

1. the edge vectors u, v from the origin-role vertex toward the e1/e2-role
   vertices form a primitive pair exactly when that face is an empty
   triangle (tests/test_normalize.py checks this decision against the
   tetrahedron scan of `geometry`); complete them to a lattice basis
   (u, v, w) of determinant +1.
   M starts as the inverse of (u | v | w), whose rows are cross(v, w),
   cross(w, u), cross(u, v); it sends u, v to e1, e2 and the apex edge
   to some (A, B, c');
2. if c' < 0, negate the third row (a flip of the z axis);
3. subtract q1 and q2 times the third row from the first two (a shear),
   where A = q1*c + a, B = q2*c + b with 0 <= a, b < c.

`canonicalize` keeps the lexicographically smallest (c, a, b) over all 24
role assignments, giving a deterministic canonical form; two tetrahedra
are unimodular-equivalent when their canonical forms coincide.  It
scores the assignments before any map is made, with one basis per
tetrahedron rather than one per assignment.  For the face opposite vertex
l, with vertices i, j, k, take u = p_j - p_i, v = p_k - p_i, their
completion w and p_l - p_i = alpha u + beta v + gamma w.  Then

    gamma w = p_l - W_i p_i - W_j p_j - W_k p_k,
    (W_i, W_j, W_k) = (1 - alpha - beta, alpha, beta).

Any other order of i, j, k gives another completion w' = +-w + (a
combination of u and v) and gamma' = +-gamma, so its weights, which also
sum to 1, differ from these by multiples of c = |gamma| only: the face
weights mod c are the same for all six orders of the face.  Steps 1-3
carry the assignment with apex l and e1, e2 roles on vertices x, y to
T(W_x mod c, W_y mod c, c), and c = |det(u, v, p_l - p_i)| is six times
the volume, the same for every assignment.

One face's weights give all four faces' (White's normal form, after
Morrison-Stevens).  Each x in Z^3 is sum lambda_m p_m with sum lambda_m = 0
and c lambda integral; x lies in the edge lattice exactly when lambda is
integral, so the class of x modulo that lattice is c lambda mod c.  Take
the first empty face, opposite l0, with its u, v, w and weights W.  The
group Z^3 / (edge lattice) has order c and, as u and v are edges, is
generated by the class of w, which is +-g, where g_m = W_m mod c on the
face and g_l0 = -1 mod c.  For any face l with normal n, c lambda_l =
+-dot(n, x) takes every value mod c exactly when n is primitive, that is
when face l is an empty triangle; as g generates, that holds exactly when
gcd(g_l, c) == 1.  Then x -> c lambda_l mod c is a bijection from the
group onto Z/c, and face l's own weights with -1 in slot l form the one
class with -1 there: m g mod c with m = -g_l^-1 mod c.  So one basis per
tetrahedron scores every assignment.

The scoring runs face by face.  A table lists the 24 assignments in
`permutations` order, grouped by apex; each empty face l scores its six,
(origin, e1, e2, l), by the key (W[e1], W[e2], roles).  c is the same for
every assignment, so it is left out of the key, and the roles in it send
ties to the first assignment in enumeration order.  Only the winner's map
is built and checked, by one `normalize` call.  For clean tetrahedra every
assignment succeeds; when no face spans an empty triangle nothing can be
normalized and NotNormalizableError is raised.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import permutations
from math import gcd

from .geometry import Tetrahedron
from .intlin import (
    E1,
    E2,
    ZERO,
    AffineUnimodularMap,
    NotPrimitiveError,
    Vec3,
    cross,
    dot,
    extend_to_basis,
    gcd_vec,
    neg,
    sub,
)
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
    verts = t.vertices()
    origin = verts[roles[0]]
    u = sub(verts[roles[1]], origin)
    v = sub(verts[roles[2]], origin)
    n = cross(u, v)
    if gcd_vec(n) != 1:
        raise NotPrimitiveError(f"face pair not primitive: roles {roles} of {verts}")
    w = extend_to_basis(u, v)
    # Rows of (u | v | w)^-1, then the z flip and the shear (module docstring).
    apex = sub(verts[roles[3]], origin)
    x_row, y_row = cross(v, w), cross(w, u)
    z_row = n if dot(n, apex) > 0 else neg(n)
    c = dot(z_row, apex)
    q1, a = divmod(dot(x_row, apex), c)
    q2, b = divmod(dot(y_row, apex), c)
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = x_row, y_row, z_row
    x0, x1, x2 = x0 - q1 * z0, x1 - q1 * z1, x2 - q1 * z2
    y0, y1, y2 = y0 - q2 * z0, y1 - q2 * z1, y2 - q2 * z2
    ox, oy, oz = origin
    lmap = AffineUnimodularMap(
        ((x0, x1, x2), (y0, y1, y2), z_row),
        (-x0 * ox - x1 * oy - x2 * oz, -y0 * ox - y1 * oy - y2 * oz, -z0 * ox - z1 * oy - z2 * oz),
    )
    image = set(map(lmap, verts))
    assert image == {ZERO, E1, E2, (a, b, c)}, (t, roles, image)
    return NormalizationResult(lmap, CanonicalForm(a, b, c))


# The vertices of the face opposite each vertex l, in increasing order.
_FACES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))

# For each apex l, its six assignments (origin, e1, e2, l) in permutations
# order, each as (e1, e2, roles).
_ORDERS_BY_APEX = tuple(
    tuple((roles[1], roles[2], roles) for roles in permutations(range(4)) if roles[3] == l)
    for l in range(4)
)


def _face_weights(verts: tuple[Vec3, Vec3, Vec3, Vec3]) -> list[tuple[int, list[int]] | None]:
    """For each vertex l, None when the face opposite l is not an empty
    triangle, else (c, W) with W[x] the weight mod c of each face vertex x
    and W[l] = -1 mod c.  One basis, of the first empty face l0, gives the
    generator g of the cyclic group; face l is empty exactly when
    gcd(g[l], c) == 1, and then W = m g mod c with m = -g[l]^-1 mod c
    (module docstring)."""
    for l0, (i, j, k) in enumerate(_FACES):
        origin = verts[i]
        u = sub(verts[j], origin)
        v = sub(verts[k], origin)
        n = cross(u, v)
        if gcd_vec(n) == 1:
            break
    else:
        return [None] * 4
    w = extend_to_basis(u, v)
    p = sub(verts[l0], origin)
    c = abs(dot(n, p))
    alpha, beta = dot(cross(v, w), p), dot(cross(w, u), p)
    g = [0] * 4
    g[i], g[j], g[k], g[l0] = (1 - alpha - beta) % c, alpha % c, beta % c, -1 % c
    faces: list[tuple[int, list[int]] | None] = [None] * 4
    for l in range(l0, 4):
        if gcd(g[l], c) == 1:
            m = -pow(g[l], -1, c)
            faces[l] = (c, [m * x % c for x in g])
    return faces


def canonicalize(t: Tetrahedron) -> NormalizationResult:
    """Deterministic normalization over all 24 vertex-role assignments.

    Assignments whose face pair is not primitive are skipped six at a
    time: a face that is not an empty triangle drops every assignment with
    its opposite vertex as apex.  The rest are scored by the (c, a, b) that
    normalize would reach, read off the weights W of the apex's opposite
    face: (origin, e1, e2, apex) reaches (c, W[e1], W[e2]).  c is the same
    for every assignment, so each face's six assignments, read from a table
    grouped by apex, are compared by (W[e1], W[e2], roles), and ties go to
    the first assignment in enumeration order.  All four faces' weights
    come from one basis per tetrahedron (module docstring); only the
    winner's witness map is built and checked.
    """
    faces = _face_weights(t.vertices())
    best: tuple[int, int, RoleAssignment] | None = None
    for face, orders in zip(faces, _ORDERS_BY_APEX):
        if face is None:
            continue
        weights = face[1]
        for e1, e2, roles in orders:
            key = (weights[e1], weights[e2], roles)
            if best is None or key < best:
                best = key
    if best is None:
        raise NotNormalizableError(
            f"not normalizable (non-clean): no face of {t.vertices()} spans an empty triangle"
        )
    return normalize(t, best[2])


def canonical_form(t: Tetrahedron) -> CanonicalForm:
    """Canonical form of t; equal forms characterize unimodular equivalence."""
    return canonicalize(t).form
