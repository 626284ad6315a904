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
scores the assignments before any map is made, with one basis per face
rather than one per assignment.  For the face opposite vertex l, with
vertices i, j, k, take u = p_j - p_i, v = p_k - p_i, their completion w
and p_l - p_i = alpha u + beta v + gamma w.  Then

    gamma w = p_l - W_i p_i - W_j p_j - W_k p_k,
    (W_i, W_j, W_k) = (1 - alpha - beta, alpha, beta).

Any other order of i, j, k gives another completion w' = +-w + (a
combination of u and v) and gamma' = +-gamma, so its weights, which also
sum to 1, differ from these by multiples of c = |gamma| only: the face
weights mod c are the same for all six orders of the face.  Steps 1-3
carry the assignment with apex l and e1, e2 roles on vertices x, y to
T(W_x mod c, W_y mod c, c), and c = |det(u, v, p_l - p_i)| is six times
the volume, the same for every assignment.  Only the winner's map is
built and checked.  For clean tetrahedra every assignment succeeds; when
no face spans an empty triangle nothing can be normalized and
NotNormalizableError is raised.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import permutations

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
    mat_vec,
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
    rows = (
        tuple(x - q1 * z for x, z in zip(x_row, z_row)),
        tuple(y - q2 * z for y, z in zip(y_row, z_row)),
        z_row,
    )
    lmap = AffineUnimodularMap(rows, neg(mat_vec(rows, origin)))
    image = {lmap(p) for p in verts}
    assert image == {ZERO, E1, E2, (a, b, c)}, (t, roles, image)
    return NormalizationResult(lmap, CanonicalForm(a, b, c))


def _face_weights(verts: tuple[Vec3, Vec3, Vec3, Vec3]) -> list[tuple[int, dict[int, int]] | None]:
    """For each vertex l, None when the face opposite l is not an empty
    triangle, else (c, W) with W mapping each face vertex to its weight
    mod c (module docstring)."""
    faces: list[tuple[int, dict[int, int]] | None] = []
    for l in range(4):
        i, j, k = (x for x in range(4) if x != l)
        origin = verts[i]
        u = sub(verts[j], origin)
        v = sub(verts[k], origin)
        n = cross(u, v)
        if gcd_vec(n) != 1:
            faces.append(None)
            continue
        w = extend_to_basis(u, v)
        p = sub(verts[l], origin)
        c = abs(dot(n, p))
        alpha, beta = dot(cross(v, w), p), dot(cross(w, u), p)
        faces.append((c, {i: (1 - alpha - beta) % c, j: alpha % c, k: beta % c}))
    return faces


def canonicalize(t: Tetrahedron) -> NormalizationResult:
    """Deterministic normalization over all 24 vertex-role assignments.

    Assignments whose face pair is not primitive are skipped.  The rest
    are scored by the (c, a, b) that normalize would reach, read off the
    face weights of their apex's opposite face: the assignment
    (origin, e1, e2, apex) scores (c, W[e1], W[e2]), so one basis per
    face serves its six orders (module docstring).  The first smallest key
    in enumeration order wins, and only its witness map is built and
    checked.
    """
    faces = _face_weights(t.vertices())
    best_key: tuple[int, int, int] | None = None
    best_roles: RoleAssignment | None = None
    for roles in permutations(range(4)):
        face = faces[roles[3]]
        if face is None:
            continue
        c, weights = face
        key = (c, weights[roles[1]], weights[roles[2]])
        if best_key is None or key < best_key:
            best_key, best_roles = key, roles
    if best_roles is None:
        raise NotNormalizableError(
            f"not normalizable (non-clean): no face of {t.vertices()} spans an empty triangle"
        )
    return normalize(t, best_roles)


def canonical_form(t: Tetrahedron) -> CanonicalForm:
    """Canonical form of t; equal forms characterize unimodular equivalence."""
    return canonicalize(t).form
