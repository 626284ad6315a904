"""Reduction of lattice tetrahedra to the standard form T(a, b, c).

Any tetrahedron one of whose faces spans an empty triangle can be carried
onto a standard form by an affine unimodular map, constructed in four
steps for a chosen assignment of vertex roles (origin, e1, e2, apex):

1. translate the origin-role vertex to 0;
2. the edge vectors u, v toward the e1/e2-role vertices form a primitive
   pair exactly when that face is an empty triangle; complete them to a
   lattice basis (u, v, w) of determinant +1 and apply its inverse, which
   sends u, v to e1, e2 and the apex to some (A, B, c');
3. if c' < 0, flip the z axis;
4. shear whole multiples of the apex height out of A and B:
   A = q1*c + a, B = q2*c + b with 0 <= a, b < c, via
   (x, y, z) -> (x - q1*z, y - q2*z, z).

`canonicalize` runs this over all 24 role assignments and keeps the
lexicographically smallest (c, a, b), giving a deterministic canonical
form; two tetrahedra are unimodular-equivalent when their canonical
forms coincide.  For clean tetrahedra every assignment succeeds; when no
face spans an empty triangle nothing can be normalized and
NotNormalizableError is raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .geometry import Tetrahedron
from .intlin import (
    E1,
    E2,
    ZERO,
    AffineUnimodularMap,
    NotPrimitiveError,
    adjugate,
    columns_matrix,
    cross,
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


@dataclass(frozen=True)
class NormalizationResult:
    """A witnessing unimodular map together with the form it produces."""

    map: AffineUnimodularMap
    form: CanonicalForm


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
    if gcd_vec(cross(u, v)) != 1:
        raise NotPrimitiveError(f"face pair not primitive: roles {roles} of {verts}")
    w = extend_to_basis(u, v)
    # The columns matrix (u | v | w) has determinant +1, so its adjugate is
    # its exact inverse and sends u, v, w to e1, e2, e3.
    to_std = adjugate(columns_matrix(u, v, w))
    lmap = AffineUnimodularMap(to_std, neg(mat_vec(to_std, origin)))
    ax, ay, az = lmap(verts[roles[3]])
    if az < 0:
        flip = AffineUnimodularMap(((1, 0, 0), (0, 1, 0), (0, 0, -1)))
        lmap = flip.compose(lmap)
        az = -az
    q1, a = divmod(ax, az)
    q2, b = divmod(ay, az)
    if q1 or q2:
        shear = AffineUnimodularMap(((1, 0, -q1), (0, 1, -q2), (0, 0, 1)))
        lmap = shear.compose(lmap)
    form = CanonicalForm(a, b, az)
    image = {lmap(p) for p in verts}
    assert image == {ZERO, E1, E2, (a, b, az)}, (t, roles, image)
    return NormalizationResult(lmap, form)


def canonicalize(t: Tetrahedron) -> NormalizationResult:
    """Deterministic normalization over all 24 vertex-role assignments.

    Assignments whose face pair is not primitive are skipped; among the
    rest the lexicographically smallest (c, a, b) wins, ties broken by
    assignment enumeration order.
    """
    best: NormalizationResult | None = None
    for roles in permutations(range(4)):
        try:
            result = normalize(t, roles)
        except NotPrimitiveError:
            continue
        if best is None or result.form.sort_key() < best.form.sort_key():
            best = result
    if best is None:
        raise NotNormalizableError(
            f"not normalizable (non-clean): no face of {t.vertices()} spans an empty triangle"
        )
    return best


def canonical_form(t: Tetrahedron) -> CanonicalForm:
    """Canonical form of t; equal forms characterize unimodular equivalence."""
    return canonicalize(t).form
