import math
import random
from itertools import permutations, product

import pytest

from emptytet.geometry import (
    DegenerateTetrahedronError,
    PointLocation,
    Tetrahedron,
    _face_forms,
    is_empty_bruteforce,
    lattice_points_in,
    standard_tetrahedron,
    volume6,
)
import emptytet.normalize
from emptytet.intlin import (
    IDENTITY,
    ZERO,
    AffineUnimodularMap,
    NotPrimitiveError,
    adjugate,
    cross,
    dot,
    extend_to_basis,
    extended_gcd3,
    transpose,
)
from emptytet.normalize import (
    IDENTITY_ROLES,
    NotNormalizableError,
    _face_weights,
    canonical_form,
    canonicalize,
    normalize,
)
from emptytet.verify import random_unimodular_map
from emptytet.white import CanonicalForm, clean_forms, empty_forms, is_clean_form

DOUBLED_UNIT = Tetrahedron((0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2))


def test_identity_roles_on_standard_forms():
    ident = AffineUnimodularMap(IDENTITY)
    for c in range(1, 7):
        for a in range(c):
            for b in range(c):
                res = normalize(standard_tetrahedron(a, b, c))
                assert res.form == CanonicalForm(a, b, c)
                assert res.map == ident


def test_frozen_pipeline_shear_case():
    t = Tetrahedron((0, 0, 0), (1, 0, 0), (0, 1, 0), (5, 3, 2))
    res = normalize(t)
    assert res.form == CanonicalForm(1, 1, 2)
    # face normals n1 = (2, 0, -5), n2 = (0, 2, -3), n3 = (0, 0, 1) and
    # a = b = 1: the rows (n1 + n3) / 2, (n2 + n3) / 2 and n3
    assert res.map.matrix == ((1, 0, -2), (0, 1, -1), (0, 0, 1))
    assert res.map.translation == (0, 0, 0)


def test_frozen_pipeline_flip_case():
    t = Tetrahedron((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, -2))
    res = normalize(t)
    assert res.form == CanonicalForm(1, 1, 2)
    # negative orientation: the normals flip to n1 = (2, 0, 1), n2 =
    # (0, 2, 1), n3 = (0, 0, -1), and with a = b = 1 the first two rows
    # (n1 + n3) / 2 and (n2 + n3) / 2 are e1 and e2
    assert res.map.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, -1))
    assert res.map.translation == (0, 0, 0)


def test_frozen_pipeline_flip_shear_translation_case():
    t = Tetrahedron((3, -4, 9), (4, -4, 9), (3, -3, 9), (8, -1, 7))
    res = normalize(t)
    assert res.form == CanonicalForm(1, 1, 2)
    # apex edge (5, 3, -2) below the face: n1 = (2, 0, 5), n2 = (0, 2, 3),
    # n3 = (0, 0, -1) and a = b = 1 give the rows (n1 + n3) / 2 and
    # (n2 + n3) / 2; the form constants divide likewise into the translation
    assert res.map.matrix == ((1, 0, 2), (0, 1, 1), (0, 0, -1))
    assert res.map.translation == (-21, -5, 9)


def test_translation_is_removed():
    t = standard_tetrahedron(1, 2, 5)
    shift = AffineUnimodularMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (3, -4, 9))
    res = normalize(t.transformed(shift))
    assert res.form == CanonicalForm(1, 2, 5)


def test_roles_validation():
    t = standard_tetrahedron(1, 1, 2)
    with pytest.raises(ValueError):
        normalize(t, (0, 1, 2, 2))
    with pytest.raises(ValueError):
        normalize(t, (0, 1, 2, 4))


def test_face_pair_not_primitive_error():
    t = standard_tetrahedron(0, 0, 2)
    # u = e1 and v = (0, 0, 2) span a face with a midpoint lattice point
    with pytest.raises(NotPrimitiveError, match="face pair not primitive"):
        normalize(t, (0, 1, 3, 2))


def reference_map(t, roles):
    """normalize's witness map built the long way: complete the edge vectors
    u, v from the origin-role vertex to the e1/e2-role ones to a basis
    (u, v, w) of determinant +1, invert it, flip the z axis when the apex
    lands below the face, and shear the apex into 0 <= a, b < c.  Raises
    NotPrimitiveError when u, v do not extend to a basis."""
    verts = t.vertices()
    origin = verts[roles[0]]
    u, v = (tuple(p - q for p, q in zip(verts[r], origin)) for r in roles[1:3])
    w = extend_to_basis(u, v)
    shift = AffineUnimodularMap(IDENTITY, tuple(-x for x in origin))
    lmap = AffineUnimodularMap(adjugate(transpose((u, v, w)))).compose(shift)
    if lmap(verts[roles[3]])[2] < 0:
        lmap = AffineUnimodularMap(((1, 0, 0), (0, 1, 0), (0, 0, -1))).compose(lmap)
    x, y, c = lmap(verts[roles[3]])
    return AffineUnimodularMap(((1, 0, -(x // c)), (0, 1, -(y // c)), (0, 0, 1))).compose(lmap)


def assert_maps_match_reference(t):
    for roles in permutations(range(4)):
        try:
            want = reference_map(t, roles)
        except NotPrimitiveError:
            with pytest.raises(NotPrimitiveError, match="face pair not primitive"):
                normalize(t, roles)
            continue
        assert normalize(t, roles).map == want, (t, roles)


def reference_canonicalize(t):
    """(roles, result) of the first smallest (c, a, b) over all 24 normalize
    calls in enumeration order, or None."""
    best = best_key = None
    for roles in permutations(range(4)):
        try:
            result = normalize(t, roles)
        except NotPrimitiveError:
            continue
        key = (result.form.c, result.form.a, result.form.b)
        if best is None or key < best_key:
            best, best_key = (roles, result), key
    return best


def assert_matches_reference(t):
    best = reference_canonicalize(t)
    if best is None:
        with pytest.raises(NotNormalizableError) as exc:
            canonicalize(t)
        assert str(exc.value) == (
            f"not normalizable (non-clean): no face of {t.vertices()} spans an empty triangle"
        )
        return False
    want = best[1]
    got = canonicalize(t)
    assert (got.form, got.map.matrix, got.map.translation) == (
        want.form,
        want.map.matrix,
        want.map.translation,
    ), t
    return True


def scrambled_forms(rng):
    """Every T(a, b, c) with c <= 12, clean or not, under a random
    unimodular map; images of standard forms give many roles with equal
    keys, so the tie-breaking order is exercised."""
    for c in range(1, 13):
        for a in range(c):
            for b in range(c):
                yield standard_tetrahedron(a, b, c).transformed(random_unimodular_map(rng))


def test_normalize_maps_match_the_basis_reference_on_scrambled_forms():
    for t in scrambled_forms(random.Random(38)):
        assert_maps_match_reference(t)


def test_canonicalize_matches_reference_on_scrambled_forms():
    for t in scrambled_forms(random.Random(31)):
        assert_matches_reference(t)


def test_canonicalize_normalizes_once_with_the_first_smallest_roles(monkeypatch):
    # The winner's map comes from exactly one normalize call (the call
    # bench/run.py counts as normalize.roles.attempted), and its roles are
    # the first of the 24 in enumeration order whose (c, a, b) is smallest.
    calls = []

    def recording(t, roles=IDENTITY_ROLES):
        calls.append(roles)
        return normalize(t, roles)

    monkeypatch.setattr(emptytet.normalize, "normalize", recording)
    for t in [*scrambled_forms(random.Random(31)), DOUBLED_UNIT]:
        best = reference_canonicalize(t)
        calls.clear()
        if best is None:
            with pytest.raises(NotNormalizableError):
                canonicalize(t)
            assert calls == [], t
        else:
            canonicalize(t)
            assert calls == [best[0]], t


def random_tetrahedra(rng, count, bound=6):
    """count non-degenerate tetrahedra with vertices in [-bound, bound]^3."""
    while count:
        vertices = [tuple(rng.randint(-bound, bound) for _ in range(3)) for _ in range(4)]
        try:
            t = Tetrahedron(*vertices)
        except DegenerateTetrahedronError:
            continue
        yield t
        count -= 1


def test_canonicalize_matches_reference_on_random_tetrahedra():
    normalizable = sum(assert_matches_reference(t) for t in random_tetrahedra(random.Random(32), 2500))
    # both outcomes occur in the sample
    assert 0 < normalizable < 2500


def assert_face_weights_match_every_role(t):
    """Each of the 24 roles is skipped exactly when normalize rejects it,
    and otherwise its key (c, W[e1], W[e2]) is normalize's (c, a, b)."""
    faces = _face_weights(t)
    for roles in permutations(range(4)):
        face = faces[roles[3]]
        try:
            form = normalize(t, roles).form
        except NotPrimitiveError:
            assert face is None, (t, roles)
            continue
        assert face is not None, (t, roles)
        c, weights = face
        assert (c, weights[roles[1]], weights[roles[2]]) == (form.c, form.a, form.b), (t, roles)


def test_face_weights_match_every_role_on_scrambled_forms():
    for t in scrambled_forms(random.Random(33)):
        assert_face_weights_match_every_role(t)


def test_face_weights_match_every_role_on_random_tetrahedra():
    for t in random_tetrahedra(random.Random(34), 1000):
        assert_face_weights_match_every_role(t)


def test_normalize_maps_match_the_basis_reference_on_random_tetrahedra():
    rng = random.Random(39)
    for t in [*random_tetrahedra(rng, 1000), *random_tetrahedra(rng, 300, bound=1000)]:
        assert_maps_match_reference(t)


def test_face_weights_match_every_role_at_large_sizes():
    # the generator path far past the samples above: scrambled T(a, b, c)
    # for large c, with units and non-units as a and b, each under the four
    # rotations of its vertex order, and random tetrahedra in [-1000, 1000]^3
    rng = random.Random(37)
    sample = []
    for c in (1009, 2310, 65536):
        for a, b in ((1, 1), (1, c - 1), (0, 0), (2, 3), (6, 35), (c // 2, 5), (c - 2, 7)):
            vertices = standard_tetrahedron(a, b, c).transformed(random_unimodular_map(rng)).vertices()
            sample += (Tetrahedron(*vertices[r:], *vertices[:r]) for r in range(4))
    sample += random_tetrahedra(rng, 300, bound=1000)
    first_empty, gcd_rejects = set(), 0
    for t in sample:
        assert_face_weights_match_every_role(t)
        empty = [face is not None for face in _face_weights(t)]
        if any(empty):
            l0 = empty.index(True)
            first_empty.add(l0)
            gcd_rejects += not all(empty[l0:])
    # the generator comes from every face, and the gcd rule rejects faces
    assert first_empty == {0, 1, 2, 3}
    assert gcd_rejects > 0


def test_face_primitivity_matches_the_tetrahedron_scan():
    # The fact normalize rests on: a face is an empty triangle exactly when
    # its edge vectors form a primitive pair.  The scan finds the faces
    # holding a lattice point besides their vertices; _face_weights must
    # reject exactly those, and canonicalize must refuse exactly the inputs
    # where all four are rejected.
    vecs = list(product(range(-2, 3), repeat=3))
    sweep = [Tetrahedron(ZERO, u, v, cross(u, v)) for u in vecs for v in vecs if cross(u, v) != ZERO]
    outcomes = set()
    for t in sweep + list(random_tetrahedra(random.Random(36), 1000, bound=3)):
        forms = _face_forms(t)
        full = [False] * 4
        for p, loc in lattice_points_in(t):
            if loc is not PointLocation.VERTEX:
                for l, (n, k) in enumerate(forms):
                    full[l] |= dot(n, p) + k == 0
        assert [face is None for face in _face_weights(t)] == full, t
        try:
            canonicalize(t)
            refused = False
        except NotNormalizableError:
            refused = True
        assert refused == all(full), t
        outcomes.add(refused)
    assert outcomes == {False, True}  # both occur


def count_extended_gcd3_calls(monkeypatch, t):
    """(extended_gcd3 calls made by canonicalize(t), whether t normalizes)."""
    calls = []

    def counting(*n):
        calls.append(n)
        return extended_gcd3(*n)

    monkeypatch.setattr(emptytet.normalize, "extended_gcd3", counting)
    try:
        canonicalize(t)
    except NotNormalizableError:
        return len(calls), False
    return len(calls), True


def test_canonicalize_extends_one_basis_per_tetrahedron(monkeypatch):
    # one Bezout vector for all four faces' weights plus one for the
    # winner's map, however many of the 24 roles are valid; none when no
    # face is empty
    rng = random.Random(35)
    sample = [
        standard_tetrahedron(form.a, form.b, form.c).transformed(random_unimodular_map(rng))
        for c in range(1, 9)
        for form in empty_forms(c)
    ]
    sample += random_tetrahedra(rng, 200)
    # every face of a doubled tetrahedron is non-primitive
    sample.append(DOUBLED_UNIT)
    outcomes = set()
    for t in sample:
        calls, normalizable = count_extended_gcd3_calls(monkeypatch, t)
        assert calls == (2 if normalizable else 0), t
        outcomes.add(normalizable)
    assert outcomes == {False, True}  # both occur


def unit_orbit_count(c):
    """Orbits of the units mod c under q -> -q and q -> q^-1."""
    if c <= 2:
        return 1
    orbits = {
        frozenset({q, c - q, pow(q, -1, c), c - pow(q, -1, c)})
        for q in range(1, c)
        if math.gcd(q, c) == 1
    }
    return len(orbits)


def test_canonical_classes_match_unit_orbits():
    # the T(p, q) classification (Sebo, IPCO 1999): empty tetrahedra of
    # volume c are equivalent iff their units lie in one orbit, so
    # canonical_form neither merges nor splits classes when the counts agree
    for c in range(1, 61):
        classes = {canonical_form(standard_tetrahedron(f.a, f.b, f.c)) for f in empty_forms(c)}
        assert len(classes) == unit_orbit_count(c), c


def test_canonical_form_unit_tetrahedron():
    cf = canonical_form(Tetrahedron((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert (cf.c, cf.a, cf.b) == (1, 0, 0)


def test_canonical_form_vertex_order_invariant():
    base = standard_tetrahedron(1, 2, 5)
    want = canonical_form(base)
    for perm in permutations(base.vertices()):
        assert canonical_form(Tetrahedron(*perm)) == want


def test_equivalences():
    assert canonical_form(standard_tetrahedron(1, 2, 5)) == canonical_form(standard_tetrahedron(2, 1, 5))
    assert canonical_form(standard_tetrahedron(1, 3, 7)) == canonical_form(standard_tetrahedron(3, 1, 7))
    assert canonical_form(standard_tetrahedron(1, 1, 2)) != canonical_form(standard_tetrahedron(1, 1, 3))


def test_not_normalizable():
    with pytest.raises(NotNormalizableError, match="not normalizable"):
        canonicalize(DOUBLED_UNIT)
    with pytest.raises(NotNormalizableError):
        canonical_form(DOUBLED_UNIT)


def test_non_clean_but_normalizable():
    # one face is still an empty triangle, so a form exists; it is not clean
    cf = canonical_form(standard_tetrahedron(0, 0, 2))
    assert not is_clean_form(cf)
    assert cf.c == 2


def test_canonicalize_is_idempotent():
    rng = random.Random(77)
    for c in range(1, 9):
        for form in empty_forms(c):
            t = standard_tetrahedron(form.a, form.b, form.c)
            cf = canonical_form(t.transformed(random_unimodular_map(rng)))
            assert canonical_form(standard_tetrahedron(cf.a, cf.b, cf.c)) == cf


def test_random_round_trips():
    rng = random.Random(101)
    for c in range(1, 9):
        for form in empty_forms(c):
            t = standard_tetrahedron(form.a, form.b, form.c)
            base = canonical_form(t)
            for _ in range(3):
                m = random_unimodular_map(rng)
                image = t.transformed(m)
                res = canonicalize(image)
                assert res.form == base, (form, m)
                assert volume6(image) == res.form.c == form.c
                got = {res.map(p) for p in image.vertices()}
                want = {
                    (0, 0, 0),
                    (1, 0, 0),
                    (0, 1, 0),
                    (res.form.a, res.form.b, res.form.c),
                }
                assert got == want, (form, m)
                # Theorem-level conclusion: empty inputs land on clean forms
                assert is_clean_form(res.form), (form, m)


def test_emptiness_preserved_by_normalization():
    # oracle verdict on the scrambled image equals the verdict on the
    # standard form; small maps keep the scanned boxes tractable
    rng = random.Random(55)
    for c in range(2, 9):
        for form in clean_forms(c):
            t = standard_tetrahedron(form.a, form.b, form.c)
            m = random_unimodular_map(
                rng, min_factors=2, max_factors=4, shear_bound=2, translation_bound=3
            )
            image = t.transformed(m)
            assert is_empty_bruteforce(image) == is_empty_bruteforce(t), (form, m)
            assert canonical_form(image) == canonical_form(t), (form, m)
