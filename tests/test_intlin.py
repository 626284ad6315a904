import itertools
import math
import random

import pytest

from emptytet.intlin import (
    E1,
    E2,
    E3,
    IDENTITY,
    ZERO,
    AffineUnimodularMap,
    NotPrimitiveError,
    adjugate,
    det3,
    dot,
    extend_to_basis,
    extended_gcd3,
    xgcd,
)

from reference import cross


def test_det3_basic():
    assert det3(IDENTITY) == 1
    assert det3((E1, E1, E2)) == 0
    for a, b, c in [(0, 0, 1), (1, 1, 5), (5, 3, 2), (-2, 7, -3)]:
        assert det3((E1, E2, (a, b, c))) == c


def test_cross_basic():
    assert cross(E1, E2) == E3
    assert cross((3, -1, 4), (3, -1, 4)) == ZERO
    assert cross(E1, (4, 2, 5)) == (0, -5, 2)


def test_cross_matches_det_exhaustive():
    rng = range(-1, 2)
    vecs = list(itertools.product(rng, rng, rng))
    for u in vecs:
        for v in vecs:
            for w in vecs:
                assert dot(cross(u, v), w) == det3((u, v, w)), (u, v, w)


def test_cross_matches_det_random():
    rng = random.Random(7)
    for _ in range(500):
        u, v, w = (
            tuple(rng.randint(-50, 50) for _ in range(3)) for _ in range(3)
        )
        assert dot(cross(u, v), w) == det3((u, v, w))
        assert cross(u, v) == tuple(-x for x in cross(v, u))


def test_xgcd_exhaustive():
    for a in range(-30, 31):
        for b in range(-30, 31):
            g, x, y = xgcd(a, b)
            assert g == math.gcd(a, b), (a, b)
            assert a * x + b * y == g, (a, b, x, y)


def test_extended_gcd3_exhaustive():
    for a in range(-8, 9):
        for b in range(-8, 9):
            for c in range(-8, 9):
                g, x, y, z = extended_gcd3(a, b, c)
                assert g == math.gcd(a, b, c), (a, b, c)
                assert a * x + b * y + c * z == g, (a, b, c, x, y, z)


def test_extended_gcd3_special_cases():
    assert extended_gcd3(0, 0, 0) == (0, 0, 0, 0)
    assert extended_gcd3(1, 0, 0) == (1, 1, 0, 0)
    g, x, y, z = extended_gcd3(0, -5, 2)
    assert g == 1 and -5 * y + 2 * z == 1


def test_extended_gcd3_deterministic():
    assert extended_gcd3(12, 18, 27) == extended_gcd3(12, 18, 27)


def test_extend_to_basis_frozen_cases():
    assert det3((E1, E2, extend_to_basis(E1, E2))) == 1
    for a in range(-3, 4):
        w = extend_to_basis((1, 0, 0), (a, 2, 5))
        assert det3(((1, 0, 0), (a, 2, 5), w)) == 1


def test_extend_to_basis_exhaustive_small():
    rng = range(-2, 3)
    vecs = list(itertools.product(rng, rng, rng))
    checked = 0
    for u in vecs:
        for v in vecs:
            n = cross(u, v)
            if math.gcd(*n) != 1:
                continue
            w = extend_to_basis(u, v)
            assert det3((u, v, w)) == 1, (u, v, w)
            # the inverse of the columns matrix (u | v | w), which the reference
            # map of tests/test_normalize.py starts from
            assert adjugate(tuple(zip(u, v, w))) == (cross(v, w), cross(w, u), n)
            checked += 1
    assert checked > 1000


def test_extend_to_basis_errors():
    with pytest.raises(NotPrimitiveError):
        extend_to_basis((2, 4, 6), (1, 2, 3))  # collinear
    with pytest.raises(NotPrimitiveError):
        extend_to_basis((2, 0, 0), (0, 1, 0))  # cross gcd 2


def test_adjugate_identity_exhaustive():
    rng = random.Random(11)
    for _ in range(300):
        m = tuple(tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(3))
        d = det3(m)
        prod = tuple(tuple(dot(row, col) for col in zip(*adjugate(m))) for row in m)
        assert prod == ((d, 0, 0), (0, d, 0), (0, 0, d)), m


def test_unimodular_map_rejects_bad_det():
    with pytest.raises(ValueError):
        AffineUnimodularMap(((2, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError):
        AffineUnimodularMap(((1, 0, 0), (1, 0, 0), (0, 0, 1)))


def test_map_apply_frozen_cases():
    flip = AffineUnimodularMap(((1, 0, 0), (0, 1, 0), (0, 0, -1)))
    assert flip((1, 1, 2)) == (1, 1, -2)
    shear = AffineUnimodularMap(((1, 0, -2), (0, 1, -1), (0, 0, 1)))
    assert shear((5, 3, 2)) == (1, 1, 2)
    ident = AffineUnimodularMap(IDENTITY)
    assert ident((9, -4, 7)) == (9, -4, 7)


def test_map_apply_matches_its_definition():
    # apply computes matrix @ p + translation in one expression; check it
    # against the definition written row by row
    from emptytet.verify import random_unimodular_map

    rng = random.Random(13)
    maps = [random_unimodular_map(rng) for _ in range(300)]
    maps.append(AffineUnimodularMap(IDENTITY, (7, -3, 11)))
    for m in maps:
        p = tuple(rng.randint(-50, 50) for _ in range(3))
        definition = tuple(dot(row, p) + t for row, t in zip(m.matrix, m.translation))
        assert m(p) == m.apply(p) == definition, (m, p)
    assert maps[-1]((1, 2, 3)) == (8, -1, 14)


def test_map_compose_order():
    shift = AffineUnimodularMap(IDENTITY, (1, 0, 0))
    flip = AffineUnimodularMap(((-1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert flip.compose(shift)((0, 0, 0)) == (-1, 0, 0)
    assert shift.compose(flip)((0, 0, 0)) == (1, 0, 0)


def test_map_compose_matches_application():
    rng = random.Random(5)
    from emptytet.verify import random_unimodular_map

    for _ in range(100):
        m1 = random_unimodular_map(rng)
        m2 = random_unimodular_map(rng)
        combo = m1.compose(m2)
        p = tuple(rng.randint(-9, 9) for _ in range(3))
        assert combo(p) == m1(m2(p))
