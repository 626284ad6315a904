import math

import pytest

from emptytet.white import (
    _MAX_ENUMERATE_C,
    CanonicalForm,
    _empty_form_at,
    _empty_form_count,
    _floor_steps,
    _units,
    clean_forms,
    empty_forms,
    floor_step,
    floor_step_support,
    is_clean_form,
    satisfied_clause,
    satisfies_fraction_system,
    satisfies_step_system,
    white_empty,
)


def coprime_range(c):
    return [n for n in range(1, c) if math.gcd(n, c) == 1]


def test_d_of_frozen():
    assert CanonicalForm(1, 1, 7).d == 6
    assert CanonicalForm(3, 4, 7).d == 1
    assert CanonicalForm(0, 0, 1).d == 0
    assert CanonicalForm(1, 1, 2).d == 1
    assert CanonicalForm(2, 3, 7).d == 3


def test_form_validation():
    with pytest.raises(ValueError):
        CanonicalForm(0, 0, 0)
    with pytest.raises(ValueError):
        CanonicalForm(2, 0, 2)
    with pytest.raises(ValueError):
        CanonicalForm(-1, 0, 3)
    with pytest.raises(ValueError):
        CanonicalForm(5, 0, 5)


def test_form_rejects_non_int_parameters():
    for bad in [(1.0, 1, 5), (1, True, 5), (1, 1, 5.0), (1, 1, "5"), (1.0, True, 5)]:
        with pytest.raises(TypeError):
            CanonicalForm(*bad)


def test_d_in_range_and_involution():
    for c in range(1, 30):
        for a in range(c):
            for b in range(c):
                d = CanonicalForm(a, b, c).d
                assert 0 <= d < c
                assert (a + b + d) % c == 1 % c


def test_is_clean_frozen():
    assert is_clean_form(CanonicalForm(1, 1, 2))
    assert is_clean_form(CanonicalForm(0, 0, 1))
    assert is_clean_form(CanonicalForm(2, 3, 7))
    assert not is_clean_form(CanonicalForm(2, 2, 3))  # d = 0
    assert not is_clean_form(CanonicalForm(0, 0, 2))
    assert not is_clean_form(CanonicalForm(2, 1, 4))


def test_white_empty_frozen():
    assert white_empty(CanonicalForm(1, 1, 5))
    assert white_empty(CanonicalForm(0, 0, 1))
    assert white_empty(CanonicalForm(3, 4, 7))  # d = 1
    assert not white_empty(CanonicalForm(2, 3, 7))
    assert not white_empty(CanonicalForm(2, 2, 3))


def test_white_empty_swap_symmetry():
    for c in range(1, 21):
        for a in range(c):
            for b in range(c):
                assert white_empty(CanonicalForm(a, b, c)) == white_empty(
                    CanonicalForm(b, a, c)
                )


def test_white_empty_matches_the_pair_split_criterion():
    # Morrison and Stevens: a clean T(a, b, c) is empty exactly when its
    # group generator g = (a + b - 1, -a, -b, 1) mod c, one entry per vertex,
    # splits into two pairs that each sum to 0 mod c.  It does not read
    # White's "one of a, b, c, d is 1", so it checks white_empty independently.
    checked = 0
    for c in range(2, 61):
        for form in clean_forms(c):
            g = (form.a + form.b - 1, -form.a, -form.b, 1)
            split = any(
                (g[0] + g[i]) % c == 0 and (g[j] + g[k]) % c == 0 for i, j, k in ((1, 2, 3), (2, 1, 3), (3, 1, 2))
            )
            assert split == white_empty(form), form
            checked += 1
    assert checked == 27384


def test_fraction_system_frozen():
    assert satisfies_fraction_system(CanonicalForm(1, 2, 5))
    assert satisfies_fraction_system(CanonicalForm(1, 1, 2))
    assert not satisfies_fraction_system(CanonicalForm(2, 3, 7))
    assert not satisfies_fraction_system(CanonicalForm(4, 4, 5))  # a+b+d = 2c+1


def test_systems_require_clean_and_height():
    with pytest.raises(ValueError):
        satisfies_fraction_system(CanonicalForm(0, 0, 1))
    with pytest.raises(ValueError):
        satisfies_fraction_system(CanonicalForm(2, 2, 3))
    with pytest.raises(ValueError):
        satisfies_step_system(CanonicalForm(0, 0, 1))
    with pytest.raises(ValueError):
        satisfies_step_system(CanonicalForm(2, 4, 6))


def test_step_system_c2_rests_on_sum():
    # at c = 2 the k-range 1..c-2 is vacuous; the verdict is the sum check
    assert satisfies_step_system(CanonicalForm(1, 1, 2))


def test_floor_step_frozen():
    assert floor_step(2, 5, 2) == 1
    assert floor_step(3, 5, 1) == 1
    assert floor_step(3, 5, 1) == 1 - floor_step(2, 5, 1)
    assert [floor_step(2, 5, k) for k in (1, 2, 3)] == [0, 1, 0]


def test_floor_step_preconditions():
    with pytest.raises(ValueError):
        floor_step(0, 5, 1)
    with pytest.raises(ValueError):
        floor_step(5, 5, 1)
    with pytest.raises(ValueError):
        floor_step(2, 4, 1)  # gcd(2, 4) = 2
    with pytest.raises(ValueError):
        floor_step(1, 2, 1)  # k-range empty at c = 2
    with pytest.raises(ValueError):
        floor_step(2, 5, 0)
    with pytest.raises(ValueError):
        floor_step(2, 5, 4)


def test_floor_step_support_preconditions():
    # the (n, c) checks of floor_step, with the same messages
    for n, c, message in (
        (0, 5, "need 0 < n < c, got n=0, c=5"),
        (5, 5, "need 0 < n < c, got n=5, c=5"),
        (2, 4, "need gcd(n, c) = 1, got n=2, c=4"),
    ):
        for call in (
            lambda: floor_step_support(n, c),
            lambda: _floor_steps(n, c),
            lambda: floor_step(n, c, 1),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message


def test_floor_steps_row_matches_floor_step():
    # the remainder walk against the per-k definition
    for c in range(2, 121):
        for n in coprime_range(c):
            assert _floor_steps(n, c) == bytes(floor_step(n, c, k) for k in range(1, c - 1)), (n, c)


def test_floor_steps_edge_rows():
    assert _floor_steps(1, 2) == b""  # c = 2: the k-range 1..c-2 is empty
    for c in (3, 4, 7, 120):
        assert _floor_steps(1, c) == b"\0" * (c - 2)  # n = 1: every step is 0
        assert _floor_steps(c - 1, c) == b"\1" * (c - 2)  # n = c - 1: every step is 1


def test_floor_step_support_frozen():
    assert floor_step_support(2, 5) == {2}
    assert floor_step_support(3, 7) == {2, 4}
    assert floor_step_support(1, 9) == set()


def test_satisfied_clause():
    assert satisfied_clause(CanonicalForm(0, 0, 1)) == "c=1"
    assert satisfied_clause(CanonicalForm(1, 1, 5)) == "a=1"
    assert satisfied_clause(CanonicalForm(4, 1, 5)) == "b=1"
    assert satisfied_clause(CanonicalForm(3, 4, 7)) == "d=1"
    with pytest.raises(ValueError):
        satisfied_clause(CanonicalForm(2, 3, 7))


def test_enumerators_frozen():
    assert [(f.a, f.b) for f in empty_forms(1)] == [(0, 0)]
    assert [(f.a, f.b) for f in empty_forms(2)] == [(1, 1)]
    assert [(f.a, f.b) for f in empty_forms(3)] == [(1, 1), (1, 2), (2, 1)]
    assert CanonicalForm(2, 2, 3) not in clean_forms(3)


def test_empty_forms_budget():
    assert len(empty_forms(_MAX_ENUMERATE_C)) == 119997  # 100000 = 2^5 * 5^5: 3 * phi(c) - 3
    with pytest.raises(ValueError, match="budget of c <= 100000"):
        empty_forms(_MAX_ENUMERATE_C + 1)


def test_clean_forms_match_the_gcd_filter():
    # the unit-table listing against the three-gcd test over every form, order included
    for c in range(1, 121):
        every = [CanonicalForm(a, b, c) for a in range(c) for b in range(c)]
        assert clean_forms(c) == [f for f in every if is_clean_form(f)], c
    with pytest.raises(ValueError, match="c must be >= 1"):
        clean_forms(0)


def test_empty_form_at_matches_listing():
    # the one layout, every offset, its count and the O(c) listing against
    # the O(c^2) filter over the clean forms, order included
    for c in range(1, 201):
        units = _units(c)
        empties = [f for f in clean_forms(c) if white_empty(f)]
        assert _empty_form_count(units) == len(empties), c
        assert [_empty_form_at(c, units, i) for i in range(len(empties))] == empties, c
        assert empty_forms(c) == empties, c
