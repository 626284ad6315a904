import math
import random

import pytest

from emptytet import verify, white
from emptytet.geometry import parallelepiped_interior_bruteforce, standard_tetrahedron
from emptytet.intlin import det3
from emptytet.verify import (
    _MAX_TRIALS,
    VerificationReport,
    _suites,
    random_unimodular_map,
    verify_coplanarity,
    verify_floor_steps,
    verify_normalization,
    verify_white,
)
from emptytet.white import empty_forms


def test_report_record_and_ok():
    report = VerificationReport("demo", {"n": 1})
    report.record("alpha", True, lambda: "fine")
    report.record("alpha", True, lambda: "fine")
    report.record("beta", True, lambda: "fine")
    assert report.ok
    assert report.cases == 3
    assert report.counterexamples == []
    report.record("beta", False, lambda: "broke at 7")
    assert not report.ok
    assert report.counterexamples == ["beta: broke at 7"]
    assert report.tallies["beta"].failed == 1


def test_report_counterexample_cap():
    report = VerificationReport("demo", {})
    made = []
    for i in range(200):
        report.record("check", False, lambda: made.append(i) or f"case {i}")
    assert report.tallies["check"].failed == 200
    assert report.counterexamples == [f"check: case {i}" for i in range(50)]
    assert made == list(range(50))
    assert not report.ok


# Each suite with one criterion planted wrong at one known case: the
# counterexample text is pinned byte for byte.
def test_white_planted_counterexample(monkeypatch):
    wrong = verify.white_empty
    monkeypatch.setattr(verify, "white_empty", lambda form: wrong(form) != (form == (1, 1, 2)))
    report = verify_white(3)
    assert report.tallies["empty_criterion_vs_oracle"].failed == 1
    assert report.counterexamples == [
        "empty_criterion_vs_oracle: T(1,1,2): criterion False, oracle True"
    ]


def test_coplanar_planted_counterexample(monkeypatch):
    def scan(a, b, c):
        got = parallelepiped_interior_bruteforce(a, b, c)
        # At P(1,2,5) drop the last point and move the first off the plane x = 1.
        return [(2, *got[0][1:])] + got[1:-1] if (a, b, c) == (1, 2, 5) else got

    monkeypatch.setattr(verify, "parallelepiped_interior_bruteforce", scan)
    report = verify_coplanarity(6)
    assert report.counterexamples == [
        "interior_count_is_c_minus_1: P(1,2,5): 3 points",
        "generator_matches_scan: P(1,2,5)",
        "plane_x: P(1,2,5)",
    ]


# The count and the planes are tested on the scan, not on the generator,
# whose construction guarantees them: a scan that loses its last point,
# or moves every point of an a = 1 form off x = 1, must fail them.
@pytest.mark.parametrize(
    "check,planted,tally",
    [
        ("interior_count_is_c_minus_1", lambda a, got: got[:-1], (1, 24)),
        ("plane_x", lambda a, got: [(x + 1, y, z) for x, y, z in got] if a == 1 else got, (0, 11)),
    ],
    ids=["dropped-point", "off-plane-x"],
)
def test_coplanar_checks_run_on_the_scan(monkeypatch, check, planted, tally):
    scan = parallelepiped_interior_bruteforce
    monkeypatch.setattr(verify, "parallelepiped_interior_bruteforce", lambda a, b, c: planted(a, scan(a, b, c)))
    got = verify_coplanarity(6).tallies[check]
    assert (got.passed, got.failed) == tally


def test_fn_planted_counterexample(monkeypatch):
    steps = verify._floor_steps
    planted = {
        # flipped: its support and both complement checks at c = 5 break
        (2, 5): [1, 0, 1],
        # the step at k = 1 moved from n = 4 to n = 3: the complement
        # identity still holds, the closed form and the size do not
        (3, 7): [1, 1, 0, 1, 0],
        (4, 7): [0, 0, 1, 0, 1],
    }
    assert [steps(2, 5), steps(3, 7), steps(4, 7)] == [[0, 1, 0], [0, 1, 0, 1, 0], [1, 0, 1, 0, 1]]
    monkeypatch.setattr(verify, "_floor_steps", lambda n, c: planted.get((n, c)) or steps(n, c))
    report = verify_floor_steps(7)
    assert report.counterexamples == [
        "support_closed_form: n=2, c=5: [1, 3] vs [2]",
        "support_size: n=2, c=5: |support| = 2",
        "complement_identity: n=2, c=5",
        "complement_identity: n=3, c=5",
        "support_closed_form: n=3, c=7: [1, 2, 4] vs [2, 4]",
        "support_size: n=3, c=7: |support| = 3",
        "support_closed_form: n=4, c=7: [3, 5] vs [1, 3, 5]",
        "support_size: n=4, c=7: |support| = 2",
    ]


def test_fn_builds_each_row_once(monkeypatch):
    # one staircase row per coprime 0 < n < c <= c_max, sum of phi(c) rows,
    # counted under both names a row can be built through
    steps = white._floor_steps
    for c_max in (3, 7, 40):
        calls = []

        def counting(n, c):
            calls.append((n, c))
            return steps(n, c)

        monkeypatch.setattr(white, "_floor_steps", counting)
        monkeypatch.setattr(verify, "_floor_steps", counting)
        assert verify_floor_steps(c_max).ok
        pairs = [(n, c) for c in range(2, c_max + 1) for n in range(1, c) if math.gcd(n, c) == 1]
        assert calls == pairs


def test_report_to_dict_shape():
    report = verify_white(2)
    payload = report.to_dict()
    assert payload["suite"] == "white"
    assert payload["params"] == {"c_max": 2}
    assert payload["ok"] is True
    assert "duration_seconds" not in payload
    assert set(payload["checks"]) == {
        "empty_criterion_vs_oracle",
        "clean_criterion_vs_oracle",
    }


def test_verify_coplanarity_small():
    report = verify_coplanarity(8)
    assert report.ok
    assert report.tallies["interior_count_is_c_minus_1"].failed == 0
    assert report.tallies["generator_matches_scan"].passed > 0
    assert report.tallies["plane_x"].passed > 0


def test_verify_floor_steps_small():
    report = verify_floor_steps(20)
    assert report.ok
    assert report.tallies["unit_slope_empty_support"].passed == 19
    assert report.tallies["support_size"].failed == 0


def test_verify_normalization_small_and_seeded():
    report = verify_normalization(trials=40, seed=11, c_max=6)
    assert report.ok
    assert report.params == {"trials": 40, "seed": 11, "c_max": 6}
    assert report.cases == 160
    again = verify_normalization(trials=40, seed=11, c_max=6)
    assert report.to_dict() == again.to_dict()


def test_verify_normalization_draws_as_full_list(monkeypatch):
    # Drawing an index into the empty forms with randrange takes the same
    # random stream as rng.choice over their full list, so every seed
    # scrambles the same forms with the same maps.
    def reference(trials, seed, c_max):
        rng = random.Random(seed)
        forms = [form for c in range(1, c_max + 1) for form in empty_forms(c)]
        draws = []
        for _ in range(trials):
            form = rng.choice(forms)
            draws.append(((form.a, form.b, form.c), random_unimodular_map(rng)))
        return draws

    for seed in (0, 1, 2):
        for trials, c_max in ((200, 10), (100, 300)):
            forms, maps = [], []

            def draw_form(a, b, c):
                forms.append((a, b, c))
                return standard_tetrahedron(a, b, c)

            def draw_map(rng):
                maps.append(scramble := random_unimodular_map(rng))
                return scramble

            with monkeypatch.context() as patch:
                patch.setattr(verify, "standard_tetrahedron", draw_form)
                patch.setattr(verify, "random_unimodular_map", draw_map)
                report = verify_normalization(trials, seed, c_max)
            assert list(zip(forms, maps)) == reference(trials, seed, c_max), (seed, c_max)
            assert report.ok and report.cases == 4 * trials


def test_parameter_validation():
    with pytest.raises(ValueError):
        verify_white(0)
    with pytest.raises(ValueError):
        verify_coplanarity(1)
    with pytest.raises(ValueError):
        verify_floor_steps(2)
    with pytest.raises(ValueError):
        verify_normalization(trials=0)
    with pytest.raises(ValueError):
        verify_normalization(trials=5, c_max=0)
    with pytest.raises(ValueError, match="budget of trials <= 7000"):
        verify_normalization(trials=_MAX_TRIALS + 1)


def test_c_max_budgets():
    # Every budget covers the ranges the tests, README and benchmark sweep,
    # and the budgets grow in the CLI's run order.
    budgets = [high for _, _, high in _suites().values()]
    assert budgets == sorted(budgets)
    for suite, used in {"white": 25, "coplanar": 25, "fn": 100, "normalize": 10}.items():
        assert _suites()[suite][2] >= used


def test_normalization_lists_each_c_units_once(monkeypatch):
    calls = []

    def counted(c):
        calls.append(c)
        return white._units(c)

    monkeypatch.setattr(verify, "_units", counted)
    assert verify_normalization(trials=500, c_max=50).ok
    assert calls == list(range(1, 51))


def test_random_unimodular_map_properties():
    rng = random.Random(9)
    for _ in range(300):
        m = random_unimodular_map(rng)
        assert det3(m.matrix) in (1, -1)
        assert all(-5 <= v <= 5 for v in m.translation)


def test_random_unimodular_map_frozen():
    # The scrambles every seeded suite and test draws; pinned so a rewrite
    # of the factor arithmetic keeps each map and the order of the draws.
    def drawn(rng, *args, **knobs):
        m = random_unimodular_map(rng, *args, **knobs)
        return m.matrix, m.translation

    rng = random.Random(0)
    assert [drawn(rng) for _ in range(3)] == [
        (((0, 0, 1), (1, 0, 0), (2, -1, 0)), (-4, -2, 4)),
        (((-1, 3, -1), (0, -1, 3), (-1, 3, 0)), (5, -1, 2)),
        (((1, 3, 0), (2, 0, -1), (0, -1, 0)), (4, 5, 0)),
    ]
    assert drawn(random.Random(0), 2, 4, shear_bound=2) == (
        ((0, -1, 0), (0, 0, -1), (1, 0, 0)),
        (-3, -4, 4),
    )
    assert drawn(random.Random(0), 3, 6, shear_bound=2, translation_bound=3) == (
        ((0, -1, -2), (0, 0, -1), (-1, 0, 0)),
        (1, -3, -1),
    )
