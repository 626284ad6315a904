import random

import pytest

from emptytet import verify
from emptytet.cli import _suites
from emptytet.geometry import standard_tetrahedron
from emptytet.intlin import det3
from emptytet.verify import (
    _C_MAX_RANGE,
    _MAX_TRIALS,
    VerificationReport,
    random_unimodular_map,
    verify_coplanarity,
    verify_floor_steps,
    verify_normalization,
    verify_white,
)
from emptytet.white import empty_forms


def test_report_record_and_ok():
    report = VerificationReport("demo", {"n": 1})
    report.record("alpha", True, "fine")
    report.record("alpha", True, "fine")
    report.record("beta", True, "fine")
    assert report.ok
    assert report.cases == 3
    assert report.counterexamples == []
    report.record("beta", False, "broke at 7")
    assert not report.ok
    assert report.counterexamples == ["beta: broke at 7"]
    assert report.tallies["beta"].failed == 1


def test_report_counterexample_cap():
    report = VerificationReport("demo", {})
    for i in range(200):
        report.record("check", False, f"case {i}")
    assert report.tallies["check"].failed == 200
    assert len(report.counterexamples) == 50
    assert not report.ok


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


def test_verify_white_small():
    report = verify_white(3)
    assert report.ok
    # forms: 1 + 4 + 9, two checks each
    assert report.cases == 28
    assert report.tallies["empty_criterion_vs_oracle"].passed == 14


def test_verify_white_deterministic():
    assert verify_white(4).to_dict() == verify_white(4).to_dict()


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
    # and the budgets grow in the CLI's run order, so the first suite run
    # is the one that refuses a c_max past any selected suite's budget.
    assert list(_C_MAX_RANGE) == list(_suites())
    budgets = [high for _, high in _C_MAX_RANGE.values()]
    assert budgets == sorted(budgets)
    for suite, used in {"white": 25, "coplanar": 25, "fn": 100, "normalize": 10}.items():
        assert _C_MAX_RANGE[suite][1] >= used


def test_random_unimodular_map_properties():
    rng = random.Random(9)
    for _ in range(300):
        m = random_unimodular_map(rng)
        assert det3(m.matrix) in (1, -1)
        assert all(-5 <= v <= 5 for v in m.translation)
