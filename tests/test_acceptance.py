"""Acceptance checks, one verdict line per release criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line for
each criterion.  Ranges, trial counts and time budgets are pinned on
purpose: criterion 1 sweeps every form with c <= 25 against the
brute-force oracle under 60 s, criterion 6 sweeps all coprime staircase
pairs with c <= 100 under 5 s, and all comparisons are exact (zero
mismatches allowed).  Criteria 1, 2, 4, 5, 6 and 7 read the reports of
the `emptytet.verify` suites, so each check is written once, there;
criteria 3 and 8 have no suite and keep their own loops.

These are the one exhaustive sweep of each claim, and tier-1 keeps no
smaller copy of them.  Criteria 1 and 3 replace test_white's
`test_step_system_matches_fraction_system` (c <= 18) and
`test_systems_match_oracle_and_criterion` (c <= 12); criteria 1 and 2
replace test_geometry's `test_empty_implies_clean` (c <= 8); criterion 1
replaces test_verify's `test_verify_white_small` and
`test_verify_white_deterministic`; criterion 6, on the rows that
test_white's `test_floor_steps_row_matches_floor_step` checks against
`floor_step`, replaces `test_support_size_by_telescoping`,
`test_complement_identity`, `test_support_closed_form_and_size` (c <= 60)
and `test_floor_step_unit_slope_is_zero`; criterion 7 replaces
test_normalize's `test_random_round_trips` (c <= 8).  Wider tier-1 tests
replace test_white's `test_floor_step_zero_or_one`
(`test_floor_steps_row_matches_floor_step`) and `test_units_match_gcd`
(`test_clean_forms_match_the_gcd_filter`, `test_empty_form_at_matches_listing`).
"""

import math

import pytest

from emptytet import (
    CanonicalForm,
    standard_tetrahedron,
    verify_coplanarity,
    verify_floor_steps,
    verify_normalization,
    verify_white,
    white_empty,
)
from emptytet.geometry import is_empty_bruteforce
from emptytet.white import clean_forms, satisfies_fraction_system, satisfies_step_system

C_MAX = 25
FORM_COUNT = sum(c * c for c in range(1, C_MAX + 1))  # 5525


def _verdict(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


@pytest.fixture(scope="module")
def white_report():
    return verify_white(C_MAX)


def test_criterion_1_emptiness_matches_oracle(white_report):
    tally = white_report.tallies["empty_criterion_vs_oracle"]
    ok = (
        tally.failed == 0
        and tally.passed == FORM_COUNT
        and white_report.duration_seconds < 60.0
    )
    _verdict(
        1,
        "white_empty vs oracle, c <= 25",
        ok,
        f"{tally.passed}/{FORM_COUNT} forms, {tally.failed} mismatches, "
        f"{white_report.duration_seconds:.2f}s (budget 60s)",
    )


def test_criterion_2_cleanliness_matches_oracle(white_report):
    tally = white_report.tallies["clean_criterion_vs_oracle"]
    ok = tally.failed == 0 and tally.passed == FORM_COUNT
    _verdict(
        2,
        "gcd clean test vs boundary scan, c <= 25",
        ok,
        f"{tally.passed}/{FORM_COUNT} forms, {tally.failed} mismatches",
    )


def test_criterion_3_equation_systems_agree():
    checked = mismatches = 0
    for c in range(2, C_MAX + 1):
        for form in clean_forms(c):
            fractions = satisfies_fraction_system(form)
            steps = satisfies_step_system(form)
            oracle = is_empty_bruteforce(standard_tetrahedron(form.a, form.b, c))
            checked += 1
            if not (fractions == steps == oracle):
                mismatches += 1
    _verdict(
        3,
        "fraction system == step system == oracle",
        mismatches == 0,
        f"{checked} clean forms with 2 <= c <= {C_MAX}, {mismatches} mismatches",
    )


@pytest.fixture(scope="module")
def coplanar_report():
    return verify_coplanarity(C_MAX)


def test_criterion_4_interior_point_generator(coplanar_report):
    count = coplanar_report.tallies["interior_count_is_c_minus_1"]
    matches = coplanar_report.tallies["generator_matches_scan"]
    checked = count.passed + count.failed
    failures = count.failed + matches.failed
    _verdict(
        4,
        "parallelepiped has c-1 interior points, generator == scan",
        failures == 0,
        f"{checked} clean forms with c <= {C_MAX}, {failures} failures",
    )


def test_criterion_5_interior_points_coplanar(coplanar_report):
    planes = [coplanar_report.tallies[name] for name in ("plane_x", "plane_y", "plane_x_plus_y_minus_z")]
    clause_checks = sum(t.passed + t.failed for t in planes)
    violations = sum(t.failed for t in planes)
    _verdict(
        5,
        "each unit-parameter plane holds all interior points",
        violations == 0,
        f"{clause_checks} (form, clause) pairs with c <= {C_MAX}, {violations} violations",
    )


def test_criterion_6_staircase_properties():
    report = verify_floor_steps(100)
    ok = report.ok and report.duration_seconds < 5.0
    _verdict(
        6,
        "staircase unit slope, support set and complement, c <= 100",
        ok,
        f"{report.cases} checks, {len(report.counterexamples)} counterexamples, "
        f"{report.duration_seconds:.2f}s (budget 5s)",
    )


def test_criterion_7_normalization_round_trip():
    report = verify_normalization(trials=1000, seed=0, c_max=10)
    _verdict(
        7,
        "1000 random unimodular images renormalize with sound maps",
        report.ok,
        f"{report.cases} checks over {report.params['trials']} trials "
        f"(seed {report.params['seed']}), {len(report.counterexamples)} failures",
    )


def test_criterion_8_witness_families():
    checked = failures = 0
    for c in range(2, 51):
        for a in range(1, c):
            if math.gcd(a, c) != 1:
                continue
            for form in (CanonicalForm(1, a, c), CanonicalForm(a, c - a, c)):
                checked += 1
                ok = white_empty(form)
                if ok and c <= C_MAX:
                    ok = is_empty_bruteforce(standard_tetrahedron(form.a, form.b, c))
                if not ok:
                    failures += 1
    _verdict(
        8,
        "families T(1,a,c) and T(a,c-a,c) are empty for gcd(a,c)=1",
        failures == 0,
        f"{checked} family members with c <= 50, {failures} failures",
    )
