"""Desk-scale verification suites: fast criteria vs brute-force oracles.

Each suite sweeps every case in a bounded range, tallies per-check
pass/fail counts and returns a VerificationReport whose counterexample
list must come back empty.  All suites are deterministic; the randomized
normalization suite is driven entirely by a seeded generator.
"""

import time
from bisect import bisect_right
from collections.abc import Callable
from itertools import accumulate

from .geometry import (
    bruteforce_verdicts,
    parallelepiped_interior_bruteforce,
    parallelepiped_interior_points,
    standard_tetrahedron,
    volume6,
)
from .intlin import E1, E2, IDENTITY, ZERO, AffineUnimodularMap
from .normalize import canonical_form, canonicalize
from .white import (
    CanonicalForm,
    _empty_form_at,
    _empty_form_count,
    _floor_steps,
    _support,
    _units,
    clean_forms,
    is_clean_form,
    white_empty,
)

_MAX_COUNTEREXAMPLES = 50

# Swaps the bytes 0 and 1 of a staircase row and keeps every other byte.
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


class Tally:
    def __init__(self) -> None:
        self.passed = 0
        self.failed = 0


class VerificationReport:
    """Outcome of one suite: parameters, per-check tallies, counterexamples.

    The counterexample list is empty exactly when every tally has zero
    failures; it is capped at 50 entries while the failure counts keep
    counting, so a broken criterion cannot flood the report.
    """

    def __init__(self, suite: str, params: dict) -> None:
        self.suite = suite
        self.params = params
        self.tallies: dict[str, Tally] = {}
        self.counterexamples: list[str] = []
        self.duration_seconds = 0.0
        self.started = time.perf_counter()

    def record(self, check: str, ok: bool, detail: Callable[[], str]) -> None:
        """Count one check; detail() makes its text only if it is kept."""
        if (tally := self.tallies.get(check)) is None:
            tally = self.tallies[check] = Tally()
        if ok:
            tally.passed += 1
        else:
            tally.failed += 1
            if len(self.counterexamples) < _MAX_COUNTEREXAMPLES:
                self.counterexamples.append(f"{check}: {detail()}")

    def finish(self) -> "VerificationReport":
        """Set duration_seconds to the time since the report was made."""
        self.duration_seconds = time.perf_counter() - self.started
        return self

    @property
    def ok(self) -> bool:
        return all(tally.failed == 0 for tally in self.tallies.values())

    @property
    def cases(self) -> int:
        return sum(t.passed + t.failed for t in self.tallies.values())

    def to_dict(self) -> dict:
        """Plain-data view; duration is left out so the output is byte-stable."""
        return {
            "suite": self.suite,
            "params": dict(self.params),
            "ok": self.ok,
            "cases": self.cases,
            "checks": {
                name: {"passed": t.passed, "failed": t.failed}
                for name, t in self.tallies.items()
            },
            "counterexamples": list(self.counterexamples),
        }


def _suites() -> dict:
    """Suite name -> (function, {argument: (smallest, largest), or None
    for no range}), in run order, each suite's arguments in the order its
    report's params list them.

    Each largest value is a budget.  Through `emptytet verify` on a 2-core
    VM with Python 3.11 (median of 5), the largest c_max took 0.6 s
    (white), 0.7 s (coplanar), 0.23 s (fn) and 0.35 s and 22 MB (normalize,
    1000 trials); 7000 trials took 1.0 s at the default c_max and 1.45 s
    and 24 MB at c_max 1000.  Built from the module globals on every call,
    so a function replaced there is the one that runs.
    """
    return {
        "white": (verify_white, {"c_max": (1, 35)}),
        "coplanar": (verify_coplanarity, {"c_max": (2, 48)}),
        "fn": (verify_floor_steps, {"c_max": (3, 200)}),
        "normalize": (verify_normalization, {"trials": (1, 7000), "seed": None, "c_max": (1, 1000)}),
    }


def _check(suite: str, **arguments) -> None:
    """Refuse an argument outside the suite's range for it; the CLI calls
    this for every selected suite before any of them runs."""
    ranges = _suites()[suite][1]
    for name, value in arguments.items():
        if ranges[name] is None:
            continue
        low, high = ranges[name]
        if value < low:
            raise ValueError(f"the {suite} suite needs {name} >= {low}, got {name} = {value}")
        if value > high:
            raise ValueError(f"the {suite} suite exceeds its budget of {name} <= {high}, got {name} = {value}")


def _start(suite: str, **arguments) -> VerificationReport:
    """The suite's empty report, once every argument is within its range."""
    _check(suite, **arguments)
    return VerificationReport(suite, arguments)


def verify_white(c_max: int = 25) -> VerificationReport:
    """Compare White's criterion and the gcd clean test against the oracle
    for every form with c <= c_max."""
    report = _start("white", c_max=c_max)
    for c in range(1, c_max + 1):
        for a in range(c):
            for b in range(c):
                form = CanonicalForm(a, b, c)
                empty, clean = white_empty(form), is_clean_form(form)
                empty_oracle, clean_oracle = bruteforce_verdicts(
                    standard_tetrahedron(a, b, c)
                )
                report.record(
                    "empty_criterion_vs_oracle",
                    empty == empty_oracle,
                    lambda: f"T({a},{b},{c}): criterion {empty}, oracle {empty_oracle}",
                )
                report.record(
                    "clean_criterion_vs_oracle",
                    clean == clean_oracle,
                    lambda: f"T({a},{b},{c}): criterion {clean}, oracle {clean_oracle}",
                )
    return report.finish()


def verify_coplanarity(c_max: int = 25) -> VerificationReport:
    """Interior points of the spanned parallelepiped for every clean form
    with c <= c_max, counted and tested on the scanning oracle: the scan
    must find exactly c - 1 points, the generator must list the same
    points, and for empty forms each unit-parameter clause pins the
    scanned points to its plane."""
    report = _start("coplanar", c_max=c_max)
    for c in range(1, c_max + 1):
        for form in clean_forms(c):
            a, b = form.a, form.b
            scan = parallelepiped_interior_bruteforce(a, b, c)
            report.record(
                "interior_count_is_c_minus_1",
                len(scan) == c - 1,
                lambda: f"P({a},{b},{c}): {len(scan)} points",
            )
            tag = lambda: f"P({a},{b},{c})"
            report.record(
                "generator_matches_scan",
                parallelepiped_interior_points(a, b, c) == scan,
                tag,
            )
            if not white_empty(form):
                continue
            if a == 1:
                report.record("plane_x", all(p[0] == 1 for p in scan), tag)
            if b == 1:
                report.record("plane_y", all(p[1] == 1 for p in scan), tag)
            if form.d == 1:
                report.record(
                    "plane_x_plus_y_minus_z",
                    all(p[0] + p[1] - p[2] == 1 for p in scan),
                    tag,
                )
    return report.finish()


def verify_floor_steps(c_max: int = 100) -> VerificationReport:
    """Staircase-increment properties for every coprime 0 < n < c <= c_max:
    slope 1/c has empty support, larger slopes have the closed-form support
    of size n - 1, and complementary slopes have complementary steps.

    Rows are bytearrays, compared whole: each against the closed-form row,
    the 0/1 row whose ones sit at {floor(kc/n) : k = 1..n-1}, and the row
    of c - n against the row of n with its 0 and 1 bytes swapped by one
    translate.  A translate keeps any other byte, so the complement check
    also demands that the row hold no byte but 0 and 1: it fails exactly
    where comparing with [1 - step for step in row] fails.  Supports are
    built only for a counterexample's text."""
    report = _start("fn", c_max=c_max)
    for c in range(2, c_max + 1):
        rows = {n: _floor_steps(n, c) for n in _units(c)}
        for n, row in rows.items():
            if n == 1:
                report.record("unit_slope_empty_support", not any(row), lambda: f"n=1, c={c}")
            else:
                closed_form = bytearray(c - 2)
                for k in range(1, n):
                    closed_form[k * c // n - 1] = 1
                report.record(
                    "support_closed_form",
                    row == closed_form,
                    lambda: f"n={n}, c={c}: {sorted(_support(row))} vs {sorted(_support(closed_form))}",
                )
                report.record(
                    "support_size",
                    len(row) - row.count(0) == n - 1,
                    lambda: f"n={n}, c={c}: |support| = {len(_support(row))}",
                )
            report.record(
                "complement_identity",
                rows[c - n] == row.translate(_FLIP) and not row.translate(None, b"\0\1"),
                lambda: f"n={n}, c={c}",
            )
    return report.finish()


def random_unimodular_map(
    rng: "random.Random",
    min_factors: int = 6,
    max_factors: int = 12,
    shear_bound: int = 3,
    translation_bound: int = 5,
) -> AffineUnimodularMap:
    """Random product of elementary shears, axis permutations and sign flips,
    plus a bounded translation; unimodular by construction.  Each factor
    acts on the left, as the row operation it is."""
    rows = list(IDENTITY)
    for _ in range(rng.randint(min_factors, max_factors)):
        kind = rng.randrange(3)
        if kind == 0:
            i, j = rng.sample(range(3), 2)
            q = rng.randint(-shear_bound, shear_bound)
            rows[i] = tuple(x + q * y for x, y in zip(rows[i], rows[j]))
        elif kind == 1:
            rows = [rows[s] for s in rng.sample(range(3), 3)]
        else:
            signs = [rng.choice((-1, 1)) for _ in range(3)]
            rows = [tuple(sign * x for x in row) for sign, row in zip(signs, rows)]
    translation = tuple(
        rng.randint(-translation_bound, translation_bound) for _ in range(3)
    )
    return AffineUnimodularMap(tuple(rows), translation)


def verify_normalization(
    trials: int = 1000, seed: int = 0, c_max: int = 10
) -> VerificationReport:
    """Round-trip: scramble a random empty form with a random unimodular map,
    re-normalize, and demand the canonical form survives along with volume,
    witness-map soundness and the clean gcd conclusion."""
    import random  # only this suite draws; the rest of the CLI never loads it

    report = _start("normalize", trials=trials, seed=seed, c_max=c_max)
    rng = random.Random(seed)
    # The empty forms with c <= c_max, listed by c and then as empty_forms
    # lists them, are drawn by index without being listed: units[c - 1] is
    # the units mod c, starts[c - 1] the index of the first form of height
    # c, and starts[c_max] the count.
    units = [_units(c) for c in range(1, c_max + 1)]
    starts = list(accumulate(map(_empty_form_count, units), initial=0))
    base_forms: dict[CanonicalForm, CanonicalForm] = {}
    for trial in range(trials):
        i = rng.randrange(starts[-1])
        c = bisect_right(starts, i)
        form = _empty_form_at(c, units[c - 1], i - starts[c - 1])
        scramble = random_unimodular_map(rng)
        t = standard_tetrahedron(form.a, form.b, form.c)
        if form not in base_forms:
            base_forms[form] = canonical_form(t)
        image = t.transformed(scramble)
        result = canonicalize(image)
        tag = f"trial {trial}: T({form.a},{form.b},{form.c})"
        report.record(
            "volume_preserved",
            volume6(image) == form.c and result.form.c == form.c,
            lambda: f"{tag}: volume6 {volume6(image)}, got c {result.form.c}",
        )
        report.record(
            "canonical_form_round_trip",
            result.form == base_forms[form],
            lambda: f"{tag}: {result.form} vs {base_forms[form]}",
        )
        witness_image = {result.map(p) for p in image.vertices()}
        expected = {ZERO, E1, E2, (result.form.a, result.form.b, result.form.c)}
        report.record(
            "witness_map_sound", witness_image == expected, lambda: f"{tag}: {witness_image}"
        )
        report.record(
            "result_form_clean",
            is_clean_form(result.form),
            lambda: f"{tag}: {result.form}",
        )
    return report.finish()
