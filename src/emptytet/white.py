"""White's characterization of empty and clean lattice tetrahedra.

The standard form T(a, b, c) has vertices 0, e1, e2 and (a, b, c) with
c >= 1 and 0 <= a, b < c, plus a derived fourth parameter
d = (1 - a - b) mod c.  Writing <x> for the fractional part of x:

* T(a, b, c) is clean iff gcd(a, c) = gcd(b, c) = gcd(d, c) = 1; the three
  gcds are exactly the primitivity defects of the three non-coordinate
  faces.
* A clean T(a, b, c) with c > 1 is empty iff
  <k*a/c> + <k*b/c> + <k*d/c> - k/c == 1 for every k = 1..c-1.
* White's criterion: T(a, b, c) is empty iff it is clean and one of
  a, b, c, d equals 1.

satisfies_fraction_system checks the equation system as c times itself,
in integers.  It can also be rewritten with the 0/1 staircase increments
floor_step below.  _floor_steps builds a whole row of them without a
division, from the remainder identity (k+1)*n = c*floor(k*n/c) + k*n % c + n,
as a bytearray of 0 and 1 bytes, so that whole rows compare, count and
complement in C.  floor_step_support reads its set off that row; the
closed form {floor(k*c/n) : k = 1..n-1} of the support stays the
independent check of the fn verify suite.  tests/test_white.py and
acceptance criterion 3 (tests/test_acceptance.py) check the staircase
form against both the fraction form and the brute-force oracle; no
verify suite calls either system.  The x and y of the interior points
that geometry lists are partial sums from 1 of the staircase rows of a
and b, so the step system is their coordinate increments.
"""

import math
from collections import namedtuple
from itertools import compress, count


class CanonicalForm(namedtuple("CanonicalForm", "a b c")):
    """Parameters (a, b, c) of the standard tetrahedron T(a, b, c); `_replace` re-checks them."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __init__(self, a: int, b: int, c: int) -> None:
        if not (type(a) is int and type(b) is int and type(c) is int):
            raise TypeError(f"a, b, c must be ints, got {a!r}, {b!r}, {c!r}")
        if c < 1:
            raise ValueError(f"c must be >= 1, got {c}")
        if not (0 <= a < c and 0 <= b < c):
            raise ValueError(f"need 0 <= a, b < c, got a={a}, b={b}, c={c}")

    @property
    def d(self) -> int:
        """Fourth parameter (1 - a - b) mod c, reduced to 0 <= d < c."""
        return (1 - self.a - self.b) % self.c


def is_clean_form(form: CanonicalForm) -> bool:
    """gcd test for cleanliness: gcd(a, c) = gcd(b, c) = gcd(d, c) = 1."""
    c = form.c
    return (
        math.gcd(form.a, c) == 1
        and math.gcd(form.b, c) == 1
        and math.gcd(form.d, c) == 1
    )


def white_empty(form: CanonicalForm) -> bool:
    """White's criterion: clean and at least one of a, b, c, d equals 1."""
    return is_clean_form(form) and (
        form.a == 1 or form.b == 1 or form.c == 1 or form.d == 1
    )


def _require_clean_with_height(form: CanonicalForm) -> None:
    if form.c <= 1:
        raise ValueError(f"system is only defined for c > 1, got c = {form.c}")
    if not is_clean_form(form):
        raise ValueError(f"system is only defined for clean forms, got {form}")


def satisfies_fraction_system(form: CanonicalForm) -> bool:
    """Exact emptiness system for a clean form with c > 1.

    Checks <k*a/c> + <k*b/c> + <k*d/c> - k/c == 1 for every k = 1..c-1
    as c times itself: the numerator of <k*n/c> is k*n % c.  The per-k
    modulo is kept on purpose: as an independent reference it shares no
    remainder walk with satisfies_step_system and no floor quotient with
    the interior points' closed form.
    """
    _require_clean_with_height(form)
    a, b, c, d = form.a, form.b, form.c, form.d
    return all(k * a % c + k * b % c + k * d % c - k == c for k in range(1, c))


def _require_coprime_slope(n: int, c: int) -> None:
    if not 0 < n < c:
        raise ValueError(f"need 0 < n < c, got n={n}, c={c}")
    if math.gcd(n, c) != 1:
        raise ValueError(f"need gcd(n, c) = 1, got n={n}, c={c}")


def floor_step(n: int, c: int, k: int) -> int:
    """Increment floor((k+1)*n/c) - floor(k*n/c) of the staircase; always 0 or 1.

    Defined for 0 < n < c with gcd(n, c) = 1 and 1 <= k <= c - 2 (so the
    staircase never lands exactly on an integer inside the range).
    """
    _require_coprime_slope(n, c)
    if not 1 <= k <= c - 2:
        raise ValueError(f"need 1 <= k <= c - 2, got k={k}, c={c}")
    return (k + 1) * n // c - k * n // c


def _floor_steps(n: int, c: int) -> bytearray:
    """The row bytearray(floor_step(n, c, k) for k in 1..c-2), with (n, c) checked once.

    Walks the remainder r = k*n mod c instead of dividing for each k: since
    (k+1)*n = c*floor(k*n/c) + r + n with 0 <= r < c and n < c, the step
    at k is 1 exactly when r + n >= c, and then the next remainder is
    r + n - c.  The row holds only the bytes 0 and 1; it indexes, iterates
    and zips as ints, and compares equal to the bytes of the same steps.
    """
    _require_coprime_slope(n, c)
    row = bytearray(c - 2)
    r = n
    for i in range(c - 2):
        r += n
        if r >= c:
            r -= c
            row[i] = 1
    return row


def _support(row: bytearray) -> set[int]:
    """The k (counting from 1) where a staircase row of _floor_steps is 1."""
    return set(compress(count(1), row))


def floor_step_support(n: int, c: int) -> set[int]:
    """The set of k in 1..c-2 where floor_step(n, c, k) is 1.

    Read off the row _floor_steps builds by the remainder identity; the
    closed form {floor(k*c/n) : k=1..n-1} is a theorem the verification
    suites check against, not the implementation.
    """
    return _support(_floor_steps(n, c))


def satisfies_step_system(form: CanonicalForm) -> bool:
    """Staircase form of the emptiness system for a clean form with c > 1.

    Equivalent to satisfies_fraction_system: requires a + b + d == c + 1
    and floor_step(a,.,k) + floor_step(b,.,k) + floor_step(d,.,k) == 1 for
    every k = 1..c-2.  At c = 2 the k-range is vacuous and the verdict
    rests on the sum condition alone.
    """
    _require_clean_with_height(form)
    a, b, c, d = form.a, form.b, form.c, form.d
    if a + b + d != c + 1:
        return False
    rows = zip(_floor_steps(a, c), _floor_steps(b, c), _floor_steps(d, c))
    return all(x + y + z == 1 for x, y, z in rows)


def satisfied_clause(form: CanonicalForm) -> str:
    """Which unit-parameter clause makes an empty form empty.

    Returns the first of "c=1", "a=1", "b=1", "d=1" that holds (several
    can hold at once; the order fixes a deterministic tag).  Raises on
    forms that are not empty.
    """
    if not white_empty(form):
        raise ValueError(f"form is not empty: {form}")
    if form.c == 1:
        return "c=1"
    if form.a == 1:
        return "a=1"
    if form.b == 1:
        return "b=1"
    return "d=1"


def _units(c: int) -> list[int]:
    """The units mod c: the k in range(c) with gcd(k, c) = 1, ascending; [0] at c = 1."""
    return [k for k in range(c) if math.gcd(k, c) == 1]


def clean_forms(c: int) -> list[CanonicalForm]:
    """All clean forms with third parameter c, in lexicographic (a, b) order: a, b and d are units mod c."""
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
    units = _units(c)
    unit_set = set(units)
    return [CanonicalForm(a, b, c) for a in units for b in units if (1 - a - b) % c in unit_set]


# Largest c that empty_forms and geometry.parallelepiped_interior_points
# list.  At the prime 99991 (299970 forms) `emptytet enumerate` took 1.6 s
# wall and 78 MB peak RSS with --csv, 1.6 s and 141 MB with --json (median
# of 5 on a 2-core VM with Python 3.11); past it a listing refuses rather
# than filling memory.
_MAX_ENUMERATE_C = 100_000


def empty_forms(c: int) -> list[CanonicalForm]:
    """All empty forms with third parameter c, in lexicographic (a, b) order.

    White's three families over the units mod c, in the layout
    _empty_form_at writes, listed in O(c) without a sort; at c <= 2 the
    layout is the one form T(0, 0, 1) or T(1, 1, 2).  Raises ValueError for
    c < 1 and for c > _MAX_ENUMERATE_C.
    """
    if c > _MAX_ENUMERATE_C:
        raise ValueError(f"enumeration exceeds its budget of c <= {_MAX_ENUMERATE_C}, got c = {c}")
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
    units = _units(c)
    return [_empty_form_at(c, units, i) for i in range(_empty_form_count(units))]


def _empty_form_count(units: list[int]) -> int:
    """len(empty_forms(c)) for units = _units(c), without building the forms.

    For c > 2 the three families of phi(c) = len(units) forms each share
    one form with each other family: T(1, 1, c), T(1, c - 1, c) and
    T(c - 1, 1, c).  At c <= 2 there is one unit and one form.
    """
    return max(1, 3 * len(units) - 3)


def _empty_form_at(c: int, units: list[int], offset: int) -> CanonicalForm:
    """empty_forms(c)[offset] for units = _units(c) and 0 <= offset < _empty_form_count(units).

    The one place the layout is written: T(1, k, c) for every unit k, then
    T(k, 1, c) and T(k, c - k, c) for each unit 1 < k < c - 1, then
    T(c - 1, 1, c).  At c <= 2 that is the one form T(1 % c, units[0], c).
    """
    if offset < len(units):
        return CanonicalForm(1 % c, units[offset], c)
    row, second = divmod(offset - len(units), 2)
    k = units[row + 1]
    return CanonicalForm(k, c - k if second else 1, c)
