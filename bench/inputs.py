"""Seeded inputs and expected answers for the benchmark workloads.

Nothing here imports the package under test: inputs are built from the
lattice theory directly, so a change to the program cannot change its
own workload or the answers it is checked against.  The program only
ever receives the vertex tuples and argv lists made here.

Expected answers come from White's theorem (Canad. J. Math. 16, 1964)
and from the cyclic-group invariant of T(a, b, c), not from the code
being measured.
"""

import math
from collections import namedtuple
from itertools import permutations

ZERO = (0, 0, 0)
E1 = (1, 0, 0)
E2 = (0, 1, 0)

# Share of each input class in the classify stream, in percent.
CLASS_SHARES = (("empty", 40), ("clean", 30), ("nonclean", 20), ("nonnorm", 10))

# cls: one of the CLASS_SHARES names; volume: expected volume6;
# canonical: expected (c, a, b) of the canonical form, None if not normalizable.
Case = namedtuple("Case", "vertices cls volume canonical")

# argv: arguments after `emptytet`; kind: which check applies; expect: its data.
Invocation = namedtuple("Invocation", "argv kind expect")


# --- exact integer helpers (independent of emptytet.intlin) ---------------


def det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def affine_apply(matrix, translation, p):
    return tuple(
        row[0] * p[0] + row[1] * p[1] + row[2] * p[2] + t
        for row, t in zip(matrix, translation)
    )


def is_unit(n, c):
    return math.gcd(n, c) == 1


def d_param(a, b, c):
    return (1 - a - b) % c


def is_clean(a, b, c):
    return is_unit(a, c) and is_unit(b, c) and is_unit(d_param(a, b, c), c)


def is_empty(a, b, c):
    """White's criterion: clean and one of a, b, c, d equals 1."""
    return is_clean(a, b, c) and 1 in (a, b, c, d_param(a, b, c))


def canonical_key(a, b, c):
    """(c, a', b') of the canonical form of the normalizable T(a, b, c).

    Z^3 modulo the lattice spanned by the edges is cyclic of order c,
    generated by e3, whose barycentric coordinates over the vertices
    (0, e1, e2, (a, b, c)) are (-d, -a, -b, 1) / c.  A role assignment
    (origin, e1, e2, apex) is valid exactly when the apex entry t is a
    unit mod c; the generator rescaled by t^-1 then reads off
    a' = -t^-1 * (e1 entry) and b' = -t^-1 * (e2 entry) mod c.  The
    canonical form is the smallest (c, a', b') over the valid roles.
    """
    if c == 1:
        return (1, 0, 0)
    entries = ((-d_param(a, b, c)) % c, (-a) % c, (-b) % c, 1)
    best = None
    for _, i, j, apex in permutations(range(4)):
        if not is_unit(entries[apex], c):
            continue
        k = pow(entries[apex], -1, c)
        key = (c, (-k * entries[i]) % c, (-k * entries[j]) % c)
        if best is None or key < best:
            best = key
    return best


def empty_form_count(c):
    """Number of empty T(a, b, c) for c >= 3: the families a=1, b=1, d=1
    each have phi(c) members and pairwise share exactly one form."""
    phi = sum(1 for n in range(1, c) if is_unit(n, c))
    return 3 * phi - 3


def verify_case_count(suite, c_max):
    """Number of records each verify suite makes at c_max when all pass."""
    if suite == "white":
        return 2 * sum(c * c for c in range(1, c_max + 1))
    if suite == "fn":
        return sum(
            3 * sum(1 for n in range(1, c) if is_unit(n, c)) - 1
            for c in range(2, c_max + 1)
        )
    # coplanar: two records per clean form, one per plane clause of an empty form
    total = 0
    for c in range(1, c_max + 1):
        for a in range(c):
            for b in range(c):
                if is_clean(a, b, c):
                    total += 2
                    if c > 1 and is_empty(a, b, c):
                        total += (a == 1) + (b == 1) + (d_param(a, b, c) == 1)
    return total


# --- random forms and scrambles -------------------------------------------


def log_uniform(rng, lo, hi):
    return min(hi, int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1)))))


def random_unit(rng, c):
    while True:
        n = rng.randrange(1, c)
        if is_unit(n, c):
            return n


def random_form(rng, cls, c_max=256):
    """(a, b, c) with c log-uniform in 1..c_max whose class is cls."""
    while True:
        c = log_uniform(rng, 1, c_max)
        if cls == "empty":
            if c == 1:
                return 0, 0, 1
            u = random_unit(rng, c)
            family = rng.randrange(3)
            return ((1, u, c), (u, 1, c), (u, c - u, c))[family]
        if cls == "clean":
            if c < 4:
                continue
            for _ in range(50):
                a, b = random_unit(rng, c), random_unit(rng, c)
                if is_clean(a, b, c) and not is_empty(a, b, c):
                    return a, b, c
            continue
        # nonclean / nonnorm base: one of a, b, d shares a prime p with c
        if c < 2:
            continue
        p = next(q for q in range(2, c + 1) if c % q == 0)
        shared = p * rng.randrange(c // p)
        other = rng.randrange(c)
        slot = rng.randrange(3)
        if slot == 0:
            return shared, other, c
        if slot == 1:
            return other, shared, c
        return other, (1 - other - shared) % c, c


IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def random_step(rng, m):
    """m after one random elementary shear (factor -3..3), axis permutation
    or sign flip of its rows."""
    kind = rng.randrange(3)
    if kind == 0:
        i, j = rng.sample(range(3), 2)
        q = rng.randint(-3, 3)
        return tuple(
            tuple(m[r][s] + (q * m[j][s] if r == i else 0) for s in range(3))
            for r in range(3)
        )
    if kind == 1:
        perm = rng.sample(range(3), 3)
        return tuple(m[perm[r]] for r in range(3))
    flips = [rng.choice((-1, 1)) for _ in range(3)]
    return tuple(tuple(f * x for x in row) for f, row in zip(flips, m))


def random_translation(rng):
    return tuple(rng.randint(-5, 5) for _ in range(3))


def random_unimodular(rng):
    """Product of 6 to 12 random steps, plus a translation in -5..5;
    returns (matrix, translation)."""
    m = IDENTITY
    for _ in range(rng.randint(6, 12)):
        m = random_step(rng, m)
    return m, random_translation(rng)


def scrambled(rng, a, b, c, scale=1):
    """Vertices of scale * T(a, b, c) under a random unimodular map, in random order."""
    matrix, translation = random_unimodular(rng)
    base = (ZERO, (scale, 0, 0), (0, scale, 0), (scale * a, scale * b, scale * c))
    vertices = [affine_apply(matrix, translation, p) for p in base]
    rng.shuffle(vertices)
    return tuple(vertices)


def make_case(rng, cls, c_max=256):
    a, b, c = random_form(rng, "nonclean" if cls == "nonnorm" else cls, c_max)
    if cls == "nonnorm":
        # Doubling every edge makes every face pair non-primitive.
        return Case(scrambled(rng, a, b, c, scale=2), cls, 8 * c, None)
    return Case(scrambled(rng, a, b, c), cls, c, canonical_key(a, b, c))


def classify_cases(rng, count):
    """count scrambled tetrahedra in the fixed class shares, shuffled."""
    cases = [
        make_case(rng, cls)
        for cls, share in CLASS_SHARES
        for _ in range(count * share // 100)
    ]
    rng.shuffle(cases)
    return cases


def interior_points_ok(points, a, b, c):
    """points are the c - 1 interior points of the parallelepiped spanned by
    e1, e2 and (a, b, c), one per level z = 1 .. c - 1, in that order."""
    return len(points) == c - 1 and all(
        z == k and 0 < x * c - z * a < c and 0 < y * c - z * b < c
        for k, (x, y, z) in enumerate(points, 1)
    )


def box_points(vertices):
    return math.prod(
        max(p[i] for p in vertices) - min(p[i] for p in vertices) + 1 for i in range(3)
    )


# --- the CLI mix ----------------------------------------------------------

# Invocations of each kind in one pass of the cli_oneshot workload.  The
# shares are chosen, not measured from any traffic: the quick kinds,
# dominated by interpreter start and import, are over two thirds of the
# mix, and enumerate, the slowest, nearly a fifth.  So the median falls inside
# the quick group and the 90th percentile near the middle of the enumerate
# group, not on a boundary between kinds, where it would jump from run to
# run.  The oracle has a workload of its own (oracle_invocations).
CLI_MIX = (
    ("classify", 5),
    ("classify_json", 3),
    ("normalize", 3),
    ("points", 1),
    ("verify_fn", 1),
    ("enumerate", 3),
)

# Invocations in one pass of the cli_oracle workload; the window of
# bounding-box sizes their scrambles are drawn from (the box of a scrambled
# small form is about 10^5 times its volume); and the window of the sweep's
# estimated plane tests (sweep_tests) they are kept in, so that sweeping
# takes most of an invocation's time, and about the same time for every
# seed.
ORACLE_CALLS = 12
ORACLE_BOX = (2_400_000, 2_900_000)
ORACLE_TESTS = (3_900_000, 4_300_000)
ORACLE_BOX_TINY = (20_000, 40_000)
ORACLE_TESTS_TINY = (0, 10**6)


def flat(vertices):
    return [str(x) for p in vertices for x in p]


def cli_invocation(rng, kind, tiny=False):
    if kind in ("classify", "classify_json"):
        cls = rng.choices([name for name, _ in CLASS_SHARES], [s for _, s in CLASS_SHARES])[0]
        case = make_case(rng, cls)
        extra = ["--json"] if kind == "classify_json" else []
        return Invocation(["classify", *flat(case.vertices), *extra], kind, case)
    if kind == "normalize":
        case = make_case(rng, rng.choice(("empty", "clean", "nonclean")))
        return Invocation(["normalize", *flat(case.vertices), "--check"], kind, case)
    if kind == "points":
        c = rng.randint(190, 210) if tiny else rng.randint(1900, 2100)
        a, b = random_unit(rng, c), random_unit(rng, c)
        return Invocation(["points", str(a), str(b), str(c)], kind, (a, b, c))
    if kind == "enumerate":
        # A prime: how many forms are clean depends on the factors of c,
        # which would make the slowest invocation's time depend on the seed.
        c = 31 if tiny else 307
        return Invocation(["enumerate", str(c), "--csv"], kind, c)
    c_max = rng.randint(10, 12) if tiny else rng.randint(28, 32)
    return Invocation(
        ["verify", "--suite", "fn", "--max-c", str(c_max)],
        kind,
        verify_case_count("fn", c_max),
    )


def cli_invocations(rng, tiny=False):
    """One pass of the CLI mix with seeded parameters, shuffled."""
    calls = [cli_invocation(rng, kind, tiny) for kind, count in CLI_MIX for _ in range(count)]
    rng.shuffle(calls)
    return calls


def scrambled_in_box(rng, a, b, c, low, high):
    """Vertices of T(a, b, c) under a random unimodular map whose bounding
    box holds low..high lattice points, in random order.

    Random steps are applied one at a time until the box lands in the
    window; a walk that overshoots it starts again from the identity.
    """
    base = (ZERO, E1, E2, (a, b, c))
    while True:
        m = IDENTITY
        for _ in range(100):
            m = random_step(rng, m)
            points = box_points([affine_apply(m, ZERO, p) for p in base])
            if points > high:
                break
            if points >= low:
                translation = random_translation(rng)
                vertices = [affine_apply(m, translation, p) for p in base]
                rng.shuffle(vertices)
                return tuple(vertices)


def sweep_tests(vertices, rng, samples=2000):
    """Estimated plane tests of a bounding-box sweep over the tetrahedron.

    A sweep that checks each point against the faces opposite vertices
    1, 2 and 3 in turn, stopping at the first it lies outside, makes 1 to 4
    tests per point.  Their mean over `samples` random box points, times the
    box's point count, estimates the sweep's work: at the same box size it
    varies by 2x with the shape and the vertex order.
    """
    v0 = vertices[0]
    u1, u2, u3 = (tuple(q - o for q, o in zip(v, v0)) for v in vertices[1:])
    normals = [cross(u2, u3), cross(u3, u1), cross(u1, u2)]
    if det3((u1, u2, u3)) < 0:
        normals = [tuple(-x for x in n) for n in normals]
    ranges = [(min(p[i] for p in vertices), max(p[i] for p in vertices)) for i in range(3)]
    tests = 0
    for _ in range(samples):
        p = [rng.randint(lo, hi) - o for (lo, hi), o in zip(ranges, v0)]
        tests += 1
        for n in normals:
            if n[0] * p[0] + n[1] * p[1] + n[2] * p[2] < 0:
                break
            tests += 1
    return box_points(vertices) * tests / samples


def oracle_invocations(rng, tiny=False):
    """One pass of `classify --oracle` on scrambled small clean forms.

    Clean inputs make the oracle sweep its whole bounding box (a non-clean
    one stops at its first boundary point, at a seed-dependent place), and
    the estimated work of the sweep lies in a narrow window, so the time of
    an invocation barely depends on the seed.
    """
    low, high = ORACLE_BOX_TINY if tiny else ORACLE_BOX
    least, most = ORACLE_TESTS_TINY if tiny else ORACLE_TESTS
    calls = []
    while len(calls) < ORACLE_CALLS:
        cls = rng.choice(("empty", "clean"))
        a, b, c = random_form(rng, cls, c_max=16)
        vertices = scrambled_in_box(rng, a, b, c, low, high)
        if least <= sweep_tests(vertices, rng) <= most:
            case = Case(vertices, cls, c, canonical_key(a, b, c))
            calls.append(Invocation(["classify", *flat(vertices), "--oracle"], "oracle", case))
    return calls
