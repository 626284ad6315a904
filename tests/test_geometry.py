import itertools
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from emptytet import geometry
from emptytet.geometry import (
    DegenerateTetrahedronError,
    PointLocation,
    Tetrahedron,
    _face_forms,
    _points_in,
    _rows,
    bruteforce_verdicts,
    is_empty_bruteforce,
    lattice_points_in,
    parallelepiped_interior_bruteforce,
    parallelepiped_interior_points,
    standard_tetrahedron,
    volume6,
)
from emptytet.intlin import ZERO, det3, dot
from emptytet.normalize import canonicalize
from emptytet.verify import random_unimodular_map
from emptytet.white import _floor_steps

from reference import cross

UNIT = Tetrahedron((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
LOCATE_CASES = [
    UNIT,
    standard_tetrahedron(1, 1, 2),
    standard_tetrahedron(2, 3, 7),
    Tetrahedron((-1, 2, 0), (3, 1, 1), (0, -2, 2), (1, 1, 5)),
]


def locate_oracle(t, p):
    """Independent point location: solve the barycentric system exactly."""
    v0, v1, v2, v3 = t.vertices()
    u1, u2, u3, rhs = (tuple(a - b for a, b in zip(q, v0)) for q in (v1, v2, v3, p))
    den = det3((u1, u2, u3))
    lams = [
        Fraction(det3((rhs, u2, u3)), den),
        Fraction(det3((u1, rhs, u3)), den),
        Fraction(det3((u1, u2, rhs)), den),
    ]
    lams.insert(0, 1 - sum(lams))
    if any(lam < 0 for lam in lams):
        return PointLocation.OUTSIDE
    zeros = sum(lam == 0 for lam in lams)
    if zeros == 0:
        return PointLocation.INTERIOR
    if zeros == 3:
        return PointLocation.VERTEX
    return PointLocation.BOUNDARY_NON_VERTEX


def box_points(t, pad=1):
    verts = t.vertices()
    lo = [min(v[i] for v in verts) - pad for i in range(3)]
    hi = [max(v[i] for v in verts) + pad for i in range(3)]
    return itertools.product(
        range(lo[0], hi[0] + 1), range(lo[1], hi[1] + 1), range(lo[2], hi[2] + 1)
    )


def test_degenerate_rejected():
    with pytest.raises(DegenerateTetrahedronError):
        Tetrahedron((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 0, 1))
    with pytest.raises(DegenerateTetrahedronError):
        Tetrahedron((0, 0, 0), (1, 0, 0), (0, 1, 0), (3, -2, 0))


def test_non_int_vertices_rejected():
    good = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 5))
    for i, bad in [
        (1, (1.7, 0, 0)),  # must not be truncated to 1
        (3, (1, 1, 5, 99)),  # must not be cut to three components
        (3, (1, 1)),
        (2, (0, True, 0)),  # bool is not an int coordinate
        (0, [0, 0, 0]),
        (3, 5),
    ]:
        verts = list(good)
        verts[i] = bad
        with pytest.raises(TypeError):
            Tetrahedron(*verts)


def test_face_forms_are_computed_once_per_tetrahedron(monkeypatch):
    # Construction computes the four face forms; canonicalize, volume6 and
    # the oracle read the stored ones.  Every module of the package that
    # binds _face_forms gets the counter, so no import of it goes uncounted.
    original = geometry._face_forms
    calls = []

    def counting(t):
        calls.append(t)
        return original(t)

    for name, module in list(sys.modules.items()):
        if name.startswith("emptytet.") and vars(module).get("_face_forms") is original:
            monkeypatch.setattr(module, "_face_forms", counting)
    t = Tetrahedron((3, -4, 9), (4, -4, 9), (3, -3, 9), (8, -1, 7))
    assert canonicalize(t).form == (1, 1, 2)
    assert volume6(t) == 2
    assert bruteforce_verdicts(t) == (True, True)
    assert calls == [t]


def test_volume6():
    assert volume6(UNIT) == 1
    assert volume6(standard_tetrahedron(1, 1, 2)) == 2
    for c in range(1, 9):
        for a in range(c):
            for b in range(c):
                assert volume6(standard_tetrahedron(a, b, c)) == c


def test_lattice_points_unit_tetrahedron():
    pts = lattice_points_in(UNIT)
    assert pts == [
        ((0, 0, 0), PointLocation.VERTEX),
        ((0, 0, 1), PointLocation.VERTEX),
        ((0, 1, 0), PointLocation.VERTEX),
        ((1, 0, 0), PointLocation.VERTEX),
    ]


def test_lattice_points_T115_vertices_only():
    pts = lattice_points_in(standard_tetrahedron(1, 1, 5))
    assert [p for p, _ in pts] == sorted([(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 5)])
    assert all(loc == PointLocation.VERTEX for _, loc in pts)


def test_lattice_points_lex_order_and_locations():
    t = standard_tetrahedron(2, 3, 7)
    pts = lattice_points_in(t)
    assert [p for p, _ in pts] == sorted(p for p, _ in pts)
    assert any(loc == PointLocation.INTERIOR for _, loc in pts)
    for p, loc in pts:
        assert locate_oracle(t, p) == loc


# A face through (0, 0, 0), (0, 0, 1) and (2, 1, 0) is parallel to the z
# axis: its form x - 2y has no z term, and the box rows with x > 2y lie
# wholly outside it.  The second case lists the same vertices in a
# negatively oriented order; the third is a long thin one whose box rows
# mostly miss it.
ROW_CASES = [
    Tetrahedron((0, 0, 0), (0, 0, 1), (2, 1, 0), (0, 1, 0)),
    Tetrahedron((0, 0, 1), (0, 0, 0), (2, 1, 0), (0, 1, 0)),
    Tetrahedron((-1, 2, -3), (0, 2, -3), (-1, 3, -3), (2, 7, 8)),
]


def scan_oracle(forms, corners):
    """Box walk: every lattice point of the corners' bounding box where
    each form is >= 0, with the number of forms vanishing there."""
    ranges = [range(min(p[i] for p in corners), max(p[i] for p in corners) + 1) for i in range(3)]
    walk = []
    for p in itertools.product(*ranges):
        values = [dot(n, p) + k for n, k in forms]
        if min(values) >= 0:
            walk.append((p, values.count(0)))
    return walk


def rows_of(walk):
    """The box walk's points as the scan core's rows (x, y, z_lo, z_hi),
    each checked to be one unbroken run of z."""
    rows = {}
    for (x, y, z), _ in walk:
        rows.setdefault((x, y), []).append(z)
    for zs in rows.values():
        assert zs == list(range(zs[0], zs[-1] + 1)), zs
    return [(x, y, zs[0], zs[-1]) for (x, y), zs in rows.items()]


def shadow_forms(forms):
    """The shadow on the xy-plane as forms (x, y, constant) >= 0, by
    Fourier-Motzkin: the z-free forms and every positive combination of a
    rising and a falling form that cancels z."""
    shadow = [(ax, ay, k) for (ax, ay, az), k in forms if az == 0]
    return shadow + [
        (az * bx - bz * ax, az * by - bz * ay, az * bk - bz * ak)
        for (ax, ay, az), ak in forms if az > 0
        for (bx, by, bz), bk in forms if bz < 0
    ]


def scan_kinds(forms, corners, walk):
    """The branches of the scan core a region reaches, found from its forms
    and its box walk: z-only forms folded into the z-range, shadow forms (z
    eliminated) by the sign of their y coefficient or, when constant, of
    their value, the box's x-values that a y-free form or the y-bounds
    leave empty, y-bounds at the other x-values by whether the box's y-range
    already holds them or they narrow it, rows at an x after one its
    y-bounds leave empty (the x-parts of the row forms must advance over
    that x too), and one-point rows where a rising and a falling form both
    vanish."""
    kinds = {"z-only form folded" for (nx, ny, nz), _ in forms if nx == ny == 0 != nz}
    shadow = shadow_forms(forms)
    for ax, ay, k in shadow:
        if ay:
            kinds.add("y-rising form" if ay > 0 else "y-falling form")
        elif ax:
            kinds.add("y-free form")
        else:
            kinds.add("constant shadow form >= 0" if k >= 0 else "constant shadow form < 0")
    rows = rows_of(walk)
    row_xs = {x for x, _, _, _ in rows}
    xs, ys = [p[0] for p in corners], [p[1] for p in corners]
    for x in range(min(xs), max(xs) + 1):
        if any(ay == 0 and ax * x + k < 0 for ax, ay, k in shadow):
            kinds.add("x-interval cut by a y-free form")
            continue
        for ax, ay, k in shadow:
            if ay > 0:
                narrows = -((ax * x + k) // ay) > min(ys)
            elif ay < 0:
                narrows = (ax * x + k) // -ay < max(ys)
            else:
                continue
            kinds.add("y-bound narrowing the box's y-range" if narrows else "y-bound the box already holds")
        if not any(
            all(ax * x + ay * y + k >= 0 for ax, ay, k in shadow)
            for y in range(min(ys), max(ys) + 1)
        ):
            kinds.add("x cut by its y-bounds")
        elif "x cut by its y-bounds" in kinds and x in row_xs:
            kinds.add("rows after an x its y-bounds leave empty")
    for x, y, lo, hi in rows:
        rising = {n[2] > 0 for n, k in forms if n[2] and dot(n, (x, y, lo)) + k == 0}
        if lo == hi and rising == {True, False}:
            kinds.add("one-point row where a rising and a falling form vanish")
    return kinds


def parallelepiped_region(a, b, c):
    """Strict interior of the parallelepiped spanned by e1, e2, (a, b, c)
    as forms >= 0: 0 < z < c, 0 < x*c - z*a < c, 0 < y*c - z*b < c, over
    the box of its vertices."""
    forms = []
    for n in ((0, 0, 1), (c, 0, -a), (0, c, -b)):
        forms += [(n, -1), (tuple(-x for x in n), c - 1)]
    return forms, (ZERO, (a + 1, b + 1, c))


def parallelepiped_slabs(a, b, c):
    """The region the parallelepiped oracle scans: its x- and y-slabs as
    forms >= 0 over the box (1, 1, 1) to (a, b, c - 1), which stands in
    for the z-slab."""
    forms, _ = parallelepiped_region(a, b, c)
    return forms[2:], ((1, 1, 1), (a, b, c - 1))


def plane_region(u, v, far_sides):
    """The closed triangle (far side (1, 1)) or parallelogram (far sides
    (1, 0), (0, 1)) spanned by u, v as forms >= 0, in scaled coordinates
    s = det(p, v, n) and t = det(u, p, n) with n = cross(u, v)."""
    n = cross(u, v)
    sv, tu = cross(v, n), cross(n, u)
    forms = [(n, 0), (tuple(-x for x in n), 0), (sv, 0), (tu, 0)]
    forms += [(tuple(-i * a - j * b for a, b in zip(sv, tu)), dot(n, n)) for i, j in far_sides]
    corners = (ZERO, u, v) if len(far_sides) == 1 else (ZERO, u, v, tuple(a + b for a, b in zip(u, v)))
    return forms, corners


# Regions that the tetrahedra, parallelepipeds and planes do not reach: a
# box that z-only forms cut on both sides (2 <= z <= 13/3), a slab between
# two parallel planes, and an empty one.
CUT_REGIONS = [
    ([((0, 0, 1), -2), ((0, 0, -3), 13), ((1, -1, 1), 0)], ((0, 0, 0), (3, 3, 6))),
    ([((1, 2, 3), 0), ((-1, -2, -3), 4)], ((-2, -2, -2), (2, 2, 2))),
    ([((1, 2, 3), 0), ((-1, -2, -3), -1)], ((-2, -2, -2), (2, 2, 2))),
]


# Tetrahedra whose x-interval the scan core steps across: a sliver whose
# shadow leaves x = 1 and 2 without an integer y before its rows at x = 3,
# tall enough that a falling face not stepped over them cuts too little;
# a slab 2 deep in z whose x-columns hold up to 40 rows; and T(2, 3, 5)
# under a unimodular map, whose 4 rows lie in an x-interval of 280, the
# shape of a scrambled small form.
STEP_CASES = [
    Tetrahedron((0, 0, 0), (10, 3, 0), (10, 4, 0), (0, 0, 10)),
    Tetrahedron((0, 0, 0), (40, 1, 0), (1, 40, 0), (7, 5, 1)),
    Tetrahedron((-4, 4, 5), (-23, 4, 7), (-6, 5, 5), (-283, 7, 34)),
]


def test_lattice_points_match_fraction_oracle():
    rng = random.Random(47)
    sample = []
    while len(sample) < 100:
        try:
            sample.append(Tetrahedron(*(tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(4))))
        except DegenerateTetrahedronError:
            pass
    forms = [standard_tetrahedron(a, b, c) for c in range(1, 9) for a in range(c) for b in range(c)]
    kinds = set()
    for t in LOCATE_CASES + ROW_CASES + sample + forms:
        want = [(p, locate_oracle(t, p)) for p in box_points(t)]
        want = [(p, loc) for p, loc in want if loc != PointLocation.OUTSIDE]
        got = lattice_points_in(t)
        assert got == want, t
        verts = t.vertices()
        for i in range(4):
            a, b, c = verts[:i] + verts[i + 1 :]
            if (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0]):
                kinds.add("face parallel to z")
        if det3([tuple(a - b for a, b in zip(q, verts[0])) for q in verts[1:]]) < 0:
            kinds.add("negative orientation")
        xs, ys = {v[0] for v in verts}, {v[1] for v in verts}
        if len({p[:2] for p, _ in got}) < (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1):
            kinds.add("row missing t")
        walk = scan_oracle(_face_forms(t), verts)
        assert list(_rows(_face_forms(t), verts)) == rows_of(walk), t
        kinds |= scan_kinds(_face_forms(t), verts, walk)
    # The same walk, zeros included, over the stepping, parallelepiped,
    # plane and cut regions, and the scan core's rows against the walk's.
    planes = []
    while len(planes) < 300:
        u, v = (tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(2))
        if cross(u, v) != ZERO:
            planes += [plane_region(u, v, ((1, 1),)), plane_region(u, v, ((1, 0), (0, 1)))]
    boxes = [parallelepiped_region(a, b, c) for c in range(1, 9) for a in range(c) for b in range(c)]
    steps = [(_face_forms(t), t.vertices()) for t in STEP_CASES]
    for forms, corners in steps + boxes + planes + CUT_REGIONS:
        walk = scan_oracle(forms, corners)
        assert list(_points_in(forms, corners)) == walk, (forms, corners)
        assert list(_rows(forms, corners)) == rows_of(walk), (forms, corners)
        kinds |= scan_kinds(forms, corners, walk)
    assert kinds == {
        "face parallel to z",
        "negative orientation",
        "row missing t",
        "z-only form folded",
        "y-free form",
        "y-rising form",
        "y-falling form",
        "constant shadow form >= 0",
        "constant shadow form < 0",
        "x-interval cut by a y-free form",
        "x cut by its y-bounds",
        "y-bound the box already holds",
        "y-bound narrowing the box's y-range",
        "rows after an x its y-bounds leave empty",
        "one-point row where a rising and a falling form vanish",
    }


def test_oracles_stop_at_first_deciding_point():
    # The box holds about 6e7 points and the boundary point (0, 0, 1) is the
    # second one scanned: stopping there takes microseconds, a full scan
    # over a minute.
    t = Tetrahedron((0, 0, 0), (0, 0, 2), (0, 1, 0), (10**7, 0, 0))
    start = time.perf_counter()
    assert bruteforce_verdicts(t) == (False, False)
    assert not is_empty_bruteforce(t)
    assert time.perf_counter() - start < 2.0


def test_empty_regions_scan_no_rows():
    # A box of 20M points in as many rows, which a scan row by row takes
    # several seconds to find empty: a negative constant shadow form (the
    # slab 0 <= x + 2y + 3z <= -1), or a z-range that a z-only form (z >= 5)
    # leaves empty, decides it before the first row.
    corners = ((0, 0, 0), (1999, 9999, 0))
    start = time.perf_counter()
    assert list(_rows([((1, 2, 3), 0), ((-1, -2, -3), -1)], corners)) == []
    assert list(_rows([((0, 0, 1), -5), ((1, 1, -1), 0)], corners)) == []
    assert time.perf_counter() - start < 2.0


def test_oracles_refuse_boxes_past_the_scan_budget():
    t = Tetrahedron((0, 0, 0), (1, 0, 0), (0, 1, 0), (1000, 1000, 1000001))
    for oracle in (lattice_points_in, is_empty_bruteforce, bruteforce_verdicts):
        with pytest.raises(ValueError, match="budget"):
            oracle(t)
    # A box of 26.7M (299^3) points, counted from the corners' bounds.
    with pytest.raises(ValueError) as refused:
        parallelepiped_interior_bruteforce(299, 299, 300)
    assert str(refused.value) == (
        "oracle scan exceeds its budget of 20000000 lattice points (bounding box of 26730899 points)"
    )


def test_refusal_names_a_box_past_the_int_string_limit():
    # A box size longer than Python's int-string limit of 4300 digits is
    # named by its first 12 digits and its digit count, the form the CLI
    # prints for a long digit run; a shorter one is printed whole.
    assert geometry._decimal(10**4300 - 1) == "9" * 4300
    assert geometry._decimal(10**4300) == "100000000000... (4301 digits)"
    assert geometry._decimal(123456789012345 * 10**5000 + 7) == "123456789012... (5015 digits)"
    assert geometry._decimal(10**4400 - 1) == "999999999999... (4400 digits)"
    # This box of 72 * (2^26600 + 5) points is refused after the x-rows
    # that fit the budget, as at 2^13300 (4006 digits).
    t = Tetrahedron((-6, 0, 5), (5, 4, 6), (-(2**26600 - 1), -4, -1), (-3, -1, 1))
    with pytest.raises(ValueError) as refused:
        bruteforce_verdicts(t)
    assert str(refused.value) == (
        "oracle scan exceeds its budget of 20000000 lattice points "
        "(bounding box of 179977062144... (8010 digits) points)"
    )


def points_until_refused(points):
    """The points a scan yields before it raises ValueError naming its budget."""
    got = []
    with pytest.raises(ValueError, match="budget"):
        for p in points:
            got.append(p)
    return got


def test_scan_budget_edge(monkeypatch):
    # Both boxes have points in their last non-empty x-row, and the
    # tetrahedron a y-free face x >= 0, so a cap one x-row off shows.
    t = Tetrahedron((0, 0, 0), (0, 2, 0), (0, 0, 3), (5, 1, 1))
    regions = [
        (_face_forms(t), t.vertices(), lambda: [p for p, _ in lattice_points_in(t)]),
        (*parallelepiped_slabs(4, 3, 5), lambda: parallelepiped_interior_bruteforce(4, 3, 5)),
    ]
    for forms, corners, oracle in regions:
        walk = scan_oracle(forms, corners)
        extent = [max(p[i] for p in corners) - min(p[i] for p in corners) + 1 for i in range(3)]
        row, box = extent[1] * extent[2], extent[0] * extent[1] * extent[2]
        for budget in (box, box + 1, box - 1, box - row, box - row - 1, 2 * row, row, row - 1):
            monkeypatch.setattr(geometry, "_MAX_SCAN_POINTS", budget)
            if budget >= box:
                assert oracle() == [p for p, _ in walk], budget
                continue
            with pytest.raises(ValueError, match="budget"):
                oracle()
            # The first budget // row x-rows, through both layers of the scan.
            x_end = min(p[0] for p in corners) + budget // row
            want = [(p, zeros) for p, zeros in walk if p[0] < x_end]
            assert points_until_refused(_points_in(forms, corners)) == want, budget
            rows = points_until_refused(_rows(forms, corners))
            assert [(x, y, z) for x, y, lo, hi in rows for z in range(lo, hi + 1)] == [p for p, _ in want]


# Long-edge tetrahedra 10^40 long in x, one vertex 10^20 short of the far
# end (or of the near end): on their first x-rows a shadow y-bound lies
# about 10^20 (or 10^40) outside the box's y-range.
LONG_EDGES = [
    ((0, 0, 0), (1, 3, 1), (10**40 - 10**20, 0, 2), (10**40, 5, 0)),
    ((0, 0, 0), (2, 4, 2), (10**40 - 10**20, 1, 0), (10**40, 3, 1)),
    ((0, 1, 0), (1, 0, 2), (10**40, 4, 1), (10**40 + 10**20, 2, 0)),
    ((0, 0, 0), (1, 3, 1), (10**20 - 10**40, 0, 2), (-(10**40), 5, 0)),
]


def test_scan_solves_long_bounds_past_the_budget(monkeypatch):
    # Past the budget each shadow y-bound is divided by its content and
    # only on the rows where it narrows the box: on tetrahedra one edge
    # 10^40 long, whose shadow coefficients run to about 270 bits, placed
    # anywhere around +-10^30, and on the long-edge shapes, the x-rows
    # before the refusal hold the same points as the box walk over them,
    # through both layers of the scan.
    def first_rows_match(t, rows_in_budget):
        forms = _face_forms(t)
        xs, ys, zs = zip(*t)
        monkeypatch.setattr(
            geometry, "_MAX_SCAN_POINTS", rows_in_budget * (max(ys) - min(ys) + 1) * (max(zs) - min(zs) + 1)
        )
        first_rows = ((min(xs), min(ys), min(zs)), (min(xs) + rows_in_budget - 1, max(ys), max(zs)))
        want = scan_oracle(forms, first_rows)
        assert points_until_refused(_points_in(forms, t)) == want, t
        rows = points_until_refused(_rows(forms, t))
        assert [(x, y, z) for x, y, lo, hi in rows for z in range(lo, hi + 1)] == [p for p, _ in want]
        return bool(want)

    rng = random.Random(23)
    checked = 0
    while checked < 40:
        x0 = rng.choice((-1, 1)) * rng.randrange(10**30)
        vertices = [(x0 + rng.randrange(3), rng.randrange(4), rng.randrange(4)) for _ in range(3)]
        vertices.append((x0 + rng.choice((-1, 1)) * 10**40, rng.randrange(4), rng.randrange(4)))
        try:
            t = Tetrahedron(*vertices)
        except DegenerateTetrahedronError:
            continue
        checked += first_rows_match(t, rng.randrange(1, 12))
    for vertices in LONG_EDGES:
        x0 = rng.choice((-1, 1)) * rng.randrange(10**30)
        t = Tetrahedron(*((x + x0, y, z) for x, y, z in vertices))
        x = min(p[0] for p in t)
        bounds = [(ax * x + k) // abs(ay) for ax, ay, k in shadow_forms(_face_forms(t)) if ay]
        assert any(abs(q) > 10**19 for q in bounds), vertices
        assert first_rows_match(t, 8), vertices


def test_oracles_stop_at_first_deciding_point_with_long_coordinates():
    # The stop-early tetrahedron moved by 10^20 on x, with 4999 rows in y:
    # its box is past the budget and the boundary point (X, 0, 1) is still
    # the second one scanned.
    X = 10**20
    t = Tetrahedron((X, 0, 0), (X, 0, 2), (X, 4999, 2999), (X + 10**7, 0, 0))
    start = time.perf_counter()
    assert bruteforce_verdicts(t) == (False, False)
    assert not is_empty_bruteforce(t)
    assert time.perf_counter() - start < 2.0


def test_oracle_frozen_verdicts():
    assert bruteforce_verdicts(standard_tetrahedron(1, 1, 5)) == (True, True)
    assert bruteforce_verdicts(standard_tetrahedron(2, 3, 7)) == (False, True)
    assert bruteforce_verdicts(standard_tetrahedron(2, 2, 3)) == (False, False)
    assert bruteforce_verdicts(standard_tetrahedron(0, 0, 2)) == (False, False)
    assert is_empty_bruteforce(UNIT) and bruteforce_verdicts(UNIT)[1]


def test_oracle_components_agree():
    for c in range(1, 7):
        for a in range(c):
            for b in range(c):
                t = standard_tetrahedron(a, b, c)
                assert bruteforce_verdicts(t)[0] == is_empty_bruteforce(t), (a, b, c)


def test_oracle_invariant_under_unimodular_maps():
    rng = random.Random(23)
    for a, b, c in [(1, 1, 2), (1, 2, 5), (2, 3, 7), (0, 0, 3)]:
        t = standard_tetrahedron(a, b, c)
        want = bruteforce_verdicts(t)
        for _ in range(3):
            m = random_unimodular_map(rng, min_factors=2, max_factors=4, shear_bound=2)
            assert bruteforce_verdicts(t.transformed(m)) == want, (a, b, c)
            # the map carries each point to one of the same location
            assert sorted((m(p), loc) for p, loc in lattice_points_in(t)) == lattice_points_in(
                t.transformed(m)
            ), (a, b, c)


def test_parallelepiped_points_frozen():
    assert parallelepiped_interior_points(1, 1, 2) == [(1, 1, 1)]
    assert parallelepiped_interior_points(0, 0, 1) == []
    for c in (2, 3, 5, 8):
        pts = parallelepiped_interior_points(1, 1, c)
        assert [p[:2] for p in pts] == [(1, 1)] * (c - 1)
        assert [p[2] for p in pts] == list(range(1, c))


def test_parallelepiped_points_match_scan():
    for c in range(1, 13):
        for a in range(c):
            for b in range(c):
                box = itertools.product(range(a + 2), range(b + 2), range(c + 1))
                assert parallelepiped_interior_bruteforce(a, b, c) == [
                    (x, y, z)
                    for x, y, z in box
                    if 0 < z < c and 0 < x * c - z * a < c and 0 < y * c - z * b < c
                ], (a, b, c)
                # the coplanar suite compares the two on clean forms only,
                # in order: listed by height, the points are in scan order
                if math.gcd(a, c) == 1 and math.gcd(b, c) == 1:
                    points = parallelepiped_interior_points(a, b, c)
                    assert points == parallelepiped_interior_bruteforce(a, b, c), (a, b, c)


def test_parallelepiped_oracle_matches_the_vertex_box_scan():
    # The slabs over the interior's box against all six forms over the
    # vertices' box, coprime or not, c = 1 and a = 0 included.
    for c in range(1, 41):
        for a in range(c):
            for b in range(c):
                rows = _rows(*parallelepiped_region(a, b, c))
                want = [(x, y, z) for x, y, lo, hi in rows for z in range(lo, hi + 1)]
                assert parallelepiped_interior_bruteforce(a, b, c) == want, (a, b, c)


def reference_points(a, b, c):
    """The interior points by their definition, point by point: point k is
    <k(c-a)/c> e1 + <k(c-b)/c> e2 + (k/c)(a, b, c), each coordinate
    assembled over the common denominator c and asserted integral."""
    points = []
    for k in range(1, c):
        x_num = k * (c - a) % c + k * a
        y_num = k * (c - b) % c + k * b
        assert x_num % c == 0 and y_num % c == 0, (a, b, c, k)
        points.append((x_num // c, y_num // c, k))
    return points


def test_parallelepiped_points_match_reference():
    for c in range(1, 51):
        units = [k for k in range(c) if math.gcd(k, c) == 1]
        for a in units:
            for b in units:
                assert parallelepiped_interior_points(a, b, c) == reference_points(a, b, c), (a, b, c)
    # Long listings: x and y step up at every k after the first at
    # (c - 1, c - 1) and never at (1, 1), and a unit near c/3 steps about
    # every third k; c = 100000 is the budget edge.
    large = [(1, 1, 100_000), (99_999, 99_999, 100_000)]
    for c in (1009, 65537, 99991):
        third = next(k for k in range(c // 3, c) if math.gcd(k, c) == 1)
        large += [(a, b, c) for a, b in ((1, 1), (1, c - 1), (c - 1, c - 1), (2, c - 2), (third, third))]
    for a, b, c in large:
        assert parallelepiped_interior_points(a, b, c) == reference_points(a, b, c), (a, b, c)


def test_parallelepiped_points_x_is_staircase_partial_sums():
    # x_k = 1 + floor(k*a/c), so x_(k+1) - x_k is the staircase increment
    # white.floor_step(a, c, k): the step rows are the points' x increments.
    for c in range(2, 121):
        for a in range(1, c):
            if math.gcd(a, c) == 1:
                xs = [x for x, _, _ in parallelepiped_interior_points(a, 1, c)]
                assert list(itertools.accumulate(_floor_steps(a, c), initial=1)) == xs, (a, c)


def test_parallelepiped_points_errors():
    with pytest.raises(ValueError):
        parallelepiped_interior_points(2, 2, 4)  # gcd(2, 4) = 2
    with pytest.raises(ValueError):
        parallelepiped_interior_points(0, 1, 2)  # gcd(0, 2) = 2
    with pytest.raises(ValueError):
        parallelepiped_interior_points(3, 1, 2)  # a out of range
    with pytest.raises(ValueError):
        parallelepiped_interior_points(0, 0, 0)  # c < 1
    with pytest.raises(ValueError, match="budget of c <= 100000"):
        parallelepiped_interior_points(1, 1, 100_001)  # one past the budget
