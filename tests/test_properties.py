"""Property tests: cli.main over argv drawn from the CLI's grammar, and
the invariance of the verdicts under random unimodular maps.

Whatever the argv, main returns 0, 1 or 2 without letting an exception
escape, every stderr line is under 300 bytes, also when an integer
argument is thousands of characters long, and an exit 2 that argparse did
not produce explains itself with an `error: ` line on stderr.  Whatever the map, the image of T(a, b, c)
is normalizable exactly when T is, with the same canonical form and the
same oracle verdicts.
"""

import contextlib
import functools
import io
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from emptytet.cli import main  # noqa: E402
from emptytet.geometry import Tetrahedron, bruteforce_verdicts, standard_tetrahedron  # noqa: E402
from emptytet.normalize import NotNormalizableError, canonical_form  # noqa: E402
from emptytet.verify import _MAX_TRIALS, _suites, random_unimodular_map  # noqa: E402
from emptytet.white import _MAX_ENUMERATE_C  # noqa: E402

# Flags that are bogus everywhere, or that some subcommands reject.
BOGUS_FLAGS = ["--bogus", "-q", "--max-c", "--csv", "--oracle", "--check", "--json"]

# Over-long tokens for an integer argument: past the int-string limit, or
# not an integer at all.
LONG_TOKENS = ["7" * 5000, "7" * 5000 + "x", "x" * 5000]

ints = st.integers


def tokens(values):
    return [str(v) for v in values]


@st.composite
def vertex_argv(draw, command, flags):
    count = draw(st.sampled_from([11, 12, 12, 12, 13]))
    coords = draw(st.lists(ints(-6, 6), min_size=count, max_size=count))
    chosen = draw(st.lists(st.sampled_from(flags), max_size=2))
    return [command, *tokens(coords), *chosen]


@st.composite
def enumerate_argv(draw):
    # c between a few hundred and the budget is legal but costs up to seconds
    # per example, so c comes from below that range or from past the budget.
    c = draw(st.one_of(ints(-3, 300), ints(_MAX_ENUMERATE_C + 1, 10**30)))
    fmt = draw(st.lists(st.sampled_from(["--json", "--csv"]), max_size=2))
    return ["enumerate", str(c), *fmt]


@st.composite
def points_argv(draw):
    ab = draw(st.lists(ints(-3, 60), min_size=2, max_size=2))
    c = draw(st.one_of(ints(-3, 60), ints(_MAX_ENUMERATE_C + 1, 10**30)))
    fmt = draw(st.lists(st.sampled_from(["--json", "--csv"]), max_size=2))
    return ["points", *tokens(ab), str(c), *fmt]


@st.composite
def verify_argv(draw):
    table = _suites()
    suites = draw(st.lists(st.sampled_from(list(table)), max_size=2))
    # Past the smallest budget of the suites drawn, the CLI refuses before
    # any suite runs.
    budget = min(table[suite][2] for suite in suites or table)
    argv = ["verify", "--max-c", str(draw(st.one_of(ints(-1, 4), ints(budget + 1, 10**30))))]
    for suite in suites:
        argv += ["--suite", suite]
    if not suites or "normalize" in suites:
        argv += ["--trials", str(draw(st.one_of(ints(-1, 20), ints(_MAX_TRIALS + 1, 10**30))))]
        if draw(st.booleans()):
            argv += ["--seed", str(draw(ints(-5, 5)))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@st.composite
def cli_argv(draw):
    argv = draw(
        st.one_of(
            vertex_argv("classify", ["--json", "--oracle"]),
            vertex_argv("normalize", ["--check"]),
            enumerate_argv(),
            points_argv(),
            verify_argv(),
        )
    )
    if draw(ints(0, 3)) == 0:
        numeric = [i for i, token in enumerate(argv) if token.lstrip("-").isdigit()]
        argv[draw(st.sampled_from(numeric))] = draw(st.sampled_from(LONG_TOKENS))
    if draw(ints(0, 3)) == 0:
        argv.append(draw(st.sampled_from(BOGUS_FLAGS)))
    return argv


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(cli_argv())
def test_main_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    stderr = err.getvalue()
    assert all(len(line.encode()) < 300 for line in stderr.splitlines()), (argv, stderr[:300])
    if code == 2 and not stderr.startswith("usage: "):
        assert stderr.splitlines()[-1].startswith("error: "), (argv, stderr)


def form_and_verdicts(t):
    """(canonical form, or None if t is not normalizable; oracle verdicts)."""
    try:
        form = canonical_form(t)
    except NotNormalizableError:
        form = None
    return form, bruteforce_verdicts(t)


@functools.cache
def standard_form_and_verdicts(abc):
    return form_and_verdicts(standard_tetrahedron(*abc))


FORMS = [(a, b, c) for c in range(1, 13) for a in range(c) for b in range(c)]


@hypothesis.settings(max_examples=6, deadline=None, database=None)
@hypothesis.given(ints(0, 2**32))
def test_unimodular_images_keep_form_and_verdicts(seed):
    # Short products with small shears keep each image's bounding box far
    # below the oracle's scan budget; the image's vertices are listed in a
    # random order, so no vertex role is preserved by construction.
    rng = random.Random(seed)
    for abc in FORMS:
        scramble = random_unimodular_map(rng, min_factors=3, max_factors=6, shear_bound=2, translation_bound=3)
        image = Tetrahedron(*rng.sample(standard_tetrahedron(*abc).transformed(scramble).vertices(), 4))
        assert form_and_verdicts(image) == standard_form_and_verdicts(abc), (abc, scramble)
