"""Property test of cli.main over argv drawn from the CLI's grammar.

Whatever the argv, main returns 0, 1 or 2 without letting an exception
escape, and an exit 2 that argparse did not produce explains itself with
an `error: ` line on stderr.
"""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from emptytet.cli import main  # noqa: E402
from emptytet.white import _MAX_ENUMERATE_C  # noqa: E402

# Flags that are bogus everywhere, or that some subcommands reject.
BOGUS_FLAGS = ["--bogus", "-q", "--max-c", "--csv", "--oracle", "--check", "--json"]

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
    abc = draw(st.lists(ints(-3, 60), min_size=3, max_size=3))
    fmt = draw(st.lists(st.sampled_from(["--json", "--csv"]), max_size=2))
    return ["points", *tokens(abc), *fmt]


@st.composite
def verify_argv(draw):
    suites = draw(st.lists(st.sampled_from(["white", "coplanar", "fn", "normalize"]), max_size=2))
    argv = ["verify", "--max-c", str(draw(ints(-1, 4)))]
    for suite in suites:
        argv += ["--suite", suite]
    if not suites or "normalize" in suites:
        argv += ["--trials", str(draw(ints(-1, 20)))]
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
    if code == 2 and not stderr.startswith("usage: "):
        assert stderr.splitlines()[-1].startswith("error: "), (argv, stderr)
