import argparse
import hashlib
import json
import subprocess
import sys
import time

import pytest

from emptytet.cli import build_parser, main
from emptytet.geometry import bruteforce_verdicts, standard_tetrahedron
from emptytet.verify import VerificationReport, _suites

T115 = ["0", "0", "0", "1", "0", "0", "0", "1", "0", "1", "1", "5"]
DOUBLED_UNIT = ["0", "0", "0", "2", "0", "0", "0", "2", "0", "0", "0", "2"]
UNIT = ["0", "0", "0", "1", "0", "0", "0", "1", "0", "0", "0", "1"]


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


# Exact bytes of one payload per command, and of classify's null and empty
# fields: key order included, with schema_version and command always first.
JSON_PAYLOADS = {
    "enumerate": (
        ["enumerate", "2"],
        '{"schema_version": 1, "command": "enumerate", "c": 2, "count": 1, '
        '"forms": [{"a": 1, "b": 1, "d": 1, "clause": "a=1"}]}',
    ),
    "points": (
        ["points", "1", "1", "5"],
        '{"schema_version": 1, "command": "points", "a": 1, "b": 1, "c": 5, "count": 4, '
        '"points": [[1, 1, 1], [1, 1, 2], [1, 1, 3], [1, 1, 4]]}',
    ),
    "classify": (
        ["classify", *T115],
        '{"schema_version": 1, "command": "classify", '
        '"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 5]], "volume6": 5, '
        '"clean": true, "empty": true, "canonical_form": {"a": 1, "b": 1, "c": 5, "d": 4}, '
        '"map": {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "translation": [0, 0, 0]}, '
        '"plane": "x=1", "interior_points": [[1, 1, 1], [1, 1, 2], [1, 1, 3], [1, 1, 4]], '
        '"oracle": null}',
    ),
    "verify": (
        ["verify", "--suite", "fn", "--max-c", "3"],
        '{"schema_version": 1, "command": "verify", "ok": true, "reports": [{"suite": "fn", '
        '"params": {"c_max": 3}, "ok": true, "cases": 7, "checks": '
        '{"unit_slope_empty_support": {"passed": 2, "failed": 0}, '
        '"complement_identity": {"passed": 3, "failed": 0}, '
        '"support_closed_form": {"passed": 1, "failed": 0}, '
        '"support_size": {"passed": 1, "failed": 0}}, "counterexamples": []}]}',
    ),
    "classify-not-normalizable-oracle": (
        ["classify", *DOUBLED_UNIT, "--oracle"],
        '{"schema_version": 1, "command": "classify", '
        '"vertices": [[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2]], "volume6": 8, '
        '"clean": false, "empty": false, "canonical_form": null, "map": null, '
        '"plane": null, "interior_points": null, '
        '"oracle": {"empty": false, "clean": false, "agrees": true}}',
    ),
    "classify-unit": (
        ["classify", *UNIT],
        '{"schema_version": 1, "command": "classify", '
        '"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], "volume6": 1, '
        '"clean": true, "empty": true, "canonical_form": {"a": 0, "b": 0, "c": 1, "d": 0}, '
        '"map": {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "translation": [0, 0, 0]}, '
        '"plane": "c=1", "interior_points": [], "oracle": null}',
    ),
}


@pytest.mark.parametrize("argv, expected", JSON_PAYLOADS.values(), ids=JSON_PAYLOADS)
def test_json_payload_bytes(run, argv, expected):
    code, out, _ = run(*argv, "--json")
    assert code == 0
    assert out == expected + "\n"


def test_classify_not_normalizable(run):
    code, out, _ = run("classify", *DOUBLED_UNIT)
    assert code == 0
    lines = out.splitlines()
    assert "clean: no" in lines
    assert "empty: no" in lines
    assert "canonical form: none (not normalizable)" in lines


def test_classify_unit_has_no_interior_points(run):
    code, out, _ = run("classify", *UNIT)
    assert code == 0
    assert out.splitlines()[-2:] == ["plane: c=1", "interior points (canonical coordinates): none"]


def test_classify_oracle_agreement(run):
    code, out, err = run("classify", "0", "0", "0", "1", "0", "0", "0", "1", "0", "2", "3", "7", "--oracle")
    assert code == 0
    assert err == ""
    assert "oracle: empty=no clean=yes agreement=yes" in out.splitlines()


def test_classify_oracle_disagreement(run, monkeypatch):
    monkeypatch.setattr("emptytet.cli.bruteforce_verdicts", lambda t: (False, False))
    code, out, err = run("classify", *T115, "--oracle", "--json")
    assert code == 1
    assert json.loads(out)["oracle"] == {"empty": False, "clean": False, "agrees": False}
    assert "oracle disagreement" in err


def test_classify_oracle_refuses_huge_box(run):
    # the bounding box holds about 10^12 lattice points
    start = time.perf_counter()
    code, out, err = run("classify", "0", "0", "0", "1", "0", "0", "0", "1", "0", "1000", "1000", "1000001", "--oracle")
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "budget of 20000000 lattice points" in err


def test_classify_oracle_refuses_a_long_box_in_seconds(run):
    # 278k x-rows of 72 points, all scanned before the refusal: with a
    # 1000-digit coordinate, each shadow y-bound divided by its content and
    # only where it narrows the box, in about 1.1 s; dividing every bound
    # on every row, content and all, took 14 s.
    start = time.perf_counter()
    code, out, err = run("classify", "--oracle", "-6", "0", "5", "5", "4", "6", "-" + "7" * 1000, "-4", "-1", "-3", "-1", "1")
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (2, "")
    assert err == (
        "error: oracle scan exceeds its budget of 20000000 lattice points (bounding box of "
        "560000000000... (1002 digits) points)\n"
    )
    assert len(err.encode()) < 300


def test_classify_oracle_names_a_box_past_the_int_string_limit(run):
    # A box of 10^4500 points, too long for str(): the refusal names it by
    # its first 12 digits and its digit count, before any x-row is scanned.
    m = "9" * 1500
    code, out, err = run("classify", "--oracle", "0", "0", "0", m, "0", "0", "0", m, "0", "0", "0", m)
    assert (code, out) == (2, "")
    assert err == (
        "error: oracle scan exceeds its budget of 20000000 lattice points (bounding box of "
        "100000000000... (4501 digits) points)\n"
    )
    assert len(err.encode()) < 300


def test_classify_from_file(run, tmp_path):
    path = tmp_path / "tet.txt"
    path.write_text("0 0 0\n1 0 0\n0 1 0\n1 1 5\n", encoding="utf-8")
    code, out, _ = run("classify", "--file", str(path))
    assert code == 0
    assert "canonical form: a=1 b=1 c=5 d=4" in out.splitlines()


def test_file_with_a_byte_order_mark(run, tmp_path):
    # a UTF-8 file that starts with a byte-order mark reads like one without
    path = tmp_path / "tet.txt"
    path.write_text("\ufeff0 0 0\r\n1 0 0\r\n0 1 0\r\n1 1 5\r\n", encoding="utf-8")
    for command in ("classify", "normalize"):
        assert run(command, "--file", str(path)) == run(command, *T115)


def test_classify_file_and_inline_conflict(run, tmp_path):
    path = tmp_path / "tet.txt"
    path.write_text("0 0 0 1 0 0 0 1 0 1 1 5", encoding="utf-8")
    code, _, err = run("classify", *T115, "--file", str(path))
    assert code == 2
    assert "not both" in err


def refusal(token):
    """The line _int ends every refused integer token with."""
    limit = sys.get_int_max_str_digits()
    return f"not an integer of at most {limit} digits: {token[:12]!r} ({len(token)} characters)\n"


def test_classify_file_not_integers(run, tmp_path):
    # the first token int() refuses is named by its first 12 characters and
    # its length, however long it is
    path = tmp_path / "tet.txt"
    for bad in ("one", "x" * 5000):
        path.write_text(f"0 0 0 {bad} 0 0 0 1 0 1 1 5", encoding="utf-8")
        for command in ("classify", "normalize"):
            code, out, err = run(command, "--file", str(path))
            assert code == 2
            assert out == ""
            assert err == f"error: --file {path}: " + refusal(bad)


def test_file_not_utf8(run, tmp_path):
    # the decoding error names the option and the path, as every other
    # --file refusal does
    path = tmp_path / "tet.txt"
    path.write_bytes(b"\xff\xfe1 2")
    for command in ("classify", "normalize"):
        code, out, err = run(command, "--file", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: --file {path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"


def test_file_that_cannot_be_opened(run, tmp_path):
    # the reason names the option and the path once, as every other --file
    # refusal does
    missing = tmp_path / "missing.txt"
    for path, reason in ((missing, "No such file or directory"), (tmp_path, "Is a directory")):
        for command in ("classify", "normalize"):
            code, out, err = run(command, "--file", str(path))
            assert code == 2
            assert out == ""
            assert err == f"error: --file {path}: {reason}\n"


def test_file_read_is_bounded(run, tmp_path):
    # a file padded to exactly the bound is read whole; one character more
    # is refused, by classify and normalize alike, and never truncated
    from emptytet.cli import _MAX_FILE_CHARS

    text = " ".join(T115)
    path = tmp_path / "tet.txt"
    path.write_text(text + " " * (_MAX_FILE_CHARS - len(text)), encoding="utf-8")
    code, out, _ = run("classify", "--file", str(path))
    assert code == 0
    assert "canonical form: a=1 b=1 c=5 d=4" in out.splitlines()
    path.write_text(text + " " * (_MAX_FILE_CHARS + 1 - len(text)), encoding="utf-8")
    for command in ("classify", "normalize"):
        code, out, err = run(command, "--file", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: --file {path} exceeds its bound of 65536 characters\n"


def test_file_integer_past_the_int_string_limit(run, tmp_path):
    # the refusal names the limit and the token's length, not its digits
    digits = "7" * (sys.get_int_max_str_digits() + 700)
    path = tmp_path / "tet.txt"
    path.write_text(" ".join(T115[:11] + [digits]), encoding="utf-8")
    for command in ("classify", "normalize"):
        code, out, err = run(command, "--file", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: --file {path}: " + refusal(digits)


@pytest.mark.parametrize(
    "argv",
    [["enumerate"], ["points", "1", "1"], ["classify", *T115[:11]], ["verify", "--max-c"]],
    ids=["enumerate-c", "points-c", "classify-coordinate", "verify-max-c"],
)
def test_integer_argument_past_the_int_string_limit(run, argv):
    # one line names the limit; the token is not echoed back, whether
    # int() would read it under a higher limit or not at all
    digits = "7" * (sys.get_int_max_str_digits() + 700)
    for token in (digits, " " + digits, digits + " ", "\t" + digits, "7" * 5000 + "x", "x" * 5000):
        code, out, err = run(*argv, token)
        assert code == 2
        assert out == ""
        assert len(err.encode()) < 300, repr(token[:2])
        assert err.endswith(refusal(token)), repr(token[:2])


def test_integer_argument_not_an_integer(run):
    code, out, err = run("classify", *T115[:11], "1.5")
    assert code == 2
    assert out == ""
    assert err == (
        "usage: emptytet classify [-h] [--file FILE] [--json] [--oracle] [N ...]\n"
        "emptytet classify: error: argument N: " + refusal("1.5")
    )


def test_classify_wrong_coordinate_count(run):
    code, _, err = run("classify", *T115[:11])
    assert code == 2
    assert "expected 12 integers" in err


def test_classify_degenerate(run):
    code, _, err = run("classify", "0", "0", "0", "1", "0", "0", "0", "1", "0", "1", "1", "0")
    assert code == 2
    assert "error:" in err


def test_classify_json_integer_bound(run):
    huge = str(2**53)
    coords = ["0", "0", "0", "1", "0", "0", "0", "1", "0", huge, "1", "1"]
    code, _, err = run("classify", *coords, "--json")
    assert code == 2
    assert "2^53" in err
    # text output has no 2^53 bound
    code, out, _ = run("classify", *coords)
    assert code == 0
    assert "volume6: 1" in out.splitlines()


def test_classify_json_names_the_first_integer_past_the_bound(run):
    # Two coordinates of the last vertex pass the bound, and so does
    # volume6 = z; the error names the first of them in payload order.
    x, z = -(2**53) - 7, 2**53 + 1
    code, out, err = run("classify", "0", "0", "0", "1", "0", "0", "0", "1", "0", str(x), "1", str(z), "--json")
    assert (code, out) == (2, "")
    assert err == "error: integer -9007199254740999 does not fit the 2^53 JSON bound\n"


# An integer that int() accepts but a range check or the JSON bound
# refuses: each refusal shows it as its first 12 digits and its length.
SEVENS = "7" * 4000
SHOWN = "777777777777... (4000 digits)"
LONG_INTEGER_REFUSALS = {
    "enumerate-c": (["enumerate", SEVENS], f"enumeration exceeds its budget of c <= 100000, got c = {SHOWN}"),
    "enumerate-negative-c": (["enumerate", "-" + SEVENS], f"c must be >= 1, got -{SHOWN}"),
    "points-c": (
        ["points", "1", "1", SEVENS],
        f"interior-point listing exceeds its budget of c <= 100000, got c = {SHOWN}",
    ),
    "points-a": (["points", SEVENS, "1", "5"], f"need 0 <= a, b < c, got a={SHOWN}, b=1, c=5"),
    "verify-max-c": (
        ["verify", "--max-c", SEVENS],
        f"the white suite exceeds its budget of c_max <= 35, got c_max = {SHOWN}",
    ),
    "verify-trials": (
        ["verify", "--suite", "normalize", "--trials", SEVENS],
        f"the normalize suite exceeds its budget of trials <= 7000, got trials = {SHOWN}",
    ),
    "verify-json-seed": (
        ["verify", "--suite", "normalize", "--json", "--seed", SEVENS],
        f"integer {SHOWN} does not fit the 2^53 JSON bound",
    ),
    "classify": (
        ["classify", *T115[:11], SEVENS],
        f"interior-point listing exceeds its budget of c <= 100000, got c = {SHOWN}",
    ),
    "classify-json": (
        ["classify", *T115[:11], SEVENS, "--json"],
        f"interior-point listing exceeds its budget of c <= 100000, got c = {SHOWN}",
    ),
    # twelve shortened coordinates would still pass 300 bytes, so the
    # vertices are named by their most digits alone
    "classify-degenerate": (
        ["classify", *[SEVENS] * 12],
        "degenerate tetrahedron (coplanar vertices): <vertices of up to 4000 digits>",
    ),
}


@pytest.mark.parametrize("argv, line", LONG_INTEGER_REFUSALS.values(), ids=LONG_INTEGER_REFUSALS)
def test_refusal_bounds_an_accepted_integer(run, argv, line):
    code, out, err = run(*argv)
    assert (code, out) == (2, "")
    assert err == f"error: {line}\n"
    assert len(err.encode()) < 300


def test_classify_text_report_is_written_whole_or_not_at_all(run):
    # volume6 of this tetrahedron has about three times as many digits as
    # its coordinates: at 1400 digits the whole report prints, and at 1450
    # volume6 passes the 4300-digit int-string limit, so none of it does.
    def argv(digits):
        a, b = "7" * digits, "3" * digits
        return ["classify", "0", "0", "0", a, "1", "0", "0", b, "1", "5", "7", a]

    code, out, err = run(*argv(1400))
    assert (code, err) == (0, "")
    assert len(out) == 26779
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "be94bc52579df026e22894ae504784a62fdac4ff2806461e647e430fbd27ee1b"
    )
    code, out, err = run(*argv(1450))
    assert (code, out) == (2, "")
    assert err == (
        f"error: the text report holds an integer of more than {sys.get_int_max_str_digits()} digits, "
        "Python's int-string limit\n"
    )


def test_normalize_not_normalizable(run):
    code, _, err = run("normalize", *DOUBLED_UNIT)
    assert code == 2
    assert "not normalizable" in err


def test_normalize_check_failure_exits_one(run, monkeypatch):
    # A witness map off by a translation: --check refuses it with exit 1
    # and nothing on stdout; without --check its JSON is printed as is.
    from emptytet.intlin import AffineUnimodularMap
    from emptytet.normalize import NormalizationResult
    from emptytet.white import CanonicalForm

    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    planted = NormalizationResult(AffineUnimodularMap(identity, (1, 0, 0)), CanonicalForm(1, 1, 5))
    monkeypatch.setattr("emptytet.cli.canonicalize", lambda t: planted)
    code, out, err = run("normalize", *T115, "--check")
    assert (code, out) == (1, "")
    assert err == "check failed: map sends vertices to [(1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 5)]\n"
    code, out, err = run("normalize", *T115)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["map"] == {"matrix": [list(row) for row in identity], "translation": [1, 0, 0]}
    assert payload["image"] == [[1, 0, 0], [2, 0, 0], [1, 1, 0], [2, 1, 5]]


def test_enumerate_csv(run):
    code, out, _ = run("enumerate", "3", "--csv")
    assert code == 0
    assert out.splitlines() == ["a,b,d,clause", "1,1,2,a=1", "1,2,1,a=1", "2,1,1,b=1"]


def test_enumerate_unit_volume(run):
    code, out, _ = run("enumerate", "1")
    assert code == 0
    assert out.splitlines() == ["a b d clause", "0 0 0 c=1"]


def test_enumerate_is_linear_in_c(run):
    # a prime c > 2 has 3(c - 1) - 3 empty forms; listing them must not test all c^2
    start = time.perf_counter()
    code, out, _ = run("enumerate", "1009")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert len(out.splitlines()) == 1 + 3 * 1008 - 3


def test_enumerate_refuses_c_past_the_budget(run):
    # about 3 * 10^20 forms: refused before any is built
    start = time.perf_counter()
    code, out, err = run("enumerate", "99999999999999999999")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "budget of c <= 100000" in err


def test_enumerate_rejects_nonpositive(run):
    code, _, err = run("enumerate", "0")
    assert code == 2
    assert "error:" in err


def test_points_text(run):
    code, out, _ = run("points", "1", "1", "2")
    assert code == 0
    assert out == "1 1 1\n"


def test_points_rejects_common_factor(run):
    code, _, err = run("points", "2", "2", "4")
    assert code == 2
    assert "error:" in err


def test_points_refuses_c_past_the_budget(run):
    # 10^11 - 1 points: refused before any is built
    start = time.perf_counter()
    code, out, err = run("points", "1", "1", "100000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == "error: interior-point listing exceeds its budget of c <= 100000, got c = 100000000000\n"


def test_classify_refuses_interior_listing_past_the_budget(run):
    # T(1, 1, 10^11) is empty, so classify would list its 10^11 - 1 points
    start = time.perf_counter()
    code, out, err = run("classify", "0", "0", "0", "1", "0", "0", "0", "1", "0", "1", "1", "100000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "budget of c <= 100000" in err


def test_oracle_decides_an_empty_input_past_the_listing_budget():
    # T(1, 5, 1000003) is empty, so classify refuses it as the test above
    # refuses T(1, 1, 10^11), while its own oracle decides it at once: the
    # 12M-point box is within the scan budget and has 12 (x, y) rows, whose
    # z-intervals hold the four vertices only.
    start = time.perf_counter()
    assert bruteforce_verdicts(standard_tetrahedron(1, 5, 1000003)) == (True, True)
    assert time.perf_counter() - start < 1.0


def test_verify_json_byte_stable(run):
    first = run("verify", "--suite", "fn", "--max-c", "12", "--json")
    second = run("verify", "--suite", "fn", "--max-c", "12", "--json")
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    payload = json.loads(first[1])
    assert payload["ok"] is True
    assert [r["suite"] for r in payload["reports"]] == ["fn"]


def test_verify_runs_suites_in_fixed_order(run):
    code, _, err = run(
        "verify", "--suite", "normalize", "--suite", "white",
        "--max-c", "4", "--trials", "10",
    )
    assert code == 0
    names = [line.split()[2].rstrip(":") for line in err.splitlines()]
    assert names == ["white", "normalize"]


def test_verify_counterexample_exits_one(run, monkeypatch):
    def planted_failure(c_max=25):
        report = VerificationReport("white", {"c_max": c_max})
        report.record("empty_criterion_vs_oracle", False, lambda: "planted")
        return report

    monkeypatch.setattr("emptytet.verify.verify_white", planted_failure)
    code, out, _ = run("verify", "--suite", "white")
    assert code == 1
    assert "overall: FAIL" in out.splitlines()
    assert "  counterexample: empty_criterion_vs_oracle: planted" in out.splitlines()


def test_verify_rejects_normalize_options_without_that_suite(run):
    code, out, err = run("verify", "--suite", "white", "--max-c", "2", "--trials", "5")
    assert code == 2
    assert out == ""
    assert err == "error: --trials would be ignored: the normalize suite is not selected\n"
    code, out, err = run("verify", "--suite", "fn", "--seed", "1", "--trials", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --trials and --seed would be ignored")


def test_verify_suite_choices_come_from_the_suite_table():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (suite,) = [a for a in commands.choices["verify"]._actions if a.dest == "suite"]
    assert suite.metavar == "{" + ",".join(_suites()) + "}"


def test_verify_rejects_unknown_suite(run):
    # one line with at most 12 characters of the token and its length,
    # however long the token is, and before any suite runs
    for token in ("bogus", "7" * 5000):
        code, out, err = run("verify", "--suite", "white", "--suite", token)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: --suite takes one of white, coplanar, fn, normalize, not {token[:12]!r} ({len(token)} characters)\n"
        )


def test_verify_rejects_bad_max_c(run):
    code, out, err = run("verify", "--suite", "white", "--max-c", "0")
    assert code == 2
    assert out == ""
    assert err == "error: the white suite needs c_max >= 1, got c_max = 0\n"


@pytest.mark.parametrize("suites", [[], ["white", "fn"]])
def test_verify_refuses_max_c_below_a_suite_range_before_any_suite_runs(run, suites):
    # white and coplanar accept c_max = 2; the refusal still comes first,
    # with no "# suite" timing line on stderr.
    argv = ["verify", "--max-c", "2"]
    for suite in suites:
        argv += ["--suite", suite]
    code, out, err = run(*argv)
    assert code == 2
    assert out == ""
    assert err == "error: the fn suite needs c_max >= 3, got c_max = 2\n"


@pytest.mark.parametrize(
    "suites, budget",
    [
        (["white"], "the white suite exceeds its budget of c_max <= 35"),
        (["coplanar"], "the coplanar suite exceeds its budget of c_max <= 48"),
        (["fn"], "the fn suite exceeds its budget of c_max <= 200"),
        (["normalize"], "the normalize suite exceeds its budget of c_max <= 1000"),
        # every selected suite's budget is checked before any suite runs
        (["normalize", "coplanar"], "the coplanar suite exceeds its budget of c_max <= 48"),
        ([], "the white suite exceeds its budget of c_max <= 35"),
    ],
)
def test_verify_refuses_max_c_past_a_suite_budget(run, suites, budget):
    caps = {"white": 35, "coplanar": 48, "fn": 200, "normalize": 1000}
    for max_c in (min(caps[s] for s in suites or caps) + 1, 10**20):
        argv = ["verify", "--max-c", str(max_c)]
        for suite in suites:
            argv += ["--suite", suite]
        start = time.perf_counter()
        code, out, err = run(*argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == f"error: {budget}, got c_max = {max_c}\n"


def test_verify_refuses_trials_past_the_budget(run):
    # With every suite selected, the refusal comes before white, coplanar
    # and fn run: no "# suite" timing line reaches stderr.
    for suite_args in (["--suite", "normalize", "--max-c", "2"], []):
        for trials in (7001, 10**12):
            start = time.perf_counter()
            code, out, err = run("verify", *suite_args, "--trials", str(trials))
            assert time.perf_counter() - start < 1.0
            assert code == 2
            assert out == ""
            assert err == f"error: the normalize suite exceeds its budget of trials <= 7000, got trials = {trials}\n"


def test_verify_json_refuses_seed_past_the_bound_before_any_suite_runs(run):
    # no "# suite" timing line: the refusal comes first, as for --max-c
    for seed in (2**53, -(2**53)):
        code, out, err = run("verify", "--json", "--seed", str(seed))
        assert code == 2
        assert out == ""
        assert err == f"error: integer {seed} does not fit the 2^53 JSON bound\n"
    code, out, _ = run("verify", "--json", "--suite", "normalize", "--trials", "5", "--seed", str(2**53 - 1))
    assert code == 0
    assert json.loads(out)["reports"][0]["params"]["seed"] == 2**53 - 1
    # text output has no 2^53 bound
    code, out, _ = run("verify", "--suite", "normalize", "--trials", "5", "--seed", str(2**53))
    assert code == 0
    assert out.startswith(f"suite normalize (trials=5 seed={2**53} c_max=10)")


def test_help_exits_zero(run):
    code, out, _ = run("--help")
    assert code == 0
    assert "classify" in out


def test_no_command_is_usage_error(run):
    code, _, err = run()
    assert code == 2
    assert "usage" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "emptytet", "points", "1", "1", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 1 1\n"


def test_closed_pipe_exits_141_silently():
    # a reader that stops early, like `emptytet enumerate 99991 | head -1`
    with subprocess.Popen(
        [sys.executable, "-m", "emptytet", "enumerate", "99991"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"a b d clause\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
