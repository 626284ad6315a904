"""Command-line interface.

Subcommands: classify, normalize, enumerate, points, verify.  All output
is UTF-8 with LF line endings and is byte-stable for fixed inputs and
flags; wall-clock timings therefore go to stderr as `#` comment lines.

Exit codes: 0 success, 1 a verification counterexample or an oracle
disagreement was found, or a failed `normalize --check`, 2 usage or input
error, 141 (128 + SIGPIPE) the reader closed standard output early, e.g.
`emptytet enumerate 99991 | head`.
"""

import argparse
import os
import sys

from .geometry import (
    Tetrahedron,
    bruteforce_verdicts,
    parallelepiped_interior_points,
    volume6,
)
from .normalize import NotNormalizableError, canonicalize
from .verify import _check_c_max, _check_trials, _suites
from .white import empty_forms, is_clean_form, satisfied_clause, white_empty

SCHEMA_VERSION = 1

_JSON_INT_BOUND = 2**53

# Most characters a --file may hold: 12 integers of at most 4300 digits,
# Python's default int-string limit, fit in about 52 KB.
_MAX_FILE_CHARS = 65_536


def _int(token: str) -> int:
    """The type of every integer argument, inline or in a --file.

    int() alone decides.  A refusal shows at most 12 characters of the
    token and its length, so that with verify's usage line, the longest,
    stderr stays under 300 bytes however long the token is.
    """
    try:
        return int(token)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise argparse.ArgumentTypeError(
            f"not an integer of at most {limit} digits: {token[:12]!r} ({len(token)} characters)"
        ) from None


def _check_json_ints(obj) -> None:
    """Reject integers JSON consumers cannot hold exactly (|v| >= 2^53).

    Walks the dicts, lists and tuples in obj, itself one of them, depth
    first and tests their int and str leaves, nearly every leaf of a
    payload, in the loop rather than by a call each.  A bool is skipped:
    JSON writes it as true or false.
    """
    for value in obj.values() if isinstance(obj, dict) else obj:
        kind = type(value)
        if kind is str or kind is bool:
            continue
        if kind is int or isinstance(value, int):
            if abs(value) >= _JSON_INT_BOUND:
                raise ValueError(f"integer {value} does not fit the 2^53 JSON bound")
        elif isinstance(value, (dict, list, tuple)):
            _check_json_ints(value)


def _print_json(args, **fields) -> None:
    """Print one JSON line: schema_version, then the subcommand, then fields."""
    payload = {"schema_version": SCHEMA_VERSION, "command": args.command, **fields}
    _check_json_ints(payload)
    import json  # only JSON output pays for loading it

    print(json.dumps(payload, separators=(", ", ": ")))


def _print_table(args, header, rows, text_header=True) -> None:
    """Print rows comma-separated under --csv, else space-separated.

    Every field is an int or a clause tag of satisfied_clause ("a=1",
    "b=1", "c=1", "d=1"), so no CSV field ever needs quoting.
    """
    sep = "," if args.csv else " "
    if args.csv or text_header:
        print(sep.join(header))
    for row in rows:
        print(sep.join(map(str, row)))


def _form_payload(form) -> dict:
    return {"a": form.a, "b": form.b, "c": form.c, "d": form.d}


# Which plane of the canonical coordinates carries the interior points,
# by the unit-parameter clause that makes the form empty.
_CLAUSE_PLANE = {"a=1": "x=1", "b=1": "y=1", "d=1": "x+y-z=1", "c=1": "c=1"}


def _read_tetrahedron(args) -> Tetrahedron:
    if args.file is not None:
        if args.coords:
            raise ValueError("give coordinates either inline or via --file, not both")
        with open(args.file, encoding="utf-8-sig") as fh:
            text = fh.read(_MAX_FILE_CHARS + 1)
        if len(text) > _MAX_FILE_CHARS:
            raise ValueError(f"--file {args.file} exceeds its bound of {_MAX_FILE_CHARS} characters")
        try:
            values = [_int(tok) for tok in text.split()]
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"--file {args.file}: {exc}") from None
    else:
        values = args.coords
    if len(values) != 12:
        raise ValueError(f"expected 12 integers (x y z for 4 vertices), got {len(values)}")
    v0, v1, v2, v3 = (tuple(values[i : i + 3]) for i in range(0, 12, 3))
    return Tetrahedron(v0, v1, v2, v3)


def _cmd_classify(args) -> int:
    t = _read_tetrahedron(args)
    try:
        result = canonicalize(t)
    except NotNormalizableError:
        result = None
    form = result.form if result is not None else None
    clean = form is not None and is_clean_form(form)
    empty = form is not None and white_empty(form)
    interior = plane = None
    if empty:
        interior = parallelepiped_interior_points(form.a, form.b, form.c)
        plane = _CLAUSE_PLANE[satisfied_clause(form)]
    oracle = None
    if args.oracle:
        oracle_empty, oracle_clean = bruteforce_verdicts(t)
        oracle = {
            "empty": oracle_empty,
            "clean": oracle_clean,
            "agrees": oracle_empty == empty and oracle_clean == clean,
        }
    if args.json:
        _print_json(
            args,
            vertices=t.vertices(),
            volume6=volume6(t),
            clean=clean,
            empty=empty,
            canonical_form=_form_payload(form) if form is not None else None,
            map=result.map._asdict() if result is not None else None,
            plane=plane,
            interior_points=interior,
            oracle=oracle,
        )
    else:
        # Vectors are plain int tuples, so print writes each as (x, y, z).
        print("vertices:", *t.vertices())
        print("volume6:", volume6(t))
        print("clean:", "yes" if clean else "no")
        print("empty:", "yes" if empty else "no")
        if form is not None:
            print(f"canonical form: a={form.a} b={form.b} c={form.c} d={form.d}")
            print("map matrix rows:", *result.map.matrix)
            print("map translation:", result.map.translation)
        else:
            print("canonical form: none (not normalizable)")
        if empty:
            print("plane:", plane)
            print("interior points (canonical coordinates):", *(interior or ["none"]))
        if oracle is not None:
            print(
                "oracle: empty={} clean={} agreement={}".format(
                    *("yes" if v else "no" for v in (oracle["empty"], oracle["clean"], oracle["agrees"]))
                )
            )
    if oracle is not None and not oracle["agrees"]:
        print(
            "oracle disagreement: fast criteria say empty={} clean={}, oracle says empty={} clean={}".format(
                empty, clean, oracle["empty"], oracle["clean"]
            ),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_normalize(args) -> int:
    t = _read_tetrahedron(args)
    result = canonicalize(t)
    form = result.form
    image = [result.map(p) for p in t.vertices()]
    expected = {(0, 0, 0), (1, 0, 0), (0, 1, 0), (form.a, form.b, form.c)}
    if args.check and set(image) != expected:
        print(f"check failed: map sends vertices to {sorted(image)}", file=sys.stderr)
        return 1
    _print_json(
        args,
        vertices=t.vertices(),
        form=_form_payload(form),
        map=result.map._asdict(),
        image=image,
        **({"check": "ok"} if args.check else {}),
    )
    return 0


def _cmd_enumerate(args) -> int:
    header = ("a", "b", "d", "clause")
    rows = [(f.a, f.b, f.d, satisfied_clause(f)) for f in empty_forms(args.c)]
    if args.json:
        forms = [dict(zip(header, row)) for row in rows]
        _print_json(args, c=args.c, count=len(rows), forms=forms)
    else:
        _print_table(args, header, rows)
    return 0


def _cmd_points(args) -> int:
    points = parallelepiped_interior_points(args.a, args.b, args.c)
    if args.json:
        _print_json(args, a=args.a, b=args.b, c=args.c, count=len(points), points=points)
    else:
        _print_table(args, ("x", "y", "z"), points, text_header=False)
    return 0


def _cmd_verify(args) -> int:
    suites = {name: run for name, (run, _, _) in _suites().items() if not args.suite or name in args.suite}
    # Only the normalize suite takes --trials and --seed.
    given = {"trials": args.trials, "seed": args.seed}
    extra = {key: value for key, value in given.items() if value is not None}
    if extra and "normalize" not in suites:
        what = " and ".join(f"--{key}" for key in extra)
        raise ValueError(f"{what} would be ignored: the normalize suite is not selected")
    if args.trials is not None:
        _check_trials(args.trials)
    if args.json:
        _check_json_ints(extra)
    c_max = {} if args.max_c is None else {"c_max": args.max_c}
    if args.max_c is not None:
        for name in suites:
            _check_c_max(name, args.max_c)
    reports = []
    for name, run in suites.items():
        report = run(**c_max, **(extra if name == "normalize" else {}))
        reports.append(report)
        print(f"# suite {name}: {report.duration_seconds:.2f}s", file=sys.stderr)
    ok = all(report.ok for report in reports)
    if args.json:
        _print_json(args, ok=ok, reports=[report.to_dict() for report in reports])
    else:
        for report in reports:
            params = " ".join(f"{k}={v}" for k, v in report.params.items())
            print(
                f"suite {report.suite} ({params}): {report.cases} cases,",
                "ok" if report.ok else "FAIL",
            )
            for check, tally in report.tallies.items():
                print(f"  {check}: {tally.passed} passed, {tally.failed} failed")
            for line in report.counterexamples:
                print(f"  counterexample: {line}")
        print("overall:", "ok" if ok else "FAIL")
    return 0 if ok else 1


def _add_vertex_arguments(sub) -> None:
    sub.add_argument(
        "coords",
        nargs="*",
        type=_int,
        metavar="N",
        help="12 integers: x y z for each of the four vertices",
    )
    sub.add_argument("--file", help="read the 12 integers from a file (one vertex per line)")


def _add_format_arguments(sub) -> None:
    fmt = sub.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit JSON")
    fmt.add_argument("--csv", action="store_true", help="emit CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emptytet",
        description="Classify, normalize and verify empty/clean lattice tetrahedra in Z^3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "classify",
        help="decide emptiness and cleanliness of a tetrahedron",
        description="Decide whether the tetrahedron is empty and/or clean; "
        "reports the canonical form, witnessing map, and (for empty inputs) "
        "the coplanar interior points of the spanned parallelepiped in "
        "canonical coordinates.",
    )
    _add_vertex_arguments(p)
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the brute-force lattice scan; exit 1 on disagreement",
    )
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "normalize",
        help="reduce a tetrahedron to standard form T(a, b, c)",
        description="Emit the canonical form and the witnessing affine "
        "unimodular map as JSON.",
    )
    _add_vertex_arguments(p)
    p.add_argument(
        "--check",
        action="store_true",
        help="re-apply the map and verify the image is the standard form",
    )
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser(
        "enumerate",
        help="list all empty forms T(a, b, c) for a given c",
        description="List every (a, b) with T(a, b, c) empty, with the "
        "fourth parameter d and the unit-parameter clause that applies.",
    )
    p.add_argument("c", type=_int, help="the third parameter (six times the volume)")
    _add_format_arguments(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "points",
        help="interior lattice points of the parallelepiped of T(a, b, c)",
        description="Print the c - 1 interior lattice points of the "
        "parallelepiped spanned by e1, e2 and (a, b, c); requires "
        "gcd(a, c) = gcd(b, c) = 1.",
    )
    p.add_argument("a", type=_int)
    p.add_argument("b", type=_int)
    p.add_argument("c", type=_int)
    _add_format_arguments(p)
    p.set_defaults(func=_cmd_points)

    suites = list(_suites())
    p = sub.add_parser(
        "verify",
        help="run exhaustive verification suites",
        description=f"Run the verification suites ({', '.join(suites)}) and "
        "report tallies and counterexamples; exits 1 if any counterexample "
        "is found.",
    )
    p.add_argument(
        "--suite",
        action="append",
        choices=suites,
        help="suite to run (repeatable; default: all)",
    )
    p.add_argument("--max-c", type=_int, help="largest c to sweep")
    p.add_argument("--trials", type=_int, help="normalization round-trip count")
    p.add_argument("--seed", type=_int, help="seed for the normalization suite")
    p.add_argument("--json", action="store_true", help="emit JSON reports")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 for --help, 2 on a usage error
        return exc.code
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull so the flush at exit
        # cannot fail again, print nothing, and exit like a SIGPIPE kill.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
