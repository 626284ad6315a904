#!/usr/bin/env python3
"""Benchmark of the emptytet package: six workloads, end-to-end metrics
with tracing off, and per-layer metrics from a separate traced run.

Run from anywhere inside a checkout; the package is imported from its
src/ directory, never from an installed copy:

    python3 bench/run.py --workload classify_stream --seed 1 --seconds 15 --trace 0

One operation is in flight at a time (a closed loop with one client).
The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics; the line before it records the
environment and the workload's own named figures.  bench/README.md
explains the workloads, the metrics and how to compare two commits.
"""

import argparse
import functools
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import inputs
import spans
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "emptytet"
MODULES = ("intlin", "geometry", "white", "normalize", "verify", "cli")

# setup_s is the median of this many imports of the package, each in a
# fresh interpreter, so that every one pays for every module it loads.
SETUP_REPEATS = 7
STARTUP_REPEATS = 5


def bruteforce_box(args, result):
    return inputs.box_points(args[0].vertices())


def parallelepiped_box(args, result):
    a, b, c = args
    return (a + 2) * (b + 2) * max(c - 1, 0)


# (module, attribute, span name, counter or None), counter = (key, amount(args, result)).
TRACED_FUNCTIONS = (
    ("normalize", "canonicalize", "normalize.canonicalize", None),
    ("normalize", "normalize", "normalize.roles", None),
    ("intlin", "extend_to_basis", "intlin.extend_to_basis", None),
    ("intlin", "adjugate", "intlin.adjugate", None),
    ("geometry", "volume6", "geometry.volume6", None),
    ("geometry", "bruteforce_verdicts", "geometry.bruteforce_verdicts", ("box_points", bruteforce_box)),
    ("geometry", "parallelepiped_interior_bruteforce", "geometry.parallelepiped_interior_bruteforce",
     ("box_points", parallelepiped_box)),
    ("geometry", "parallelepiped_interior_points", "geometry.parallelepiped_interior_points",
     ("points", lambda args, result: len(result))),
    ("white", "white_empty", "white.white_empty", None),
    ("white", "is_clean_form", "white.is_clean_form", None),
    ("white", "satisfied_clause", "white.satisfied_clause", None),
    ("white", "floor_step", "white.floor_step", None),
    ("white", "floor_step_support", "white.floor_step_support", None),
    ("white", "clean_forms", "white.clean_forms", None),
    ("white", "empty_forms", "white.empty_forms", ("forms_tested", lambda args, result: args[0] ** 2)),
    ("verify", "verify_white", "verify.white", ("cases", lambda args, result: result.cases)),
    ("verify", "verify_coplanarity", "verify.coplanar", ("cases", lambda args, result: result.cases)),
    ("verify", "verify_floor_steps", "verify.fn", ("cases", lambda args, result: result.cases)),
    ("cli", "main", "cli.main", None),
)

# (module, class, attribute, span name)
TRACED_METHODS = (
    ("intlin", "AffineUnimodularMap", "__init__", "intlin.map_init"),
    ("intlin", "AffineUnimodularMap", "compose", "intlin.map_compose"),
    ("intlin", "AffineUnimodularMap", "apply", "intlin.map_apply"),
    ("geometry", "Tetrahedron", "__init__", "geometry.tetrahedron_init"),
)

SPAN_NAMES = [row[2] for row in TRACED_FUNCTIONS] + [row[3] for row in TRACED_METHODS]
CLI_COMMANDS = ("classify", "normalize", "points", "enumerate", "verify")


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Fresh import of the package from src/; returns its modules by name."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(f"{PACKAGE}.cli")
    return SimpleNamespace(**{m: sys.modules[f"{PACKAGE}.{m}"] for m in MODULES})


def package_env():
    """The environment for a child interpreter that imports emptytet from src/."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def python(*argv):
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=package_env(),
        capture_output=True, text=True, timeout=120,
    )


IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import emptytet.cli; "
    "print(time.perf_counter() - t)"
)


def fresh_import_s():
    """Seconds `import emptytet.cli` takes in a new interpreter."""
    proc = python("-c", IMPORT_TIMER)
    if proc.returncode != 0:
        fail(f"importing {PACKAGE} in a fresh interpreter failed: {proc.stderr[-2000:]}")
    return float(proc.stdout)


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def yes(flag):
    return "yes" if flag else "no"


def form_fields(key):
    """The a, b, c, d of the canonical form (c, a, b), as the CLI reports them."""
    c, a, b = key
    return {"a": a, "b": b, "c": c, "d": inputs.d_param(a, b, c)}


# --- workloads --------------------------------------------------------------


class Workload:
    """ops: one pass of seeded operations; run(op) performs one, check(op, out)
    decides whether its output is right.  aliases names the end-to-end
    metrics as the workload's own figures: alias -> (metric, factor)."""

    aliases = {}

    def run_traced(self, op):
        return self.run(op)

    def startup_ms(self):
        return 0.0, 0.0

    def command(self, op):
        """The CLI subcommand op runs, if any."""
        return None

    def peak_rss_mb(self):
        """Peak resident memory of the process that runs the operations."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class ClassifyStream(Workload):
    """Scrambled tetrahedra through the library calls `emptytet classify` makes."""

    aliases = {
        "classify_per_s": ("ops_per_s", 1),
        "classify_us_p50": ("op_ms_p50", 1e3),
        "classify_us_p90": ("op_ms_p90", 1e3),
    }

    def __init__(self, lib, rng, tiny):
        self.lib = lib
        self.ops = inputs.classify_cases(rng, 200 if tiny else 2000)

    def run(self, case):
        geometry, white = self.lib.geometry, self.lib.white
        t = geometry.Tetrahedron(*case.vertices)
        volume = geometry.volume6(t)
        try:
            result = self.lib.normalize.canonicalize(t)
        except self.lib.normalize.NotNormalizableError:
            return volume, None, False, False, None, None
        form = result.form
        clean = white.is_clean_form(form)
        empty = white.white_empty(form)
        interior = clause = None
        if empty:
            interior = geometry.parallelepiped_interior_points(form.a, form.b, form.c)
            clause = white.satisfied_clause(form)
        return volume, result, clean, empty, interior, clause

    def check(self, case, out):
        volume, result, clean, empty, interior, clause = out
        if volume != case.volume:
            return False
        if case.canonical is None:
            return result is None and not clean and not empty
        if result is None:
            return False
        form = result.form
        a, b, c = form.a, form.b, form.c
        if (c, a, b) != case.canonical:
            return False
        matrix, translation = result.map.matrix, result.map.translation
        image = {inputs.affine_apply(matrix, translation, p) for p in case.vertices}
        if abs(inputs.det3(matrix)) != 1 or image != {inputs.ZERO, inputs.E1, inputs.E2, (a, b, c)}:
            return False
        if clean != (case.cls in ("empty", "clean")) or empty != (case.cls == "empty"):
            return False
        if not empty:
            return interior is None
        return form_fields(case.canonical)[clause[0]] == 1 and inputs.interior_points_ok(interior, a, b, c)


# suite -> (function in emptytet.verify, pinned c_max, c_max for --tiny)
SUITES = {
    "white": ("verify_white", 15, 6),
    "coplanar": ("verify_coplanarity", 18, 8),
    "fn": ("verify_floor_steps", 80, 20),
}


class VerifySuite(Workload):
    """One exhaustive verify suite at its pinned c_max; the seed is unused."""

    def __init__(self, suite, lib, rng, tiny):
        self.lib = lib
        c_max = SUITES[suite][2 if tiny else 1]
        self.ops = [(suite, c_max, inputs.verify_case_count(suite, c_max))]
        self.aliases = {f"{suite}_suite_s": ("op_ms_p50", 1e-3)}

    def run(self, op):
        suite, c_max, _ = op
        return getattr(self.lib.verify, SUITES[suite][0])(c_max)

    def check(self, op, report):
        suite, _, cases = op
        return report.suite == suite and report.ok and report.cases == cases


class CliOneshot(Workload):
    """Sequential `python -m emptytet ...` processes over a seeded argv mix."""

    aliases = {"cli_ms_p50": ("op_ms_p50", 1), "cli_ms_p90": ("op_ms_p90", 1)}
    make_invocations = staticmethod(inputs.cli_invocations)

    def __init__(self, lib, rng, tiny):
        self.lib = lib
        self.ops = self.make_invocations(rng, tiny)

    def run(self, invocation):
        proc = python("-m", PACKAGE, *invocation.argv)
        return proc.returncode, proc.stdout

    def run_traced(self, invocation):
        """The same invocation through cli.main in this process."""
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = self.lib.cli.main(list(invocation.argv))
        return code, out.getvalue()

    def startup_ms(self):
        """Median wall time of a bare interpreter, and of importing the CLI in one."""
        bare, imports = [], []
        for _ in range(STARTUP_REPEATS):
            t0 = time.perf_counter()
            python("-c", "pass")
            bare.append(time.perf_counter() - t0)
            imports.append(fresh_import_s())
        return statistics.median(bare) * 1e3, statistics.median(imports) * 1e3

    def command(self, invocation):
        return invocation.argv[0]

    def check(self, invocation, out):
        code, stdout = out
        return code == 0 and CLI_CHECKS[invocation.kind](invocation, stdout.splitlines())

    def peak_rss_mb(self):
        """Peak resident memory of the largest emptytet process."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class CliOracle(CliOneshot):
    """`python -m emptytet classify --oracle` on scrambled small clean forms."""

    aliases = {"oracle_ms_p50": ("op_ms_p50", 1), "oracle_ms_p90": ("op_ms_p90", 1)}
    make_invocations = staticmethod(inputs.oracle_invocations)


def check_classify_text(invocation, lines):
    case = invocation.expect
    canonical = (
        "none (not normalizable)" if case.canonical is None
        else " ".join(f"{k}={v}" for k, v in form_fields(case.canonical).items())
    )
    expected = [
        f"volume6: {case.volume}",
        f"clean: {yes(case.cls in ('empty', 'clean'))}",
        f"empty: {yes(case.cls == 'empty')}",
        f"canonical form: {canonical}",
    ]
    if not (lines[0].startswith("vertices: ") and lines[1:5] == expected):
        return False
    if invocation.kind == "oracle":
        clean = case.cls in ("empty", "clean")
        return lines[-1] == f"oracle: empty={yes(case.cls == 'empty')} clean={yes(clean)} agreement=yes"
    return True


def check_classify_json(invocation, lines):
    case = invocation.expect
    payload = json.loads(lines[0])
    form = None if case.canonical is None else form_fields(case.canonical)
    return (
        payload["command"] == "classify"
        and payload["volume6"] == case.volume
        and payload["clean"] == (case.cls in ("empty", "clean"))
        and payload["empty"] == (case.cls == "empty")
        and payload["canonical_form"] == form
        and payload["oracle"] is None
    )


def check_normalize(invocation, lines):
    payload = json.loads(lines[0])
    return payload.get("check") == "ok" and payload["form"] == form_fields(invocation.expect.canonical)


def check_points(invocation, lines):
    points = [tuple(map(int, line.split())) for line in lines]
    return inputs.interior_points_ok(points, *invocation.expect)


def check_enumerate(invocation, lines):
    c = invocation.expect
    rows = lines[1:]
    if lines[0] != "a,b,d,clause" or len(set(rows)) != len(rows) or len(rows) != inputs.empty_form_count(c):
        return False
    for line in rows:
        a, b, d, clause = line.split(",")
        a, b, d = int(a), int(b), int(d)
        params = {"a": a, "b": b, "d": d}
        if d != inputs.d_param(a, b, c) or not inputs.is_clean(a, b, c) or params[clause[0]] != 1:
            return False
    return True


def check_verify_fn(invocation, lines):
    c_max = invocation.argv[-1]
    return lines[0] == f"suite fn (c_max={c_max}): {invocation.expect} cases, ok" and lines[-1] == "overall: ok"


CLI_CHECKS = {
    "classify": check_classify_text,
    "oracle": check_classify_text,
    "classify_json": check_classify_json,
    "normalize": check_normalize,
    "points": check_points,
    "enumerate": check_enumerate,
    "verify_fn": check_verify_fn,
}

WORKLOADS = {
    "classify_stream": ClassifyStream,
    "verify_white": functools.partial(VerifySuite, "white"),
    "verify_coplanar": functools.partial(VerifySuite, "coplanar"),
    "verify_fn": functools.partial(VerifySuite, "fn"),
    "cli_oneshot": CliOneshot,
    "cli_oracle": CliOracle,
}


# --- running ------------------------------------------------------------------


class Tally:
    """Checks every operation's output; an exception raised by the operation
    or by its check counts as a failure."""

    def __init__(self, check):
        self.check = check
        self.attempted = 0
        self.failed = 0

    def record(self, op, out):
        self.attempted += 1
        try:
            ok = not isinstance(out, Exception) and self.check(op, out)
        except Exception as exc:  # malformed output: report it, keep measuring
            ok, out = False, exc
        if not ok:
            self.failed += 1
            if self.failed == 1:
                print(f"bench: first failed operation: {op!r} -> {out!r}"[:4000], file=sys.stderr)


def attempt(call, op):
    try:
        return call(op)
    except Exception as exc:  # counted as failed by Tally
        return exc


def run_pass(call, ops):
    """Every op once; returns [(op, out, seconds)]."""
    results = []
    for op in ops:
        t0 = time.perf_counter()
        out = attempt(call, op)
        results.append((op, out, time.perf_counter() - t0))
    return results


def timed_setups(probe):
    """SETUP_REPEATS fresh-interpreter imports of the package, in seconds
    at the reference speed."""
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        seconds = fresh_import_s()
        probe.sample()
        setups.append(seconds * probe.factor(t0))
    return setups


def timed_run(workload, seconds, tally, probe):
    """Whole passes over the ops until `seconds` have elapsed, probing the
    host's speed between operations.

    Returns the wall interval (t0, t1) of every operation, and the peak
    memory read when the first pass ends: by then every input has run
    once, and the benchmark's own record of the run is one pass long, so
    the figure does not grow with the number of operations measured.
    """
    op = workload.ops[0]
    tally.record(op, attempt(workload.run, op))  # warm-up, untimed
    probe.sample()
    intervals = []
    peak_mb = None
    start = time.perf_counter()
    while True:
        for op in workload.ops:
            t0 = time.perf_counter()
            out = attempt(workload.run, op)
            t1 = time.perf_counter()
            intervals.append((t0, t1))
            tally.record(op, out)
            probe.after(t1 - t0)
        if peak_mb is None:
            peak_mb = workload.peak_rss_mb()
        if time.perf_counter() - start >= seconds:
            probe.sample()
            return intervals, peak_mb


def typical_times(times, ops):
    """The median time of each of the `ops` operations of a pass, over the
    whole passes that `times` (seconds, in run order) holds."""
    return [statistics.median(times[i::ops]) for i in range(ops)]


def end_to_end_metrics(setups, times, ops, peak_mb):
    """setups and times: seconds per set-up and per operation, the latter
    in whole passes of `ops` operations.

    The percentiles are over the operations of a pass, each taken at its
    median time across the passes: the slow inputs decide the tail, not a
    moment of host noise that hits one repetition.
    """
    typical = typical_times(times, ops)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms_p50": (statistics.median(typical) * 1e3, "ms"),
        "op_ms_p90": (p90(typical) * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def traced_run(workload, seconds, tally, spans_path):
    """Pairs of passes, untraced then traced, until `seconds` have elapsed.

    Per-layer figures are per pass; the span table of every traced pass
    is summed and divided by the number of pairs.
    """
    tracer = spans.Tracer()
    table = defaultdict(lambda: [0, 0.0, 0.0])
    untraced_s = 0.0
    main_ms = defaultdict(list)
    pairs = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results = run_pass(workload.run_traced, workload.ops)
        untraced_s += time.perf_counter() - t0
        for op, out, dt in results:
            tally.record(op, out)
            main_ms[workload.command(op)].append(dt * 1e3)
        tracer.install(PACKAGE, TRACED_FUNCTIONS, TRACED_METHODS)
        try:
            with tracer.span("bench"):
                results = run_pass(workload.run_traced, workload.ops)
        finally:
            tracer.uninstall()
        for op, out, _ in results:
            tally.record(op, out)
        pairs += 1
        last = time.perf_counter() - start >= seconds
        if last and spans_path:
            tracer.dump(spans_path)
        for name, row in tracer.collect().items():
            for i, value in enumerate(row):
                table[name][i] += value
        if last:
            break

    def per_pass(value):
        return value / pairs

    counts = tracer.counts
    metrics = {}
    for name in SPAN_NAMES:
        calls, _, self_s = table[name]
        metrics[f"{name}.calls"] = (per_pass(calls), "count")
        metrics[f"{name}.self_s"] = (per_pass(self_s), "s")
    for _, _, name, counter in TRACED_FUNCTIONS:
        if counter is not None:
            metrics[f"{name}.{counter[0]}"] = (per_pass(counts[name, counter[0]]), "count")

    attempted = metrics.pop("normalize.roles.calls")[0]
    rejected = per_pass(counts["normalize.roles", "NotPrimitiveError"])
    not_normalizable = per_pass(counts["normalize.canonicalize", "NotNormalizableError"])
    won = metrics["normalize.canonicalize.calls"][0] - not_normalizable
    built = attempted - rejected
    metrics["normalize.roles.attempted"] = (attempted, "count")
    metrics["normalize.roles.rejected"] = (rejected, "count")
    metrics["normalize.roles.useful_ratio"] = (won / built if built else 0.0, "ratio")
    metrics["normalize.not_normalizable"] = (not_normalizable, "count")

    for suite in SUITES:
        calls, inclusive, _ = table[f"verify.{suite}"]
        metrics[f"verify.{suite}.s"] = (inclusive / calls if calls else 0.0, "s")

    for layer in (*MODULES, "bench"):
        self_s = sum(row[2] for name, row in table.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = (per_pass(self_s), "s")
    metrics["trace.wall_s"] = (per_pass(table["bench"][1]), "s")
    metrics["trace.overhead_ratio"] = (table["bench"][1] / untraced_s, "ratio")

    interpreter_ms, import_ms = workload.startup_ms()
    metrics["cli.interpreter_ms"] = (interpreter_ms, "ms")
    metrics["cli.import_ms"] = (import_ms, "ms")
    for command in CLI_COMMANDS:
        metrics[f"cli.main_ms.{command}"] = (median_or_zero(main_ms[command]), "ms")
    for module, lines in src_lines().items():
        metrics[f"{module}.src_lines"] = (lines, "lines")
    metrics["failed_frac"] = (tally.failed / tally.attempted, "fraction")
    return metrics


def src_lines():
    return {
        module: len((SRC / PACKAGE / f"{module}.py").read_text(encoding="utf-8").splitlines())
        for module in MODULES
    }


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--spans", help="with --trace 1, write the last traced pass's spans here as TSV")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        fail(f"no {PACKAGE} package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    probe = speed.Probe()
    probe.sample()
    lib = import_package()
    t0 = time.perf_counter()
    workload = WORKLOADS[args.workload](lib, random.Random(args.seed), args.tiny)
    inputs_s = time.perf_counter() - t0
    origin = Path(sys.modules[PACKAGE].__file__).resolve()
    if not origin.is_relative_to(SRC):
        fail(f"imported {PACKAGE} from {origin}, not from {SRC}")

    tally = Tally(workload.check)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "inputs_s": inputs_s}
    if args.trace:
        metrics = traced_run(workload, args.seconds, tally, args.spans)
    else:
        setups = timed_setups(probe)
        intervals, peak_mb = timed_run(workload, args.seconds, tally, probe)
        times = [probe.scaled(t0, t1) for t0, t1 in intervals]
        metrics = end_to_end_metrics(setups, times, len(workload.ops), peak_mb)
        info["named"] = {
            alias: metrics[metric][0] * factor for alias, (metric, factor) in workload.aliases.items()
        }
        info["samples"] = len(times)
        info["passes"] = len(times) // len(workload.ops)
        info["failed_frac"] = tally.failed / tally.attempted
        info["probe_ms_median"] = statistics.median(probe.durations) * 1e3
    info["env"] = environment()
    print(json.dumps(info))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
