"""Smoke test of the benchmark at tiny sizes.

Every metric BENCHMARK.json names is emitted with its unit, every
operation passes its check, the traced run's layer self times plus the
benchmark's own remainder add up to its wall time, each workload reaches
the layer it exists for, and outside a full checkout the benchmark
refuses to run.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = ("intlin", "geometry", "white", "normalize", "verify", "cli", "bench")
# A count each workload's traced run must make, from the layer it exists for.
REACHED = {
    "classify_stream": "normalize.roles.attempted",
    "verify_white": "verify.white.cases",
    "verify_coplanar": "verify.coplanar.cases",
    "verify_fn": "verify.fn.cases",
    "cli_oneshot": "white.empty_forms.forms_tested",
    "cli_oracle": "geometry.bruteforce_verdicts.box_points",
}


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def run(workload, trace, *extra):
    proc = bench(
        ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
        "--trace", str(trace), "--tiny", *extra,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def assert_emits(metrics, specs):
    assert sorted(metrics) == sorted(s["name"] for s in specs)
    for s in specs:
        assert metrics[s["name"]]["unit"] == s["unit"], s["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = run(workload, 0)
    assert_emits(metrics, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload, tmp_path):
    spans_file = tmp_path / "spans.tsv"
    metrics = run(workload, 1, "--spans", str(spans_file))
    assert_emits(metrics, SPEC["per_layer"])
    assert metrics["failed_frac"]["value"] == 0
    assert metrics[REACHED[workload]]["value"] > 0
    layer_sum = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    assert math.isclose(layer_sum, metrics["trace.wall_s"]["value"], rel_tol=1e-6)
    rows = spans_file.read_text(encoding="utf-8").splitlines()
    assert rows[0].split("\t") == ["index", "parent", "name", "start_s", "end_s"]
    assert rows[1].split("\t")[:3] == ["0", "-1", "bench"]


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_expected_canonical_forms_match_the_package(monkeypatch):
    """The benchmark's own canonical forms, from the cyclic-group invariant,
    agree with the package on every form with c <= 12."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import inputs
    from emptytet import canonical_form, standard_tetrahedron

    for c in range(1, 13):
        for a in range(c):
            for b in range(c):
                form = canonical_form(standard_tetrahedron(a, b, c))
                assert (form.c, form.a, form.b) == inputs.canonical_key(a, b, c)
