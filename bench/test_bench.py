"""Self-test of the benchmark: ``python -m pytest bench -q``.

Every workload runs once at a 4k-lookup scale, untraced and traced.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys

import pytest

from bench import harness
from bench.compare import verdict
from bench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMALL = 4_000


def test_benchmark_json_layout():
    spec = harness.BENCHMARK
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in spec[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert harness.UNITS[metric["name"]] == metric["unit"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.fixture(scope="module", params=list(WORKLOADS))
def small_runs(request):
    workload = WORKLOADS[request.param]
    return (
        harness.measure(workload, trace_len=SMALL, repeats=1),
        harness.measure(workload, trace_len=SMALL, repeats=1, traced=True),
    )


def test_every_declared_metric_is_emitted(small_runs):
    for result, traced in zip(small_runs, (False, True)):
        declared = {m["name"] for m in harness.declared_metrics(traced)}
        assert declared <= set(result["metrics"])
        assert result["correct"] and result["failed"] == 0


def test_small_runs_are_correct(small_runs):
    e2e, traced = small_runs
    assert e2e["metrics"]["failed_ratio"]["median"] == 0
    assert traced["metrics"]["trace.mismatches"]["median"] == 0


def test_corrupted_digest_is_counted():
    workload = WORKLOADS["online-200k"]
    clean = harness.measure(workload, trace_len=SMALL, repeats=1)
    expected = dict(clean["digests"])
    key = next(iter(expected))
    expected[key] = "0" * 64
    result = harness.measure(workload, trace_len=SMALL, repeats=1,
                             expected=expected)
    assert result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["failed_ratio"]["median"] == 1 / len(expected)


def test_count_failures_covers_missing_and_unfinished_rows():
    rows = [
        {"cache_key": "a", "status": "done", "sha256": "x"},
        {"cache_key": "b", "status": "pending", "sha256": None},
    ]
    assert harness.count_failures(rows, None) == (2, 1)
    assert harness.count_failures(rows, {"a": "x", "b": "y", "c": "z"}) == (3, 2)


def test_seed_reorders_the_apps():
    workload = WORKLOADS["cold-start"]
    assert workload.apps_for_seed(0) == workload.apps
    drawn = workload.apps_for_seed(7)
    assert drawn == workload.apps_for_seed(7) != workload.apps
    assert sorted(drawn) == sorted(workload.apps)


def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    faster = [x * 0.8 for x in base]
    assert verdict(base, faster, "lower", 0.1)[0] == "improved"
    assert verdict(base, [x * 1.2 for x in base], "lower", 0.1)[0] == "regressed"
    assert verdict(base, base[::-1], "lower", 0.1)[0] == "within bound"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved"
    assert verdict([0.0], [0.1], "lower", 0.0, absolute=True)[0] == "regressed"


def test_fails_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "online-200k"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
