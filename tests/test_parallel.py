"""Tests for the parallel batch execution engine (repro.harness.parallel)."""

from __future__ import annotations

import dataclasses
import json
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import ReproError
from repro.harness import artifacts, parallel
from repro.harness.parallel import (
    BatchExecutionError,
    BatchReport,
    last_batch_report,
    resolve_jobs,
    run_batch,
    run_many,
)
from repro.harness.runner import RunRequest, clear_memory_cache, run
from repro.workloads.registry import clear_trace_cache

SMALL = dict(trace_len=1500, warmup=500)


def _cold():
    clear_memory_cache()
    clear_trace_cache()


def _mixed_batch() -> list[RunRequest]:
    return [
        RunRequest(app="kafka", policy="lru", **SMALL),
        RunRequest(app="kafka", policy="srrip", **SMALL),
        RunRequest(app="clang", policy="flack", **SMALL),
        RunRequest(app="clang", policy="furbys", **SMALL),
    ]


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_default_is_at_least_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() >= 1
        assert resolve_jobs(0) == 1

    def test_env_zero_clamps_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_jobs() == 1

    @pytest.mark.parametrize("name,value,resolve", [
        ("REPRO_JOBS", "two", resolve_jobs),
        ("REPRO_JOBS", "1.5", resolve_jobs),
        ("REPRO_TIMEOUT_S", "soon", parallel._resolve_timeout),
        ("REPRO_TIMEOUT_S", "30s", parallel._resolve_timeout),
    ], ids=["jobs-word", "jobs-float", "timeout-word", "timeout-unit"])
    def test_malformed_env_names_the_variable(self, monkeypatch, name,
                                              value, resolve):
        monkeypatch.setenv(name, value)
        with pytest.raises(ReproError, match=name):
            resolve(None)

    def test_env_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT_S", " 2.5 ")
        assert parallel._resolve_timeout(None) == 2.5


class TestSerialPath:
    def test_results_in_request_order(self):
        _cold()
        requests = _mixed_batch()
        results = run_many(requests, jobs=1)
        assert len(results) == len(requests)
        for request, stats in zip(requests, results):
            assert stats is run(request)  # memoized: identical object

    def test_duplicates_simulate_once(self):
        _cold()
        request = RunRequest(app="kafka", policy="lru", **SMALL)
        results, report = run_batch([request, request, request], jobs=1)
        assert report.requests == 3
        assert report.unique == 1
        assert report.executed == 1
        assert results[0] is results[1] is results[2]

    def test_memory_hits_are_counted(self):
        _cold()
        request = RunRequest(app="kafka", policy="lru", **SMALL)
        run(request)
        _, report = run_batch([request], jobs=1)
        assert report.memory_hits == 1
        assert report.executed == 0

    def test_repro_jobs_one_takes_serial_path(self, monkeypatch):
        _cold()
        monkeypatch.setenv("REPRO_JOBS", "1")

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool must not be created for jobs=1")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", boom)
        results = run_many(_mixed_batch())
        assert len(results) == 4
        assert last_batch_report().jobs == 1

    def test_error_carries_request(self):
        _cold()
        bad = RunRequest(app="kafka", policy="no-such-policy", **SMALL)
        with pytest.raises(BatchExecutionError) as excinfo:
            run_many([RunRequest(app="kafka", policy="lru", **SMALL), bad],
                     jobs=1)
        assert excinfo.value.request == bad


class TestParallelPath:
    def test_bit_identical_to_serial(self):
        _cold()
        requests = _mixed_batch()
        serial = [dataclasses.asdict(stats) for stats in
                  run_many(requests, jobs=1)]
        _cold()
        parallel_results = run_many(requests, jobs=2)
        report = last_batch_report()
        assert report.executed == len(requests)
        assert report.chunks >= 2
        for expected, got in zip(serial, parallel_results):
            assert dataclasses.asdict(got) == expected

    def test_results_written_back_to_memory_cache(self):
        _cold()
        request = RunRequest(app="kafka", policy="lru", **SMALL)
        results = run_many([request], jobs=2)
        # A second serial call must be a pure memory hit.
        _, report = run_batch([request], jobs=1)
        assert report.memory_hits == 1
        assert run(request) is results[0]

    def test_worker_error_carries_request(self):
        _cold()
        bad = RunRequest(app="clang", policy="no-such-policy", **SMALL)
        with pytest.raises(BatchExecutionError) as excinfo:
            run_many([RunRequest(app="kafka", policy="lru", **SMALL), bad],
                     jobs=2)
        assert excinfo.value.request == bad
        assert "UnknownPolicyError" in excinfo.value.detail

    def test_disk_write_back_happens_in_parent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        _cold()
        request = RunRequest(app="kafka", policy="lru", **SMALL)
        run_many([request], jobs=2)
        path = tmp_path / f"{artifacts.key('stats', request.cache_key())}.json"
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["request"]["app"] == "kafka"
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_executed_result_is_written_once_by_the_parent(
        self, tmp_path, monkeypatch, jobs
    ):
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        _cold()
        log = tmp_path / "writes.log"
        store_json = artifacts._store_json

        def logged(path, payload):
            # Forked workers inherit this patch, so their writes log too.
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()} {path.name}\n")
            store_json(path, payload)

        monkeypatch.setattr(artifacts, "_store_json", logged)
        requests = _mixed_batch()
        _, report = run_batch(requests + requests[:1], jobs=jobs)
        assert report.executed == len(requests)
        writes = [line.split() for line in log.read_text().splitlines()]
        stats = [(int(pid), name) for pid, name in writes
                 if name.startswith("stats-")]
        assert len(stats) == report.executed
        assert {pid for pid, _ in stats} == {os.getpid()}
        assert len({name for _, name in stats}) == report.executed
        assert len(list(cache.glob("stats-*.json"))) == report.executed


class TestEdgeCases:
    def test_empty_batch(self):
        results, report = run_batch([], jobs=2)
        assert results == []
        assert report.requests == 0
        assert report.executed == 0

    def test_duplicates_simulate_once_in_parallel(self):
        _cold()
        request = RunRequest(app="kafka", policy="lru", **SMALL)
        results, report = run_batch([request, request], jobs=2)
        assert report.unique == 1
        assert report.executed == 1
        assert dataclasses.asdict(results[0]) == dataclasses.asdict(results[1])


class TestScheduler:
    def test_same_app_requests_grouped(self):
        requests = [
            RunRequest(app="kafka", policy="lru", **SMALL),
            RunRequest(app="clang", policy="lru", **SMALL),
            RunRequest(app="kafka", policy="srrip", **SMALL),
            RunRequest(app="clang", policy="srrip", **SMALL),
        ]
        chunks = parallel._chunk_cold_requests(requests, jobs=2)
        assert len(chunks) == 2
        for chunk in chunks:
            assert len({request.app for request in chunk}) == 1

    def test_large_group_split_to_fill_jobs(self):
        requests = [
            RunRequest(app="kafka", policy=policy, **SMALL)
            for policy in ("lru", "srrip", "drrip", "ghrp")
        ]
        chunks = parallel._chunk_cold_requests(requests, jobs=4)
        assert len(chunks) == 4

    def test_singletons_cannot_split_further(self):
        requests = [RunRequest(app="kafka", policy="lru", **SMALL)]
        assert parallel._chunk_cold_requests(requests, jobs=4) == [requests]


class TestBatchReport:
    def test_to_json_roundtrips(self):
        report = BatchReport(requests=4, unique=3, executed=2, jobs=2)
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["requests"] == 4
        assert payload["unique"] == 3

    def test_format_batch_report(self):
        from repro.harness.reporting import format_batch_report
        report = BatchReport(requests=24, unique=18, memory_hits=4,
                             disk_hits=6, executed=8, jobs=4, chunks=3,
                             elapsed_s=12.34)
        line = format_batch_report(report)
        assert "24 requests" in line
        assert "18 unique" in line
        assert "3 chunks on 4 jobs" in line

    def test_serial_formatting(self):
        from repro.harness.reporting import format_batch_report
        line = format_batch_report(BatchReport(requests=1, unique=1,
                                               executed=1, jobs=1))
        assert "serial" in line
