"""Chaos suite: fault injection against the resilient batch engine.

Covers :mod:`repro.faultinject`, :mod:`repro.harness.resilience` and the
retry/timeout/partial-result machinery in :mod:`repro.harness.parallel`:
injected worker crashes, hangs, transient exceptions and corrupted
cache artifacts must all be survived with bit-identical results and
honest fault accounting.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time

import pytest

from repro import faultinject
from repro.errors import FaultInjectionError
from repro.faultinject import FaultPlan
from repro.harness import artifacts, resilience
from repro.harness.parallel import (
    BatchExecutionError,
    resolve_on_error,
    run_batch,
    run_many,
)
from repro.harness.resilience import FaultReport, RetryPolicy
from repro.harness.runner import RunRequest, clear_memory_cache
from repro.workloads.registry import clear_trace_cache

SMALL = dict(trace_len=1500, warmup=500)

#: Retry policy for the chaos tests: near-zero backoff keeps them fast.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.001)


def _cold():
    clear_memory_cache()
    clear_trace_cache()


def _mixed_batch() -> list[RunRequest]:
    return [
        RunRequest(app="kafka", policy="lru", **SMALL),
        RunRequest(app="kafka", policy="srrip", **SMALL),
        RunRequest(app="clang", policy="lru", **SMALL),
        RunRequest(app="clang", policy="srrip", **SMALL),
    ]


@pytest.fixture(autouse=True)
def _fault_hygiene(monkeypatch):
    """No leftover fault spec or counters may leak between tests."""
    monkeypatch.delenv("REPRO_FAULT_SPEC", raising=False)
    monkeypatch.delenv("REPRO_FAULT_STATE", raising=False)
    monkeypatch.delenv("REPRO_ON_ERROR", raising=False)
    monkeypatch.delenv("REPRO_TIMEOUT_S", raising=False)
    faultinject.reset_plan_cache()
    resilience.reset_counters()
    yield
    # Full reset: drops the plan cache *and* removes the once-per-fault
    # claim files, so a repeated spec re-injects in the next test.
    faultinject.reset()
    resilience.reset_counters()


def _arm(monkeypatch, tmp_path, spec: str) -> None:
    monkeypatch.setenv("REPRO_FAULT_SPEC", spec)
    monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "fault-state"))
    faultinject.reset_plan_cache()


def _serial_reference(requests) -> list[dict]:
    _cold()
    return [dataclasses.asdict(s) for s in run_many(requests, jobs=1)]


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy(seed=42)
        assert policy.delay_for(2, "abc") == policy.delay_for(2, "abc")

    def test_delay_varies_by_attempt_and_key(self):
        policy = RetryPolicy(seed=42)
        assert policy.delay_for(1, "abc") != policy.delay_for(2, "abc")
        assert policy.delay_for(1, "abc") != policy.delay_for(1, "xyz")

    def test_delay_bounds(self):
        policy = RetryPolicy(base_delay_s=0.1, backoff=2.0, jitter=0.5)
        for attempt in (1, 2, 3):
            base = 0.1 * 2 ** (attempt - 1)
            delay = policy.delay_for(attempt, "k")
            assert base <= delay <= base * 1.5
        assert policy.delay_for(0) == 0.0

    def test_classification(self):
        from repro.errors import ArtifactError, UnknownPolicyError

        policy = RetryPolicy()
        assert policy.is_retryable(TimeoutError("hung"))
        assert policy.is_retryable(OSError("disk full"))
        assert policy.is_retryable(ArtifactError("torn"))
        assert policy.is_retryable(FaultInjectionError("injected"))
        assert not policy.is_retryable(UnknownPolicyError("nope"))
        assert not policy.is_retryable(KeyError("programming error"))


class TestFaultReport:
    def test_merge_counters_routes_corruption(self):
        report = FaultReport()
        report.merge_counters(
            {"corrupt_artifact": 2, "disk_write": 1, "noise": 0}
        )
        assert report.corrupt_artifacts == 2
        assert report.degraded_fallbacks == 1
        assert report.fallbacks == {"disk_write": 1}

    def test_total_faults(self):
        report = FaultReport(crashed=1, timed_out=2, skipped=3,
                             corrupt_artifacts=4, degraded_fallbacks=5)
        assert report.total_faults == 15

    def test_counters_since(self):
        resilience.reset_counters()
        before = resilience.global_counters()
        resilience.note_fallback("disk_write")
        resilience.note_fallback("disk_write")
        assert resilience.counters_since(before) == {"disk_write": 2}


class TestFaultSpec:
    def test_parse_rejects_malformed(self, tmp_path):
        for bad in ("task:0", "task:x:crash", "disk:0:crash",
                    "task:0:corrupt", "artifact:nope:corrupt",
                    "task:0:hang=soon"):
            with pytest.raises(FaultInjectionError):
                FaultPlan(bad, tmp_path)

    def test_unarmed_hooks_are_noops(self, tmp_path):
        assert faultinject.active_plan() is None
        faultinject.on_worker_task(0)  # must not raise
        target = tmp_path / "artifact.json"
        target.write_text("{}")
        assert not faultinject.maybe_corrupt_artifact(target, "stats")
        assert target.read_text() == "{}"

    def test_each_fault_fires_once_across_plans(self, tmp_path):
        state = tmp_path / "state"
        first = FaultPlan("task:0:raise", state)
        with pytest.raises(FaultInjectionError):
            first.fire_task_faults(0)
        # Same state dir (a retry, possibly in another process): spent.
        second = FaultPlan("task:0:raise", state)
        second.fire_task_faults(0)  # no raise

    def test_corrupt_artifact_garbles_file(self, tmp_path, monkeypatch):
        _arm(monkeypatch, tmp_path, "artifact:stats:corrupt")
        target = tmp_path / "entry.json"
        target.write_text('{"stats": {}}')
        assert faultinject.maybe_corrupt_artifact(target, "stats")
        assert b"repro-fault-injected" in target.read_bytes()
        # Once only.
        target.write_text('{"stats": {}}')
        assert not faultinject.maybe_corrupt_artifact(target, "stats")


class TestResolveOnError:
    def test_default_and_env(self, monkeypatch):
        assert resolve_on_error() == "raise"
        monkeypatch.setenv("REPRO_ON_ERROR", "skip")
        assert resolve_on_error() == "skip"
        assert resolve_on_error("retry") == "retry"

    def test_rejects_unknown_mode(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            resolve_on_error("explode")


class TestWorkerCrashRecovery:
    def test_crash_is_retried_to_identical_results(
        self, tmp_path, monkeypatch
    ):
        requests = _mixed_batch()
        reference = _serial_reference(requests)
        _arm(monkeypatch, tmp_path, "task:0:crash")
        _cold()
        results, report = run_batch(
            requests, jobs=2, on_error="retry", retry_policy=FAST_RETRY
        )
        assert [dataclasses.asdict(s) for s in results] == reference
        assert report.faults.crashed == 1
        assert report.faults.retried >= 1
        assert report.executed == len(requests)

    def test_injected_exception_is_retried(self, tmp_path, monkeypatch):
        requests = _mixed_batch()
        reference = _serial_reference(requests)
        _arm(monkeypatch, tmp_path, "task:1:raise")
        _cold()
        results, report = run_batch(
            requests, jobs=2, on_error="retry", retry_policy=FAST_RETRY
        )
        assert [dataclasses.asdict(s) for s in results] == reference
        assert report.faults.crashed == 0
        assert report.faults.retried >= 1

    def test_crash_raises_under_fail_fast(self, tmp_path, monkeypatch):
        _arm(monkeypatch, tmp_path, "task:0:crash")
        _cold()
        with pytest.raises(BatchExecutionError) as excinfo:
            run_batch(_mixed_batch(), jobs=2, on_error="raise")
        assert "BrokenProcessPool" in str(excinfo.value)


class TestOneFailureContract:
    """Serial and pooled batches retry the same failures."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_oserror_subclass_is_retried(
        self, tmp_path, monkeypatch, jobs
    ):
        from repro.harness import parallel

        requests = _mixed_batch()
        reference = _serial_reference(requests)
        real_execute = parallel.execute

        def flaky_execute(request):
            # Fails each request's first attempt, in whichever process
            # runs it: the marker file is claimed atomically.
            try:
                open(tmp_path / f"{request.cache_key()}.failed", "x").close()
            except FileExistsError:
                return real_execute(request)
            raise FileNotFoundError("transient: scratch file vanished")

        monkeypatch.setattr(parallel, "execute", flaky_execute)
        _cold()
        results, report = run_batch(
            requests, jobs=jobs, on_error="retry", retry_policy=FAST_RETRY
        )
        assert [dataclasses.asdict(s) for s in results] == reference
        assert report.faults.retried == len(requests)
        assert report.faults.skipped == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unknown_app_is_skipped(self, jobs):
        good = RunRequest(app="kafka", policy="lru", **SMALL)
        bad = RunRequest(app="no-such-app", policy="lru", **SMALL)
        reference = _serial_reference([good])
        _cold()
        results, report = run_batch([good, bad], jobs=jobs, on_error="skip")
        assert dataclasses.asdict(results[0]) == reference[0]
        assert results[1] is None
        assert report.faults.failures[0]["error"] == "UnknownWorkloadError"

    def test_serial_batch_never_injects_worker_faults(
        self, tmp_path, monkeypatch
    ):
        requests = _mixed_batch()
        reference = _serial_reference(requests)
        _arm(monkeypatch, tmp_path, "task:0:raise;task:1:crash")
        _cold()
        results, report = run_batch(requests, jobs=1, on_error="raise")
        assert [dataclasses.asdict(s) for s in results] == reference
        assert report.faults.total_faults == 0
        assert report.faults.retried == 0


class TestHangTimeout:
    def test_hung_worker_is_timed_out_and_retried(
        self, tmp_path, monkeypatch
    ):
        requests = [
            RunRequest(app="kafka", policy="lru", **SMALL),
            RunRequest(app="kafka", policy="srrip", **SMALL),
        ]
        reference = _serial_reference(requests)
        _arm(monkeypatch, tmp_path, "task:0:hang=120")
        _cold()
        results, report = run_batch(
            requests, jobs=2, on_error="retry",
            retry_policy=FAST_RETRY, timeout_s=10.0,
        )
        assert [dataclasses.asdict(s) for s in results] == reference
        assert report.faults.timed_out >= 1
        assert report.faults.retried >= 1

    def test_abandoned_hung_worker_is_killed(self, tmp_path, monkeypatch):
        """Regression: teardown must snapshot the worker list *before*
        ``ProcessPoolExecutor.shutdown`` clears it, or the hung worker
        (here: 120 s of sleep) survives the batch and blocks interpreter
        exit until its sleep ends."""
        requests = [
            RunRequest(app="kafka", policy="lru", **SMALL),
            RunRequest(app="kafka", policy="srrip", **SMALL),
        ]
        _arm(monkeypatch, tmp_path, "task:0:hang=120")
        _cold()
        run_batch(
            requests, jobs=2, on_error="retry",
            retry_policy=FAST_RETRY, timeout_s=5.0,
        )
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []


class TestSkipMode:
    def test_partial_results_in_request_order(self):
        good_a = RunRequest(app="kafka", policy="lru", **SMALL)
        bad = RunRequest(app="kafka", policy="no-such-policy", **SMALL)
        good_b = RunRequest(app="clang", policy="lru", **SMALL)
        reference = _serial_reference([good_a, good_b])
        _cold()
        results, report = run_batch(
            [good_a, bad, good_b], jobs=2, on_error="skip",
            retry_policy=FAST_RETRY,
        )
        assert results[1] is None
        assert dataclasses.asdict(results[0]) == reference[0]
        assert dataclasses.asdict(results[2]) == reference[1]
        assert report.faults.skipped == 1
        assert report.faults.failures[0]["error"] == "UnknownPolicyError"
        # Deterministic failures must not burn retry attempts.
        assert report.faults.failures[0]["attempts"] == 1

    def test_skip_on_serial_path(self):
        _cold()
        bad = RunRequest(app="kafka", policy="no-such-policy", **SMALL)
        good = RunRequest(app="kafka", policy="lru", **SMALL)
        results, report = run_batch([bad, good], jobs=1, on_error="skip")
        assert results[0] is None
        assert results[1] is not None
        assert report.faults.skipped == 1

    def test_run_many_passes_mode_through(self):
        _cold()
        bad = RunRequest(app="kafka", policy="no-such-policy", **SMALL)
        assert run_many([bad], jobs=1, on_error="skip") == [None]


class TestFailureReporting:
    def test_error_carries_attempts_and_traceback(self):
        _cold()
        bad = RunRequest(app="kafka", policy="no-such-policy", **SMALL)
        with pytest.raises(BatchExecutionError) as excinfo:
            run_many([bad], jobs=1)
        error = excinfo.value
        assert error.request == bad
        assert error.attempts == 1
        assert "UnknownPolicyError" in error.detail

    def test_format_failure_block(self):
        _cold()
        bad = RunRequest(app="kafka", policy="no-such-policy", **SMALL)
        with pytest.raises(BatchExecutionError) as excinfo:
            run_many([bad], jobs=1)
        from repro.harness.reporting import format_failure

        block = format_failure(excinfo.value)
        assert "no-such-policy" in block
        assert "attempts: 1" in block
        assert "UnknownPolicyError" in block

    def test_fault_lines_in_batch_report(self):
        from repro.harness.parallel import BatchReport
        from repro.harness.reporting import format_batch_report

        report = BatchReport(requests=4, unique=4, executed=4, jobs=2)
        report.faults.crashed = 1
        report.faults.retried = 2
        report.faults.merge_counters({"disk_write": 1})
        text = format_batch_report(report)
        assert "1 crashed" in text
        assert "2 retried" in text
        assert "disk_write=1" in text

    def test_clean_report_stays_one_line(self):
        from repro.harness.parallel import BatchReport
        from repro.harness.reporting import format_batch_report

        assert "\n" not in format_batch_report(
            BatchReport(requests=1, unique=1, executed=1, jobs=1)
        )


class TestCorruptArtifactRecovery:
    def test_corrupt_stats_entry_is_quarantined_and_recomputed(
        self, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        request = RunRequest(app="kafka", policy="lru", **SMALL)
        _cold()
        reference = dataclasses.asdict(run_many([request], jobs=1)[0])
        stats_key = artifacts.key("stats", request.cache_key())
        assert (cache / f"{stats_key}.json").exists()

        _arm(monkeypatch, tmp_path, "artifact:stats:corrupt")
        _cold()
        results, report = run_batch([request], jobs=1, on_error="retry")
        assert dataclasses.asdict(results[0]) == reference
        assert report.faults.corrupt_artifacts >= 1
        assert list(cache.glob("*.corrupt"))
        # The recomputed entry was re-persisted and is valid again.
        _cold()
        _, report = run_batch([request], jobs=1)
        assert report.disk_hits == 1


class TestChaosCombined:
    def test_crash_hang_and_corruption_in_one_batch(
        self, tmp_path, monkeypatch
    ):
        """The acceptance scenario: one crash, one hang, one corrupted
        trace artifact in a two-app batch; ``on_error="retry"`` must
        complete bit-identically to a clean serial run with every fault
        accounted for."""
        requests = _mixed_batch()
        # Clean serial reference with the disk cache off, so the chaos
        # arm below starts stats-cold and actually executes every task.
        reference = _serial_reference(requests)

        # Pre-warm the disk trace cache so the corruption has a target,
        # then drop the in-process caches.
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        _cold()
        from repro.workloads.registry import get_trace

        for request in requests:
            get_trace(request.app, request.input_name,
                      request.resolved_trace_len())
        _cold()

        _arm(
            monkeypatch, tmp_path,
            "task:0:crash;task:1:hang=120;artifact:trace:corrupt",
        )
        results, report = run_batch(
            requests, jobs=2, on_error="retry",
            retry_policy=FAST_RETRY, timeout_s=10.0,
        )
        assert [dataclasses.asdict(s) for s in results] == reference
        assert report.faults.crashed >= 1
        assert report.faults.timed_out >= 1
        assert report.faults.corrupt_artifacts >= 1
        assert report.faults.retried >= 2
