"""The one-holder rule for :meth:`repro.core.trace.Trace.memo`.

At most one trace holds memo entries (kernel column windows, future
indices, intervals, plans): a memo miss on any other trace first drops
the holder's entries.  These tests check that

* the rule holds after every memo call, including a ``build()`` that
  memoizes on another trace, and that the 4-int totals cache never takes
  the holder role;
* :func:`~repro.harness.runner.clear_memory_cache` drops every memo
  kind, even on a trace a caller still references;
* hand-overs change no result: a serial batch alternating traces
  matches each request run alone;
* a ``fig18_cross_validation``-shaped batch ends with one holder.
"""

from __future__ import annotations

import dataclasses
import gc

from repro.core.trace import Trace, TraceMetadata, drop_memos, memo_census
from repro.harness.experiments import fig18_cross_validation
from repro.harness.parallel import run_batch
from repro.harness.runner import RunRequest, clear_memory_cache, run
from repro.workloads.registry import get_trace

from .conftest import cyclic_trace


def _memo_holders() -> list[Trace]:
    """Every live trace that holds memo entries (a heap scan, so a
    trace the census does not know about still shows up)."""
    gc.collect()
    return [obj for obj in gc.get_objects()
            if isinstance(obj, Trace) and obj._derived]


def _census() -> tuple[int, int]:
    census = memo_census()
    return census["traces"], census["entries"]


def test_memo_hands_over_between_traces():
    drop_memos()
    a, b = cyclic_trace(4, 3), cyclic_trace(5, 3)
    assert a.memo("k", lambda: 1) == 1
    assert memo_census()["holder"] == ("cyclic", "default", 12)
    assert b.memo("k", lambda: 2) == 2
    assert "k" not in a._derived
    assert memo_census()["holder"] == ("cyclic", "default", 15)
    # A hit on the holder keeps it; a miss on the other trace rebuilds.
    assert b.memo("k", lambda: 3) == 2
    assert a.memo("k", lambda: 4) == 4
    assert _memo_holders() == [a]
    assert memo_census()["evicted"] >= 2
    assert drop_memos() == 1
    assert _census() == (0, 0)


def test_build_touching_another_trace_leaves_only_self():
    drop_memos()
    a, b = cyclic_trace(4, 3), cyclic_trace(5, 3)
    a.memo("first", lambda: 0)
    value = a.memo("nested", lambda: b.memo("inner", lambda: 7) + 1)
    assert value == 8
    assert _memo_holders() == [a]
    assert list(a._derived) == ["nested"]
    assert memo_census()["kinds"] == {"nested": 1}
    drop_memos()


def test_totals_do_not_take_the_holder_role():
    drop_memos()
    a = cyclic_trace(4, 3)
    b = Trace(list(cyclic_trace(5, 3)), TraceMetadata(app="other"))
    a.memo(("simd", 1), lambda: [0] * 8)
    assert b.total_uops == 15 * 8 and b.branch_mpki > 0
    assert list(a._derived) == [("simd", 1)]
    assert memo_census()["holder"] == ("cyclic", "default", 12)
    drop_memos()


def test_clear_memory_cache_drops_every_memo_kind_on_a_kept_trace():
    clear_memory_cache()
    trace = get_trace("kafka", "default", 3000)
    for policy in ("flack", "foo-ohr"):
        run(RunRequest(app="kafka", policy=policy, trace_len=3000))
    kinds = memo_census()["kinds"]
    for kind in ("future_index", "intervals", "greedy_plan", "simd"):
        assert kinds.get(kind), (kind, kinds)
    assert memo_census()["holder"] == ("kafka", "default", 3000)
    clear_memory_cache()
    assert _census() == (0, 0)
    assert not trace._derived
    assert _memo_holders() == []


def _interleaved_requests() -> list[RunRequest]:
    """Requests alternating two traces of kafka, A (default input) and
    B (mixed-load), across the online, offline and profiled policies."""
    requests = []
    for policy in ("lru", "belady", "flack", "furbys"):
        for input_name in ("default", "mixed-load"):
            requests.append(RunRequest(app="kafka", policy=policy,
                                       input_name=input_name, trace_len=3000))
    # Cross-input FURBYS profiles on the other traces, then runs on its own.
    requests.append(RunRequest(app="kafka", policy="furbys",
                               input_name="mixed-load", trace_len=3000,
                               profile_inputs=("default", "alt-seed")))
    requests.append(RunRequest(app="kafka", policy="furbys",
                               input_name="default", trace_len=3000,
                               profile_inputs=("alt-seed", "mixed-load")))
    return requests


def test_interleaved_traces_match_solo_runs():
    requests = _interleaved_requests()

    solo = []
    for request in requests:
        clear_memory_cache()
        solo.append(dataclasses.asdict(run(request)))

    clear_memory_cache()
    sequential = []
    for request in requests:
        sequential.append(dataclasses.asdict(run(request)))
        assert memo_census()["traces"] <= 1, request
    assert len(_memo_holders()) <= 1

    clear_memory_cache()
    batch, _ = run_batch(requests, jobs=1)
    assert [dataclasses.asdict(stats) for stats in batch] == solo
    assert sequential == solo
    assert len(_memo_holders()) <= 1
    clear_memory_cache()


def test_cross_validation_batch_leaves_one_memo_holder(monkeypatch):
    monkeypatch.setenv("REPRO_APPS", "kafka,tomcat,mysql")
    monkeypatch.setenv("REPRO_TRACE_LEN", "3000")
    monkeypatch.setenv("REPRO_JOBS", "1")
    clear_memory_cache()
    result = fig18_cross_validation()
    assert len(result["rows"]) == 3
    holders = _memo_holders()
    assert len(holders) <= 1
    assert memo_census()["traces"] == len(holders)
    clear_memory_cache()
