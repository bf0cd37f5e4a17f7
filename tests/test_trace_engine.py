"""Columnar trace engine: packed columns, the v2 binary format, the
disk/LRU trace caches, memo-key hygiene and the shared-memory fan-out.

Traces are built and shipped columnar; the generator's object walk
survives as an RNG-order oracle, and both must produce bit-identical
lookup sequences.
"""

import gc
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trace import (
    BINARY_MAGIC,
    Trace,
    TraceColumns,
    TraceError,
    TraceMetadata,
    callable_token,
)
from repro.uopcache.cache import default_set_index

from .conftest import cyclic_trace as make_cyclic_trace
from .conftest import pw

lookup_strategy = st.builds(
    pw,
    start=st.integers(min_value=0x1000, max_value=0x8000).map(lambda x: x * 16),
    uops=st.integers(min_value=1, max_value=64),
    branch=st.booleans(),
    mispredicted=st.booleans(),
)

lookups_strategy = st.lists(lookup_strategy, min_size=1, max_size=80)


# --- columnar backing store ---------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(lookups_strategy)
def test_columns_roundtrip_materialize(lookups):
    """lookups -> columns -> lookups is the identity."""
    columns = TraceColumns.from_lookups(lookups)
    assert len(columns) == len(lookups)
    assert columns.materialize() == lookups


@settings(max_examples=50, deadline=None)
@given(lookups_strategy)
def test_columns_totals_match_object_scan(lookups):
    uops, insts, branches, mis = TraceColumns.from_lookups(lookups).totals()
    assert uops == sum(pw.uops for pw in lookups)
    assert insts == sum(pw.insts for pw in lookups)
    assert branches == sum(1 for pw in lookups if pw.contains_branch)
    assert mis == sum(1 for pw in lookups if pw.mispredicted)


@settings(max_examples=50, deadline=None)
@given(lookups_strategy)
def test_columns_payload_roundtrip(lookups):
    """columns -> packed bytes -> columns is the identity."""
    columns = TraceColumns.from_lookups(lookups)
    payload = columns.to_payload()
    assert len(payload) == TraceColumns.payload_size(len(lookups))
    restored = TraceColumns.from_payload(payload, len(lookups))
    assert restored == columns
    assert restored.materialize() == lookups


def test_columns_reject_ragged_and_overflow():
    from array import array

    with pytest.raises(TraceError):
        TraceColumns(
            starts=array("Q", [1, 2]), uops=array("I", [1]),
            insts=array("I", [1, 1]), bytes_len=array("I", [1, 1]),
            flags=array("B", [0, 0]),
        )
    with pytest.raises(TraceError):
        TraceColumns.from_lookups([pw(start=1, uops=2 ** 40)])


def test_trace_facade_equivalence_both_backings():
    """A columnar trace and an object trace with the same rows agree on
    every façade query."""
    cyclic_trace = make_cyclic_trace(8, 5)
    columnar = Trace(
        columns=TraceColumns.from_lookups(cyclic_trace.lookups),
        metadata=cyclic_trace.metadata,
    )
    assert columnar.has_columns()
    assert columnar == cyclic_trace
    assert len(columnar) == len(cyclic_trace)
    assert columnar.total_uops == cyclic_trace.total_uops
    assert columnar.total_branches == cyclic_trace.total_branches
    assert columnar.unique_starts() == cyclic_trace.unique_starts()
    assert columnar.slice(2, 7).lookups == cyclic_trace.slice(2, 7).lookups
    from repro.offline.intervals import _set_timeline

    assert _set_timeline(columnar, 8, default_set_index) == \
        _set_timeline(cyclic_trace, 8, default_set_index)


def test_trace_rejects_both_backings():
    with pytest.raises(TraceError):
        Trace([pw(start=1)], columns=TraceColumns())


def test_pickle_roundtrip_keeps_columns():
    import pickle

    trace = Trace(columns=TraceColumns.from_lookups([pw(start=16, uops=3)]))
    clone = pickle.loads(pickle.dumps(trace))
    assert clone.has_columns()
    assert clone == trace


# --- v1 text <-> v2 binary <-> columnar round-trips ---------------------------

@settings(max_examples=40, deadline=None)
@given(lookups_strategy)
def test_v1_v2_columnar_roundtrips_identical(lookups):
    """All three representations reproduce the same PWLookup sequence."""
    meta = TraceMetadata(app="t", input_name="i", seed=7)
    trace = Trace(columns=TraceColumns.from_lookups(lookups), metadata=meta)

    text = io.StringIO()
    trace.dump(text)
    from_v1 = Trace.parse(io.StringIO(text.getvalue()))

    binary = io.BytesIO()
    trace.dump_binary(binary)
    from_v2 = Trace.parse_binary(io.BytesIO(binary.getvalue()))

    assert from_v1.lookups == lookups
    assert from_v2.lookups == lookups
    assert from_v2.metadata == meta
    # v2 -> v1 -> v2 closes the loop.
    text2 = io.StringIO()
    from_v2.dump(text2)
    assert Trace.parse(io.StringIO(text2.getvalue())).lookups == lookups


def test_v1_legacy_six_field_rows():
    """Pre-contbr v1 rows (6 fields) still parse, defaulting contains
    to the terminator flag."""
    text = (
        "#repro-trace v1\n"
        "#app=legacy input=default seed=3\n"
        "start uops insts bytes branch mispred\n"
        "1000 4 3 16 1 0\n"
        "2000 2 2 8 0 1\n"
    )
    trace = Trace.parse(io.StringIO(text))
    assert trace.metadata.app == "legacy"
    first, second = trace.lookups
    assert first.terminated_by_branch and first.contains_branch
    assert not second.terminated_by_branch and not second.contains_branch
    assert second.mispredicted


def test_v2_truncated_and_corrupt_files():
    trace = Trace(
        columns=TraceColumns.from_lookups([pw(start=32, uops=4)] * 3),
        metadata=TraceMetadata(app="x", input_name="d", seed=1),
    )
    stream = io.BytesIO()
    trace.dump_binary(stream)
    blob = stream.getvalue()

    with pytest.raises(TraceError):  # wrong magic
        Trace.parse_binary(io.BytesIO(b"#not-a-trace...." + blob[16:]))
    with pytest.raises(TraceError):  # truncated header
        Trace.parse_binary(io.BytesIO(blob[:20]))
    with pytest.raises(TraceError):  # truncated column payload
        Trace.parse_binary(io.BytesIO(blob[:-5]))
    with pytest.raises(TraceError):  # trailing junk
        Trace.parse_binary(io.BytesIO(blob + b"x"))


def test_load_any_sniffs_format(tmp_path):
    trace = Trace(
        columns=TraceColumns.from_lookups([pw(start=64, uops=6)]),
        metadata=TraceMetadata(app="s", input_name="d", seed=2),
    )
    v1 = tmp_path / "t.trace"
    v2 = tmp_path / "t.bin"
    trace.save(v1)
    trace.save_binary(v2)
    assert v2.read_bytes().startswith(BINARY_MAGIC)
    assert Trace.load_any(v1).lookups == trace.lookups
    assert Trace.load_any(v2) == trace


# --- generator fast path ------------------------------------------------------

def test_generator_fastpath_bit_identical(monkeypatch):
    """generate matches the object walk, MPKI pilot included."""
    from repro.workloads.apps import get_profile
    from repro.workloads.generator import TraceGenerator
    from repro.workloads.registry import build_app_trace

    fast = build_app_trace(get_profile("kafka"), "default", 3000)
    assert fast.has_columns()
    monkeypatch.setattr(
        TraceGenerator, "generate", TraceGenerator._generate_reference)
    reference = build_app_trace(get_profile("kafka"), "default", 3000)
    assert not reference.has_columns()
    assert fast.lookups == reference.lookups
    assert fast.metadata == reference.metadata


# --- registry caches ----------------------------------------------------------

def test_trace_cache_lru_bound(monkeypatch):
    from repro.workloads import registry

    registry.clear_trace_cache()
    monkeypatch.setattr(registry, "TRACE_CACHE_CAP", 2)
    for length in (500, 600, 700):
        registry.get_trace("kafka", "default", length)
    assert len(registry._trace_cache) == 2
    # Oldest (500) evicted; newest two retained.
    assert ("kafka", "default", 500) not in registry._trace_cache
    assert ("kafka", "default", 700) in registry._trace_cache
    assert registry.trace_cache_stats()["evictions"] == 1
    registry.clear_trace_cache()


def test_clear_memory_cache_clears_traces():
    from repro.harness.runner import clear_memory_cache
    from repro.workloads import registry

    registry.get_trace("kafka", "default", 400)
    assert registry._trace_cache
    clear_memory_cache()
    assert not registry._trace_cache


def test_disk_trace_cache_hit(tmp_path, monkeypatch):
    """A second process-cold lookup is served from disk, not generated."""
    from repro.workloads import registry

    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    registry.clear_trace_cache()
    first = registry.get_trace("kafka", "default", 800)
    assert registry.trace_cache_stats()["generated"] == 1
    assert list(tmp_path.glob("trace-*.bin"))
    registry.clear_trace_cache()  # simulate a fresh process
    second = registry.get_trace("kafka", "default", 800)
    stats = registry.trace_cache_stats()
    assert stats["disk_hits"] == 1 and stats["generated"] == 0
    assert second == first
    registry.clear_trace_cache()


# --- memo-key hygiene ---------------------------------------------------------

def test_callable_token_shares_module_functions():
    """Equivalent references to a module-level function share one key."""
    from repro.uopcache import cache as cache_module

    assert callable_token(default_set_index) == callable_token(
        cache_module.default_set_index
    )
    token = callable_token(default_set_index)
    assert isinstance(token, tuple) and token[0] == "fn"


def test_callable_token_does_not_pin_closures():
    def make():
        bound = 3

        def closure(start, n_sets):
            return (start + bound) % n_sets

        return closure

    fn = make()
    token = callable_token(fn)
    import weakref

    assert isinstance(token, weakref.ref)
    del fn
    gc.collect()
    assert token() is None  # the memo key does not keep the closure alive


def test_prepared_shares_pass_across_equivalent_set_index_fns():
    """The per-lookup set timeline keys its memo by callable_token."""
    from repro.offline.intervals import _set_timeline
    from repro.uopcache import cache as cache_module

    cyclic_trace = make_cyclic_trace(8, 5)
    first = _set_timeline(cyclic_trace, 8, default_set_index)
    second = _set_timeline(cyclic_trace, 8, cache_module.default_set_index)
    assert first is second  # one memo entry, one derivation pass


# --- shared-memory fan-out ----------------------------------------------------

def test_shm_export_attach_roundtrip(monkeypatch):
    """The worker-side attach reconstructs the exact parent trace."""
    pytest.importorskip("multiprocessing.shared_memory")
    from repro.harness.parallel import _attach_traces, _export_traces, _release_segments
    from repro.harness.runner import RunRequest
    from repro.workloads import registry

    monkeypatch.setenv("REPRO_CACHE", "0")
    registry.clear_trace_cache()
    request = RunRequest(app="kafka", policy="lru", trace_len=1200)
    descriptors, segments = _export_traces([request])
    try:
        assert ("kafka", "default", 1200) in descriptors
        parent = registry.get_trace("kafka", "default", 1200)
        registry.clear_trace_cache()  # worker starts cold
        _attach_traces(descriptors)
        seeded = registry._trace_cache[("kafka", "default", 1200)]
        assert seeded.has_columns()
        assert seeded == parent
    finally:
        _release_segments(segments)
        registry.clear_trace_cache()


def test_parallel_batch_identical_with_shm(monkeypatch):
    from repro.harness.parallel import run_batch
    from repro.harness.runner import RunRequest, clear_memory_cache

    monkeypatch.setenv("REPRO_CACHE", "0")
    requests = [
        RunRequest(app=app, policy=policy, trace_len=1500)
        for app in ("kafka", "clang")
        for policy in ("lru", "srrip")
    ]
    clear_memory_cache()
    serial, _ = run_batch(requests, jobs=1)
    clear_memory_cache()
    parallel, report = run_batch(requests, jobs=2)
    assert parallel == serial
    assert report.executed == len(requests)
    clear_memory_cache()
