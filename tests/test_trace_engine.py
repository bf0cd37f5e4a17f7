"""Columnar trace engine: packed columns, the v2 binary format, the
disk/LRU trace caches, memo-key hygiene and the pooled fan-out.

Traces are built and shipped columnar; the generator's object walk
survives as an RNG-order oracle, and both must produce bit-identical
lookup sequences.
"""

import gc
import io
import os
import subprocess
import sys

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
from repro.workloads.apps import get_profile

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
    """The packed payload is the five columns back to back: 8 + 4 + 4
    + 4 + 1 bytes per lookup, starts first."""
    columns = TraceColumns.from_lookups(lookups)
    payload = columns.to_payload()
    assert len(payload) == 21 * len(lookups)
    assert payload[:8 * len(lookups)] == columns.starts.tobytes()


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
    """generate matches the object walk, MPKI calibration included.

    The columnar walk calibrates from its own first 12,000 lookups; the
    object walk runs two explicit pilot walks.  Lengths at and past that
    prefix make the rates switch at the end of, or in the middle of,
    the walk.
    """
    from repro.workloads.generator import TraceGenerator
    from repro.workloads.registry import build_app_trace

    cases = [
        ("kafka", "default", 3000),
        ("kafka", "alt-seed", 12000),
        ("kafka", "mixed-load", 12001),
        ("wordpress", "alt-seed", 12001),
        ("wordpress", "mixed-load", 20000),
    ]
    fast = [build_app_trace(get_profile(app), name, n) for app, name, n in cases]
    monkeypatch.setattr(
        TraceGenerator, "generate", TraceGenerator._generate_reference)
    for trace, (app, name, n) in zip(fast, cases):
        reference = build_app_trace(get_profile(app), name, n)
        assert trace.has_columns() and not reference.has_columns()
        assert trace.total_mispredictions > 0
        assert trace.lookups == reference.lookups, (app, name, n)
        assert trace.metadata == reference.metadata


def test_generator_uncalibrated_matches_object_walk():
    """generate_trace without an MPKI target never calibrates."""
    from repro.workloads.cfg import build_cfg
    from repro.workloads.generator import TraceGenerator, generate_trace

    cfg = build_cfg(seed=11, functions=60, blocks_per_function=(3, 8),
                    insts_per_block=(3, 9), mean_iterations=2.0)
    fast = generate_trace(cfg, 13000, seed=5, target_mispredict_mpki=None)
    reference = TraceGenerator(cfg, seed=5)._generate_reference(13000)
    assert fast.lookups == reference.lookups


def test_generator_zero_measured_mpki_keeps_multiplier():
    """A CFG whose prefix never mispredicts leaves the multiplier alone."""
    from repro.workloads.cfg import build_cfg
    from repro.workloads.generator import TraceGenerator

    cfg = build_cfg(seed=12, functions=40, blocks_per_function=(3, 7),
                    insts_per_block=(3, 8), mean_iterations=2.0)
    for function in cfg.functions:
        for block in function.blocks:
            block.mispredict_rate = 0.0
    fast_gen = TraceGenerator(cfg, seed=8, target_mispredict_mpki=3.0)
    ref_gen = TraceGenerator(cfg, seed=8, target_mispredict_mpki=3.0)
    fast = fast_gen.generate(12500)
    assert fast.lookups == ref_gen._generate_reference(12500).lookups
    assert fast.total_mispredictions == 0
    assert fast_gen._mispredict_mult == ref_gen._mispredict_mult == 1.0


# --- registry caches ----------------------------------------------------------

def test_trace_cache_lru_bound(monkeypatch):
    from repro.workloads import registry

    registry.clear_trace_cache()
    monkeypatch.setenv("REPRO_TRACE_CACHE_CAP", "2")
    for length in (500, 600, 700):
        registry.get_trace("kafka", "default", length)
    assert len(registry._trace_cache) == 2
    # Oldest (500) evicted; newest two retained.
    assert ("kafka", "default", 500) not in registry._trace_cache
    assert ("kafka", "default", 700) in registry._trace_cache
    assert registry.trace_cache_stats()["evictions"] == 1
    registry.clear_trace_cache()


def test_trace_cache_cap_read_at_use(monkeypatch):
    """REPRO_TRACE_CACHE_CAP is parsed when used, not at import."""
    from repro.errors import ReproError
    from repro.workloads import registry

    monkeypatch.setenv("REPRO_TRACE_CACHE_CAP", "3")
    assert registry.trace_cache_cap() == 3
    monkeypatch.setenv("REPRO_TRACE_CACHE_CAP", "abc")
    with pytest.raises(ReproError, match="REPRO_TRACE_CACHE_CAP"):
        registry.trace_cache_cap()
    monkeypatch.delenv("REPRO_TRACE_CACHE_CAP")
    assert registry.trace_cache_cap() == registry.DEFAULT_TRACE_CACHE_CAP


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_malformed_trace_len_names_the_variable(monkeypatch, value):
    from repro.errors import ReproError
    from repro.workloads import registry

    monkeypatch.setenv("REPRO_TRACE_LEN", value)
    with pytest.raises(ReproError, match="REPRO_TRACE_LEN"):
        registry.default_trace_len()


def test_blank_trace_len_means_unset(monkeypatch):
    from repro.workloads import registry

    monkeypatch.setenv("REPRO_TRACE_LEN", " ")
    assert registry.env_trace_len() is None
    assert registry.default_trace_len() == registry.DEFAULT_TRACE_LEN
    monkeypatch.setenv("REPRO_TRACE_LEN", " 1200 ")
    assert registry.default_trace_len() == 1200


def test_malformed_trace_cache_cap_does_not_break_import():
    env = dict(os.environ, REPRO_TRACE_CACHE_CAP="abc",
               PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "ValueError" not in result.stderr


def test_cfg_built_once_per_app(monkeypatch):
    """An app's inputs share one CFG; a different app replaces it."""
    from repro.workloads import registry

    built = []
    real_build = registry.build_cfg

    def counting_build(**kwargs):
        # The memo is emptied before a different CFG is built, so at
        # most one CFG is ever held.
        assert registry._cfg_memo is None
        built.append(kwargs["seed"])
        return real_build(**kwargs)

    monkeypatch.setattr(registry, "build_cfg", counting_build)
    registry.clear_trace_cache()
    for input_name in ("default", "alt-seed", "mixed-load"):
        registry.build_app_trace(get_profile("kafka"), input_name, 600)
    assert len(built) == 1
    stats = registry.trace_cache_stats()
    assert (stats["cfg_builds"], stats["cfg_reuses"]) == (1, 2)
    kafka_cfg = registry._cfg_memo[1]
    registry.build_app_trace(get_profile("postgres"), "default", 600)
    assert len(built) == 2
    assert registry._cfg_memo[1] is not kafka_cfg
    registry.clear_trace_cache()
    assert registry._cfg_memo is None


def test_generation_leaves_shared_cfg_untouched():
    """Calibration rescales generator-local rates, never a BasicBlock."""
    import copy

    from repro.workloads import registry

    registry.clear_trace_cache()
    registry.build_app_trace(get_profile("tomcat"), "default", 500)
    _, cfg, segments = registry._cfg_memo
    before = copy.deepcopy(cfg)
    segments_before = copy.deepcopy(segments)
    for input_name in ("alt-seed", "mixed-load"):
        registry.build_app_trace(get_profile("tomcat"), input_name, 13000)
    assert registry._cfg_memo[1] is cfg
    assert cfg == before
    assert segments == segments_before
    registry.clear_trace_cache()


def test_clear_memory_cache_clears_traces():
    from repro.harness.runner import clear_memory_cache
    from repro.workloads import registry

    registry.clear_trace_cache()
    registry.get_trace("kafka", "default", 400)
    assert registry._trace_cache
    registry.build_app_trace(get_profile("kafka"), "alt-seed", 400)
    assert registry._cfg_memo is not None
    clear_memory_cache()
    assert not registry._trace_cache
    assert registry._cfg_memo is None


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


# --- pooled fan-out ------------------------------------------------------------

def test_parallel_batch_builds_each_trace_once_in_parent(monkeypatch, tmp_path):
    """A pooled batch builds each cold trace once, in the parent; the
    forked workers inherit it and the results match the serial batch."""
    from repro.harness.parallel import run_batch
    from repro.harness.runner import RunRequest, clear_memory_cache
    from repro.workloads import registry

    monkeypatch.setenv("REPRO_CACHE", "0")
    builds = tmp_path / "builds"
    real_build = registry.build_app_trace

    def logged_build(profile, input_name, n_lookups):
        with open(builds, "a") as log:
            log.write(f"{profile.name} {os.getpid()}\n")
        return real_build(profile, input_name, n_lookups)

    monkeypatch.setattr(registry, "build_app_trace", logged_build)
    requests = [
        RunRequest(app=app, policy=policy, trace_len=1500)
        for app in ("kafka", "clang")
        for policy in ("lru", "srrip")
    ]
    registry.clear_trace_cache()
    clear_memory_cache()
    try:
        parallel, report = run_batch(requests, jobs=2)
        assert report.executed == len(requests)
        built = [line.split() for line in builds.read_text().splitlines()]
        assert sorted(app for app, _ in built) == ["clang", "kafka"]
        assert {int(pid) for _, pid in built} == {os.getpid()}
        clear_memory_cache()
        serial, _ = run_batch(requests, jobs=1)
        assert parallel == serial
    finally:
        clear_memory_cache()
        registry.clear_trace_cache()
