"""Tests for the experiment harness (runner, reporting, CLI)."""

import dataclasses
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ReproError, UnknownPolicyError
from repro.harness import artifacts
from repro.harness.reporting import format_table, mean, percent
from repro.harness.runner import (
    RunRequest,
    RunResult,
    clear_memory_cache,
    run,
)

SMALL = dict(trace_len=1500, warmup=500)


def stats_path(root, request: RunRequest):
    """Where the store keeps ``request``'s result under cache dir ``root``."""
    return root / f"{artifacts.key('stats', request.cache_key())}.json"


class TestRunRequest:
    def test_cache_key_is_stable(self):
        a = RunRequest(app="kafka", policy="lru")
        b = RunRequest(app="kafka", policy="lru")
        assert a.cache_key() == b.cache_key()

    def test_cache_key_differs_by_field(self):
        a = RunRequest(app="kafka", policy="lru")
        b = RunRequest(app="kafka", policy="srrip")
        c = RunRequest(app="kafka", policy="lru", cache_entries=1024)
        assert len({a.cache_key(), b.cache_key(), c.cache_key()}) == 3

    def test_build_config_overrides(self):
        request = RunRequest(app="kafka", cache_entries=1024, cache_ways=16,
                             inclusive=False, perfect=("icache",))
        config = request.build_config()
        assert config.uop_cache.entries == 1024
        assert config.uop_cache.ways == 16
        assert not config.uop_cache.inclusive_with_icache
        assert config.perfect_icache

    def test_resolved_warmup_defaults_to_third(self):
        request = RunRequest(app="kafka", trace_len=3000)
        assert request.resolved_warmup() == 1000


class TestRun:
    def test_basic_run_and_memoization(self):
        clear_memory_cache()
        request = RunRequest(app="kafka", policy="lru", **SMALL)
        first = run(request)
        second = run(request)
        assert first is second
        assert first.lookups == 1000  # measured window only

    def test_offline_policy_names(self):
        stats = run(RunRequest(app="kafka", policy="belady", **SMALL))
        assert stats.uops_total > 0

    def test_flack_ablation_names(self):
        for name in ("flack[foo]", "flack[A]", "flack[A+VC]", "flack[A+VC+SB]"):
            stats = run(RunRequest(app="kafka", policy=name, **SMALL))
            assert stats.uops_total > 0

    def test_furbys_with_profile_inputs(self):
        stats = run(RunRequest(
            app="kafka", policy="furbys",
            profile_inputs=("alt-seed",), **SMALL,
        ))
        assert stats.uops_total > 0

    def test_thermometer(self):
        stats = run(RunRequest(app="kafka", policy="thermometer", **SMALL))
        assert stats.uops_total > 0

    def test_thermometer_rejects_several_profile_inputs(self):
        # Thermometer trains on one input; it must not silently drop the
        # second one that its request (and so its cache key) names.
        request = RunRequest(app="kafka", policy="thermometer",
                             profile_inputs=("default", "alt-seed"), **SMALL)
        with pytest.raises(ReproError, match="profile_inputs"):
            run(request)

    def test_unknown_policy(self):
        with pytest.raises(UnknownPolicyError):
            run(RunRequest(app="kafka", policy="plru", **SMALL))

    def test_disk_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_memory_cache()
        request = RunRequest(app="kafka", policy="lru", **SMALL)
        first = run(request)
        assert list(tmp_path.glob("*.json"))
        clear_memory_cache()
        second = run(request)  # reloaded from disk
        assert second.uops_missed == first.uops_missed

    def test_corrupt_disk_entry_is_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_memory_cache()
        request = RunRequest(app="kafka", policy="lru", **SMALL)
        path = stats_path(tmp_path, request)
        path.write_text("{not json")
        stats = run(request)
        assert stats.uops_total > 0


class TestSharedArtifacts:
    """The profiling artifact store behind FURBYS/Thermometer requests."""

    def test_furbys_and_thermometer_share_one_profiling_replay(self, monkeypatch):
        from repro.harness import runner

        clear_memory_cache()
        replays = []
        original = runner._run_replay

        def counting(replay):
            replays.append(replay)
            return original(replay)

        monkeypatch.setattr(runner, "_run_replay", counting)
        run(RunRequest(app="kafka", policy="furbys", **SMALL))
        run(RunRequest(app="kafka", policy="thermometer", **SMALL))
        # Same app/input/geometry/source: one replay serves both, plus
        # any hint-parameter variant.
        run(RunRequest(app="kafka", policy="furbys", hint_bits=2, **SMALL))
        assert len(replays) == 1
        memory = artifacts.census()["memory"]
        assert memory["hitstats"] == 1
        assert memory["profile"] == 2  # hint_bits 3 and 2
        assert memory["stats"] == 3

    def test_profile_artifacts_persist_to_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_memory_cache()
        request = RunRequest(app="kafka", policy="furbys", **SMALL)
        first = run(request)
        assert list(tmp_path.glob("hitstats-*.json"))
        assert list(tmp_path.glob("profile-*.json"))
        clear_memory_cache()
        second = run(RunRequest(app="kafka", policy="furbys", hint_bits=2,
                                **SMALL))
        assert first.uops_total > 0 and second.uops_total > 0

    def test_corrupt_artifact_is_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_memory_cache()
        request = RunRequest(app="kafka", policy="furbys", **SMALL)
        reference = dataclasses.asdict(run(request))
        for path in list(tmp_path.glob("hitstats-*.json")) + list(
            tmp_path.glob("profile-*.json")
        ):
            path.write_text("{torn")
        clear_memory_cache()
        again = dataclasses.asdict(run(request))
        # The simulation result itself still round-trips through the
        # stats cache; force a cold recompute of the profile too.
        for path in tmp_path.glob("*.json"):
            path.unlink()
        clear_memory_cache()
        cold = dataclasses.asdict(run(request))
        assert reference == again == cold

    def test_artifact_sharing_matches_reference_path(self):
        """The shared artifact store yields exactly the hint map a direct
        profiling run builds."""
        from repro.harness.runner import shared_profile
        from repro.profiling import profile_application
        from repro.workloads.registry import get_trace

        clear_memory_cache()
        request = RunRequest(app="kafka", policy="furbys", **SMALL)
        config = request.build_config()
        shared = shared_profile(request, "default")
        direct = profile_application(
            get_trace("kafka", "default", request.trace_len), config,
            source="flack", n_bits=3, scope="per_set",
        )
        assert shared == direct.hints

    def test_two_input_merge_matches_merged_profile(self):
        """A cross-input request deploys exactly the hints of the merged
        per-input profiles."""
        from repro.harness.runner import _profile_for
        from repro.profiling import profile_application
        from repro.workloads.registry import get_trace

        clear_memory_cache()
        request = RunRequest(app="kafka", policy="furbys",
                             profile_inputs=("alt-seed", "default"), **SMALL)
        config = request.build_config()
        profiles = [
            profile_application(get_trace("kafka", name, request.trace_len),
                                config)
            for name in ("alt-seed", "default")
        ]
        merged = profiles[0].merged_with(profiles[1])
        assert _profile_for(request) == merged.hints

    def test_starts_above_two_to_the_63_profile_and_round_trip(
        self, tmp_path, monkeypatch
    ):
        """PW starts use the trace's full u64 range (kernel-space
        addresses): a loaded v2 trace with such starts profiles, and its
        hit stats and hint map round-trip through the store's disk
        layer unchanged."""
        import io

        from repro.core.trace import Trace
        from repro.harness import runner
        from repro.harness.runner import shared_hit_stats, shared_profile
        from repro.profiling import (collect_hit_rates, collect_hit_stats,
                                     profile_application, three_class_profile)

        from .conftest import pw

        kernel = 0xFFFF_FFFF_8100_0000
        starts = [0x40_0000 + 64 * i for i in range(40)]
        starts += [kernel + 64 * i for i in range(40)]
        lookups = [pw(starts[(i * 7 + i // 80) % len(starts)], 4 + i % 5)
                   for i in range(1200)]
        stream = io.BytesIO()
        Trace(lookups).dump_binary(stream)
        stream.seek(0)
        trace = Trace.parse_binary(stream)
        assert max(trace.unique_starts()) >= 2 ** 63

        config = RunRequest(app="kafka", policy="furbys").build_config()
        stats = collect_hit_stats(trace, config)
        assert stats.starts.tolist() == sorted(trace.unique_starts())
        assert set(collect_hit_rates(trace, config)) == trace.unique_starts()
        hints = profile_application(trace, config, hit_stats=stats).hints
        assert max(hints) >= 2 ** 63
        assert set(three_class_profile(trace, config, hit_stats=stats)) \
            == trace.unique_starts()

        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(runner, "get_trace", lambda *args: trace)
        clear_memory_cache()
        request = RunRequest(app="kafka", policy="furbys", trace_len=1200)
        computed = shared_hit_stats(request, "default")
        computed_hints = shared_profile(request, "default")
        clear_memory_cache()  # the second calls read the disk entries
        loaded = shared_hit_stats(request, "default")
        loaded_hints = shared_profile(request, "default")
        assert artifacts.census()["disk"]["hitstats"] == 1
        for column, again, other in zip(computed, loaded, stats):
            assert column.tolist() == again.tolist() == other.tolist()
        assert computed_hints == loaded_hints == hints
        clear_memory_cache()

    def test_store_holds_profiling_artifacts_as_columns(self, monkeypatch):
        """A cross-validation batch leaves no per-start dict in the
        store's memory, and its results equal a run on a cleared cache."""
        from repro.harness.experiments import fig18_cross_validation

        monkeypatch.setenv("REPRO_APPS", "kafka,postgres")
        monkeypatch.setenv("REPRO_TRACE_LEN", "3000")
        monkeypatch.setenv("REPRO_JOBS", "1")  # the artifacts stay in this process
        clear_memory_cache()

        def stored_stats():
            return {store_key: dataclasses.asdict(value)
                    for store_key, value in artifacts._memory.items()
                    if store_key.startswith("stats-")}

        table = fig18_cross_validation()
        stats = stored_stats()
        profiling = {store_key: value
                     for store_key, value in artifacts._memory.items()
                     if store_key.startswith(("hitstats-", "profile-"))}
        kinds = [store_key.partition("-")[0] for store_key in profiling]
        # 2 apps x 3 inputs (the evaluated one and two training inputs).
        assert (kinds.count("hitstats"), kinds.count("profile")) == (6, 6)
        for value in profiling.values():
            assert isinstance(value, tuple) and not isinstance(value, dict)
            assert len(value) in (2, 3)
            dtypes = [np.uint64] + [np.int64] * (len(value) - 1)
            for column, dtype in zip(value, dtypes):
                assert isinstance(column, np.ndarray)
                assert column.dtype == dtype and column.ndim == 1
                assert column.size == value[0].size > 0
            assert (value[0][1:] > value[0][:-1]).all()  # ascending starts

        clear_memory_cache()
        assert fig18_cross_validation() == table
        assert stored_stats() == stats
        clear_memory_cache()


def _hammer_same_key(cache_dir: str, rounds: int) -> str:
    """Worker: repeatedly publish the same cache entry (integrity test)."""
    os.environ["REPRO_CACHE"] = "1"
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    from repro.harness.runner import clear_memory_cache, store_stats

    clear_memory_cache()
    request = RunRequest(app="kafka", policy="lru", **SMALL)
    stats = run(request)
    key = request.cache_key()
    for _ in range(rounds):
        store_stats(request, stats, key)
    return key


class TestCacheIntegrity:
    def test_disk_write_is_atomic_under_concurrency(self, tmp_path):
        """Two processes publishing the same key never expose a torn file."""
        request = RunRequest(app="kafka", policy="lru", **SMALL)
        path = stats_path(tmp_path, request)
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(_hammer_same_key, str(tmp_path), 40)
                for _ in range(2)
            ]
            # Read concurrently with the writers: every observed state
            # must be complete, valid JSON (os.replace is atomic).
            while not all(f.done() for f in futures):
                if path.exists():
                    payload = json.loads(path.read_text())
                    assert payload["request"]["app"] == "kafka"
            for future in futures:
                assert future.result() == request.cache_key()
        assert json.loads(path.read_text())["request"]["policy"] == "lru"
        assert not list(tmp_path.glob("*.tmp"))

    def test_corrupt_entry_discarded_by_batch_engine(self, tmp_path,
                                                     monkeypatch):
        from repro.harness.parallel import run_many

        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_memory_cache()
        request = RunRequest(app="kafka", policy="lru", **SMALL)
        path = stats_path(tmp_path, request)
        path.write_text('{"request": {"app": "kafka"')  # truncated write
        stats = run_many([request], jobs=1)[0]
        assert stats.uops_total > 0
        assert json.loads(path.read_text())["stats"]  # rewritten whole

    def test_interrupted_tmp_file_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_memory_cache()
        request = RunRequest(app="kafka", policy="lru", **SMALL)
        path = stats_path(tmp_path, request)
        path.with_name(f"{path.name}.12345.tmp").write_text("{trunc")
        assert run(request).uops_total > 0

    @pytest.mark.parametrize("payload", [
        {},
        {"stats": {"uops_total": 3, "hit_rate": 0.5}, "request": {"app": "k"}},
        {"rates": [[7, 0.25]], "sha256": "stale", "note": "é \"quoted\""},
    ], ids=["empty", "nested", "stale-checksum"])
    def test_stored_json_round_trips_with_checksum(self, tmp_path, payload):
        import hashlib

        from repro.harness.artifacts import _store_json, load_validated_json

        path = tmp_path / "entry.json"
        _store_json(path, payload)
        loaded = load_validated_json(path, "test")
        expected = {k: v for k, v in payload.items() if k != "sha256"}
        assert {k: v for k, v in loaded.items() if k != "sha256"} == expected
        # Same checksum definition as before: sha256 of the sorted JSON
        # without the checksum field.
        canonical = json.dumps(expected, sort_keys=True)
        assert loaded["sha256"] == hashlib.sha256(canonical.encode()).hexdigest()
        assert not (tmp_path / "entry.json.corrupt").exists()


class TestQuarantine:
    """Corrupt disk artifacts are set aside as ``*.corrupt``, counted,
    and recomputed — never silently deleted, never trusted."""

    def _entry(self, tmp_path, monkeypatch) -> tuple[RunRequest, object]:
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_memory_cache()
        request = RunRequest(app="kafka", policy="lru", **SMALL)
        run(request)
        return request, stats_path(tmp_path, request)

    def test_truncated_stats_entry_is_quarantined(self, tmp_path, monkeypatch):
        request, path = self._entry(tmp_path, monkeypatch)
        path.write_text('{"request": {"app": "kafka"')  # torn write
        clear_memory_cache()
        assert run(request).uops_total > 0
        assert (tmp_path / f"{path.name}.corrupt").exists()
        assert json.loads(path.read_text())["stats"]  # rewritten whole

    def test_checksum_mismatch_is_quarantined(self, tmp_path, monkeypatch):
        from repro.harness import resilience

        request, path = self._entry(tmp_path, monkeypatch)
        payload = json.loads(path.read_text())
        assert payload["sha256"]  # new entries are checksummed
        payload["stats"]["uops_total"] = 1  # bit-rot that still parses
        path.write_text(json.dumps(payload))
        clear_memory_cache()
        before = resilience.global_counters()
        stats = run(request)
        assert stats.uops_total != 1
        assert (tmp_path / f"{path.name}.corrupt").exists()
        delta = resilience.counters_since(before)
        assert delta.get("corrupt_artifact", 0) >= 1

    def test_legacy_entry_without_checksum_is_upgraded(
        self, tmp_path, monkeypatch
    ):
        from repro.harness import resilience

        request, path = self._entry(tmp_path, monkeypatch)
        payload = json.loads(path.read_text())
        del payload["sha256"]
        path.write_text(json.dumps(payload))
        clear_memory_cache()
        before = resilience.global_counters()
        assert run(request).uops_total > 0
        assert not (tmp_path / f"{path.name}.corrupt").exists()
        upgraded = json.loads(path.read_text())
        assert upgraded["sha256"]  # rewritten in place with a checksum
        delta = resilience.counters_since(before)
        assert delta.get("note:cache_upgraded", 0) == 1
        # The upgraded entry must now pass full verification.
        clear_memory_cache()
        assert run(request).uops_total > 0

    def test_undecodable_payload_is_quarantined(self, tmp_path, monkeypatch):
        # Valid JSON, valid checksum, wrong shape: caught at decode time.
        from repro.harness.artifacts import _store_json

        request, path = self._entry(tmp_path, monkeypatch)
        _store_json(path, {"request": {}, "stats": {"nonsense": True}})
        clear_memory_cache()
        assert run(request).uops_total > 0
        assert (tmp_path / f"{path.name}.corrupt").exists()

    def _trace_path(self, tmp_path) -> "object":
        bins = [
            p for p in tmp_path.glob("trace-*.bin")
            if not p.name.endswith(".corrupt")
        ]
        assert len(bins) == 1
        return bins[0]

    def _warm_trace(self, tmp_path, monkeypatch):
        from repro.workloads.registry import clear_trace_cache, get_trace

        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_memory_cache()
        clear_trace_cache()
        trace = get_trace("kafka", "default", 1500)
        clear_trace_cache()
        return trace

    def test_truncated_binary_trace_is_quarantined(
        self, tmp_path, monkeypatch
    ):
        from repro.workloads.registry import get_trace

        reference = self._warm_trace(tmp_path, monkeypatch)
        path = self._trace_path(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        regenerated = get_trace("kafka", "default", 1500)
        assert len(regenerated) == len(reference)
        assert (tmp_path / f"{path.name}.corrupt").exists()

    def test_trace_sidecar_mismatch_is_quarantined(
        self, tmp_path, monkeypatch
    ):
        from repro.harness.artifacts import _trace_sidecar
        from repro.workloads.registry import get_trace

        self._warm_trace(tmp_path, monkeypatch)
        path = self._trace_path(tmp_path)
        sidecar = _trace_sidecar(path)
        assert sidecar.exists()
        sidecar.write_text("0" * 64 + "\n")
        assert len(get_trace("kafka", "default", 1500)) == 1500
        assert (tmp_path / f"{path.name}.corrupt").exists()
        # The quarantine removed the stale sidecar with the entry.
        assert not sidecar.exists() or sidecar.read_text().strip() != "0" * 64


class TestModelVersion:
    """``artifacts.MODEL_VERSION`` is part of every result's store key."""

    def test_bump_misses_memory_and_disk(self, tmp_path, monkeypatch):
        from repro.harness import runner
        from repro.harness.parallel import run_batch

        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_memory_cache()
        requests = [RunRequest(app="kafka", policy=policy, **SMALL)
                    for policy in ("lru", "furbys", "thermometer")]
        results, _ = run_batch(requests, jobs=1)
        reference = [dataclasses.asdict(s) for s in results]
        _, warm = run_batch(requests, jobs=1)
        assert warm.memory_hits == 3
        clear_memory_cache()
        _, warm = run_batch(requests, jobs=1)
        assert warm.disk_hits == 3

        replays = []
        replay = runner._run_replay
        monkeypatch.setattr(runner, "_run_replay",
                            lambda request: replays.append(1) or replay(request))
        monkeypatch.setattr(artifacts, "MODEL_VERSION", "bumped")
        # Memory and disk both still hold every entry of the old version.
        results, bumped = run_batch(requests, jobs=1)
        assert (bumped.memory_hits, bumped.disk_hits) == (0, 0)
        assert bumped.executed == 3
        assert len(replays) == 1  # hitstats and profiles missed too
        assert [dataclasses.asdict(s) for s in results] == reference
        disk = artifacts.census()["disk"]
        assert (disk["stats"], disk["hitstats"], disk["profile"]) == (6, 2, 2)

    def test_golden_stats_change_needs_a_version_bump(self):
        fixtures = Path(__file__).parent / "fixtures"
        recorded = json.loads((fixtures / "model_version.json").read_text())
        golden = (fixtures / "golden_stats.json").read_bytes()
        digest = hashlib.sha256(golden).hexdigest()
        if digest != recorded["golden_stats_sha256"]:
            assert artifacts.MODEL_VERSION != recorded["model_version"], (
                "tests/fixtures/golden_stats.json changed: bump "
                "repro.harness.artifacts.MODEL_VERSION so stored results "
                "of the old model are no longer served")
        assert recorded == {"model_version": artifacts.MODEL_VERSION,
                            "golden_stats_sha256": digest}, (
            "record the new MODEL_VERSION and golden_stats.json sha256 "
            "in tests/fixtures/model_version.json")


class TestProfileInputOrdering:
    def test_profile_input_order_does_not_change_results(self):
        """Regression: merge order must match the sorted cache key."""
        def stats_for(inputs):
            clear_memory_cache()
            return run(RunRequest(app="kafka", policy="furbys",
                                  profile_inputs=inputs, **SMALL))

        forward = stats_for(("alt-seed", "mixed-load"))
        backward = stats_for(("mixed-load", "alt-seed"))
        assert dataclasses.asdict(forward) == dataclasses.asdict(backward)


class TestRunResultSerialization:
    def test_roundtrip(self):
        request = RunRequest(app="kafka", **SMALL)
        stats = run(request)
        payload = json.loads(json.dumps(RunResult(request, stats).to_json()))
        restored = RunResult.stats_from_json(payload)
        assert restored.uops_missed == stats.uops_missed
        assert restored.miss_breakdown.total == stats.miss_breakdown.total


class TestReporting:
    def test_percent(self):
        assert percent(0.1434) == "+14.34%"
        assert percent(-0.05, 1) == "-5.0%"

    def test_format_table_alignment(self):
        table = format_table(("a", "bb"), [("x", "y"), ("long", "z")])
        lines = table.splitlines()
        assert lines[0].startswith("a")
        assert all(len(line) >= 6 for line in lines)

    def test_format_table_title(self):
        table = format_table(("a",), [("1",)], title="T")
        assert table.splitlines()[0] == "T"

    def test_means(self):
        assert mean([1.0, 3.0]) == 2.0
        assert mean([]) == 0.0


class TestCli:
    def test_list(self, capsys):
        from repro.cli import main
        assert main(["list"]) == 0
        assert "fig8" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        from repro.cli import main
        assert main(["fig99"]) == 2

    def test_tab1_runs(self, capsys):
        from repro.cli import main
        assert main(["tab1"]) == 0
        assert "Micro-op cache" in capsys.readouterr().out

    def test_bench_without_a_proof_points_to_the_bench_harness(self, capsys):
        from repro.cli import main
        assert main(["bench"]) == 2
        captured = capsys.readouterr()
        assert "python3 -m bench" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_non_positive_trace_len_flag_names_the_variable(
            self, monkeypatch, value):
        from repro.cli import main
        from repro.errors import ReproError

        # main() writes these; registering them restores them afterwards.
        monkeypatch.setenv("REPRO_TRACE_LEN", "45000")
        monkeypatch.setenv("REPRO_APPS", "kafka")
        with pytest.raises(ReproError, match="REPRO_TRACE_LEN"):
            main(["fig5", "--apps", "kafka", "--trace-len", value])

    @pytest.mark.parametrize("name", ["abl_online_scale",
                                      "abl_offline_scale"])
    def test_scale_ablations_read_trace_len_like_the_default(
            self, monkeypatch, name):
        from repro.errors import ReproError
        from repro.harness import experiments

        monkeypatch.setattr(experiments, "_miss_reduction_matrix",
                            lambda arms, trace_len: {})
        ablation = getattr(experiments, name)
        monkeypatch.setenv("REPRO_TRACE_LEN", " ")
        assert ablation()["trace_len"] == 1_000_000
        monkeypatch.setenv("REPRO_TRACE_LEN", "2000")
        assert ablation()["trace_len"] == 2000
        for value in ("abc", "0", "-5"):
            monkeypatch.setenv("REPRO_TRACE_LEN", value)
            with pytest.raises(ReproError, match="REPRO_TRACE_LEN"):
                ablation()

    def test_trace_len_flag_sets_the_default_trace_length(self, monkeypatch):
        """``--trace-len`` reaches requests that use the default length,
        although the CLI imports the experiments before parsing flags."""
        from repro.cli import main
        from repro.workloads import registry

        # main() writes these; registering them restores them afterwards.
        monkeypatch.setenv("REPRO_TRACE_LEN", "45000")
        monkeypatch.setenv("REPRO_APPS", "kafka")
        monkeypatch.setenv("REPRO_JOBS", "1")
        lengths = []
        remember = registry._remember

        def spy(key, trace):
            lengths.append(key[2])
            remember(key, trace)

        monkeypatch.setattr(registry, "_remember", spy)
        clear_memory_cache()
        argv = ["fig5", "--apps", "kafka", "--trace-len", "3000",
                "--jobs", "1"]
        assert main(argv) == 0
        clear_memory_cache()
        assert lengths and set(lengths) == {3000}


class TestBarChart:
    def test_basic_rendering(self):
        from repro.harness.reporting import bar_chart
        chart = bar_chart([("furbys", 0.10), ("lru", 0.0), ("ghrp", -0.02)])
        lines = chart.splitlines()
        assert len(lines) == 3
        assert "+10.00%" in lines[0]
        assert "-" in lines[2]  # negative bar glyph

    def test_empty_items(self):
        from repro.harness.reporting import bar_chart
        assert bar_chart([], title="t") == "t"

    def test_longest_bar_is_the_maximum(self):
        from repro.harness.reporting import bar_chart
        chart = bar_chart([("a", 0.5), ("b", 0.25)], width=20)
        a_line, b_line = chart.splitlines()
        assert a_line.count("#") == 20
        assert b_line.count("#") == 10
