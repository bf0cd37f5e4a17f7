"""One run per distinct simulation.

Covers :meth:`repro.harness.runner.RunRequest.canonical` (the store key
of a result), the batch engine's second dedupe by simulation, and the
profile-source arms that publish the hit stats of the profiling replay
they are (:data:`repro.profiling.hitrate.PROFILE_ARMS`).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.harness import artifacts, parallel, resilience, runner
from repro.harness import ledger as ledger_module
from repro.harness.experiments import abl_offline_scale, fig15_profile_sources
from repro.harness.ledger import ExperimentRun, Ledger
from repro.harness.parallel import run_batch
from repro.harness.runner import (
    RunRequest,
    RunResult,
    clear_memory_cache,
    execute,
    run,
)
from repro.profiling import hitrate
from repro.profiling.hitrate import PROFILE_ARMS, collect_hit_stats
from repro.tools.trace_tool import main as trace_tool
from repro.workloads.registry import get_trace

N = 1500


@pytest.fixture(autouse=True)
def _hermetic(monkeypatch):
    for name in ("REPRO_APPS", "REPRO_TRACE_LEN", "REPRO_JOBS",
                 "REPRO_ON_ERROR", "REPRO_FAULT_SPEC"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("REPRO_CACHE", "0")
    clear_memory_cache()
    yield
    ledger_module._release_parked()
    clear_memory_cache()


class TestCanonical:
    def test_equivalent_requests_share_one_form(self):
        base = RunRequest(app="kafka", trace_len=N)
        for request in (
            RunRequest(app="kafka", trace_len=N, cache_entries=512,
                       cache_ways=8),
            RunRequest(app="kafka", trace_len=N, hint_bits=6,
                       profile_source="foo", furbys_bypass=False),
        ):
            assert request.canonical() == base.canonical()
        assert (RunRequest(app="kafka", perfect=("icache", "btb", "icache"))
                .canonical().perfect == ("btb", "icache"))
        assert (RunRequest(app="kafka", policy="flack[A+VC+SB]").canonical()
                == RunRequest(app="kafka", policy="flack").canonical())
        assert (RunRequest(app="kafka", policy="furbys",
                           profile_inputs=("default",)).canonical()
                == RunRequest(app="kafka", policy="furbys").canonical())
        assert (RunRequest(app="kafka", policy="furbys",
                           profile_inputs=("mixed-load", "alt-seed"))
                .canonical().profile_inputs == ("alt-seed", "mixed-load"))

    def test_distinct_simulations_keep_distinct_forms(self):
        forms = {
            request.canonical().cache_key() for request in (
                RunRequest(app="kafka", trace_len=N),
                RunRequest(app="kafka", trace_len=N, cache_entries=256),
                RunRequest(app="kafka", trace_len=N, classify_misses=True),
                RunRequest(app="kafka", trace_len=N, policy="flack[A+VC]"),
                RunRequest(app="kafka", trace_len=N, policy="furbys"),
                RunRequest(app="kafka", trace_len=N, policy="furbys",
                           hint_bits=6),
                RunRequest(app="kafka", trace_len=N, policy="thermometer",
                           profile_source="foo"),
            )
        }
        assert len(forms) == 7

    def test_canonical_request_keeps_its_key(self):
        request = RunRequest(app="kafka", policy="furbys", trace_len=N,
                             warmup=N // 3)
        assert request.canonical() == request
        assert request.canonical().canonical() == request.canonical()
        assert RunRequest(app="kafka", trace_len=N).canonical().cache_key() \
            == RunRequest(app="kafka", trace_len=N).cache_key()


class TestArmPublishesTheReplay:
    @pytest.mark.parametrize("source", sorted(PROFILE_ARMS))
    @pytest.mark.parametrize("warmup", [0, N // 3, N + 10],
                             ids=["cold", "third", "whole"])
    @pytest.mark.parametrize("classify", [False, True],
                             ids=["kernel", "classified"])
    def test_arm_hit_stats_equal_the_replay(self, source, warmup, classify):
        request = RunRequest(app="kafka", policy=PROFILE_ARMS[source],
                             trace_len=N, warmup=warmup,
                             classify_misses=classify)
        before = resilience.global_counters()
        stats = execute(request)
        fallbacks = [name for name in resilience.counters_since(before)
                     if name.startswith("sim_fallback:")]
        assert not fallbacks  # miss classification runs in the kernel too
        # The arm published under the key a FURBYS request of this
        # source looks its replay up by: the arm's canonical request.
        furbys = dataclasses.replace(request, policy="furbys",
                                     profile_source=source)
        replay = runner._training_replay(furbys, "default")
        assert replay == RunRequest(app="kafka", policy=PROFILE_ARMS[source],
                                    trace_len=N).canonical()
        store_key, _ = runner._hit_stats_key(replay)
        published = artifacts._memory[store_key]
        config = request.build_config()
        replay = collect_hit_stats(get_trace("kafka", "default", N), config,
                                   source=source)
        assert replay.starts.size > 0
        for name, column, expected in zip(replay._fields, published, replay):
            assert column.tolist() == expected.tolist(), name
        # Recording leaves the arm's own result alone.
        clear_memory_cache()
        artifacts.publish(store_key, replay)
        assert dataclasses.asdict(execute(request)) == dataclasses.asdict(stats)

    def test_a_stored_replay_is_not_recorded_again(self, monkeypatch):
        request = RunRequest(app="kafka", policy="flack", trace_len=N)
        execute(request)
        published = dict(artifacts._memory)
        recorded = []
        original = hitrate.HitStats.from_counts
        monkeypatch.setattr(hitrate.HitStats, "from_counts",
                            lambda counts: recorded.append(1) or original(counts))
        execute(request)
        assert not recorded and artifacts._memory == published


def _alias_batch() -> list[RunRequest]:
    small = dict(app="kafka", trace_len=N, warmup=N // 3)
    return [
        RunRequest(policy="lru", **small),
        RunRequest(policy="lru", cache_entries=512, **small),
        RunRequest(policy="lru", hint_bits=6, **small),
        RunRequest(policy="flack", **small),
        RunRequest(policy="flack[A+VC+SB]", **small),
        RunRequest(policy="lru", perfect=("btb", "icache"), **small),
        RunRequest(policy="lru", perfect=("icache", "btb"), **small),
        RunRequest(policy="furbys", **small),
        RunRequest(policy="furbys", profile_inputs=("default",), **small),
    ]


def _log_calls(monkeypatch, module, name: str, log) -> None:
    """Append each call's request key to ``log``: pool workers are
    forked processes, so a file is what the parent can read back."""
    original = getattr(module, name)

    def logging(request):
        with open(log, "a") as handle:
            handle.write(request.cache_key() + "\n")
        return original(request)

    monkeypatch.setattr(module, name, logging)


class TestSimulationDedupe:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_simulation_runs_once_and_serves_every_alias(
        self, jobs, tmp_path, monkeypatch
    ):
        requests = _alias_batch()
        log, replays = tmp_path / "executed.log", tmp_path / "replays.log"
        _log_calls(monkeypatch, parallel, "execute", log)
        _log_calls(monkeypatch, runner, "_run_replay", replays)
        db = tmp_path / "ledger.sqlite"
        with ExperimentRun("aliases", path=db) as record:
            results, report = run_batch(requests, jobs=jobs)
        assert (report.requests, report.unique) == (9, 9)
        assert report.simulations == report.executed == 4
        executed = log.read_text().split()
        assert len(executed) == len(set(executed)) == 4
        # The flack arm ran in the FURBYS request's chunk and published
        # the hit stats that request profiles with.
        assert not replays.exists()

        ledger = Ledger.open(db)
        rows = {row["cache_key"]: row
                for row in ledger.results_rows(record.experiment_id)}
        ledger.close()
        assert set(rows) == {request.cache_key() for request in requests}
        for request, result in zip(requests, results):
            clear_memory_cache()
            alone = dataclasses.asdict(execute(request))
            assert dataclasses.asdict(result) == alone
            row = rows[request.cache_key()]
            assert row["status"] == "done" and row["stats"] == alone

    def test_a_skipped_simulation_leaves_every_alias_empty(self):
        bad = RunRequest(app="no-such-app", trace_len=N)
        good = RunRequest(app="kafka", trace_len=N)
        requests = [bad, good, dataclasses.replace(bad, cache_entries=512),
                    dataclasses.replace(bad, hint_bits=6)]
        results, report = run_batch(requests, jobs=1, on_error="skip")
        assert report.simulations == 2
        assert results[0] is results[2] is results[3] is None
        assert results[1] is not None
        assert report.faults.skipped == 1
        assert report.faults.failures[0]["request"] == repr(bad)


class TestReplaysAndStore:
    def test_arms_stand_in_for_the_profiling_replays(self, monkeypatch):
        """abl-offline-scale runs the flack and belady arms; fig15 then
        replays only the FOO source, once per app."""
        monkeypatch.setenv("REPRO_APPS", "kafka,postgres")
        monkeypatch.setenv("REPRO_TRACE_LEN", "2000")
        monkeypatch.setenv("REPRO_JOBS", "1")
        sources = []
        original = runner._run_replay
        source_of = {arm: source for source, arm in PROFILE_ARMS.items()}

        def counting(replay):
            sources.append(source_of[replay.policy])
            return original(replay)

        monkeypatch.setattr(runner, "_run_replay", counting)
        abl_offline_scale()
        fig15_profile_sources()
        assert sources == ["foo", "foo"]

    def test_entry_under_a_non_canonical_key_is_stale(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_memory_cache()
        canonical = RunRequest(app="kafka", trace_len=N, warmup=N // 3)
        stats = run(canonical)
        live = set(tmp_path.glob("stats-*.json"))
        assert len(live) == 1
        # How a result was stored before requests were canonical: under
        # the request's own key, embedding the request itself.
        older = dataclasses.replace(canonical, cache_entries=512)
        entry = tmp_path / f"{artifacts.key('stats', older.cache_key())}.json"
        artifacts._store_json(entry, RunResult(older, stats).to_json())

        assert artifacts.census()["stale"]["stats"] == 1
        assert trace_tool(["gc"]) == 0
        assert "stats=1" in capsys.readouterr().out
        assert set(tmp_path.glob("stats-*.json")) == live
        clear_memory_cache()
        _, report = run_batch([canonical, older], jobs=1)
        assert (report.simulations, report.disk_hits) == (1, 1)
        saved = json.loads(next(iter(live)).read_text())
        assert saved["request"] == json.loads(json.dumps(canonical.to_json()))
