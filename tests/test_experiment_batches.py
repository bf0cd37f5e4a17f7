"""Every simulation an experiment runs goes through the batch engine.

Covers the two request fields that replaced Figure 22's and the Jenks
ablation's private pipelines — the hit-stats ask
(``RunRequest.record_hit_stats``, read back by
:func:`repro.harness.runner.hit_stats`) and the hint binning
(``RunRequest.hint_binning``) — the keys they leave alone, and the batch
line the CLI and the ledger summary attach to an experiment.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.cli import _render
from repro.harness import parallel, runner
from repro.harness import ledger as ledger_module
from repro.harness.experiments import (
    abl_jenks_vs_uniform,
    fig22_hotness,
    run_recorded,
)
from repro.harness.ledger import Ledger
from repro.harness.parallel import last_batch_report, run_many
from repro.harness.runner import RunRequest, clear_memory_cache
from repro.profiling.hints import build_hints
from repro.profiling.hitrate import collect_hit_stats
from repro.tools.ledger_tool import main as ledger_main
from repro.workloads.registry import get_trace

N = 3000


@pytest.fixture(autouse=True)
def _hermetic(monkeypatch):
    for name in ("REPRO_APPS", "REPRO_TRACE_LEN", "REPRO_JOBS",
                 "REPRO_ON_ERROR", "REPRO_FAULT_SPEC", "REPRO_LEDGER"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("REPRO_CACHE", "0")
    clear_memory_cache()
    yield
    ledger_module._release_parked()
    clear_memory_cache()


class TestKeysStayPut:
    """Keys of requests that leave the new fields at their defaults,
    as the code before the fields computed them."""

    def test_default_requests_keep_their_keys(self):
        lru = RunRequest(app="kafka")
        furbys = RunRequest(app="kafka", policy="furbys")
        assert lru.cache_key() == "6b2a38e61fb920b93970bf40"
        assert furbys.cache_key() == "58780fd638febe81953bdd42"
        replay = runner._training_replay(furbys, "default")
        assert runner._hit_stats_key(replay)[0] == \
            "hitstats-a2dc609bb5acc9d205d99c8d"
        assert runner._profile_key(furbys, replay)[0] == \
            "profile-4b8fe86b544be7d4f17e85c1"
        # A ledger row journals the text the cache key hashes.
        for request in (lru, furbys):
            text = json.dumps(ledger_module._request_payload(request),
                              sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest()[:24] == \
                request.cache_key()

    def test_new_fields_key_only_off_their_defaults(self):
        lru = RunRequest(app="kafka", trace_len=N)
        asking = dataclasses.replace(lru, record_hit_stats=True)
        assert asking.cache_key() != lru.cache_key()
        assert asking.canonical() == lru.canonical()  # the same simulation
        assert dataclasses.replace(lru, hint_binning="uniform").canonical() \
            == lru.canonical()  # lru reads no profile
        jenks = dataclasses.replace(lru, policy="furbys")
        uniform = dataclasses.replace(jenks, hint_binning="uniform")
        assert uniform.canonical().cache_key() != jenks.canonical().cache_key()
        replay = runner._training_replay(uniform, "default")
        assert replay == runner._training_replay(jenks, "default")
        assert runner._profile_key(uniform, replay)[0] != \
            runner._profile_key(jenks, replay)[0]


def test_uniform_binning_is_the_old_equal_width_comprehension():
    trace = get_trace("kafka", "default", N)
    config = RunRequest(app="kafka").build_config()
    stats = collect_hit_stats(trace, config)
    rates = dict(zip(stats.starts.tolist(), stats.rates().tolist()))
    n_sets = config.uop_cache.sets
    jenks = build_hints(trace, rates, n_sets=n_sets)
    old = {
        start: min(7, int(rate * 8))
        for start, rate in zip(stats.starts.tolist(), stats.rates().tolist())
        if start in jenks
    }
    assert old and len(set(old.values())) > 1
    assert build_hints(trace, rates, n_sets=n_sets, binning="uniform") == old
    assert build_hints(trace, rates, n_sets=n_sets, scope="global",
                       binning="uniform") == old


def _log_executions(monkeypatch, log) -> None:
    """Append the canonical key of every :func:`runner.execute` call to
    ``log`` (a file: pool workers are forked processes).  The batch
    engine calls it as ``parallel.execute``, a profiling replay as
    ``runner.execute``."""
    original = runner.execute

    def logging(request):
        with open(log, "a") as handle:
            handle.write(request.canonical().cache_key() + "\n")
        return original(request)

    monkeypatch.setattr(runner, "execute", logging)
    monkeypatch.setattr(parallel, "execute", logging)


def _executed(log) -> list[str]:
    return log.read_text().split() if log.exists() else []


class TestNoPrivateSimulations:
    @pytest.mark.parametrize("jobs, cache", [(1, "0"), (2, "0"), (2, "1")],
                             ids=["serial", "pool", "pool-disk"])
    @pytest.mark.parametrize("experiment, first", [
        (fig22_hotness, 4),         # lru, srrip, flack, furbys
        (abl_jenks_vs_uniform, 4),  # lru, two furbys, their flack replay
    ], ids=["fig22", "abl-jenks"])
    def test_a_second_call_executes_nothing(
        self, experiment, first, jobs, cache, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_APPS", "kafka")
        monkeypatch.setenv("REPRO_TRACE_LEN", str(N))
        monkeypatch.setenv("REPRO_JOBS", str(jobs))
        monkeypatch.setenv("REPRO_CACHE", cache)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        log = tmp_path / "executed.log"
        _log_executions(monkeypatch, log)
        result = experiment()
        executed = _executed(log)
        # Each simulation ran once: the parent reads the hit stats a
        # worker recorded from disk, or, without a disk cache, from
        # the results the worker shipped back.
        assert len(executed) == len(set(executed)) == first
        log.unlink()
        assert experiment() == result
        assert _executed(log) == []

    def test_a_stored_result_without_its_hit_stats_runs_in_the_batch(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_APPS", "kafka")
        monkeypatch.setenv("REPRO_TRACE_LEN", str(N))
        monkeypatch.setenv("REPRO_JOBS", "1")
        run_many([RunRequest(app="kafka", policy=policy)
                  for policy in ("lru", "srrip", "furbys")])
        log, replays = tmp_path / "executed.log", []
        _log_executions(monkeypatch, log)
        monkeypatch.setattr(runner, "_run_replay", replays.append)
        fig22_hotness()
        assert last_batch_report().executed == len(_executed(log)) == 4
        assert replays == []

    def test_recorded_fig22_journals_every_simulation(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_APPS", "kafka")
        monkeypatch.setenv("REPRO_TRACE_LEN", str(N))
        monkeypatch.setenv("REPRO_JOBS", "1")
        log, db = tmp_path / "executed.log", tmp_path / "ledger.sqlite"
        _log_executions(monkeypatch, log)
        assert ledger_main(["experiments", "run", "fig22",
                            "--ledger", str(db)]) == 0
        summary = json.loads(capsys.readouterr().out)
        ledger = Ledger.open(db)
        rows = ledger.results_rows(summary["id"])
        ledger.close()
        assert {row["status"] for row in rows} == {"done"}
        journaled = {RunRequest.from_json(row["request"]).canonical().cache_key()
                     for row in rows}
        executed = _executed(log)
        assert len(executed) == summary["executed"] == 4
        assert set(executed) == journaled


def test_a_batchless_experiment_shows_no_batch(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_APPS", "kafka")
    monkeypatch.setenv("REPRO_TRACE_LEN", "1500")
    monkeypatch.setenv("REPRO_JOBS", "1")
    assert "batch:" in _render("fig21")
    assert "batch:" not in _render("tab1")
    db = str(tmp_path / "ledger.sqlite")
    counts = ("requests", "unique", "simulations", "executed", "faults")
    recorded = run_recorded("fig21", ledger=db)
    assert all(name in recorded for name in counts)
    recorded = run_recorded("tab1", ledger=db)
    assert not any(name in recorded for name in counts)
