"""Tests for the repro-trace CLI tool."""

import hashlib
import json
import subprocess
import sys

from repro.config import preset
from repro.frontend.pipeline import FrontendPipeline
from repro.harness import artifacts, runner
from repro.harness.parallel import run_batch
from repro.harness.runner import (
    RunRequest,
    _build_policy_and_hints,
    clear_memory_cache,
    run,
)
from repro.offline.belady import BeladyPolicy
from repro.policies import make_policy
from repro.tools.trace_tool import main
from repro.workloads.registry import clear_trace_cache, get_trace, trace_cache_stats


class TestTraceTool:
    def test_apps_lists_all(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "kafka" in out and "clang" in out

    def test_generate_head_stats_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "kafka.trace"
        assert main(["generate", "kafka", str(path), "--lookups", "800"]) == 0
        assert path.exists()
        capsys.readouterr()

        assert main(["head", str(path), "--count", "5"]) == 0
        head_out = capsys.readouterr().out
        assert head_out.count("0x") == 5

        assert main(["stats", str(path), "--reuse"]) == 0
        stats_out = capsys.readouterr().out
        assert "lookups            : 800" in stats_out
        assert "PW size distribution" in stats_out
        assert "reuse distance" in stats_out

    def test_stats_histogram_shares_sum(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        main(["generate", "tomcat", str(path), "--lookups", "500"])
        capsys.readouterr()
        main(["stats", str(path)])
        out = capsys.readouterr().out
        shares = [float(line.rsplit(" ", 1)[1].rstrip("%"))
                  for line in out.splitlines() if "#" in line and ":" in line]
        assert 95.0 < sum(shares) < 105.0

    def test_inspect_cache_stats(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")  # count generation, not disk hits
        clear_memory_cache()
        get_trace("kafka", n_lookups=600)
        get_trace("kafka", n_lookups=600)
        trace = get_trace("kafka", "alt-seed", n_lookups=600)
        # One kernel run and one offline build: the trace becomes the
        # memo holder with a column window and a future index.
        config = preset("zen3").with_uop_cache(entries=64, ways=4)
        FrontendPipeline(config, make_policy("lru")).run(trace)
        FrontendPipeline(config, BeladyPolicy(trace)).run(trace)
        assert main(["inspect", "--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "memory hits        : 1" in out
        assert "generated (misses) :" in out
        assert "LRU evictions      : 0" in out
        assert "CFG builds         : 1" in out
        assert "CFG reuses         : 1" in out
        assert "memo holder        : kafka input=alt-seed lookups=600" in out
        assert "simd column memos" not in out
        entries = sum(int(line.rsplit(":", 1)[1]) for line in out.splitlines()
                      if line.startswith(("  simd ", "  future_index ")))
        assert entries == 2
        assert "compiled variants" not in out
        assert ("store memory       : stats=0 hitstats=0 profile=0 trace=2"
                in out)
        assert "store disk         : stats=0 hitstats=0 profile=0 trace=0" in out
        clear_trace_cache()

    def test_inspect_cache_stats_counts_the_store_per_kind(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_memory_cache()
        small = dict(app="kafka", trace_len=900, warmup=300)
        lru = RunRequest(policy="lru", **small)
        run(lru)
        run(RunRequest(policy="furbys", **small))
        # A torn result is quarantined on its next read and rewritten.
        stored = tmp_path / f"{artifacts.key('stats', lru.cache_key())}.json"
        stored.write_text("{torn")
        clear_memory_cache()
        run(lru)
        assert main(["inspect", "--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "store memory       : stats=1 hitstats=0 profile=0 trace=1" in out
        assert "store disk         : stats=2 hitstats=1 profile=1 trace=1" in out
        assert "store corrupt      : stats=1 hitstats=0 profile=0 trace=0" in out
        clear_memory_cache()

    def test_gc_deletes_exactly_the_stale_files(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_memory_cache()
        small = dict(app="kafka", trace_len=900, warmup=300)
        live = [RunRequest(policy="furbys", **small)]
        run_batch(live, jobs=1)  # one live entry per kind
        live_files = set(tmp_path.iterdir())
        assert {path.name.partition("-")[0] for path in live_files} == set(
            artifacts.KINDS)

        with monkeypatch.context() as patch:
            patch.setattr(artifacts, "MODEL_VERSION", "older")
            run(RunRequest(policy="lru", **small))
        old_version = set(tmp_path.glob("stats-*.json")) - live_files
        assert len(old_version) == 1
        legacy = tmp_path / f"{live[0].cache_key()}.json"
        legacy.write_text(json.dumps({"request": {}, "stats": {}}))
        # A profile of the per-start dict layout: its payload still
        # hashes to its name, but it carries no layout tag.
        identity = ["kafka", "default", 900, "flack", 3, "per_set", ["zen3"]]
        old_layout = tmp_path / f"{artifacts.key('profile', identity)}.json"
        old_layout.write_text(json.dumps({"identity": identity, "hints": {}}))
        # Profiling entries keyed by the replay's trace, source and
        # geometry rather than by the replay request's cache key.
        geometry = ["zen3", None, None, None, True, True, []]
        old_identity = set()
        for kind, identity, columns in (
            ("hitstats",
             ["kafka", "default", 900, "flack", geometry, "starts/hits/totals"],
             {"starts": [64], "hits": [1], "totals": [2]}),
            ("profile",
             ["kafka", "default", 900, "flack", 3, "per_set", geometry,
              "starts/groups"],
             {"starts": [64], "groups": [0]}),
        ):
            entry = tmp_path / f"{artifacts.key(kind, identity)}.json"
            artifacts._store_json(entry, {"identity": identity, **columns})
            old_identity.add(entry)
        exited = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                                capture_output=True, text=True, check=True)
        orphan = tmp_path / f"stats-abc.json.{exited.stdout.strip()}.tmp"
        orphan.write_text("{")
        corrupt = tmp_path / "stats-def.json.corrupt"
        corrupt.write_text("{torn")
        stale = old_version | old_identity | {legacy, old_layout, orphan}

        capsys.readouterr()
        assert main(["inspect", "--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "store stale        : stats=3 hitstats=1 profile=2 trace=0" in out
        assert main(["gc"]) == 0
        out = capsys.readouterr().out
        assert ("removed 6 stale cache files: "
                "stats=3 hitstats=1 profile=2 trace=0") in out
        assert set(tmp_path.iterdir()) == live_files | {corrupt}
        assert not stale & set(tmp_path.iterdir())

        # Every live entry still hits after the gc.
        clear_memory_cache()
        _, report = run_batch(live, jobs=1)
        assert report.disk_hits == 1
        assert artifacts.census()["stale"] == dict.fromkeys(artifacts.KINDS, 0)
        monkeypatch.setattr(runner, "_run_replay", None)  # no replay
        trace = get_trace("kafka", "default", 900)
        for policy in ("furbys", "thermometer"):  # profile, then hitstats
            request = RunRequest(policy=policy, **small)
            _build_policy_and_hints(request, request.build_config(), trace)
        assert trace_cache_stats()["generated"] == 0
        assert set(tmp_path.iterdir()) == live_files | {corrupt}
        clear_memory_cache()

    def test_stats_entry_stays_live_in_another_environment(
        self, tmp_path, monkeypatch
    ):
        """A result keyed under ``REPRO_TRACE_LEN`` embeds its resolved
        request, so gc run without that variable keeps it.  An older
        entry that embedded the unresolved request cannot be re-keyed
        outside its writer's environment, so gc keeps it too, and it
        still hits under that environment."""
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_LEN", "900")
        clear_memory_cache()
        run(RunRequest(app="kafka", policy="lru"))
        older = RunRequest(app="kafka", policy="srrip")
        run(older)
        path = tmp_path / f"{artifacts.key('stats', older.cache_key())}.json"
        entry = json.loads(path.read_text())
        entry["request"].update(trace_len=None, warmup=None)
        entry["sha256"] = hashlib.sha256(
            artifacts._canonical_json(entry).encode()).hexdigest()
        path.write_text(json.dumps(entry))
        monkeypatch.delenv("REPRO_TRACE_LEN")
        assert artifacts.census()["stale"]["stats"] == 0
        assert artifacts.gc()["stats"] == 0
        assert len(list(tmp_path.glob("stats-*.json"))) == 2

        monkeypatch.setenv("REPRO_TRACE_LEN", "900")
        clear_memory_cache()
        _, report = run_batch([older], jobs=1)
        assert report.disk_hits == 1
        clear_memory_cache()

    def test_inspect_without_trace_or_flag_errors(self, capsys):
        assert main(["inspect"]) == 2
        err = capsys.readouterr().err
        assert "trace file is required" in err
