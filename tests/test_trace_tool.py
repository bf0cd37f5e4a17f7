"""Tests for the repro-trace CLI tool."""

from repro.config import preset
from repro.frontend.pipeline import FrontendPipeline
from repro.offline.belady import BeladyPolicy
from repro.policies import make_policy
from repro.tools.trace_tool import main
from repro.workloads.registry import clear_trace_cache, get_trace


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
        clear_trace_cache()
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
        clear_trace_cache()

    def test_inspect_without_trace_or_flag_errors(self, capsys):
        assert main(["inspect"]) == 2
        err = capsys.readouterr().err
        assert "trace file is required" in err
