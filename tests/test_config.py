"""Unit tests for repro.config (Table I presets and validation)."""

import pytest

from repro.config import (
    BranchPredictorConfig,
    CoreConfig,
    ICacheConfig,
    UopCacheConfig,
    preset,
    zen3_config,
    zen4_config,
)
from repro.errors import ConfigurationError


class TestUopCacheConfig:
    def test_zen3_defaults_match_table1(self):
        config = UopCacheConfig()
        assert config.entries == 512
        assert config.ways == 8
        assert config.uops_per_entry == 8
        assert config.sets == 64
        assert config.inclusive_with_icache

    def test_entries_for_uops_rounds_up(self):
        config = UopCacheConfig()
        assert config.entries_for_uops(1) == 1
        assert config.entries_for_uops(8) == 1
        assert config.entries_for_uops(9) == 2
        assert config.entries_for_uops(24) == 3

    def test_entries_for_uops_rejects_empty_pw(self):
        with pytest.raises(ConfigurationError):
            UopCacheConfig().entries_for_uops(0)

    def test_max_pw_uops(self):
        assert UopCacheConfig().max_pw_uops == 64

    def test_rejects_non_divisible_geometry(self):
        with pytest.raises(ConfigurationError):
            UopCacheConfig(entries=100, ways=8)

    def test_rejects_zero_ways(self):
        with pytest.raises(ConfigurationError):
            UopCacheConfig(entries=8, ways=0)

    def test_rejects_negative_delay(self):
        with pytest.raises(ConfigurationError):
            UopCacheConfig(insertion_delay=-1)


class TestICacheConfig:
    def test_zen3_defaults(self):
        config = ICacheConfig()
        assert config.size_bytes == 32 * 1024
        assert config.sets == 64
        assert config.lines == 512

    def test_rejects_uneven_size(self):
        with pytest.raises(ConfigurationError):
            ICacheConfig(size_bytes=1000, ways=8, line_bytes=64)


class TestCoreAndBranch:
    def test_core_defaults(self):
        core = CoreConfig()
        assert core.issue_width == 6
        assert core.decode_width == 4
        assert core.decode_latency_cycles == 5

    def test_core_rejects_zero_width(self):
        with pytest.raises(ConfigurationError):
            CoreConfig(issue_width=0)

    def test_branch_accuracy_bounds(self):
        with pytest.raises(ConfigurationError):
            BranchPredictorConfig(base_accuracy=0.0)
        with pytest.raises(ConfigurationError):
            BranchPredictorConfig(base_accuracy=1.5)


class TestSimulationConfig:
    def test_with_uop_cache_returns_modified_copy(self):
        config = zen3_config()
        bigger = config.with_uop_cache(entries=1024)
        assert bigger.uop_cache.entries == 1024
        assert config.uop_cache.entries == 512  # original untouched

    def test_with_perfect_flags(self):
        config = zen3_config().with_perfect("uop_cache")
        assert config.perfect_uop_cache
        assert not config.perfect_icache

    def test_with_perfect_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            zen3_config().with_perfect("tlb")

    def test_scaled_uop_cache_preserves_ways(self):
        config = zen3_config().scaled_uop_cache(1.5)
        assert config.uop_cache.ways == 8
        assert config.uop_cache.entries == 768

    def test_scaled_uop_cache_rounds_to_whole_sets(self):
        config = zen3_config().scaled_uop_cache(1.01)
        assert config.uop_cache.entries % config.uop_cache.ways == 0

    def test_presets(self):
        assert preset("zen3").name == "zen3"
        assert preset("zen4").name == "zen4"

    def test_preset_unknown(self):
        with pytest.raises(ConfigurationError):
            preset("zen5")

    def test_zen4_is_larger(self):
        z3, z4 = zen3_config(), zen4_config()
        assert z4.uop_cache.entries > z3.uop_cache.entries
        assert z4.core.issue_width > z3.core.issue_width

    def test_default_config_is_frozen(self):
        config = zen3_config()
        with pytest.raises(AttributeError):
            config.name = "other"  # type: ignore[misc]
