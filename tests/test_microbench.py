"""Smoke tests for the per-stage microbenchmark harness."""

from repro.harness.microbench import (
    check_baseline, fused_sim_batch, microbench_batch, microbench_run,
    profile_run,
)


class TestMicrobenchRun:
    def test_stages_timed_and_results_identical(self):
        result = microbench_run("kafka", "lru", trace_len=800, repeats=1)
        assert result.identical_to_reference
        assert result.trace_gen_s > 0
        assert result.pipeline_s > 0
        assert result.reference_s > 0
        assert result.policy_hook_calls > 0
        assert result.lookups_per_s == 800 / result.pipeline_s
        payload = result.to_json()
        assert payload["app"] == "kafka" and payload["policy"] == "lru"

    def test_offline_policy_build_is_timed(self):
        result = microbench_run("kafka", "flack", trace_len=800, repeats=1)
        assert result.identical_to_reference
        # FLACK's future index + solver pass is real work, not a lookup.
        assert result.policy_build_s > 0


class TestMicrobenchBatch:
    def test_aggregate_shape(self):
        report = microbench_batch(
            ("kafka",), ("lru", "srrip"), trace_len=600, repeats=1
        )
        aggregate = report["aggregate"]
        assert aggregate["runs"] == 2
        assert aggregate["total_lookups"] == 1200
        assert aggregate["identical_results"] is True
        assert aggregate["lookups_per_s"] > 0
        assert len(report["results"]) == 2


class TestCheckBaseline:
    def test_within_tolerance_passes(self):
        ok, message = check_baseline(
            {"lookups_per_s": 80.0, "identical_results": True},
            {"lookups_per_s": 100.0},
            tolerance=0.30,
        )
        assert ok and "80" in message

    def test_regression_fails(self):
        ok, message = check_baseline(
            {"lookups_per_s": 60.0, "identical_results": True},
            {"lookups_per_s": 100.0},
            tolerance=0.30,
        )
        assert not ok and "below" in message

    def test_divergence_fails_regardless_of_speed(self):
        ok, message = check_baseline(
            {"lookups_per_s": 1e9, "identical_results": False},
            {"lookups_per_s": 1.0},
        )
        assert not ok and "diverged" in message

    def test_fused_floor_gated_when_both_sides_carry_it(self):
        ok, message = check_baseline(
            {"fused_sim_lookups_per_s": 60.0, "identical_results": True},
            {"lookups_per_s": 100.0, "fused_sim_lookups_per_s": 100.0},
            tolerance=0.30,
        )
        assert not ok and "fused sim" in message and "below" in message

    def test_disjoint_keys_fail_instead_of_passing_vacuously(self):
        ok, message = check_baseline(
            {"fused_sim_lookups_per_s": 1e9, "identical_results": True},
            {"lookups_per_s": 100.0},
        )
        assert not ok and "no throughput keys" in message


class TestFusedSimStage:
    def test_fused_sweep_matches_per_arm_kernels(self):
        report = fused_sim_batch(
            ("kafka",), ("lru", "belady"), trace_len=800, repeats=1
        )
        aggregate = report["aggregate"]
        assert aggregate["identical_results"] is True
        assert aggregate["total_lookups"] == 1600
        assert aggregate["fused_sim_lookups_per_s"] > 0
        assert report["results"][0]["arms"] == 2


def test_profile_run_reports_hot_functions():
    text = profile_run("kafka", "lru", trace_len=600, top=30)
    assert "cumulative" in text
    assert "build_app_trace" in text
    assert "pipeline" in text
