"""Integration tests: the full policy ladder on small generated traces.

These exercise the paper's central claims end-to-end at reduced scale:
FLACK approximates the offline optimum, Belady trails FLACK, FURBYS
recovers a chunk of the offline gain online, and the profiling pipeline
transfers across inputs of the same application.
"""

from dataclasses import replace

import pytest

from repro.config import zen3_config
from repro.frontend.pipeline import FrontendPipeline
from repro.offline.belady import BeladyPolicy
from repro.offline.flack import FLACKPolicy, flack_ablation_suite
from repro.policies import make_policy
from repro.profiling import make_furbys, profile_application
from repro.workloads.registry import build_app_trace
from repro.workloads.apps import get_profile

TRACE_LEN = 9000
WARMUP = 3000


@pytest.fixture(scope="module")
def kafka_trace():
    return build_app_trace(get_profile("kafka"), "default", TRACE_LEN)


@pytest.fixture(scope="module")
def config():
    return replace(zen3_config(), perfect_icache=True)


def simulate(config, trace, policy, hints=None):
    pipeline = FrontendPipeline(config, policy, hints=hints)
    return pipeline.run(trace, warmup=WARMUP)


class TestPolicyLadder:
    def test_flack_beats_belady_beats_lru(self, kafka_trace, config):
        lru = simulate(config, kafka_trace, make_policy("lru"))
        belady = simulate(config, kafka_trace, BeladyPolicy(kafka_trace))
        flack = simulate(
            config, kafka_trace, FLACKPolicy(kafka_trace, config.uop_cache)
        )
        assert belady.uops_missed < lru.uops_missed
        assert flack.uops_missed <= belady.uops_missed * 1.02

    def test_ablation_ladder_is_broadly_monotone(self, kafka_trace, config):
        lru = simulate(config, kafka_trace, make_policy("lru"))
        reductions = {}
        for label, policy in flack_ablation_suite(
            kafka_trace, config.uop_cache
        ).items():
            stats = simulate(config, kafka_trace, policy)
            reductions[label] = stats.miss_reduction_vs(lru)
        assert reductions["A+VC+SB"] >= reductions["foo"] - 0.02
        assert reductions["A+VC+SB"] >= reductions["A"] - 0.02

    def test_furbys_lands_between_lru_and_flack(self, kafka_trace, config):
        lru = simulate(config, kafka_trace, make_policy("lru"))
        flack = simulate(
            config, kafka_trace, FLACKPolicy(kafka_trace, config.uop_cache)
        )
        profile = profile_application(kafka_trace, config)
        policy, hints = make_furbys(profile)
        furbys = simulate(config, kafka_trace, policy, hints)
        assert furbys.uops_missed < lru.uops_missed
        assert furbys.uops_missed > flack.uops_missed

    def test_furbys_statistics_exposed(self, kafka_trace, config):
        profile = profile_application(kafka_trace, config)
        policy, hints = make_furbys(profile)
        stats = simulate(config, kafka_trace, policy, hints)
        assert 0.5 < stats.policy_coverage <= 1.0
        assert 0.0 <= stats.bypass_fraction < 0.5


class TestCrossInputTransfer:
    def test_profile_transfers_to_other_input(self, config):
        train = build_app_trace(get_profile("kafka"), "default", TRACE_LEN)
        test = build_app_trace(get_profile("kafka"), "alt-seed", TRACE_LEN)
        lru = simulate(config, test, make_policy("lru"))
        profile = profile_application(train, config)
        policy, hints = make_furbys(profile)
        cross = simulate(config, test, policy, hints)
        # The cross-trained profile keeps FURBYS at worst mildly below
        # LRU and typically above it (Figure 18's robustness claim).
        assert cross.uops_missed < lru.uops_missed * 1.05


class TestPowerIntegration:
    def test_furbys_saves_energy_vs_lru(self, kafka_trace):
        from repro.power.mcpat import CorePowerModel

        config = zen3_config()
        lru = simulate(config, kafka_trace, make_policy("lru"))
        profile = profile_application(kafka_trace, config)
        policy, hints = make_furbys(profile)
        furbys = simulate(config, kafka_trace, policy, hints)
        model = CorePowerModel(config)
        assert model.breakdown(furbys).total < model.breakdown(lru).total * 1.02
