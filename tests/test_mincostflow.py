"""Exact min-cost-flow solver and flow-based admission tests."""

import random

import pytest

from repro.config import UopCacheConfig
from repro.core.trace import Trace
from repro.errors import FlowError
from repro.offline.intervals import IdentityMode, ValueMetric, extract_intervals
from repro.offline.mincostflow import MinCostFlow, flow_admission
from repro.offline.plan import greedy_admission

from .conftest import cyclic_trace, pw


class TestMinCostFlowSolver:
    def test_single_edge(self):
        solver = MinCostFlow(2)
        solver.add_edge(0, 1, capacity=5, cost=3)
        flow, cost = solver.solve(0, 1)
        assert flow == 5 and cost == 15

    def test_prefers_cheap_path(self):
        solver = MinCostFlow(4)
        solver.add_edge(0, 1, 10, 1)
        solver.add_edge(1, 3, 10, 1)
        solver.add_edge(0, 2, 10, 5)
        solver.add_edge(2, 3, 10, 5)
        flow, cost = solver.solve(0, 3)
        assert flow == 20
        assert cost == 10 * 2 + 10 * 10  # cheap path first, then expensive

    def test_respects_bottleneck(self):
        solver = MinCostFlow(3)
        solver.add_edge(0, 1, 7, 0)
        solver.add_edge(1, 2, 4, 0)
        flow, _ = solver.solve(0, 2)
        assert flow == 4

    def test_flow_on_reports_edge_usage(self):
        solver = MinCostFlow(2)
        edge = solver.add_edge(0, 1, 5, 1)
        solver.solve(0, 1)
        assert solver.flow_on(edge) == 5

    def test_rejects_negative_cost(self):
        with pytest.raises(FlowError):
            MinCostFlow(2).add_edge(0, 1, 1, -1)

    def test_disconnected_graph_pushes_nothing(self):
        solver = MinCostFlow(3)
        solver.add_edge(0, 1, 5, 0)
        flow, cost = solver.solve(0, 2)
        assert flow == 0 and cost == 0


class TestBlockingFlowEquivalence:
    """The blocking-flow solve() must match the per-path SSP baseline."""

    def _pair(self, n, edges):
        fast, reference = MinCostFlow(n), MinCostFlow(n)
        for u, v, capacity, cost in edges:
            fast.add_edge(u, v, capacity, cost)
            reference.add_edge(u, v, capacity, cost)
        return fast, reference

    def test_random_graphs(self):
        rng = random.Random(42)
        for _ in range(150):
            n = rng.randint(2, 12)
            edges = []
            for _ in range(rng.randint(1, 30)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.append((u, v, rng.randint(0, 8), rng.randint(0, 20)))
            fast, reference = self._pair(n, edges)
            assert fast.solve(0, n - 1) == reference.solve_reference(0, n - 1)

    def test_parallel_cost_tiers(self):
        # Many same-cost paths: the blocking flow must batch them into
        # one phase without changing the cost accounting.
        edges = [(0, 1, 3, c) for c in (1, 1, 1, 2, 2, 5)]
        edges += [(1, 2, 3, c) for c in (1, 1, 2, 5)]
        fast, reference = self._pair(3, edges)
        assert fast.solve(0, 2) == reference.solve_reference(0, 2)

    def test_zero_cost_saturation(self):
        edges = [(0, 1, 4, 0), (1, 2, 4, 0), (0, 2, 2, 0)]
        fast, reference = self._pair(3, edges)
        assert fast.solve(0, 2) == reference.solve_reference(0, 2)


class TestFlowAdmission:
    def _intervals(self, trace, ways):
        config = UopCacheConfig(entries=ways, ways=ways)
        return extract_intervals(
            trace, config, identity=IdentityMode.EXACT,
            metric=ValueMetric.OHR, set_index_fn=lambda s, n: 0,
        )

    def test_everything_admitted_when_it_fits(self):
        trace = cyclic_trace(3, repeats=4)
        per_set, slots = self._intervals(trace, ways=4)
        plan = flow_admission(per_set, slots, 4, len(trace))
        assert plan.admitted_count == plan.considered_count

    def test_overcommitted_set_admits_partially(self):
        trace = cyclic_trace(8, repeats=4)
        per_set, slots = self._intervals(trace, ways=4)
        plan = flow_admission(per_set, slots, 4, len(trace))
        assert 0 < plan.admitted_count < plan.considered_count

    def test_flow_value_bounds_greedy(self):
        # The exact LP admission cannot be worse than the greedy plan.
        trace = cyclic_trace(10, repeats=5)
        per_set, slots = self._intervals(trace, ways=4)
        exact = flow_admission(per_set, slots, 4, len(trace))
        greedy = greedy_admission(per_set, slots, 4, len(trace))
        assert exact.admitted_value >= greedy.admitted_value - 1e-9

    def test_greedy_is_near_optimal_on_small_mixes(self):
        # Mixed sizes and values: greedy should stay within 20% of the
        # flow bound on small instances.
        lookups = []
        for repeat in range(5):
            for i in range(6):
                lookups.append(pw(0x1000 + i * 0x40, uops=4 + (i % 3) * 8))
        trace = Trace(lookups)
        config = UopCacheConfig(entries=4, ways=4)
        per_set, slots = extract_intervals(
            trace, config, identity=IdentityMode.EXACT,
            metric=ValueMetric.UOPS, set_index_fn=lambda s, n: 0,
        )
        exact = flow_admission(per_set, slots, 4, len(trace))
        greedy = greedy_admission(per_set, slots, 4, len(trace))
        assert greedy.admitted_value >= 0.8 * exact.admitted_value


class TestOptimalityGapAtFullTraceLength:
    """The scalable solver makes the exact plan usable at 20k lookups.

    This is the paper's greedy-vs-LP optimality-gap measurement at the
    default experiment trace length — previously only feasible on toy
    traces.  The exact plan must dominate greedy, and greedy must stay
    near-optimal (FOO's near-tightness argument).
    """

    def test_exact_dominates_greedy_at_20k(self):
        from repro.offline.intervals import shared_intervals
        from repro.uopcache.cache import default_set_index
        from repro.workloads.registry import get_trace

        trace = get_trace("kafka", "default", 20_000)
        config = UopCacheConfig()
        per_set, slots = shared_intervals(
            trace, config, identity=IdentityMode.EXACT,
            metric=ValueMetric.OHR, set_index_fn=default_set_index,
        )
        exact = flow_admission(per_set, slots, config.ways, len(trace))
        greedy = greedy_admission(per_set, slots, config.ways, len(trace))
        assert exact.admitted_value >= greedy.admitted_value - 1e-9
        assert greedy.admitted_value >= 0.9 * exact.admitted_value

    def test_foo_flow_admission_builds_at_20k(self):
        """The exact flow admission of FOO's own intervals (EXACT
        identity, the OHR metric, no min gap) builds at 20k lookups."""
        from repro.offline.intervals import shared_intervals
        from repro.uopcache.cache import default_set_index
        from repro.workloads.registry import get_trace

        trace = get_trace("kafka", "default", 20_000)
        config = UopCacheConfig()
        per_set, slots = shared_intervals(
            trace, config, identity=IdentityMode.EXACT,
            metric=ValueMetric.OHR, set_index_fn=default_set_index,
            min_gap=0,
        )
        plan = flow_admission(per_set, slots, config.ways, len(trace))
        assert plan.admitted_count > 0
