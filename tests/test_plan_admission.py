"""Focused tests for interval records and admission plans."""

from repro.offline.intervals import Interval
from repro.offline.plan import AdmissionPlan, greedy_admission


def interval(set_index=0, i=0, j=4, t0=0, t1=4, size=1, value=1.0):
    return Interval(set_index=set_index, i_slot=i, j_slot=j,
                    t_start=t0, t_end=t1, size=size, value=value)


class TestInterval:
    def test_duration(self):
        assert interval(i=2, j=7).duration_slots == 5

    def test_density_scales_with_value_size_duration(self):
        dense = interval(value=8.0, size=1, i=0, j=2)
        sparse = interval(value=1.0, size=2, i=0, j=8)
        assert dense.density() > sparse.density()

    def test_density_of_zero_duration_uses_floor(self):
        assert interval(i=3, j=3, value=2.0).density() == 2.0


class TestAdmissionPlan:
    def test_keep_from_defaults_false(self):
        plan = AdmissionPlan(5)
        assert not plan.keep_from(0)
        assert not plan.keep_from(99)   # out of range is safe
        assert not plan.keep_from(-1)

    def test_admit_records_value_and_count(self):
        plan = AdmissionPlan(10)
        plan.considered_count = 2
        plan.admit(interval(t0=3, value=4.0))
        assert plan.keep_from(3)
        assert plan.admitted_value == 4.0
        assert plan.admission_ratio == 0.5

    def test_admission_ratio_empty(self):
        assert AdmissionPlan(1).admission_ratio == 0.0


class TestGreedyAdmissionOrdering:
    def test_prefers_high_density_under_contention(self):
        # Two overlapping intervals, capacity for one: the denser wins.
        cheap = interval(i=0, j=10, t0=0, size=1, value=1.0)
        rich = interval(i=0, j=10, t0=1, size=1, value=9.0)
        plan = greedy_admission([[cheap, rich]], [10], ways=1, trace_len=20)
        assert plan.keep_from(1)
        assert not plan.keep_from(0)

    def test_non_overlapping_intervals_all_admitted(self):
        a = interval(i=0, j=3, t0=0)
        b = interval(i=3, j=6, t0=5)
        plan = greedy_admission([[a, b]], [6], ways=1, trace_len=10)
        assert plan.keep_from(0) and plan.keep_from(5)

    def test_multi_way_capacity_stacks(self):
        overlapping = [interval(i=0, j=4, t0=t, size=1, value=1.0)
                       for t in range(3)]
        plan = greedy_admission([overlapping], [4], ways=2, trace_len=10)
        admitted = sum(plan.keep_from(t) for t in range(3))
        assert admitted == 2

    def test_empty_set_is_fine(self):
        plan = greedy_admission([[]], [0], ways=4, trace_len=1)
        assert plan.admitted_count == 0
