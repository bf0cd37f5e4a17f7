"""Unit tests for Jenks natural breaks (repro.profiling.jenks)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProfilingError
from repro.profiling.jenks import _fisher_breaks, _quantize, jenks_breaks, jenks_groups


def reference_fisher_breaks(points: np.ndarray, weights: np.ndarray,
                            n_classes: int) -> list[float]:
    """Oracle: the Fisher/Jenks DP rebuilding its candidate matrix per
    class step, each cell the float64 expression of the scalar scan.

    ``_fisher_breaks`` builds the segment costs once; its breaks must
    equal these bit for bit.
    """
    n = points.size
    k = min(n_classes, n)
    w = np.concatenate([[0.0], np.cumsum(weights)])
    wx = np.concatenate([[0.0], np.cumsum(weights * points)])
    wxx = np.concatenate([[0.0], np.cumsum(weights * points * points)])
    infinity = float("inf")
    cost = np.full((k + 1, n + 1), infinity)
    split = np.zeros((k + 1, n + 1), dtype=np.intp)
    cost[0, 0] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in range(1, k + 1):
            prev = cost[c - 1]
            lo = c - 1
            i = np.arange(lo, n)
            j = np.arange(c, n + 1)[:, None]
            weight = w[j] - w[i]
            mean = (wx[j] - wx[i]) / weight
            candidate = prev[i] + ((wxx[j] - wxx[i]) - weight * mean * mean)
            candidate = np.where(i < j, candidate, infinity)
            best = candidate.argmin(axis=1)
            rows = np.arange(candidate.shape[0])
            cost[c, c:] = candidate[rows, best]
            split[c, c:] = best + lo
    breaks: list[float] = []
    j = n
    for c in range(k, 0, -1):
        breaks.append(float(points[j - 1]))
        j = int(split[c, j])
    breaks.reverse()
    while len(breaks) < n_classes:
        breaks.append(breaks[-1])
    return breaks


@st.composite
def weighted_points(draw):
    """Sorted points with duplicate runs (all-equal inputs included) and
    integer weights >= 1, as the quantized path produces them."""
    distinct = draw(st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=150))
    runs = draw(st.lists(st.integers(1, 6), min_size=len(distinct),
                         max_size=len(distinct)))
    points = np.sort(np.repeat(np.array(distinct), runs))[:150]
    weights = np.array(draw(st.lists(
        st.integers(1, 40), min_size=points.size, max_size=points.size)),
        dtype=float)
    return points, weights


class TestFisherBreaksOracle:
    @settings(max_examples=300, deadline=None)
    @given(data=weighted_points(), n_classes=st.integers(1, 9))
    def test_matches_per_class_reference(self, data, n_classes):
        points, weights = data
        assert (_fisher_breaks(points, weights, n_classes)
                == reference_fisher_breaks(points, weights, n_classes))

    @pytest.mark.parametrize("value", [0.0, 0.25, 1.0])
    def test_all_equal_input_matches_reference(self, value):
        points = np.full(40, value)
        weights = np.ones(40)
        assert (_fisher_breaks(points, weights, 8)
                == reference_fisher_breaks(points, weights, 8))

    def test_quantized_path_matches_reference(self):
        rng = np.random.default_rng(5)
        values = np.sort(np.concatenate([
            rng.beta(0.5, 3.0, 700), rng.beta(4.0, 1.0, 300),
            np.zeros(50), np.ones(50)]))
        assert values.size > 384
        assert (jenks_breaks(values, 8)
                == reference_fisher_breaks(*_quantize(values, 384), 8))


class TestJenksBreaks:
    def test_two_obvious_clusters(self):
        values = [0.0, 0.01, 0.02, 0.9, 0.92, 0.95]
        breaks = jenks_breaks(values, 2)
        assert len(breaks) == 2
        assert breaks[0] < 0.5 < breaks[1]

    def test_three_clusters(self):
        values = [1, 1, 2, 10, 11, 12, 50, 51, 52]
        breaks = jenks_breaks(values, 3)
        assert jenks_groups([2, 11, 52], breaks).tolist() == [0, 1, 2]

    def test_breaks_are_sorted(self):
        values = [0.3, 0.1, 0.9, 0.5, 0.7] * 4
        breaks = jenks_breaks(values, 4)
        assert breaks == sorted(breaks)

    def test_last_break_covers_maximum(self):
        values = [0.1, 0.4, 0.8]
        breaks = jenks_breaks(values, 2)
        assert breaks[-1] >= max(values)

    def test_fewer_distinct_values_than_classes(self):
        breaks = jenks_breaks([0.5, 0.5, 0.5], 8)
        assert len(breaks) == 8
        assert jenks_groups([0.5], breaks).tolist() == [0]

    def test_single_value(self):
        breaks = jenks_breaks([0.7], 3)
        assert jenks_groups([0.7], breaks).tolist() == [0]

    def test_quantized_large_input_matches_clusters(self):
        import random
        rng = random.Random(3)
        values = [rng.gauss(0.1, 0.02) for _ in range(2000)]
        values += [rng.gauss(0.9, 0.02) for _ in range(2000)]
        breaks = jenks_breaks(values, 2, max_points=128)
        # The break sits at the top of the low cluster, below the gap.
        assert breaks[0] < 0.5 < breaks[1]
        assert jenks_groups([0.1, 0.9], breaks).tolist() == [0, 1]

    def test_rejects_empty(self):
        with pytest.raises(ProfilingError):
            jenks_breaks([], 3)

    def test_rejects_zero_classes(self):
        with pytest.raises(ProfilingError):
            jenks_breaks([1.0], 0)


class TestJenksGroup:
    def test_group_boundaries_inclusive(self):
        breaks = [0.2, 0.5, 1.0]
        assert jenks_groups([0.2, 0.21, 1.0], breaks).tolist() == [0, 1, 2]

    def test_above_all_breaks_clamps_to_last(self):
        assert jenks_groups([5.0], [0.2, 0.5, 1.0]).tolist() == [2]

    def test_minimizes_within_class_variance(self):
        # Optimality check against brute force on a small input.
        import itertools
        values = sorted([1.0, 2.0, 8.0, 9.0, 20.0, 21.0])

        def sse(groups):
            total = 0.0
            for group in groups:
                if not group:
                    return float("inf")
                mean = sum(group) / len(group)
                total += sum((v - mean) ** 2 for v in group)
            return total

        best = min(
            (
                sse([values[:i], values[i:j], values[j:]])
                for i, j in itertools.combinations(range(1, len(values)), 2)
            )
        )
        breaks = jenks_breaks(values, 3)
        groups = [[], [], []]
        for value, group in zip(values, jenks_groups(values, breaks)):
            groups[group].append(value)
        assert sse(groups) == pytest.approx(best)
