"""Jenks natural breaks (Fisher's optimal 1-D classification).

FURBYS groups PWs into 8 weight classes by whole-execution hit rate
using Jenks natural breaks, which "determines the optimal arrangement
of values into distinct classes by minimizing within-class variance and
maximizing between-class variance" (Section V).

The exact algorithm is the Fisher/Jenks dynamic program — equivalent to
optimal one-dimensional k-means on sum-of-squared-error.  It is
O(k·n²); to keep profiling fast at trace scale, inputs larger than
``max_points`` are first aggregated into a weighted quantization, which
leaves the break positions essentially unchanged for the smooth hit-
rate distributions seen here (the DP below supports weights natively).
"""

from __future__ import annotations

import numpy as np

from ..errors import ProfilingError


def _quantize(values: np.ndarray, max_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate sorted values into at most ``max_points`` weighted points."""
    lo, hi = float(values[0]), float(values[-1])
    if hi <= lo:
        return np.array([lo]), np.array([float(len(values))])
    edges = np.linspace(lo, hi, max_points + 1)
    bins = np.clip(np.searchsorted(edges, values, side="right") - 1, 0, max_points - 1)
    counts = np.bincount(bins, minlength=max_points).astype(float)
    sums = np.bincount(bins, weights=values, minlength=max_points)
    mask = counts > 0
    return sums[mask] / counts[mask], counts[mask]


def jenks_breaks(
    values: list[float] | np.ndarray,
    n_classes: int,
    *,
    max_points: int = 384,
) -> list[float]:
    """Optimal class break values (upper bounds of each class).

    Returns ``n_classes`` ascending break values; a value ``v`` belongs
    to the first class whose break is ``>= v``.  With fewer distinct
    values than classes, the distinct values themselves become breaks
    (padded with the maximum).
    """
    if n_classes <= 0:
        raise ProfilingError("n_classes must be positive")
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ProfilingError("cannot compute breaks of an empty sequence")
    data = np.sort(data)
    if data.size > max_points:
        return _fisher_breaks(*_quantize(data, max_points), n_classes)
    if n_classes >= data.size:
        # One class per value is the only partition the DP can return
        # here, so its breaks are the sorted values themselves.
        breaks = data.tolist()
        return breaks + [breaks[-1]] * (n_classes - len(breaks))
    return _fisher_breaks(data, np.ones(data.size), n_classes)


def _fisher_breaks(points: np.ndarray, weights: np.ndarray,
                   n_classes: int) -> list[float]:
    """The Fisher/Jenks DP over sorted weighted ``points``.

    Returns ``n_classes`` break values, padded with the maximum when
    there are fewer points than classes.
    """
    n = points.size
    k = min(n_classes, n)

    # Prefix sums for O(1) weighted SSE of any segment [i, j).
    w = np.concatenate([[0.0], np.cumsum(weights)])
    wx = np.concatenate([[0.0], np.cumsum(weights * points)])
    wxx = np.concatenate([[0.0], np.cumsum(weights * points * points)])

    # Segment SSE matrix, built once for every class step: row j - 1
    # holds the weighted SSE of the last class [i, j) for each split i.
    # Entries with i >= j are not real segments; the garbage computed
    # for them (weight <= 0) is masked to +inf so a class step's
    # row-wise first-minimum is taken over valid splits only.
    # (Quantized weights are >= 1, so segment weights are always
    # positive where it matters and the divisions are safe.)
    infinity = float("inf")
    i = np.arange(n)
    j = np.arange(1, n + 1)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = w[j] - w[i]
        mean = (wx[j] - wx[i]) / weight
        sse = np.where(i < j, (wxx[j] - wxx[i]) - weight * mean * mean,
                       infinity)

    # DP over (classes, points): cost[c][j] = best SSE for first j points
    # in c classes; split[c][j] = start of the last class.  Each step
    # adds the previous class's costs to the segment costs and takes the
    # row-wise first minimum, so every candidate is the same float64
    # expression the scalar `<` scan evaluated and break positions are
    # unchanged.
    cost = np.full((k + 1, n + 1), infinity)
    split = np.zeros((k + 1, n + 1), dtype=np.intp)
    cost[0, 0] = 0.0
    for c in range(1, k + 1):
        lo = c - 1
        # Candidates over (row: last-class end j >= c, col: split i >= lo).
        candidate = cost[c - 1, lo:n] + sse[lo:, lo:]
        best = candidate.argmin(axis=1)
        cost[c, c:] = candidate[np.arange(best.size), best]
        split[c, c:] = best + lo

    # Recover break values (upper bound of each class).
    breaks: list[float] = []
    j = n
    for c in range(k, 0, -1):
        breaks.append(float(points[j - 1]))
        j = int(split[c, j])
    breaks.reverse()
    while len(breaks) < n_classes:
        breaks.append(breaks[-1])
    return breaks


def jenks_groups(values: np.ndarray, breaks: list[float]) -> np.ndarray:
    """Class index (0 = lowest) of every value under ``breaks``: the
    first break ``>=`` the value (breaks ascend), clamped to the last
    class."""
    return np.minimum(np.searchsorted(breaks, values, side="left"),
                      len(breaks) - 1)
