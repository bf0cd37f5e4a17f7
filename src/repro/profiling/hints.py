"""Hint injection: embedding weight groups into the binary (STEP 6).

The paper injects each PW's 3-bit weight group into reserved bits of a
branch instruction inside the PW; the decoder extracts it and the
accumulator forwards it with the assembled window (Section V-A/V-B).
Two constraints of that encoding are modelled here:

* only PWs terminated by (or containing) a branch can carry a hint —
  line-boundary-terminated windows reach the cache unhinted and default
  to the coldest group;
* one weight per PW start address, 3 bits wide by default (the
  Figure 19 sensitivity sweeps 1-8 bits).

Weights are computed at cache-set granularity by default, matching the
paper ("replacement decisions are performed for each cache set
individually"); global scope is available for the ablation bench.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

import numpy as np

from ..core.trace import FLAG_CONTAINS, Trace
from ..errors import ProfilingError
from ..uopcache.cache import default_set_index
from .hitrate import column
from .jenks import jenks_breaks, jenks_groups

#: A hint map: PW start address -> weight group (0 = coldest).
HintMap = dict[int, int]


class HintColumns(NamedTuple):
    """A hint map as two read-only columns in ascending start order
    (uint64 starts, int64 groups): the form the artifact store keeps."""

    starts: np.ndarray
    groups: np.ndarray

    @classmethod
    def from_columns(cls, starts, groups) -> "HintColumns":
        columns = cls(column(starts, np.uint64), column(groups))
        if columns.starts.size != columns.groups.size:
            raise ValueError("hint columns differ in length")
        return columns

    @classmethod
    def from_map(cls, hints: HintMap) -> "HintColumns":
        starts = sorted(hints)
        return cls.from_columns(starts, [hints[s] for s in starts])

    def to_map(self) -> HintMap:
        return dict(zip(self.starts.tolist(), self.groups.tolist()))


def hintable_starts(trace: Trace) -> set[int]:
    """Starts that can carry a hint (the PW contains a branch).

    "Most PWs end with a branch or contain at least a branch"
    (Section V-A); pure mid-block line fragments cannot be hinted and
    default to the coldest group online.  Column-backed traces answer
    from the packed flags without building lookup objects.
    """
    if trace.has_columns():
        columns = trace.columns
        branchy = (np.asarray(columns.flags) & FLAG_CONTAINS) != 0
        return set(np.asarray(columns.starts)[branchy].tolist())
    return {pw.start for pw in trace if pw.contains_branch}


def build_hints(
    trace: Trace,
    hit_rates: Mapping[int, float],
    *,
    n_bits: int = 3,
    scope: str = "per_set",
    n_sets: int = 64,
    set_index_fn: Callable[[int, int], int] | None = None,
) -> HintMap:
    """Cluster hit rates into ``2**n_bits`` groups and emit hints.

    ``scope`` is ``"per_set"`` (paper default) or ``"global"``.
    """
    if n_bits < 1 or n_bits > 8:
        raise ProfilingError("hint width must be 1-8 bits")
    if scope not in ("per_set", "global"):
        raise ProfilingError(f"unknown weight scope {scope!r}")
    n_groups = 1 << n_bits
    allowed = hintable_starts(trace)
    rated = {s: r for s, r in hit_rates.items() if s in allowed}
    if not rated:
        return {}

    if scope == "global":
        by_set = {0: list(rated)}
    else:
        set_fn = set_index_fn or default_set_index
        by_set = {}
        for start in rated:
            by_set.setdefault(set_fn(start, n_sets), []).append(start)
    hints: HintMap = {}
    for starts in by_set.values():
        rates = np.array([rated[start] for start in starts])
        groups = jenks_groups(rates, jenks_breaks(rates, n_groups))
        hints.update(zip(starts, groups.tolist()))
    return hints


def merge_hints(hint_maps: list[HintMap]) -> HintMap:
    """Merge hints from several training inputs (cross-validation).

    Conflicting weights resolve to the rounded mean, mirroring the
    paper's merged profiles for the Figure 18 study.
    """
    sums: dict[int, list[int]] = {}
    for hints in hint_maps:
        for start, weight in hints.items():
            entry = sums.setdefault(start, [0, 0])
            entry[0] += weight
            entry[1] += 1
    return {start: round(total / count) for start, (total, count) in sums.items()}
