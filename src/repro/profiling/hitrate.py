"""Per-PW hit-rate collection (STEP 3-5 of the FURBYS procedure).

The trace is replayed under an offline policy (FLACK by default; Belady
or FOO for the Figure 15 sensitivity study) with per-PW recording
enabled; each PW's whole-execution hit rate — micro-ops served from the
micro-op cache over micro-ops requested — becomes the input to the
Jenks grouping.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

import numpy as np

from .. import stagetimer
from ..config import SimulationConfig
from ..core.trace import Trace
from ..errors import ProfilingError
from ..frontend.pipeline import FrontendPipeline
from ..offline.belady import BeladyPolicy
from ..offline.flack import FLACKPolicy
from ..offline.foo import FOOPolicy
from ..policies.thermometer import COLD, HOT, WARM
from ..uopcache.replacement import ReplacementPolicy
from .jenks import jenks_breaks, jenks_groups

#: Offline decision sources accepted by the profiling pipeline (Fig. 15
#: compares them; FLACK is ~3-4% better than the alternatives).
PROFILE_SOURCES = ("flack", "belady", "foo")


def column(values, dtype: type = np.int64) -> np.ndarray:
    """A read-only 1-D column (the store's artifact layout).  PW starts
    are ``np.uint64``, the width of the trace's start column; counts and
    groups are ``np.int64``."""
    array = np.array(values, dtype=dtype)
    if array.ndim != 1:
        raise ValueError("a column must be one-dimensional")
    array.flags.writeable = False
    return array


class HitStats(NamedTuple):
    """Per-PW ``(uops hit, uops requested)`` of one profiling replay, as
    three read-only columns in ascending start order (uint64 starts,
    int64 counts)."""

    starts: np.ndarray
    hits: np.ndarray
    totals: np.ndarray

    @classmethod
    def from_columns(cls, starts, hits, totals) -> "HitStats":
        columns = cls(column(starts, np.uint64), column(hits),
                      column(totals))
        if not columns.starts.size == columns.hits.size == columns.totals.size:
            raise ValueError("hit-stat columns differ in length")
        return columns

    @classmethod
    def from_counts(cls, counts: Mapping[int, tuple[int, int]]) -> "HitStats":
        """Columns of a ``start -> (hit, total)`` mapping."""
        starts = sorted(counts)
        return cls.from_columns(
            starts, [counts[s][0] for s in starts], [counts[s][1] for s in starts])

    def rates(self) -> np.ndarray:
        """Whole-execution hit rate per start (0.0 where nothing was
        requested).  float64 division of these ints is correctly
        rounded, exactly as Python's ``hit / total``."""
        return np.divide(self.hits, self.totals,
                         out=np.zeros(self.starts.size),
                         where=self.totals != 0)


#: The arm each profile source's replay is: the same simulation as that
#: ``RunRequest.policy`` at the same geometry, apart from the recording.
PROFILE_ARMS = {"flack": "flack", "belady": "belady", "foo": "foo-ohr"}


def make_profile_policy(
    source: str, trace: Trace, config: SimulationConfig
) -> ReplacementPolicy:
    """Instantiate the offline policy used to generate profile decisions."""
    if source == "flack":
        return FLACKPolicy(trace, config.uop_cache)
    if source == "belady":
        return BeladyPolicy(trace)
    if source == "foo":
        return FOOPolicy(trace, config.uop_cache)
    raise ProfilingError(
        f"unknown profile source {source!r}; expected one of {PROFILE_SOURCES}"
    )


def collect_hit_stats(
    trace: Trace,
    config: SimulationConfig,
    *,
    source: str = "flack",
    policy: ReplacementPolicy | None = None,
) -> HitStats:
    """Raw per-PW ``(uops hit, uops requested)`` counts from one replay.

    This is the expensive profiling artifact — a full simulation under
    an offline policy — and the form the shared artifact store
    (:mod:`repro.harness.artifacts`) caches: the counts carry the
    sample weights that hit *rates* discard.  ``policy`` overrides
    ``source`` when provided (tests use this to profile under
    arbitrary policies).
    """
    if policy is None:
        policy = make_profile_policy(source, trace, config)
    with stagetimer.timed("profile_sim"):
        pipeline = FrontendPipeline(config, policy, record_hit_rates=True)
        pipeline.run(trace)
    assert pipeline.pw_hit_stats is not None
    return HitStats.from_counts(pipeline.pw_hit_stats)


def collect_hit_rates(
    trace: Trace,
    config: SimulationConfig,
    *,
    source: str = "flack",
    policy: ReplacementPolicy | None = None,
) -> dict[int, float]:
    """Whole-execution hit rate per PW start under offline decisions.

    ``policy`` overrides ``source`` when provided (tests use this to
    profile under arbitrary policies).
    """
    stats = collect_hit_stats(trace, config, source=source, policy=policy)
    return dict(zip(stats.starts.tolist(), stats.rates().tolist()))


def three_class_profile(
    trace: Trace,
    config: SimulationConfig,
    *,
    source: str = "flack",
    hit_stats: HitStats | None = None,
) -> dict[int, int]:
    """Thermometer's hot/warm/cold classification from profiled hit rates.

    Thermometer [82] divides entries into three temperature classes by
    profiled hit rate; this reuses the same profiling run as FURBYS but
    collapses the clustering to three Jenks classes.  ``hit_stats``
    supplies an already-collected replay (the shared artifact store
    uses this to skip the simulation); when omitted it is profiled here.
    """
    if hit_stats is None:
        hit_stats = collect_hit_stats(trace, config, source=source)
    if not hit_stats.starts.size:
        return {}
    rates = hit_stats.rates()
    groups = jenks_groups(rates, jenks_breaks(rates, 3))
    mapping = (COLD, WARM, HOT)
    return {
        start: mapping[group]
        for start, group in zip(hit_stats.starts.tolist(), groups.tolist())
    }
