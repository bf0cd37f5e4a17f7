"""End-to-end FURBYS profiling (Figure 6, STEP 1-7).

``profile_application`` runs the offline stages (2-6): replay the
lookup sequence under FLACK, compute whole-execution hit rates, group
them with Jenks natural breaks, and emit the hint map.  STEP 2
(recording the lookup sequence) is the identity here — the trace
already is that sequence, see :mod:`repro.profiling.ptrace` — so no
lookup objects are built for it.
``make_furbys`` packages the result with a
:class:`~repro.policies.furbys.FurbysPolicy` ready for the online
deployment stage (7) through
:class:`~repro.frontend.pipeline.FrontendPipeline`'s ``hints`` input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import stagetimer
from ..config import SimulationConfig
from ..core.trace import Trace
from ..policies.furbys import FurbysPolicy
from .hints import HintMap, build_hints, merge_hints
from .hitrate import HitStats, collect_hit_stats


@dataclass(slots=True)
class FurbysProfile:
    """Output of the offline profiling stages."""

    hints: HintMap
    hit_rates: dict[int, float] = field(repr=False, default_factory=dict)
    source: str = "flack"
    n_bits: int = 3
    scope: str = "per_set"
    #: start -> micro-ops requested during profiling (the hit-rate
    #: denominator); the sample weight for cross-input merging.
    sample_counts: dict[int, int] = field(repr=False, default_factory=dict)

    @property
    def n_groups(self) -> int:
        return 1 << self.n_bits

    def merged_with(self, *others: "FurbysProfile") -> "FurbysProfile":
        """Combine profiles from several training inputs (Figure 18).

        Hit rates merge as the sample-weighted mean (weights are the
        per-start micro-op totals when recorded, else uniform), so a
        start profiled heavily in one input is not diluted by a few
        stray lookups in another; sample counts accumulate.
        """
        profiles = [self, *others]
        rate_acc: dict[int, list[float]] = {}  # start -> [rate*w sum, w sum]
        counts: dict[int, int] = {}
        for profile in profiles:
            for start, rate in profile.hit_rates.items():
                weight = profile.sample_counts.get(start, 1)
                entry = rate_acc.setdefault(start, [0.0, 0.0])
                entry[0] += rate * weight
                entry[1] += weight
                counts[start] = counts.get(start, 0) + weight
        return FurbysProfile(
            hints=merge_hints([p.hints for p in profiles]),
            hit_rates={
                start: (num / den if den else 0.0)
                for start, (num, den) in rate_acc.items()
            },
            source=self.source,
            n_bits=self.n_bits,
            scope=self.scope,
            sample_counts=counts,
        )


def profile_application(
    trace: Trace,
    config: SimulationConfig,
    *,
    source: str = "flack",
    n_bits: int = 3,
    scope: str = "per_set",
    binning: str = "jenks",
    hit_stats: HitStats | None = None,
) -> FurbysProfile:
    """Run STEP 2-6 on a training trace.

    ``source`` selects the offline decision generator (``flack``,
    ``belady`` or ``foo`` — the Figure 15 comparison); ``n_bits`` the
    hint width (Figure 19); ``scope`` the weight granularity;
    ``binning`` the grouping (Jenks, or the ablation's equal width).
    ``hit_stats`` supplies an already-collected profiling replay (see
    :mod:`repro.harness.runner`), skipping STEP 3-5's simulation.
    """
    if hit_stats is None:
        hit_stats = collect_hit_stats(trace, config, source=source)  # STEP 3-5
    starts = hit_stats.starts.tolist()
    hit_rates = dict(zip(starts, hit_stats.rates().tolist()))
    with stagetimer.timed("hint_build"):
        hints = build_hints(  # STEP 6
            trace,
            hit_rates,
            n_bits=n_bits,
            scope=scope,
            n_sets=config.uop_cache.sets,
            binning=binning,
        )
    return FurbysProfile(
        hints=hints, hit_rates=hit_rates, source=source, n_bits=n_bits,
        scope=scope,
        sample_counts=dict(zip(starts, hit_stats.totals.tolist())),
    )


def make_furbys(
    profile: FurbysProfile,
    *,
    bypass_enabled: bool = True,
    pitfall_depth: int = 2,
) -> tuple[FurbysPolicy, HintMap]:
    """STEP 7 inputs: the policy and the hints for the deployment run.

    Pass both to the frontend::

        policy, hints = make_furbys(profile)
        pipeline = FrontendPipeline(config, policy, hints=hints)
    """
    policy = FurbysPolicy(
        bypass_enabled=bypass_enabled, pitfall_depth=pitfall_depth
    )
    return policy, profile.hints
