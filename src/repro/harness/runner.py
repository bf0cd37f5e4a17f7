"""Memoized simulation runner: one entry point for every experiment.

Every figure/table bench expresses its work as :class:`RunRequest`
objects and calls :func:`run`.  Results are ``stats`` entries of the
artifact store (:mod:`repro.harness.artifacts`), in memory and on disk,
because the figures share most of their runs — every figure needs the
per-app LRU baseline, several share the default FURBYS deployment, and
so on.  Set ``REPRO_CACHE=0`` to disable the disk layer.

A result is stored under the cache key of the request's canonical form
(:meth:`RunRequest.canonical`), so requests that differ only in fields
the simulation does not read — an override equal to the preset's
value, the order of ``perfect``, profile fields of a policy that takes
no profile — share one entry and one run.  The request's own
:meth:`~RunRequest.cache_key` stays its identity in the experiment
ledger.  An arm that is also a profiling replay (:data:`~repro.
profiling.hitrate.PROFILE_ARMS`) records its per-PW hit stats while it
runs and publishes them as the ``hitstats`` entry that replay would
compute.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from ..config import PRESETS, SimulationConfig, preset
from ..core.stats import MissBreakdown, SimulationStats
from ..core.trace import Trace
from ..errors import ReproError, UnknownPolicyError
from ..frontend.pipeline import FrontendPipeline
from ..offline.belady import BeladyPolicy
from ..offline.flack import FLACKPolicy
from ..offline.foo import FOOPolicy
from ..policies import make_policy, online_policy_names
from ..policies.furbys import FurbysPolicy
from ..policies.thermometer import ThermometerPolicy
from ..profiling.hints import HintMap, merge_hints
from ..profiling.hitrate import PROFILE_ARMS, HitStats, three_class_profile
from ..workloads.registry import clear_trace_cache, default_trace_len, get_trace
from . import artifacts
from .artifacts import (
    hit_stats_slot,
    profiling_geometry,
    shared_hit_stats,
    shared_profile,
)

#: Names accepted by RunRequest.policy, beyond the online registry.
OFFLINE_POLICIES = (
    "belady", "foo-ohr", "foo-bhr",
    "flack", "flack[foo]", "flack[A]", "flack[A+VC]", "flack[A+VC+SB]",
)
PROFILE_POLICIES = ("furbys", "thermometer")
#: The profile source each arm's simulation replays (see PROFILE_ARMS).
_ARM_SOURCES = {arm: source for source, arm in PROFILE_ARMS.items()}


@dataclass(frozen=True, slots=True)
class RunRequest:
    """One fully specified simulation."""

    app: str
    policy: str = "lru"
    input_name: str = "default"
    config: str = "zen3"
    #: Structures made perfect (Figure 2): subset of
    #: ("uop_cache", "icache", "btb", "branch_predictor").
    perfect: tuple[str, ...] = ()
    #: Micro-op cache geometry overrides (None = preset values).
    cache_entries: int | None = None
    cache_ways: int | None = None
    insertion_delay: int | None = None
    inclusive: bool = True
    keep_larger: bool = True
    trace_len: int | None = None
    warmup: int | None = None
    classify_misses: bool = False
    # --- profile-guided policy inputs ---
    profile_source: str = "flack"
    #: Training inputs for the profile (FURBYS / Thermometer); empty
    #: means "profile on the evaluated input" (the paper's main setup).
    profile_inputs: tuple[str, ...] = ()
    hint_bits: int = 3
    weight_scope: str = "per_set"
    furbys_bypass: bool = True
    furbys_pitfall_depth: int = 2

    def resolved_trace_len(self) -> int:
        if self.trace_len is not None:
            return self.trace_len
        return default_trace_len()

    def resolved_warmup(self) -> int:
        if self.warmup is not None:
            return self.warmup
        return self.resolved_trace_len() // 3

    def build_config(self) -> SimulationConfig:
        config = preset(self.config)
        changes: dict[str, object] = {}
        if self.cache_entries is not None:
            changes["entries"] = self.cache_entries
        if self.cache_ways is not None:
            changes["ways"] = self.cache_ways
        if self.insertion_delay is not None:
            changes["insertion_delay"] = self.insertion_delay
        if not self.inclusive:
            changes["inclusive_with_icache"] = False
        if not self.keep_larger:
            changes["keep_larger"] = False
        if changes:
            config = config.with_uop_cache(**changes)
        for structure in self.perfect:
            config = config.with_perfect(structure)
        return config

    def canonical(self) -> "RunRequest":
        """This request in the one form every request that runs the same
        simulation shares.

        A geometry override equal to the preset's value becomes
        ``None``, ``perfect`` is sorted and deduplicated,
        ``flack[A+VC+SB]`` is ``flack`` (the same flags), a policy
        outside :data:`PROFILE_POLICIES` gets the default profile
        fields, a profile-guided one its training inputs sorted (its
        own input alone is the default ``()``), and the trace length and
        warmup are resolved.  An unknown preset keeps its overrides:
        :meth:`build_config` reports it when the request runs.
        """
        changes: dict[str, object] = dict(
            trace_len=self.resolved_trace_len(),
            warmup=self.resolved_warmup(),
            perfect=tuple(sorted(set(self.perfect))),
        )
        if self.config in PRESETS:
            uop_cache = preset(self.config).uop_cache
            for name, value in (("cache_entries", uop_cache.entries),
                                ("cache_ways", uop_cache.ways),
                                ("insertion_delay", uop_cache.insertion_delay)):
                if getattr(self, name) == value:
                    changes[name] = None
        if self.policy == "flack[A+VC+SB]":
            changes["policy"] = "flack"
        if self.policy in PROFILE_POLICIES:
            inputs = tuple(sorted(self.profile_inputs))
            changes["profile_inputs"] = () if inputs == (self.input_name,) else inputs
        else:
            changes.update(_PROFILE_DEFAULTS)
        return dataclasses.replace(self, **changes)

    def cache_key(self) -> str:
        payload = dataclasses.asdict(self)
        # Resolve environment-dependent defaults so a cached result is
        # only reused for the exact trace geometry it was computed on
        # (REPRO_TRACE_LEN changes must not serve stale entries).
        payload["trace_len"] = self.resolved_trace_len()
        payload["warmup"] = self.resolved_warmup()
        text = json.dumps(payload, sort_keys=True, default=list)
        return hashlib.sha256(text.encode()).hexdigest()[:24]

    @classmethod
    def from_json(cls, payload: dict) -> "RunRequest":
        """Rebuild a request from its JSON form (the experiment ledger
        stores requests with resolved trace geometry, so the rebuilt
        request hashes to the same cache key in any environment)."""
        data = dict(payload)
        for name in ("perfect", "profile_inputs"):
            data[name] = tuple(data.get(name) or ())
        return cls(**data)


#: The defaults of the fields only the profile-guided policies read.
_PROFILE_DEFAULTS = {
    name: RunRequest.__dataclass_fields__[name].default
    for name in ("profile_source", "profile_inputs", "hint_bits",
                 "weight_scope", "furbys_bypass", "furbys_pitfall_depth")
}


def simulation(request: RunRequest, key: str | None = None) -> tuple[RunRequest, str]:
    """A request's canonical form and that form's cache key: the
    identity of the simulation the request runs.  ``key``, the
    request's own cache key when the caller holds it, is reused when
    the request is already canonical."""
    canonical = request.canonical()
    if key is None or canonical != request:
        key = canonical.cache_key()
    return canonical, key


@dataclass(slots=True)
class RunResult:
    """Stats plus the request that produced them."""

    request: RunRequest
    stats: SimulationStats

    def to_json(self) -> dict:
        stats = dataclasses.asdict(self.stats)
        return {"request": dataclasses.asdict(self.request), "stats": stats}

    @classmethod
    def stats_from_json(cls, payload: dict) -> SimulationStats:
        raw = dict(payload["stats"])
        breakdown = MissBreakdown(**raw.pop("miss_breakdown"))
        return SimulationStats(miss_breakdown=breakdown, **raw)


# --- caches -----------------------------------------------------------------

def clear_memory_cache() -> None:
    """Drop every in-process memoized layer (tests use this).

    Beyond the artifact store's memory and the trace cache this also
    drops every :meth:`~repro.core.trace.Trace.memo` entry — kernel
    columns, future index, intervals, plans — which all sit on the one
    memo holder, so they go even when a caller still references that
    trace.  Each dropped entry is counted — ``repro-trace inspect
    --cache-stats`` reports the cumulative total.
    """
    from ..core.trace import drop_memos

    artifacts.clear_memory()
    clear_trace_cache()
    drop_memos()


# --- policy construction -----------------------------------------------------

def _canonical_profile_inputs(request: RunRequest) -> tuple[str, ...]:
    """Profile inputs in canonical (sorted) order, so two orderings of
    the same set merge into the same profile."""
    inputs = request.profile_inputs or (request.input_name,)
    return tuple(sorted(inputs))


def _request_geometry(request: RunRequest) -> list:
    """The profiling geometry of a request, taken from its canonical
    form so an arm and the replay it stands in for agree on it."""
    request = request.canonical()
    return profiling_geometry(
        request.config,
        cache_entries=request.cache_entries,
        cache_ways=request.cache_ways,
        insertion_delay=request.insertion_delay,
        inclusive=request.inclusive,
        keep_larger=request.keep_larger,
        perfect=request.perfect,
    )


def _profile_for(request: RunRequest, config: SimulationConfig) -> HintMap:
    """The request's FURBYS hint map: one stored map per training input
    (one profiling replay each, shared with Thermometer and across hint
    parameters), merged in canonical order as
    :meth:`~repro.profiling.FurbysProfile.merged_with` merges hints."""
    hint_maps = [
        shared_profile(
            request.app, name, request.resolved_trace_len(), config,
            source=request.profile_source,
            n_bits=request.hint_bits,
            scope=request.weight_scope,
            geometry=_request_geometry(request),
        )
        for name in _canonical_profile_inputs(request)
    ]
    return merge_hints(hint_maps) if hint_maps[1:] else hint_maps[0]


def _build_policy_and_hints(
    request: RunRequest, config: SimulationConfig, trace: Trace
):
    name = request.policy
    if name in online_policy_names():
        return make_policy(name), None
    if name == "belady":
        return BeladyPolicy(trace), None
    if name in ("foo-ohr", "foo-bhr"):
        return FOOPolicy(trace, config.uop_cache, objective=name[-3:]), None
    if name.startswith("flack"):
        flags = dict(async_aware=True, variable_cost=True, selective_bypass=True)
        if name.startswith("flack[") and name.endswith("]"):
            feature_set = name[6:-1]
            flags = dict(
                async_aware="A" in feature_set.split("+"),
                variable_cost="VC" in feature_set.split("+"),
                selective_bypass="SB" in feature_set.split("+"),
            )
            if feature_set == "foo":
                flags = dict(
                    async_aware=False, variable_cost=False, selective_bypass=False
                )
        return FLACKPolicy(trace, config.uop_cache, **flags), None
    if name == "furbys":
        policy = FurbysPolicy(
            bypass_enabled=request.furbys_bypass,
            pitfall_depth=request.furbys_pitfall_depth,
        )
        return policy, _profile_for(request, config)
    if name == "thermometer":
        inputs = _canonical_profile_inputs(request)
        if len(inputs) > 1:
            raise ReproError(
                "thermometer trains on one input; got profile_inputs="
                f"{request.profile_inputs!r}"
            )
        # Reuse FURBYS's profiling replay: same trace, source and
        # geometry -> same hit stats, different clustering.
        stats = shared_hit_stats(
            request.app, inputs[0], request.resolved_trace_len(), config,
            source=request.profile_source, geometry=_request_geometry(request),
        )
        classes = three_class_profile(
            get_trace(request.app, inputs[0], request.resolved_trace_len()),
            config, source=request.profile_source, hit_stats=stats,
        )
        return ThermometerPolicy(classes), None
    raise UnknownPolicyError(
        f"unknown policy {request.policy!r}; online={online_policy_names()}, "
        f"offline={OFFLINE_POLICIES}, profile-guided={PROFILE_POLICIES}"
    )


# --- the runner -----------------------------------------------------------------

def stats_key(request: RunRequest, key: str | None = None) -> str:
    """The store key of a request's result: its simulation's key
    (``key`` is the request's cache key, when the caller holds it)."""
    return artifacts.key("stats", simulation(request, key)[1])


def _encode_stats(request: RunRequest):
    def encode(stats: SimulationStats) -> dict:
        # The entry embeds the canonical request, whose trace geometry
        # is resolved, so it hashes back to its key in any environment
        # (the store's stale census relies on this).
        return RunResult(request.canonical(), stats).to_json()
    return encode


def cached_stats(request: RunRequest, key: str | None = None) -> SimulationStats | None:
    """Probe the store's memory then disk for a result; ``None`` on a miss.

    A corrupt or undecodable disk entry is quarantined (``*.corrupt``)
    and is a miss, so the run is recomputed.
    """
    return artifacts.lookup(
        stats_key(request, key), RunResult.stats_from_json
    )[0]


def store_stats(
    request: RunRequest, stats: SimulationStats, key: str | None = None
) -> None:
    """Publish a result to the store's memory and disk (atomic write)."""
    artifacts.publish(stats_key(request, key), stats, _encode_stats(request))


def _unrecorded_replay(request: RunRequest):
    """When ``request`` runs a profiling replay's simulation and the
    store does not hold that replay's hit stats yet, their ``hitstats``
    slot (:func:`~repro.harness.artifacts.hit_stats_slot`); else
    ``None``.

    The replay and its arm are one simulation: warmup resets the
    counters but not the per-PW hit stats, so the arm's recording over
    the whole trace is the replay's.
    """
    canonical = request.canonical()
    source = _ARM_SOURCES.get(canonical.policy)
    if source is None:
        return None
    slot = hit_stats_slot(
        canonical.app, canonical.input_name, canonical.trace_len,
        source=source, geometry=_request_geometry(canonical),
    )
    if artifacts.lookup(slot[0], artifacts.decode_hit_stats)[0] is not None:
        return None
    return slot


def execute(request: RunRequest) -> SimulationStats:
    """Compute one simulation, bypassing the ``stats`` store.

    Traces and profiling artifacts still come from the store, which is
    what makes grouping same-app requests onto one worker cheap.  An
    arm that is a profiling replay publishes its hit stats there too.
    """
    config = request.build_config()
    trace = get_trace(request.app, request.input_name, request.resolved_trace_len())
    policy, hints = _build_policy_and_hints(request, config, trace)
    replay = _unrecorded_replay(request)
    pipeline = FrontendPipeline(
        config, policy, hints=hints, classify_misses=request.classify_misses,
        record_hit_rates=replay is not None,
    )
    stats = pipeline.run(trace, warmup=request.resolved_warmup())
    if replay is not None:
        store_key, encode = replay
        artifacts.publish(
            store_key, HitStats.from_counts(pipeline.pw_hit_stats), encode)
    return stats


def run(request: RunRequest) -> SimulationStats:
    """Execute (or recall) one simulation."""
    return artifacts.fetch(
        stats_key(request), lambda: execute(request),
        _encode_stats(request), RunResult.stats_from_json,
    )
