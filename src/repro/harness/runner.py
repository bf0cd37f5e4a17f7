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
ledger.

A FURBYS/Thermometer profiling replay is an ordinary canonical request:
the :data:`~repro.profiling.hitrate.PROFILE_ARMS` arm of the profile
source on the training input, at the request's config and geometry.  Its
cache key keys the ``hitstats`` and ``profile`` entries built from it,
and :func:`execute` runs it: an arm publishes its hit stats as it runs,
and so does any request that asks (``record_hit_stats``), under the same
replay identity.  :func:`hit_stats` reads them, executing the replay
only when nothing published it first.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass

from .. import stagetimer
from ..config import PRESETS, SimulationConfig, preset
from ..core.stats import MissBreakdown, SimulationStats
from ..core.trace import Trace
from ..errors import ProfilingError, ReproError, UnknownPolicyError
from ..frontend.pipeline import FrontendPipeline
from ..offline.belady import BeladyPolicy
from ..offline.flack import FLACKPolicy
from ..offline.foo import FOOPolicy
from ..policies import make_policy, online_policy_names
from ..policies.furbys import FurbysPolicy
from ..policies.thermometer import ThermometerPolicy
from ..profiling.hints import HintColumns, HintMap, merge_hints
from ..profiling.hitrate import (
    PROFILE_ARMS,
    PROFILE_SOURCES,
    HitStats,
    three_class_profile,
)
from ..profiling.pipeline import profile_application
from ..workloads.registry import clear_trace_cache, default_trace_len, get_trace
from . import artifacts

#: Names accepted by RunRequest.policy, beyond the online registry.
OFFLINE_POLICIES = (
    "belady", "foo-ohr", "foo-bhr",
    "flack", "flack[foo]", "flack[A]", "flack[A+VC]", "flack[A+VC+SB]",
)
PROFILE_POLICIES = ("furbys", "thermometer")


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
    #: Record the per-PW hit stats too (:func:`hit_stats` reads them);
    #: the simulation and its result are the same either way.
    record_hit_stats: bool = False
    # --- profile-guided policy inputs ---
    profile_source: str = "flack"
    #: Training inputs for the profile (FURBYS / Thermometer); empty
    #: means "profile on the evaluated input" (the paper's main setup).
    profile_inputs: tuple[str, ...] = ()
    hint_bits: int = 3
    weight_scope: str = "per_set"
    #: Hit-rate grouping: ``"jenks"`` natural breaks or ``"uniform"``
    #: equal-width bins (:func:`~repro.profiling.hints.build_hints`).
    hint_binning: str = "jenks"
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
        own input alone is the default ``()``), the trace length and
        warmup are resolved, and no hit stats are asked for.  An unknown
        preset keeps its overrides: :meth:`build_config` reports it when
        the request runs.
        """
        changes: dict[str, object] = dict(
            trace_len=self.resolved_trace_len(),
            warmup=self.resolved_warmup(),
            perfect=tuple(sorted(set(self.perfect))),
            record_hit_stats=False,
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

    def to_json(self) -> dict:
        """The request's fields, without those of :data:`_KEYED_OFF_DEFAULT`
        that hold their default: the form its cache key hashes, its
        stored result embeds and the ledger journals."""
        payload = dataclasses.asdict(self)
        for name, default in _KEYED_OFF_DEFAULT.items():
            if payload[name] == default:
                del payload[name]
        return payload

    def cache_key(self) -> str:
        payload = self.to_json()
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


def _defaults(*names: str) -> dict[str, object]:
    return {name: RunRequest.__dataclass_fields__[name].default for name in names}


#: The defaults of the fields only the profile-guided policies read.
_PROFILE_DEFAULTS = _defaults(
    "profile_source", "profile_inputs", "hint_bits", "weight_scope",
    "hint_binning", "furbys_bypass", "furbys_pitfall_depth")

#: Fields younger than the stored keys: each enters a request's JSON
#: form only when it leaves its default, so the key, stored result and
#: ledger row of every request that does not set it stay as they were.
_KEYED_OFF_DEFAULT = _defaults("record_hit_stats", "hint_binning")


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
        return {"request": self.request.to_json(), "stats": stats}

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


# --- profiling replays ----------------------------------------------------------

def _replay(request: RunRequest, arm: str, input_name: str) -> RunRequest:
    """The profiling replay that ``arm`` runs on ``input_name`` at
    ``request``'s config and geometry, in canonical form.

    It runs at the default warmup and classifies no misses.  Neither
    changes the per-PW hit stats (warmup resets the counters, not the
    recording), so an arm at another warmup, or one that classifies its
    misses, records the same stats under the replay's identity.
    """
    return dataclasses.replace(
        request, policy=arm, input_name=input_name, warmup=None,
        classify_misses=False,
    ).canonical()


def _training_replay(request: RunRequest, input_name: str) -> RunRequest:
    """The replay a FURBYS/Thermometer request profiles one training
    input with: the arm of its profile source
    (:data:`~repro.profiling.hitrate.PROFILE_ARMS`)."""
    arm = PROFILE_ARMS.get(request.profile_source)
    if arm is None:
        raise ProfilingError(
            f"unknown profile source {request.profile_source!r}; "
            f"expected one of {PROFILE_SOURCES}"
        )
    return _replay(request, arm, input_name)


def _hit_stats_key(replay: RunRequest) -> tuple[str, list]:
    """The ``hitstats`` store key of a replay and the identity its entry
    embeds: the replay's cache key and the column layout."""
    identity = [replay.cache_key(), artifacts.LAYOUTS["hitstats"]]
    return artifacts.key("hitstats", identity), identity


def _stored_hit_stats(replay: RunRequest) -> HitStats | None:
    return artifacts.lookup(
        _hit_stats_key(replay)[0],
        lambda raw: HitStats.from_columns(raw["starts"], raw["hits"], raw["totals"]),
    )[0]


#: ``(store key, hit stats)`` of each recording :func:`execute` could
#: not write to disk while :func:`collected_hit_stats` is active.
_collected: list[tuple[str, HitStats]] | None = None


@contextmanager
def collected_hit_stats():
    """Collect the hit stats :func:`execute` records in this block and
    could not write to disk (``REPRO_CACHE=0``, or a failed write).

    A pool worker ships them to the parent with its result, so the
    parent holds what it could not read back from the disk layer.
    """
    global _collected
    outer, _collected = _collected, []
    try:
        yield _collected
    finally:
        _collected = outer


def _run_replay(replay: RunRequest) -> None:
    """Run one profiling replay; :func:`execute` publishes its hit stats."""
    with stagetimer.timed("profile_sim"):
        execute(dataclasses.replace(replay, record_hit_stats=True))


def hit_stats(request: RunRequest) -> HitStats:
    """The per-PW hit stats of ``request``'s simulation, computed at
    most once.

    They are keyed by its replay identity (:func:`_replay` of its own
    policy and input).  The replay runs here only when no run of the
    same simulation recorded them first: an arm, or a request that
    asked.  The store keeps the three read-only columns as they are.
    """
    replay = _replay(request, request.policy, request.input_name)
    stats = _stored_hit_stats(replay)
    if stats is None:
        _run_replay(replay)
        stats = _stored_hit_stats(replay)
    return stats


def shared_hit_stats(request: RunRequest, input_name: str) -> HitStats:
    """The per-PW hit stats of ``request``'s profiling replay on one
    training input (:func:`hit_stats` of :func:`_training_replay`)."""
    return hit_stats(_training_replay(request, input_name))


def _profile_key(request: RunRequest, replay: RunRequest) -> tuple[str, list]:
    """The ``profile`` store key of ``request``'s hint map built from
    ``replay`` and the identity its entry embeds: the replay's cache key,
    the hint width, weight scope and a non-default binning (the Jenks
    one keeps the entries stored before binnings could differ), and the
    column layout."""
    binning = [] if request.hint_binning == "jenks" else [request.hint_binning]
    identity = [replay.cache_key(), request.hint_bits, request.weight_scope,
                *binning, artifacts.LAYOUTS["profile"]]
    return artifacts.key("profile", identity), identity


def shared_profile(request: RunRequest, input_name: str) -> HintMap:
    """``request``'s FURBYS hint map for one training input, sharing the
    profiling replay.

    The hit stats are shared across hint widths, weight scopes,
    binnings and with Thermometer; only the clustering step is
    parameterized.  The store keeps the map as ``starts``/``groups``
    columns and each call returns a fresh dict of them.  Multi-input
    merges are not stored (see :func:`_profile_for`): they are cheap
    merges of these maps.
    """
    replay = _training_replay(request, input_name)
    store_key, identity = _profile_key(request, replay)

    def compute() -> HintColumns:
        profile = profile_application(
            get_trace(replay.app, input_name, replay.trace_len),
            replay.build_config(), source=request.profile_source,
            n_bits=request.hint_bits, scope=request.weight_scope,
            binning=request.hint_binning,
            hit_stats=shared_hit_stats(request, input_name),
        )
        return HintColumns.from_map(profile.hints)

    columns = artifacts.fetch(
        store_key, compute,
        encode=lambda hints: {"identity": identity,
                              "starts": hints.starts.tolist(),
                              "groups": hints.groups.tolist()},
        decode=lambda raw: HintColumns.from_columns(raw["starts"], raw["groups"]),
    )
    return columns.to_map()


# --- policy construction -----------------------------------------------------

def _canonical_profile_inputs(request: RunRequest) -> tuple[str, ...]:
    """Profile inputs in canonical (sorted) order, so two orderings of
    the same set merge into the same profile."""
    inputs = request.profile_inputs or (request.input_name,)
    return tuple(sorted(inputs))


def _profile_for(request: RunRequest) -> HintMap:
    """The request's FURBYS hint map: one stored map per training input
    (one profiling replay each, shared with Thermometer and across hint
    parameters), merged in canonical order as
    :meth:`~repro.profiling.FurbysProfile.merged_with` merges hints."""
    hint_maps = [shared_profile(request, name)
                 for name in _canonical_profile_inputs(request)]
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
        return policy, _profile_for(request)
    if name == "thermometer":
        inputs = _canonical_profile_inputs(request)
        if len(inputs) > 1:
            raise ReproError(
                "thermometer trains on one input; got profile_inputs="
                f"{request.profile_inputs!r}"
            )
        # Reuse FURBYS's profiling replay: same trace, source and
        # geometry -> same hit stats, different clustering.
        stats = shared_hit_stats(request, inputs[0])
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


def unrecorded_replay(request: RunRequest) -> RunRequest | None:
    """The replay identity ``request`` records its hit stats under,
    when it records them — it asks, or it is a profile-source arm
    (:data:`~repro.profiling.hitrate.PROFILE_ARMS`) — and the store
    does not hold them yet; else ``None``."""
    replay = _replay(request, request.policy, request.input_name)
    if not (request.record_hit_stats or replay.policy in PROFILE_ARMS.values()):
        return None
    return None if _stored_hit_stats(replay) is not None else replay


def execute(request: RunRequest) -> SimulationStats:
    """Compute one simulation, bypassing the ``stats`` store.

    Traces and profiling artifacts still come from the store, which is
    what makes grouping same-app requests onto one worker cheap.  An
    arm that is a profiling replay, and a request that asks, records
    its per-PW hit stats and publishes them there: this is the one
    place a replay runs and the one place hit stats are recorded.
    """
    config = request.build_config()
    trace = get_trace(request.app, request.input_name, request.resolved_trace_len())
    policy, hints = _build_policy_and_hints(request, config, trace)
    replay = unrecorded_replay(request)
    pipeline = FrontendPipeline(
        config, policy, hints=hints, classify_misses=request.classify_misses,
        record_hit_rates=replay is not None,
    )
    stats = pipeline.run(trace, warmup=request.resolved_warmup())
    if replay is not None:
        store_key, identity = _hit_stats_key(replay)
        recorded = HitStats.from_counts(pipeline.pw_hit_stats)
        written = artifacts.publish(
            store_key, recorded,
            lambda columns: {"identity": identity,
                             "starts": columns.starts.tolist(),
                             "hits": columns.hits.tolist(),
                             "totals": columns.totals.tolist()},
        )
        if not written and _collected is not None:
            _collected.append((store_key, recorded))
    return stats


def run(request: RunRequest) -> SimulationStats:
    """Execute (or recall) one simulation."""
    return artifacts.fetch(
        stats_key(request), lambda: execute(request),
        _encode_stats(request), RunResult.stats_from_json,
    )
