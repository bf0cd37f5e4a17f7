"""Frontend pipeline: the trace-driven simulation loop.

This is the behavioural simulator every policy runs under.  Per lookup
(the simulator clock is the lookup index):

1. complete any decode-pipeline insertions that have become due
   (asynchronous insertion, Section II-B);
2. probe the micro-op cache:

   * **full hit** — a resident same-start PW covers the lookup
     (intermediate exit points);
   * **partial hit** — a shorter same-start PW serves its micro-ops;
     the remainder decodes through the legacy path and the merged,
     larger window is scheduled for insertion (Section II-D);
   * **miss** — the whole PW decodes and is scheduled for insertion
     ``insertion_delay`` lookups later; lookups racing an in-flight
     insertion miss again but coalesce into one insertion;

3. on the legacy path, fetch the missed byte range through the L1i;
   icache evictions invalidate overlapping micro-op cache PWs
   (inclusivity).

Path switches, BTB accesses, decode activity and all power-model
counters are accounted along the way.

:meth:`FrontendPipeline.step` is the reference implementation of one
lookup.  :meth:`FrontendPipeline.run` hands every configuration the
vectorized kernels support to them and runs the ``step`` loop
(:meth:`FrontendPipeline.run_reference`) for the rest.
"""

from __future__ import annotations

from collections import OrderedDict, deque

from .. import stagetimer
from ..config import SimulationConfig
from ..core.pw import PWLookup
from ..core.stats import MissClass, SimulationStats
from ..core.trace import Trace
from ..uopcache.cache import UopCache
from ..uopcache.replacement import ReplacementPolicy
from .accumulator import Accumulator, InsertionRequest
from .branch import BranchTargetBuffer
from .decoder import LegacyDecoder
from .icache import InstructionCache


class _ShadowClassifier:
    """3C miss classifier (Section III-B).

    ``cold``: first reference to a PW start.  For the rest, a shadow
    fully-associative LRU cache with the same total entry capacity
    arbitrates: present there → ``conflict`` (only the set mapping
    lost it), absent → ``capacity``.
    """

    def __init__(self, capacity_entries: int, uops_per_entry: int) -> None:
        self._capacity = capacity_entries
        self._uops_per_entry = uops_per_entry
        self._seen: set[int] = set()
        self._fa: OrderedDict[int, int] = OrderedDict()  # start -> size
        self._used = 0

    def classify(self, lookup: PWLookup) -> MissClass:
        """Classify a miss on ``lookup`` (call before :meth:`touch`)."""
        if lookup.start not in self._seen:
            return MissClass.COLD
        if lookup.start in self._fa:
            return MissClass.CONFLICT
        return MissClass.CAPACITY

    def touch(self, lookup: PWLookup) -> None:
        """Record the reference in the shadow structures."""
        start = lookup.start
        self._seen.add(start)
        size = lookup.size(self._uops_per_entry)
        if start in self._fa:
            self._used -= self._fa.pop(start)
        while self._used + size > self._capacity and self._fa:
            _, evicted_size = self._fa.popitem(last=False)
            self._used -= evicted_size
        if size <= self._capacity:
            self._fa[start] = size
            self._used += size


class FrontendPipeline:
    """Drives one trace through the frontend model.

    Parameters
    ----------
    config:
        Machine configuration (Table I presets).
    policy:
        Micro-op cache replacement policy.
    hints:
        FURBYS weight hints (start address → 3-bit group), attached by
        the accumulator on insertion.
    classify_misses:
        Enable the 3C shadow classifier (costs one shadow-LRU update
        per lookup; off by default).
    set_index:
        Custom micro-op cache set-index function.
    """

    def __init__(
        self,
        config: SimulationConfig,
        policy: ReplacementPolicy,
        *,
        hints: dict[int, int] | None = None,
        classify_misses: bool = False,
        record_hit_rates: bool = False,
        set_index=None,
    ) -> None:
        self.config = config
        self.policy = policy
        self.stats = SimulationStats()
        self.uop_cache = UopCache(
            config.uop_cache,
            policy,
            line_bytes=config.icache.line_bytes,
            set_index=set_index,
        )
        self.icache = InstructionCache(config.icache)
        self.btb = BranchTargetBuffer(config.branch)
        self.decoder = LegacyDecoder(config.core)
        self.accumulator = Accumulator(hints)
        self._pending: deque[InsertionRequest] = deque()
        self._in_flight: dict[int, InsertionRequest] = {}
        self._on_uop_path = False
        self._classifier = (
            _ShadowClassifier(config.uop_cache.entries, config.uop_cache.uops_per_entry)
            if classify_misses
            else None
        )
        #: start -> [uops_hit, uops_total]; feeds the FURBYS profiling
        #: pipeline (STEP 5 of Figure 6) when enabled.
        self.pw_hit_stats: dict[int, list[int]] | None = (
            {} if record_hit_rates else None
        )

    # --- components ------------------------------------------------------------

    def _complete_due_insertions(self, now: int) -> None:
        stats = self.stats
        pending = self._pending
        in_flight = self._in_flight
        try_insert = self.uop_cache.try_insert
        uops_per_entry = self.config.uop_cache.uops_per_entry
        while pending and pending[0].due <= now:
            queued = pending.popleft()
            start = queued.lookup.start
            request = in_flight.get(start)
            if request is None:
                continue  # superseded and already completed
            del in_flight[start]
            stats.insertion_attempts += 1
            result = try_insert(
                now, request.lookup, request.weight, request.set_index
            )
            if result.inserted:
                stats.insertions += 1
                stats.uop_cache_writes += -(
                    -request.lookup.uops // uops_per_entry
                )
            else:
                stats.bypasses += 1
            stats.evictions += result.evicted_pws
            stats.evicted_entries += result.evicted_entries

    def _schedule_insertion(self, now: int, lookup: PWLookup) -> None:
        existing = self._in_flight.get(lookup.start)
        if existing is not None:
            if lookup.uops > existing.lookup.uops:
                # A longer same-start window supersedes the pending one.
                request = self.accumulator.accumulate(
                    lookup, now, self.config.uop_cache.insertion_delay
                )
                self._in_flight[lookup.start] = InsertionRequest(
                    lookup=lookup, weight=request.weight, due=existing.due
                )
            return
        request = self.accumulator.accumulate(
            lookup, now, self.config.uop_cache.insertion_delay
        )
        self._in_flight[lookup.start] = request
        self._pending.append(request)

    def _legacy_fetch(self, now: int, start: int, end: int) -> None:
        """Fetch bytes through the icache on the legacy decode path."""
        stats = self.stats
        line_bytes = self.config.icache.line_bytes
        n_lines = (end - 1) // line_bytes - start // line_bytes + 1 if end > start else 1
        if self.config.perfect_icache:
            stats.icache_accesses += n_lines
            return
        evicted = self.icache.access_range(start, max(end, start + 1))
        stats.icache_accesses += n_lines
        if self.config.uop_cache.inclusive_with_icache:
            for line_addr in evicted:
                stats.inclusive_invalidations += self.uop_cache.invalidate_line(
                    now, line_addr
                )

    def _switch_to(self, uop_path: bool) -> None:
        if self._on_uop_path != uop_path:
            self.stats.path_switches += 1
            self._on_uop_path = uop_path

    def _record_miss_uops(self, lookup: PWLookup, missed_uops: int) -> None:
        stats = self.stats
        stats.uops_missed += missed_uops
        if self._classifier is not None:
            stats.miss_breakdown.add(self._classifier.classify(lookup), missed_uops)

    def _record_pw(self, start: int, hit_uops: int, total_uops: int) -> None:
        if self.pw_hit_stats is not None:
            entry = self.pw_hit_stats.setdefault(start, [0, 0])
            entry[0] += hit_uops
            entry[1] += total_uops

    # --- main loop ---------------------------------------------------------------

    def step(self, now: int, lookup: PWLookup) -> None:
        """Process one PW lookup."""
        stats = self.stats
        cfg = self.config
        uops_per_entry = cfg.uop_cache.uops_per_entry

        self._complete_due_insertions(now)

        stats.lookups += 1
        stats.uops_total += lookup.uops
        stats.instructions += lookup.insts
        if lookup.terminated_by_branch:
            stats.branches += 1
            stats.btb_accesses += 1
            if not cfg.perfect_btb:
                if not self.btb.access(lookup.start + lookup.bytes_len - 1):
                    stats.btb_misses += 1
            if lookup.mispredicted and not cfg.perfect_branch_predictor:
                stats.mispredictions += 1

        if cfg.perfect_uop_cache:
            stats.pw_hits += 1
            stats.uops_hit += lookup.uops
            stats.uop_cache_reads += lookup.size(uops_per_entry)
            self._switch_to(True)
            return

        self.policy.on_lookup(now, self.uop_cache.set_index(lookup.start), lookup)
        stored = self.uop_cache.probe(lookup)
        set_index = self.uop_cache.set_index(lookup.start)

        if stored is not None and stored.uops >= lookup.uops:
            # Full hit (possibly via an intermediate exit point).
            stats.pw_hits += 1
            stats.uops_hit += lookup.uops
            stats.uop_cache_reads += lookup.size(uops_per_entry)
            self._record_pw(lookup.start, lookup.uops, lookup.uops)
            self.policy.on_hit(now, set_index, stored, lookup)
            self._switch_to(True)
        elif stored is not None:
            # Partial hit: stored prefix served from the cache, the rest
            # decodes; a merged larger window is accumulated (II-D).
            served = stored.uops
            missed = lookup.uops - served
            stats.pw_partial_hits += 1
            stats.uops_hit += served
            self._record_miss_uops(lookup, missed)
            stats.uop_cache_reads += stored.size
            self._record_pw(lookup.start, served, lookup.uops)
            missed_insts = max(1, round(lookup.insts * missed / lookup.uops))
            stats.decoder_uops += missed
            self.decoder.decode(missed_insts, missed)
            self.policy.on_partial_hit(now, set_index, stored, lookup)
            self._switch_to(True)   # prefix streamed from the uop cache
            self._switch_to(False)  # then back to the legacy pipe
            self._legacy_fetch(now, stored.end, lookup.end)
            self._schedule_insertion(now, lookup)
        else:
            stats.pw_misses += 1
            self._record_miss_uops(lookup, lookup.uops)
            self._record_pw(lookup.start, 0, lookup.uops)
            stats.decoder_uops += lookup.uops
            self.decoder.decode(lookup.insts, lookup.uops)
            self.policy.on_miss(now, set_index, lookup)
            self._switch_to(False)
            self._legacy_fetch(now, lookup.start, lookup.end)
            self._schedule_insertion(now, lookup)

        if self._classifier is not None:
            self._classifier.touch(lookup)

    def _finalize(self, trace_len: int) -> SimulationStats:
        # Drain decode-pipeline insertions still in flight at trace end so
        # insertion/bypass accounting covers every miss.
        self._complete_due_insertions(
            trace_len + self.config.uop_cache.insertion_delay
        )
        # Fold structure-level counters the loop does not track directly.
        self.stats.icache_misses = self.icache.misses
        self.stats.policy_victim_selections = getattr(
            self.policy, "primary_selections", self.stats.evictions
        )
        self.stats.fallback_victim_selections = getattr(
            self.policy, "fallback_selections", 0
        )
        return self.stats

    def run_reference(self, trace: Trace, warmup: int = 0) -> SimulationStats:
        """Simulate via :meth:`step` — the reference loop.

        The semantic baseline the kernels are verified against
        (golden-stats and property tests), and what :meth:`run` runs
        for configurations no kernel serves.
        """
        for now, lookup in enumerate(trace):
            if now == warmup and warmup > 0:
                self.stats = SimulationStats()
            self.step(now, lookup)
        return self._finalize(len(trace))

    def run(self, trace: Trace, warmup: int = 0) -> SimulationStats:
        """Simulate a trace; stats cover the post-warmup portion only.

        Warmup keeps all microarchitectural state (caches, policy
        metadata, pending insertions) but discards the counters.

        Supported configurations (the online LRU/SRRIP/random/GHRP
        kinds plus the offline and profile-guided families — Belady,
        FOO/FLACK replay, FURBYS, Thermometer — with or without per-PW
        hit-rate recording) run the vectorized :mod:`repro.frontend.simd`
        kernel through :func:`repro.frontend.simd.run_kernel`;
        everything else runs :meth:`run_reference`, counting the reason
        under a ``sim_fallback:<policy>:<reason>`` fallback counter.
        The kernel is bit-identical to :meth:`run_reference` — see
        ``tests/test_golden_stats.py``, ``tests/test_sim_kernel.py``
        and ``tests/test_offline_kernel.py``.
        """
        from . import simd

        with stagetimer.timed("frontend_sim"):
            reason = simd.fallback_reason(self)
            if reason is None:
                return simd.run_kernel(self, trace, warmup)
            from ..harness import resilience

            resilience.note_fallback(
                f"sim_fallback:{self.policy.name}:{reason}")
            return self.run_reference(trace, warmup)
