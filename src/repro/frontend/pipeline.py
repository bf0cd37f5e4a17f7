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
"""

from __future__ import annotations

from collections import OrderedDict, deque

from .. import stagetimer
from ..config import SimulationConfig
from ..core.pw import PWLookup
from ..core.stats import MissClass, SimulationStats
from ..core.trace import PreparedTrace, Trace
from ..uopcache.cache import UopCache
from ..uopcache.replacement import ReplacementPolicy
from .accumulator import Accumulator, InsertionRequest
from .branch import BranchTargetBuffer
from .decoder import LegacyDecoder
from .icache import InstructionCache

#: Sentinel "no pending insertion" due time for the hot loop.
_NEVER = float("inf")


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
        # The base-class observation hooks are no-ops; the hot loop
        # skips the calls a policy does not override (pure dead work).
        policy_type = type(policy)
        self._policy_observes_lookups = (
            policy_type.on_lookup is not ReplacementPolicy.on_lookup
        )
        self._policy_observes_misses = (
            policy_type.on_miss is not ReplacementPolicy.on_miss
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
        """Simulate via :meth:`step` — the unoptimized reference loop.

        Kept as the semantic baseline the optimized :meth:`run` is
        verified against (golden-stats and property tests) and as the
        "before" arm of the hot-path microbenchmark.
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
        FOO/FLACK replay, FURBYS, Thermometer) run the vectorized
        :mod:`repro.frontend.simd` / :mod:`repro.frontend.simd_offline`
        kernels as a one-arm :func:`repro.frontend.simd_fused.run_group`
        unless ``REPRO_SIM_FASTPATH=0``; everything else runs the
        prepared-trace loop below, counting the reason under a
        ``sim_fallback:<policy>:<reason>`` fallback counter.  All paths
        are bit-identical to :meth:`run_reference` / :meth:`step` — see
        ``tests/test_golden_stats.py``, ``tests/test_sim_kernel.py``
        and ``tests/test_offline_kernel.py``.
        """
        from . import simd

        with stagetimer.timed("frontend_sim"):
            if simd.sim_fastpath_enabled():
                reason = simd.fallback_reason(self)
                if reason is None:
                    return simd.run_kernel(self, trace, warmup)
                from ..harness import resilience

                resilience.note_fallback(
                    f"sim_fallback:{self.policy.name}:{reason}")
            prepared = trace.prepared(
                n_sets=self.uop_cache.n_sets,
                uops_per_entry=self.config.uop_cache.uops_per_entry,
                line_bytes=self.config.icache.line_bytes,
                set_index_fn=self.uop_cache._set_index,
            )
            n = len(prepared.lookups)
            if 0 < warmup < n:
                self._run_segment(prepared, 0, warmup)
                self.stats = SimulationStats()
                self._run_segment(prepared, warmup, n)
            else:
                self._run_segment(prepared, 0, n)
            return self._finalize(n)

    def _run_segment(self, prepared: PreparedTrace, begin: int, end: int) -> None:
        """Hot loop: process ``prepared`` lookups ``[begin, end)``.

        Mirrors :meth:`step` exactly, with attribute lookups hoisted to
        locals, counters accumulated in locals and flushed once at the
        end of the segment (no observer reads :attr:`stats` mid-run),
        and the precomputed per-lookup set index / entry size / line
        count replacing per-step recomputation.
        """
        stats = self.stats
        cfg = self.config
        lookups = prepared.lookups
        set_indices = prepared.set_indices
        entry_sizes = prepared.entry_sizes
        line_counts = prepared.line_counts

        perfect_btb = cfg.perfect_btb
        perfect_bp = cfg.perfect_branch_predictor
        perfect_icache = cfg.perfect_icache
        inclusive = cfg.uop_cache.inclusive_with_icache
        line_bytes = cfg.icache.line_bytes
        btb = self.btb
        btb_access = btb.access
        btb_sets = btb._sets
        btb_n_sets = btb._n_sets
        btb_ways = btb.config.btb_ways
        decoder = self.decoder
        decode_width = decoder.config.decode_width
        icache = self.icache
        icache_access_range = icache.access_range
        icache_sets = icache._sets
        icache_n_sets = icache.config.sets
        icache_ways = icache.config.ways
        invalidate_line = self.uop_cache.invalidate_line
        complete_due = self._complete_due_insertions
        pending = self._pending
        in_flight = self._in_flight
        accumulator = self.accumulator
        hints_get = accumulator._hints.get
        try_insert = self.uop_cache.try_insert
        insertion_delay = cfg.uop_cache.insertion_delay
        uops_per_entry = cfg.uop_cache.uops_per_entry
        classifier = self._classifier
        pw_hit_stats = self.pw_hit_stats
        policy = self.policy
        on_hit = policy.on_hit
        on_partial_hit = policy.on_partial_hit
        on_lookup = policy.on_lookup if self._policy_observes_lookups else None
        on_miss = policy.on_miss if self._policy_observes_misses else None
        pws_by_set = [cset.pws for cset in self.uop_cache.sets]
        on_uop_path = self._on_uop_path

        # Segment-local counter accumulators (flushed to ``stats`` once).
        n_lookups = uops_total = instructions = 0
        branches = btb_accesses = btb_misses = mispredictions = 0
        pw_hits = pw_partial_hits = pw_misses = 0
        uops_hit = uops_missed = 0
        uop_cache_reads = uop_cache_writes = decoder_uops = 0
        path_switches = icache_accesses = inclusive_invalidations = 0
        decode_episodes = decode_insts = decode_uops_n = decode_cycles = 0
        insertion_attempts = insertions = bypasses = 0
        evictions = evicted_entries = 0
        # Structure-object counters (flushed to btb/icache at the end).
        btb_obj_accesses = btb_obj_misses = 0
        icache_obj_accesses = icache_obj_misses = 0

        if cfg.perfect_uop_cache:
            for now in range(begin, end):
                lookup = lookups[now]
                if pending and pending[0].due <= now:
                    complete_due(now)
                n_lookups += 1
                uops = lookup.uops
                uops_total += uops
                instructions += lookup.insts
                if lookup.terminated_by_branch:
                    branches += 1
                    btb_accesses += 1
                    if not perfect_btb and not btb_access(
                        lookup.start + lookup.bytes_len - 1
                    ):
                        btb_misses += 1
                    if lookup.mispredicted and not perfect_bp:
                        mispredictions += 1
                pw_hits += 1
                uops_hit += uops
                uop_cache_reads += entry_sizes[now]
                if not on_uop_path:
                    path_switches += 1
                    on_uop_path = True
        else:
            # Event-driven completion: ``next_due`` caches the head of
            # the (monotonically ordered) pending queue so the common
            # nothing-due case is a single integer comparison.
            next_due = pending[0].due if pending else _NEVER
            for now in range(begin, end):
                lookup = lookups[now]
                if now >= next_due:
                    # Inlined _complete_due_insertions with local counters.
                    while pending and pending[0].due <= now:
                        queued = pending.popleft()
                        queued_start = queued.lookup.start
                        request = in_flight.get(queued_start)
                        if request is None:
                            continue  # superseded and already completed
                        del in_flight[queued_start]
                        insertion_attempts += 1
                        result = try_insert(
                            now, request.lookup, request.weight,
                            request.set_index,
                        )
                        if result[0]:
                            insertions += 1
                            uop_cache_writes += -(
                                -request.lookup.uops // uops_per_entry
                            )
                        else:
                            bypasses += 1
                        evictions += result[1]
                        evicted_entries += result[2]
                    next_due = pending[0].due if pending else _NEVER
                n_lookups += 1
                uops = lookup.uops
                uops_total += uops
                instructions += lookup.insts
                start = lookup.start
                bytes_len = lookup.bytes_len
                if lookup.terminated_by_branch:
                    branches += 1
                    btb_accesses += 1
                    if not perfect_btb:
                        # Inlined BranchTargetBuffer.access.
                        branch_pc = start + bytes_len - 1
                        bset = btb_sets[(branch_pc >> 2) % btb_n_sets]
                        btb_obj_accesses += 1
                        if branch_pc in bset:
                            bset.move_to_end(branch_pc)
                        else:
                            btb_obj_misses += 1
                            btb_misses += 1
                            if len(bset) >= btb_ways:
                                bset.popitem(last=False)
                            bset[branch_pc] = None
                    if lookup.mispredicted and not perfect_bp:
                        mispredictions += 1

                set_index = set_indices[now]
                if on_lookup is not None:
                    on_lookup(now, set_index, lookup)
                stored = pws_by_set[set_index].get(start)

                if stored is not None and stored.uops >= uops:
                    # Full hit (possibly via an intermediate exit point).
                    pw_hits += 1
                    uops_hit += uops
                    uop_cache_reads += entry_sizes[now]
                    if pw_hit_stats is not None:
                        entry = pw_hit_stats.setdefault(start, [0, 0])
                        entry[0] += uops
                        entry[1] += uops
                    on_hit(now, set_index, stored, lookup)
                    if not on_uop_path:
                        path_switches += 1
                        on_uop_path = True
                else:
                    if stored is not None:
                        # Partial hit: stored prefix served from the cache,
                        # the rest decodes; a merged larger window is
                        # accumulated (II-D).
                        served = stored.uops
                        missed = uops - served
                        pw_partial_hits += 1
                        uops_hit += served
                        uops_missed += missed
                        if classifier is not None:
                            stats.miss_breakdown.add(
                                classifier.classify(lookup), missed
                            )
                        uop_cache_reads += stored.size
                        if pw_hit_stats is not None:
                            entry = pw_hit_stats.setdefault(start, [0, 0])
                            entry[0] += served
                            entry[1] += uops
                        missed_insts = max(1, round(lookup.insts * missed / uops))
                        decoder_uops += missed
                        decode_episodes += 1
                        decode_insts += missed_insts
                        decode_uops_n += missed
                        cycles = -(-missed_insts // decode_width)
                        decode_cycles += cycles if cycles > 1 else 1
                        on_partial_hit(now, set_index, stored, lookup)
                        # Prefix streamed from the uop cache, then back to
                        # the legacy pipe.
                        path_switches += 1 if on_uop_path else 2
                        on_uop_path = False
                        fetch_start = stored.start + stored.bytes_len
                        fetch_end = start + bytes_len
                        n_lines = (
                            (fetch_end - 1) // line_bytes
                            - fetch_start // line_bytes + 1
                            if fetch_end > fetch_start
                            else 1
                        )
                    else:
                        pw_misses += 1
                        uops_missed += uops
                        if classifier is not None:
                            stats.miss_breakdown.add(
                                classifier.classify(lookup), uops
                            )
                        if pw_hit_stats is not None:
                            entry = pw_hit_stats.setdefault(start, [0, 0])
                            entry[1] += uops
                        decoder_uops += uops
                        decode_episodes += 1
                        decode_insts += lookup.insts
                        decode_uops_n += uops
                        cycles = -(-lookup.insts // decode_width)
                        decode_cycles += cycles if cycles > 1 else 1
                        if on_miss is not None:
                            on_miss(now, set_index, lookup)
                        if on_uop_path:
                            path_switches += 1
                            on_uop_path = False
                        fetch_start = start
                        fetch_end = start + bytes_len
                        n_lines = line_counts[now]
                    # Legacy fetch through the L1i (inlined _legacy_fetch).
                    icache_accesses += n_lines
                    if not perfect_icache:
                        if n_lines == 1:
                            # Single-line fetch: inlined access_line body
                            # (the overwhelmingly common case — most PWs
                            # fit one icache line).
                            iline = fetch_start // line_bytes
                            icset = icache_sets[iline % icache_n_sets]
                            icache_obj_accesses += 1
                            if iline in icset:
                                icset.move_to_end(iline)
                            else:
                                icache_obj_misses += 1
                                if len(icset) >= icache_ways:
                                    victim_line, _ = icset.popitem(last=False)
                                    if inclusive:
                                        inclusive_invalidations += (
                                            invalidate_line(
                                                now, victim_line * line_bytes
                                            )
                                        )
                                icset[iline] = None
                        else:
                            evicted = icache_access_range(
                                fetch_start,
                                fetch_end if fetch_end > fetch_start
                                else fetch_start + 1,
                            )
                            if inclusive and evicted:
                                for line_addr in evicted:
                                    inclusive_invalidations += invalidate_line(
                                        now, line_addr
                                    )
                    # Schedule the insertion (inlined _schedule_insertion
                    # + Accumulator.accumulate).
                    in_flight_req = in_flight.get(start)
                    if in_flight_req is None:
                        accumulator.accumulated += 1
                        request = InsertionRequest(
                            lookup=lookup,
                            weight=hints_get(start)
                            if lookup.contains_branch else None,
                            due=now + insertion_delay,
                            set_index=set_index,
                        )
                        in_flight[start] = request
                        pending.append(request)
                        if len(pending) == 1:
                            next_due = request.due
                    elif uops > in_flight_req.lookup.uops:
                        # A longer same-start window supersedes the
                        # pending one.
                        accumulator.accumulated += 1
                        in_flight[start] = InsertionRequest(
                            lookup=lookup,
                            weight=hints_get(start)
                            if lookup.contains_branch else None,
                            due=in_flight_req.due,
                            set_index=set_index,
                        )

                if classifier is not None:
                    classifier.touch(lookup)

        self._on_uop_path = on_uop_path
        btb.accesses += btb_obj_accesses
        btb.misses += btb_obj_misses
        icache.accesses += icache_obj_accesses
        icache.misses += icache_obj_misses
        stats.lookups += n_lookups
        stats.uops_total += uops_total
        stats.instructions += instructions
        stats.branches += branches
        stats.btb_accesses += btb_accesses
        stats.btb_misses += btb_misses
        stats.mispredictions += mispredictions
        stats.pw_hits += pw_hits
        stats.pw_partial_hits += pw_partial_hits
        stats.pw_misses += pw_misses
        stats.uops_hit += uops_hit
        stats.uops_missed += uops_missed
        stats.uop_cache_reads += uop_cache_reads
        stats.uop_cache_writes += uop_cache_writes
        stats.insertion_attempts += insertion_attempts
        stats.insertions += insertions
        stats.bypasses += bypasses
        stats.evictions += evictions
        stats.evicted_entries += evicted_entries
        stats.decoder_uops += decoder_uops
        stats.path_switches += path_switches
        stats.icache_accesses += icache_accesses
        stats.inclusive_invalidations += inclusive_invalidations
        decoder.episodes += decode_episodes
        decoder.insts_decoded += decode_insts
        decoder.uops_decoded += decode_uops_n
        decoder.active_cycles += decode_cycles
