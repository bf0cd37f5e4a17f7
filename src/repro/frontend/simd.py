"""Vectorized frontend simulation kernel over packed trace columns.

The reference simulation (:meth:`FrontendPipeline.step`, looped by
:meth:`FrontendPipeline.run_reference`) walks one ``PWLookup``
object at a time through virtual policy hooks, the ``UopCache`` storage
layer and the icache/BTB models.  For the stateless-scoreable online
policies (LRU, SRRIP, random, GHRP) all of that dispatch is avoidable:
their per-event updates are plain dict/counter operations, and every
per-lookup quantity that depends only on the (PW, geometry) pair can be
precomputed for the whole trace in numpy array passes directly from
:class:`~repro.core.trace.TraceColumns` — no ``PWLookup`` objects are
materialized at all.

The same kernel serves the offline and profile-guided families — the
paper's headline arms.  **Belady** and the **FOO/FLACK replay family**
make their decisions by bisect queries into the shared columnar future
index (:class:`~repro.offline.future.ColumnarFutureIndex`): ``occ_list``
and ``span`` are bound once and queried directly on the cold
(insertion) path, exactly the computation the reference ``_score`` /
``next_use`` methods perform.  Each of their resident records caches
its occurrence bracket ``[idx, lo, hi]`` in the aux slot: a query is
valid iff ``occ[idx-1] <= after < occ[idx]``, which replaces the
per-candidate tuple-key hash, span lookup and bisect with two list
compares (the bisect only reruns when the cached next use actually went
by — at most once per occurrence).  Plan mode additionally reads the
precomputed admission bytearray.  **FURBYS / Thermometer** use static
per-PW hints and classes; their hit path is the same probe-and-stamp
as LRU, with the live policy dicts (``_last_use``, RRPV table, pitfall
detector) mirrored in event order.

The kernel splits the simulation into:

* **array passes** (numpy, once per column window x geometry — a trace
  that fits in one window memoizes it, so all policies in a batch share
  it; see :func:`run_kernel`): set indices, entry sizes,
  icache line spans, legacy-decode cycles, branch extraction, prefix
  sums for per-segment totals, and — for GHRP — the full global history
  sequence (the 20-bit history register is a shift-XOR of the last four
  start addresses, so it vectorizes exactly);
* a **compressed BTB pass** per segment over branch-terminated lookups
  only (the BTB is independent of micro-op cache state, so its LRU
  updates batch into one tight loop over precomputed branch PCs);
* a **stamp-based main loop** over ``(now, start, uops)`` triples whose
  hit path is one dict probe plus a recency stamp (and, with
  ``record_hit_rates=True``, a live mirror of ``pipeline.pw_hit_stats``),
  and whose miss/insertion path works on the storage layer directly
  (per-set resident dicts, the line reverse map, per-policy victim
  ranking) without allocating ``StoredPW``/``InsertionRequest``
  objects.  The online kinds inline the insertion attempt into the
  loop; the offline kinds call :meth:`_Kernel._attempt`, whose cost is
  the ranking sorts and bisects, not the call.

There is one :class:`_Kernel` with one ``_segment`` and one ``_attempt``
template for all nine kinds.  Each run executes variants compiled with
its run-constant flags baked in (:func:`_specialized`), so no
cross-kind branch is left in the hot loop.

Bit-identity: the kernel replicates the reference event order exactly —
insertion completions before the policy's lookup hook, bypass
consultation before victim ranking, inclusive invalidations in
line-map set order — and ends with the reference's policy state: the
online kinds keep recency/RRPV/GHRP state in the resident records and
rebuild the policy dicts before the drain, the offline kinds mutate
the *live* policy dicts throughout (their state is keyed by start and
touched once per event, so mirroring costs what the records would).
``tests/test_sim_kernel.py`` and ``tests/test_offline_kernel.py`` sweep
geometries, policies and trace lengths against
:meth:`FrontendPipeline.run_reference`.  :func:`run_kernel` is the one
kernel entry: it advances one pipeline through its flag-specialized
segment, window by window.

Unsupported configurations (policies without a specialization, miss
classification, perfect uop cache) run
:meth:`FrontendPipeline.run_reference` instead, counted per (policy,
reason) by the ``sim_fallback:*`` resilience counters — see
:func:`fallback_reason`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import TYPE_CHECKING

import numpy as _np

from .. import stagetimer
from ._specialize import compile_flagged, gc_paused as _gc_paused
from ..core.pw import StoredPW
from ..core.stats import SimulationStats
from ..core.trace import (
    FLAG_CONTAINS,
    FLAG_MISPREDICTED,
    FLAG_TERMINATED,
    callable_token,
)
from ..offline.base import OfflineReplayPolicy
from ..offline.belady import BeladyPolicy
from ..offline.flack import FLACKPolicy
from ..offline.foo import FOOPolicy
from ..offline.future import NEVER as _NEVER
from ..offline.intervals import IdentityMode
from ..policies.furbys import FurbysPolicy
from ..policies.ghrp import (
    _BYPASS_THRESHOLD,
    _DEAD_THRESHOLD,
    _TABLE_SIZE,
    GHRPPolicy,
)
from ..policies.lru import LRUPolicy
from ..policies.random_policy import RandomPolicy
from ..policies.srrip import RRPV_HIT, RRPV_INSERT, RRPV_MAX, SRRIPPolicy
from ..policies.thermometer import COLD, HOT, ThermometerPolicy
from ..uopcache.cache import default_set_index

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.trace import Trace
    from .pipeline import FrontendPipeline

_MASK12 = _TABLE_SIZE - 1
_INF = float("inf")


def _inline_shuffle_matches_stdlib() -> bool:
    """Whether the kernel's inlined Fisher-Yates replays ``Random.shuffle``.

    The random policy's victim order (and final RNG state) must be
    bit-identical to the reference, which calls ``Random.shuffle``.  The
    kernel inlines the exact CPython implementation (``_randbelow`` via
    ``getrandbits`` rejection sampling) to skip two layers of function
    calls per element; this import-time check replays both against one
    seed and disables the inline path if the stdlib ever changes.
    """
    import random as _random

    a = _random.Random(0xC0FFEE)
    b = _random.Random(0xC0FFEE)
    getrandbits = b.getrandbits
    for size in (2, 3, 5, 7, 8, 23):
        xa = list(range(size))
        xb = list(range(size))
        a.shuffle(xa)
        for i in range(size - 1, 0, -1):
            n = i + 1
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            xb[i], xb[r] = xb[r], xb[i]
        if xa != xb:
            return False
    return a.getstate() == b.getstate()


_INLINE_SHUFFLE = _inline_shuffle_matches_stdlib()

#: Resident-PW record layout (plain list — no object churn).
# Resident-record layout.  Fields 8+ carry the policy state that the
# policy objects keep in their own dicts; during the kernel run the
# records are the *only* live copy (the policy dicts are rebuilt from
# them, in exact reference insertion order, before the final drain —
# see _rebuild_policy_dicts), so the hot loop never touches a policy
# dict.  _LU is the last-use stamp, _AUX the raw RRPV (SRRIP; the
# per-set aging offset makes raw order == absolute order).  GHRP
# records extend the layout with four trailing slots.  The offline
# kinds keep their policy dicts live instead; FURBYS/Thermometer rank
# by the _LU stamp, and Belady/replay cache the occurrence bracket
# ``[idx, lo, hi]`` in _AUX.
(_UOPS, _SIZE, _SET, _INSTS, _BYTES, _WEIGHT, _LINE0, _LINE1,
 _LU, _AUX, _REUSED) = range(11)
#: GHRP record tail: flattened predictor table indices (i0/i1/i2, or
#: None in i0 when the entry has no recorded signature), the reuse bit
#: and the raw 32-bit signature (needed to rebuild ``_sig``).
_G_I0, _G_I1, _G_I2, _G_REUSED, _G_SIG = 9, 10, 11, 12, 13

#: Eviction reason codes for :meth:`_Kernel._remove`.
_REPLACEMENT, _INCLUSIVE, _UPGRADE = range(3)


def kernel_kind(policy: object) -> str | None:
    """The kernel specialization for ``policy``, or None if unsupported.

    Exact-type checks on purpose: a subclass may override hooks the
    kernel inlines, which would silently diverge from the reference.
    (FOO/FLACK only override ``__init__`` of
    :class:`OfflineReplayPolicy`, so they share its specializations.)
    """
    tp = type(policy)
    if tp is LRUPolicy:
        return "lru"
    if tp is SRRIPPolicy:
        return "srrip"
    if tp is RandomPolicy:
        return "random"
    if tp is GHRPPolicy:
        return "ghrp"
    if tp is BeladyPolicy:
        return "belady"
    if tp in (OfflineReplayPolicy, FOOPolicy, FLACKPolicy):
        return "plan" if policy._plan_mode else "greedy"
    if tp is FurbysPolicy:
        return "furbys"
    if tp is ThermometerPolicy:
        return "thermometer"
    return None


#: The kinds whose insertion attempt the segment loop inlines.
_ONLINE_KINDS = ("lru", "srrip", "random", "ghrp")


def fallback_reason(pipeline: "FrontendPipeline") -> str | None:
    """Why this pipeline cannot run through a kernel (None = it can).

    The reason strings feed the ``sim_fallback:<policy>:<reason>``
    resilience counters, so they are short stable identifiers rather
    than prose.
    """
    if kernel_kind(pipeline.policy) is None:
        return "unsupported_policy"
    if pipeline._classifier is not None:
        return "miss_classifier"
    if pipeline.config.perfect_uop_cache:
        return "perfect_uop_cache"
    # A pipeline that already streamed lookups (manual step() calls)
    # carries loop state the kernel does not reconstruct.
    if pipeline._pending or pipeline._in_flight:
        return "pipeline_mid_stream"
    # The precomputed GHRP history sequence assumes the register starts
    # at zero; a reused pipeline (back-to-back runs) falls back.
    if (type(pipeline.policy) is GHRPPolicy
            and pipeline.policy._history != 0):
        return "ghrp_history_nonzero"
    return None


#: Lookups per column window.  A trace of at most this many lookups
#: memoizes its single window; a longer one streams.  Smaller windows
#: would make the paper-scale traces stream and rebuild their columns
#: on every run.
STREAM_WINDOW = 65536


def _window_columns(pipeline: "FrontendPipeline", trace: "Trace",
                    lo: int, hi: int) -> dict:
    """Derived columns for lookups ``[lo, hi)`` under this geometry.

    The window that covers the whole trace is memoized on it (keyed by
    geometry and :func:`~repro.core.trace.callable_token`, and
    :func:`repro.core.trace.drop_simd_memos` evicts it by its ``"simd"``
    prefix); any shorter window is built fresh and owned by the caller.
    """
    config = pipeline.config
    uc = config.uop_cache
    geometry = dict(
        n_sets=uc.sets,
        uops_per_entry=uc.uops_per_entry,
        line_bytes=config.icache.line_bytes,
        decode_width=config.core.decode_width,
        btb_n_sets=pipeline.btb._n_sets,
        ic_n_sets=config.icache.sets,
        delay=uc.insertion_delay,
    )
    set_index_fn = pipeline.uop_cache._set_index

    def build():
        return _gc_paused(lambda: _build_columns(
            trace, set_index_fn=set_index_fn, lo=lo, hi=hi, **geometry))

    if hi - lo < len(trace):
        return build()
    key = ("simd", *geometry.values(), callable_token(set_index_fn))
    return trace.memo(key, build)


def run_kernel(pipeline: "FrontendPipeline", trace: "Trace",
               warmup: int) -> SimulationStats:
    """Simulate ``trace`` on ``pipeline`` over column windows.

    The caller (``FrontendPipeline.run``) checks :func:`fallback_reason`
    first.  Returns the finalized :class:`SimulationStats`,
    bit-identical to :meth:`FrontendPipeline.run_reference`.

    Columns come from one windowed source, sized by
    :data:`STREAM_WINDOW`: a trace of at most that many lookups builds
    its single window once and memoizes it on the trace, so every later
    run over that trace and geometry shares it; a longer trace streams
    its windows (each built on demand and released before the next) and
    memoizes nothing, so peak memory stays flat in the trace length.
    """
    with stagetimer.timed("sim_kernel"):
        n = len(trace)
        window = STREAM_WINDOW
        # Warmup discards the counters once, at the warmup lookup; a
        # warmup covering the whole trace discards nothing (as in the
        # reference loop).
        reset_at = warmup if 0 < warmup < n else -1

        kernel = _Kernel(
            pipeline, _window_columns(pipeline, trace, 0, min(n, window)), n)
        segment = kernel.segment_fn.__get__(kernel)

        def advance():
            for lo in range(0, max(n, 1), window):
                hi = min(n, lo + window)
                if lo:
                    # Release the finished window before building the
                    # next one, so only one is ever live.
                    kernel.cols = kernel.hist = None
                    kernel._bind_columns(
                        _window_columns(pipeline, trace, lo, hi))
                cuts = [lo, reset_at, hi] if lo < reset_at < hi else [lo, hi]
                for begin, end in zip(cuts, cuts[1:]):
                    segment(begin, end)
                    if end == reset_at:
                        pipeline.stats = SimulationStats()
            kernel._drain(n)

        # The working set is acyclic (columns of ints/tuples plus flat
        # list records), so the cyclic collector can only cost time
        # here: every gen-2 pass re-scans the column pointers while the
        # loop's record churn keeps triggering collections.
        _gc_paused(advance)
        kernel._sync_back()
        return pipeline._finalize(n)


# --- derived columns ----------------------------------------------------------


def _build_columns(trace: "Trace", *, n_sets: int, uops_per_entry: int,
                   line_bytes: int, decode_width: int, btb_n_sets: int,
                   ic_n_sets: int, delay: int, set_index_fn,
                   lo: int = 0, hi=None) -> dict:
    """Derived columns for the lookup window ``[lo, hi)``.

    The default (``lo=0``, ``hi=None``) builds the full trace;
    :func:`run_kernel` builds one window per :data:`STREAM_WINDOW`
    lookups.  Window reads
    are indexed relative to the returned ``base``: completions trail the
    window start by up to the insertion delay and the GHRP signature
    looks up to ``delay`` lookups ahead, so the materialized slice is
    ``[max(0, lo - delay), min(n, hi + delay))`` and every in-window
    access — including the four-lookup history back-context, handled
    separately below — stays inside it.
    """
    columns = trace.columns
    starts_all = _np.frombuffer(columns.starts, dtype=_np.uint64)
    n_total = len(starts_all)
    if hi is None:
        hi = n_total
    clo = max(0, lo - delay)
    chi = min(n_total, hi + delay)
    starts = starts_all[clo:chi]
    uops = _np.frombuffer(columns.uops, dtype=_np.uint32)[clo:chi]
    insts = _np.frombuffer(columns.insts, dtype=_np.uint32)[clo:chi]
    bytes_len = _np.frombuffer(columns.bytes_len, dtype=_np.uint32)[clo:chi]
    flags = _np.frombuffer(columns.flags, dtype=_np.uint8)[clo:chi]
    n = len(starts)

    # Micro-op cache set index per lookup.  The shipped hash-index
    # function vectorizes directly; custom index functions are applied
    # once per unique start and broadcast.
    if set_index_fn is default_set_index:
        si = ((starts >> _np.uint64(5)) ^ (starts >> _np.uint64(11))) \
            % _np.uint64(n_sets)
    else:
        unique, inverse = _np.unique(starts, return_inverse=True)
        per_unique = _np.fromiter(
            (set_index_fn(int(s), n_sets) for s in unique),
            dtype=_np.int64, count=len(unique),
        )
        si = per_unique[inverse]

    esize = -(-uops.astype(_np.int64) // uops_per_entry)
    first_line = (starts // _np.uint64(line_bytes)).astype(_np.int64)
    last_line = ((starts + bytes_len.astype(_np.uint64) - _np.uint64(1))
                 // _np.uint64(line_bytes)).astype(_np.int64)
    # Full-miss legacy decode: cycles = max(1, ceil(insts / width)).
    cycles = -(-insts.astype(_np.int64) // decode_width)
    _np.maximum(cycles, 1, out=cycles)

    terminated = (flags & FLAG_TERMINATED) != 0
    mispredicted = (flags & FLAG_MISPREDICTED) != 0
    # Branch-terminated subset for the compressed BTB pass.  Positions
    # stay absolute so the segment's searchsorted with absolute bounds
    # yields indices into the window-local pcs/si lists.
    branch_rel = _np.nonzero(terminated)[0]
    branch_pos = branch_rel + clo
    branch_pcs = (starts[branch_rel]
                  + bytes_len[branch_rel].astype(_np.uint64) - _np.uint64(1))
    branch_si = (branch_pcs >> _np.uint64(2)) % _np.uint64(btb_n_sets)

    # GHRP global history *before* each lookup:
    # h' = ((h << 5) ^ (start >> 4)) & 0xFFFFF.  Four updates fully
    # shift out the previous value, so h_i is a closed-form shift-XOR
    # of the last four starts — an exact vectorization of the scan.
    # Windowed builds extend the input four lookups left so hist values
    # at positions >= clo see their full back-context, then trim.
    xlo = max(0, clo - 4)
    x = ((starts_all[xlo:chi] >> _np.uint64(4))
         & _np.uint64(0xFFFFF)).astype(_np.uint32)
    m = chi - xlo
    hist = _np.zeros(m + 1, dtype=_np.uint32)
    for back, shift in ((1, 0), (2, 5), (3, 10), (4, 15)):
        hist[back:] ^= x[: m - back + 1] << _np.uint32(shift)
    hist &= _np.uint32(0xFFFFF)
    hist = hist[clo - xlo:]

    # GHRP insertion signature per *scheduling* lookup.  A pending
    # insertion scheduled by lookup m drains at exactly now = m + delay
    # (dues are strictly increasing and now advances one lookup at a
    # time; anything still pending at trace end uses hist[n]), and a
    # superseding window keeps both the start and the original due, so
    # the signature and predictor-table indices are pure functions of m.
    # In a mid-trace window the clamp target chi exceeds hi - 1 + delay,
    # so every in-window signature is exact; the trailing margin rows
    # are clamped-and-garbage but never scheduled by this window.
    drain_rel = _np.minimum(
        _np.arange(clo, chi, dtype=_np.int64) + delay, chi) - clo
    g_sig = (((starts >> _np.uint64(4)) ^ hist[drain_rel].astype(_np.uint64))
             & _np.uint64(0xFFFFFFFF)).astype(_np.int64)

    # Prefix sums: any segment's totals are two array reads.
    def _prefix(arr):
        out = _np.zeros(n + 1, dtype=_np.int64)
        _np.cumsum(arr, out=out[1:])
        return out

    insts_l = insts.tolist()
    bytes_l = bytes_len.tolist()
    si_l = si.tolist()
    esize_l = esize.tolist()
    first_l = first_line.tolist()
    last_l = last_line.tolist()
    contains_l = ((flags & FLAG_CONTAINS) != 0).tolist()
    uops_l = uops.tolist()
    return {
        # Index offset of this window's columns: loop indices subtract
        # it at every column read site (0 for a full build).
        "base": clo,
        "starts": starts.tolist(),
        "uops": uops_l,
        "insts": insts_l,
        "bytes_len": bytes_l,
        "si": si_l,
        "esize": esize_l,
        "first_line": first_l,
        "last_line": last_l,
        "contains": contains_l,
        # Fully-built insertion requests (weight=None): when the run
        # carries no accumulator hints — every online-policy run — the
        # miss path schedules a precomputed tuple instead of building
        # one.  Hinted runs rebuild the tuple with the weight slot.
        # The trailing line span feeds the inlined insert (same values
        # the reference derives from start/bytes at insert time).
        "reqs": list(zip(uops_l, insts_l, bytes_l, [None] * n, si_l,
                         esize_l, first_l, last_l)),
        # Icache set index of the first fetch line (full-miss path).
        "ic_si": (first_line % ic_n_sets).tolist(),
        # Kept as an array: only indexed at segment boundaries (int()
        # at the use sites keeps policy state on Python ints).
        "hist": hist,
        "g_sig": g_sig.tolist(),
        "g_i0": ((g_sig ^ (g_sig >> 7)) & _MASK12).tolist(),
        "g_i1": (((g_sig >> 5) ^ (g_sig >> 8)) & _MASK12).tolist(),
        "g_i2": (((g_sig >> 10) ^ (g_sig >> 9)) & _MASK12).tolist(),
        "branch_pos": branch_pos,
        "branch_pcs": branch_pcs.tolist(),
        "branch_si": branch_si.tolist(),
        "cum_uops": _prefix(uops),
        "cum_insts": _prefix(insts),
        "cum_esize": _prefix(esize),
        "cum_branches": _prefix(terminated),
        "cum_mispred": _prefix(mispredicted & terminated),
        # Raw arrays for fancy-indexed miss totals: the loop records
        # *which* lookups fully missed and numpy sums their columns,
        # instead of bumping six scalar counters per miss.
        "arr_uops": uops.astype(_np.int64),
        "arr_insts": insts.astype(_np.int64),
        "arr_esize": esize,
        "arr_cycles": cycles,
    }


# --- the kernel ---------------------------------------------------------------


class _Kernel:
    """One kernel execution: state shared across warmup/measure segments."""

    def __init__(self, pipeline: "FrontendPipeline", columns: dict,
                 n: int) -> None:
        self.pipeline = pipeline
        config = pipeline.config
        self.kind = kernel_kind(pipeline.policy)
        uc = config.uop_cache
        self.ways = uc.ways
        self.keep_larger = uc.keep_larger
        self.delay = uc.insertion_delay
        self.line_bytes = config.icache.line_bytes
        self.inclusive = uc.inclusive_with_icache

        # ``n`` is the trace length; ``columns`` is its first window.
        self.n = n
        self._bind_columns(columns)
        self.hist_now = 0

        # Live policy state (mutated in place — no sync needed).
        policy = pipeline.policy
        kind = self.kind
        self.lu: dict[int, int] = {}
        self.rrpv: dict[int, int] = {}
        if kind in ("lru", "srrip", "ghrp"):
            self.lu = policy._last_use
        if kind == "srrip":
            self.rrpv = policy._rrpv_map
            # Per-set aging offsets: effective RRPV = stored + offset,
            # so uniform aging is O(1) instead of rewriting every way.
            # Normalized back to absolute values in _drain/_sync_back.
            self.rrpv_off = [0] * uc.sets
        if kind == "ghrp":
            self.g_tables = policy._tables
            self.g_sig = policy._sig
            self.g_reused = policy._reused
            self.g_bypassed = policy._bypassed
            self.g_window = policy._BYPASS_FEEDBACK_WINDOW
        if kind == "random":
            self.rng_shuffle = policy._rng.shuffle
            self.rng_getrandbits = policy._rng.getrandbits

        # Live offline policy dicts.  Unused kinds get empty
        # placeholders so the segment's unconditional alias hoists stay
        # valid under specialization.
        self.interval_start: dict[int, int] = {}
        self.pending_lookup_t: dict[int, int] = {}
        self.o_last_use: dict[int, int] = {}
        self.o_rrpv: dict[int, int] = {}
        self.classes_get = self.interval_start.get
        self.occ: list[int] = []
        self.span_get = self.interval_start.get
        self.admit = b""
        self.n_admit = 0
        self.start_identity = False
        self.async_aware = False
        self.metric_mode = 0
        if kind in ("plan", "greedy"):
            self.interval_start = policy._interval_start
            self.pending_lookup_t = policy._pending_lookup_t
            self.occ = policy._occ
            self.span_get = policy._span.get
            self.start_identity = policy._identity is IdentityMode.START
            self.async_aware = policy._async_aware
            self.metric_mode = policy._metric_mode
            if kind == "plan":
                self.admit = policy.plan._admit_from
                self.n_admit = len(self.admit)
        elif kind == "belady":
            self.occ = policy.future.occ_list
            self.span_get = policy.future.span.get
        elif kind == "furbys":
            self.o_last_use = policy._last_use
            self.o_rrpv = policy.rrpv._rrpv
            self.f_bypass_enabled = policy._bypass_enabled
            self.f_bypass_floor = policy._bypass_floor
            self.f_bypass_margin = policy._bypass_margin
            self.f_pitfall_depth = policy._pitfall_depth
            # Bound method: the detector lazily creates per-set deques
            # in the policy's _pitfall dict, which is itself compared
            # state — let the policy maintain it.
            self.f_detector = policy._detector
        elif kind == "thermometer":
            self.o_last_use = policy._last_use
            self.classes_get = policy._classes.get

        phs = pipeline.pw_hit_stats
        self.has_phs = phs is not None
        self.phs: dict[int, list[int]] = phs if phs is not None else {}

        # Kernel-side storage mirrors (synced back to the real objects
        # at the end of the run), seeded from current cache contents so
        # back-to-back runs on one pipeline keep their state.
        self.sets_pws: list[dict[int, list]] = []
        self.used_ways: list[int] = []
        line_bytes = self.line_bytes
        lu_get = self.lu.get
        seeded: dict[int, list] = {}
        for set_index, cset in enumerate(pipeline.uop_cache.sets):
            kernel_set: dict[int, list] = {}
            for start, spw in cset.pws.items():
                rec = [spw.uops, spw.size, set_index, spw.insts,
                       spw.bytes_len, spw.weight, start // line_bytes,
                       (start + spw.bytes_len - 1) // line_bytes,
                       lu_get(start, -1), None, False]
                if kind == "srrip":
                    rec[_AUX] = self.rrpv.get(start, RRPV_MAX)
                elif kind == "ghrp":
                    sg = self.g_sig.get(start)
                    if sg is None:
                        rec[_G_I0:] = [None, None, None,
                                       self.g_reused.get(start, False), None]
                    else:
                        rec[_G_I0:] = [
                            (sg ^ sg >> 7) & _MASK12,
                            (sg >> 5 ^ sg >> 8) & _MASK12,
                            (sg >> 10 ^ sg >> 9) & _MASK12,
                            self.g_reused.get(start, False), sg]
                kernel_set[start] = rec
                seeded[start] = rec
            self.sets_pws.append(kernel_set)
            self.used_ways.append(cset.used_ways)
        # ``resident`` doubles as the rebuild order for the policy dicts
        # at the end of the run (reference dicts keep insertion order:
        # pre-run survivors first, then new inserts chronologically), so
        # seed it in the policy dict's own key order, not set-scan order.
        self.resident: dict[int, list] = {}
        if kind in ("lru", "srrip", "ghrp") and self.lu:
            for start in self.lu:
                rec = seeded.get(start)
                if rec is not None:
                    self.resident[start] = rec
            if len(self.resident) != len(seeded):
                for start, rec in seeded.items():
                    if start not in self.resident:
                        self.resident[start] = rec
        else:
            self.resident = seeded
        # The line reverse map is used (and mutated) live.
        self.line_map = pipeline.uop_cache._line_map
        # Scheduling indices of pending insertions (due = m + delay,
        # start = starts[m]); strictly increasing, so always sorted.
        self.pending: deque[int] = deque()
        self.in_flight: dict[int, tuple] = {}
        self.on_uop_path = pipeline._on_uop_path

        # Structure-object counter accumulators (synced at the end).
        self.ic_accesses = 0
        self.ic_misses = 0
        self.btb_accesses = 0
        self.btb_misses = 0
        self.dec_episodes = 0
        self.dec_insts = 0
        self.dec_uops = 0
        self.dec_cycles = 0
        self.accumulated = 0
        self.cache_evictions = 0
        self.cache_evicted_entries = 0
        self.cache_invalidations = 0
        self.cache_upgrades = 0
        # Stats-level insertion counters (folded into the active
        # segment's stats, then reset — mutated by _attempt/_remove).
        self.st_attempts = 0
        self.st_insertions = 0
        self.st_bypasses = 0
        self.st_writes = 0
        self.st_evictions = 0
        self.st_evicted_entries = 0

        # The flag-specialized variants this run executes, or the
        # generic templates if compilation is unavailable.  Kept as
        # plain functions (called with the kernel as first argument):
        # a bound method stored on the kernel would make it a cycle.
        # The online kinds call _attempt only from the drain, a few
        # times per run, so they skip its compile.
        flags = self._spec_flags()
        self.segment_fn = (_specialized("_segment", flags)
                           or _Kernel._segment)
        attempt = (None if kind in _ONLINE_KINDS
                   else _specialized("_attempt", flags))
        self.attempt_fn = attempt or _Kernel._attempt

    # --- orchestration -------------------------------------------------------

    def _bind_columns(self, columns: dict) -> None:
        """Point every column read at ``columns`` (one window)."""
        self.cols = columns
        # Loop indices subtract ``col_base`` at every column read.
        self.col_base = columns["base"]
        self.hist = columns["hist"]

    def _spec_flags(self) -> dict:
        """Run-constant flags the specialized variants bake in."""
        kind = self.kind
        return {
            "is_lru": kind == "lru",
            "is_srrip": kind == "srrip",
            "is_ghrp": kind == "ghrp",
            "is_belady": kind == "belady",
            "is_plan": kind == "plan",
            "is_greedy": kind == "greedy",
            "is_replay": kind in ("plan", "greedy"),
            "is_furbys": kind == "furbys",
            "is_thermo": kind == "thermometer",
            "rec_stamps": kind in ("lru", "srrip"),
            "dict_stamps": kind in ("furbys", "thermometer"),
            "inline_attempt": kind in _ONLINE_KINDS,
            "has_phs": self.has_phs,
            "start_identity": self.start_identity,
            "async_aware": self.async_aware,
            "metric0": self.metric_mode == 0,
            "metric1": self.metric_mode == 1,
            "keep_larger": self.keep_larger,
            "has_hints": bool(self.pipeline.accumulator._hints),
            "perfect_icache": self.pipeline.config.perfect_icache,
            "inclusive": self.inclusive,
            "inline_shuffle": _INLINE_SHUFFLE,
        }

    def _rebuild_policy_dicts(self) -> None:
        """Refill the live policy dicts from the resident records.

        The hot loop maintains policy state in the records only; the
        reference's dicts are reconstructed here (before the drain-time
        attempts, which go back to mirroring both views).  ``resident``
        iterates in exact reference insertion order — pre-run survivors
        first, then surviving inserts chronologically (an upgrade or a
        re-insert after eviction re-appends, in both engines) — so key
        order, not just content, matches the reference dicts.  The
        offline kinds mirror their dicts live, and random keeps no
        per-PW state, so they have nothing to rebuild.
        """
        kind = self.kind
        if kind not in ("lru", "srrip", "ghrp"):
            return
        lu = self.lu
        lu.clear()
        if kind == "lru":
            for s, rec in self.resident.items():
                lu[s] = rec[_LU]
        elif kind == "srrip":
            # Fold the per-set aging offsets back into absolute RRPV
            # values; _attempt/_rank (and the policy object afterwards)
            # speak absolutes.
            off = self.rrpv_off
            rrpv = self.rrpv
            rrpv.clear()
            for s, rec in self.resident.items():
                o = off[rec[_SET]]
                if o:
                    rec[_AUX] += o
                lu[s] = rec[_LU]
                rrpv[s] = rec[_AUX]
            self.rrpv_off = [0] * len(off)
        else:  # ghrp
            g_sig = self.g_sig
            g_reused = self.g_reused
            g_sig.clear()
            g_reused.clear()
            for s, rec in self.resident.items():
                sg = rec[_G_SIG]
                if sg is not None:
                    g_sig[s] = sg
                g_reused[s] = rec[_G_REUSED]
                lu[s] = rec[_LU]

    def _drain(self, n: int) -> None:
        """Complete insertions still in flight at trace end."""
        self._rebuild_policy_dicts()
        now = n + self.delay
        base = self.col_base
        self.hist_now = int(self.hist[n - base])
        pending = self.pending
        in_flight = self.in_flight
        starts_l = self.cols["starts"]
        delay = self.delay
        attempt = self.attempt_fn
        # Pending entries are scheduling indices: due = m + delay and
        # start = starts[m] are both derivable, so nothing else is stored.
        while pending and pending[0] + delay <= now:
            start = starts_l[pending.popleft() - base]
            request = in_flight.pop(start, None)
            if request is None:
                continue
            attempt(self, now, start, request)
        stats = self.pipeline.stats
        stats.insertion_attempts += self.st_attempts
        stats.insertions += self.st_insertions
        stats.bypasses += self.st_bypasses
        stats.uop_cache_writes += self.st_writes
        stats.evictions += self.st_evictions
        stats.evicted_entries += self.st_evicted_entries
        self.st_attempts = self.st_insertions = self.st_bypasses = 0
        self.st_writes = self.st_evictions = self.st_evicted_entries = 0

    def _sync_back(self) -> None:
        """Propagate kernel state into the pipeline's real structures."""
        pipeline = self.pipeline
        icache = pipeline.icache
        icache.accesses += self.ic_accesses
        icache.misses += self.ic_misses
        btb = pipeline.btb
        btb.accesses += self.btb_accesses
        btb.misses += self.btb_misses
        decoder = pipeline.decoder
        decoder.episodes += self.dec_episodes
        decoder.insts_decoded += self.dec_insts
        decoder.uops_decoded += self.dec_uops
        decoder.active_cycles += self.dec_cycles
        pipeline.accumulator.accumulated += self.accumulated
        cache = pipeline.uop_cache
        cache.eviction_count += self.cache_evictions
        cache.evicted_entries += self.cache_evicted_entries
        cache.inclusive_invalidations += self.cache_invalidations
        cache.upgrades += self.cache_upgrades
        # The in-run line map is append-only (removals leave stale
        # starts behind; readers re-validate against ``resident``), so
        # rebuild the exact reverse map the reference maintains.
        line_map: dict[int, set[int]] = {}
        for start, rec in self.resident.items():
            for line in range(rec[_LINE0], rec[_LINE1] + 1):
                starts = line_map.get(line)
                if starts is None:
                    line_map[line] = {start}
                else:
                    starts.add(start)
        cache._line_map = line_map
        pipeline._on_uop_path = self.on_uop_path
        if self.kind == "ghrp":
            pipeline.policy._history = int(self.hist[self.n - self.col_base])
        # Rebuild resident StoredPW objects so post-run cache probes
        # (tests, notebooks) see the expected contents.  Way-slot ids
        # are reassigned in residency order; kernel-eligible policies
        # never read them.
        for set_index, kernel_set in enumerate(self.sets_pws):
            cset = cache.sets[set_index]
            free = list(range(self.ways))
            pws: dict[int, StoredPW] = {}
            for start, rec in kernel_set.items():
                size = rec[_SIZE]
                slots = tuple(free[:size])
                del free[:size]
                pws[start] = StoredPW(
                    start=start, uops=rec[_UOPS], insts=rec[_INSTS],
                    bytes_len=rec[_BYTES], size=size, weight=rec[_WEIGHT],
                    slots=slots,
                    lines=range(rec[_LINE0], rec[_LINE1] + 1),
                )
            cset.pws = pws
            cset.used_ways = self.used_ways[set_index]
            cset.free_slots = free  # ascending == valid min-heap

    # --- GHRP predictor helpers ----------------------------------------------

    def _predict(self, signature: int) -> int:
        t0, t1, t2 = self.g_tables
        return (
            t0[(signature ^ signature >> 7) & _MASK12]
            + t1[(signature >> 5 ^ signature >> 8) & _MASK12]
            + t2[(signature >> 10 ^ signature >> 9) & _MASK12]
        )

    # --- storage engine ------------------------------------------------------

    def _remove(self, now: int, start: int, rec: list, reason: int) -> None:
        """Evict a resident record (mirrors ``UopCache._remove``).

        The line map is left as-is (stale starts are re-validated by the
        inclusive-invalidation scan and the map is rebuilt exactly in
        ``_sync_back``).  The online kinds' policy-dict pops only matter
        during the final drain, after ``_rebuild_policy_dicts`` has
        refreshed the dicts; before that they are no-ops on state that
        gets rebuilt.  The offline kinds' pops mirror the policy's
        ``on_evict`` on the live dicts.
        """
        del self.sets_pws[rec[_SET]][start]
        del self.resident[start]
        self.used_ways[rec[_SET]] -= rec[_SIZE]
        if reason == _REPLACEMENT:
            self.cache_evictions += 1
            self.cache_evicted_entries += rec[_SIZE]
        elif reason == _INCLUSIVE:
            self.cache_invalidations += 1
        else:
            self.cache_upgrades += 1
        kind = self.kind
        if kind == "lru":
            self.lu.pop(start, None)
        elif kind == "srrip":
            self.rrpv.pop(start, None)
            self.lu.pop(start, None)
        elif kind == "ghrp":
            if reason != _UPGRADE:
                i0 = rec[_G_I0]
                if i0 is not None and not rec[_G_REUSED]:
                    t0, t1, t2 = self.g_tables
                    if t0[i0] < 3:
                        t0[i0] += 1
                    i1 = rec[_G_I1]
                    if t1[i1] < 3:
                        t1[i1] += 1
                    i2 = rec[_G_I2]
                    if t2[i2] < 3:
                        t2[i2] += 1
            self.g_sig.pop(start, None)
            self.g_reused.pop(start, None)
            self.lu.pop(start, None)
        elif kind == "furbys":
            self.o_last_use.pop(start, None)
            self.o_rrpv.pop(start, None)
        elif kind == "thermometer":
            self.o_last_use.pop(start, None)
        elif kind in ("plan", "greedy") and reason != _UPGRADE:
            # Replay modes keep the interval across an in-place upgrade
            # (EvictionReason.UPGRADE is excluded in the reference).
            self.interval_start.pop(start, None)

    # The bracket-cache pattern below repeats inline in every ranking
    # loop on purpose: a shared helper would reintroduce the very
    # function-call overhead the cache removes.  The cached [idx, lo,
    # hi] answers ``first occurrence > after`` iff ``occ[idx-1] <=
    # after < occ[idx]`` (with the boundary cases); any other query —
    # the next use went by, or a stale FLACK time_ref looks backwards —
    # falls back to one bisect and re-caches.

    def _attempt(self, now: int, start: int, request: tuple) -> None:
        """One insertion attempt (mirrors ``UopCache.try_insert``).

        The reference splits this across ``try_insert`` plus the
        policy's ``should_bypass`` / ``choose_victims`` / ``on_evict``
        hooks; here the whole decision is one straight-line body so the
        per-kind specialization (module tail) prunes every cross-kind
        branch and the bypass-check ranking doubles as the victim order
        without a handoff.  The offline ranking loops never materialize
        a candidate list: they iterate ``cset`` directly (dict order ==
        residency order), skipping ``skip`` (the same-start entry being
        upgraded); the unique running index ``i`` breaks sort ties in
        residency order.

        The offline kinds run this for every insertion completion.  The
        online kinds inline it into :meth:`_segment` (keep the two in
        lockstep) and run it only from :meth:`_drain`, after
        :meth:`_rebuild_policy_dicts`: SRRIP values are absolute and
        the policy dicts are live by then.
        """
        kind = self.kind
        is_lru = kind == "lru"
        is_srrip = kind == "srrip"
        is_ghrp = kind == "ghrp"
        is_belady = kind == "belady"
        is_plan = kind == "plan"
        is_greedy = kind == "greedy"
        is_furbys = kind == "furbys"
        is_thermo = kind == "thermometer"
        start_identity = self.start_identity
        async_aware = self.async_aware
        metric0 = self.metric_mode == 0
        metric1 = self.metric_mode == 1
        keep_larger = self.keep_larger

        self.st_attempts += 1
        uops = request[0]
        weight = request[3]
        set_index = request[4]
        size = request[5]
        ways = self.ways
        if size > ways:
            self.st_bypasses += 1
            return
        cset = self.sets_pws[set_index]
        existing = cset.get(start)
        if existing is not None:
            if keep_larger and existing[_UOPS] >= uops:
                self.st_bypasses += 1
                return
            extra_needed = size - existing[_SIZE]
            skip = start
        else:
            extra_needed = size
            skip = None
        need = extra_needed - (ways - self.used_ways[set_index])

        # --- should_bypass (GHRP and every offline kind override it, so
        # the reference consults it on *every* attempt) ---
        decorated = None
        if is_ghrp:
            sig = ((start >> 4) ^ self.hist_now) & 0xFFFFFFFF
            if self._predict(sig) >= _BYPASS_THRESHOLD:
                bypassed = self.g_bypassed
                bypassed[start] = (sig, now)
                if len(bypassed) > 1 << 16:  # pragma: no cover - bound
                    bypassed.clear()
                self.st_bypasses += 1
                return
        elif is_belady:
            # A use *at* `now` still counts — insertions complete
            # before the lookup at `now` is served.
            span = self.span_get((start, uops))
            if span is None:
                self.st_bypasses += 1
                return
            occ = self.occ
            after = now - 1
            idx = bisect_right(occ, after, span[0], span[1])
            if idx >= span[1]:
                self.st_bypasses += 1
                return
            incoming_next = occ[idx]
            if need > 0:
                # Bypass when the incoming window would itself be the
                # best victim.  The ranking built for the check is the
                # victim order of this attempt (same `after`).
                span_get = self.span_get
                decorated = []
                i = 0
                bypass = True
                for s, rec in cset.items():
                    if s == skip:
                        continue
                    aux = rec[9]
                    if aux is None:
                        span = span_get((s, rec[0]))
                        aux = rec[9] = (
                            [span[0], span[0], span[1]]
                            if span is not None else [0, 0, 0])
                    idx, blo, bhi = aux
                    if not ((idx == blo or occ[idx - 1] <= after)
                            and (idx == bhi or occ[idx] > after)):
                        idx = bisect_right(occ, after, blo, bhi)
                        aux[0] = idx
                    nuv = occ[idx] if idx < bhi else _NEVER
                    if nuv > incoming_next:
                        # NEVER or a later next use: not the best
                        # victim.
                        bypass = False
                    decorated.append((-nuv, i, s))
                    i += 1
                if bypass:
                    self.st_bypasses += 1
                    return
        elif is_plan:
            # FOO follows its static plan eagerly: if the interval
            # starting at the lookup was not admitted, bypass — even
            # into free space.
            lookup_t = self.pending_lookup_t.get(start, now)
            if (not 0 <= lookup_t < self.n_admit
                    or self.admit[lookup_t] == 0):
                self.st_bypasses += 1
                return
        elif is_greedy:
            key = start if start_identity else (start, uops)
            occ = self.occ
            span_get = self.span_get
            if async_aware:
                time_ref = now
                span = span_get(key)
                if (span is None
                        or bisect_right(occ, now - 1, span[0], span[1])
                        >= span[1]):
                    # Reuse raced past during decode, or the window is
                    # dead ("safeguarding late insertions").
                    self.st_bypasses += 1
                    return
            else:
                # Without the asynchrony feature the policy still
                # believes the stale view from when the lookup missed.
                time_ref = self.pending_lookup_t.get(start, now)
            if need > 0:
                # Never insert a window that would immediately be the
                # best victim.  When the stale view coincides with
                # `now` (always under async awareness) the scores
                # computed for the check ARE the victim ranking of
                # this attempt.
                t = time_ref
                incoming_score = _INF
                span = span_get(key)
                if span is not None:
                    idx = bisect_right(occ, t - 1, span[0], span[1])
                    if idx < span[1]:
                        distance = float(occ[idx] - t)
                        if metric0:
                            incoming_score = distance * size
                        elif metric1:
                            incoming_score = distance
                        else:
                            incoming_score = (distance * size
                                              / max(1, uops))
                stale = t != now
                after = t - 1
                decorated = []
                i = 0
                bypass = True
                for s, rec in cset.items():
                    if s == skip:
                        continue
                    aux = rec[9]
                    if aux is None:
                        k = s if start_identity else (s, rec[0])
                        span = span_get(k)
                        aux = rec[9] = (
                            [span[0], span[0], span[1]]
                            if span is not None else [0, 0, 0])
                    idx, blo, bhi = aux
                    if not ((idx == blo or occ[idx - 1] <= after)
                            and (idx == bhi or occ[idx] > after)):
                        idx = bisect_right(occ, after, blo, bhi)
                        aux[0] = idx
                    if idx < bhi:
                        distance = float(occ[idx] - t)
                        if metric0:
                            sc = distance * rec[1]
                        elif metric1:
                            sc = distance
                        else:
                            sc = distance * rec[1] / max(1, rec[0])
                    else:
                        sc = _INF
                    if sc > incoming_score:
                        if stale:
                            # The stale ranking is NOT the victim
                            # order — rebuild below at `now`.
                            decorated = None
                            bypass = False
                            break
                        bypass = False
                    decorated.append((-sc, i, s))
                    i += 1
                if bypass:
                    self.st_bypasses += 1
                    return
        elif is_furbys:
            if (self.f_bypass_enabled and need > 0
                    and weight is not None
                    and weight < self.f_bypass_floor
                    and len(cset) != (skip is not None)):
                # Only profiled-cold windows (with a hint that reached
                # the decoder) are bypass candidates, measured against
                # the set's weight floor.
                min_weight = None
                for s, rec in cset.items():
                    if s == skip:
                        continue
                    rw = rec[5]
                    if rw is None:
                        rw = 0
                    if min_weight is None or rw < min_weight:
                        min_weight = rw
                if weight < min_weight - self.f_bypass_margin:
                    self.pipeline.policy.bypass_decisions += 1
                    self.st_bypasses += 1
                    return
        elif is_thermo and need > 0:
            # A cold insertion never displaces an all-hot set.
            classes_get = self.classes_get
            if (classes_get(start, COLD) == COLD
                    and len(cset) != (skip is not None)):
                for s in cset:
                    if s == skip:
                        continue
                    if classes_get(s, COLD) != HOT:
                        break
                else:
                    self.st_bypasses += 1
                    return

        if need > 0:
            # --- choose_victims ---
            if is_furbys:
                victims = self._furbys_victims(now, set_index, cset,
                                               skip, need)
                if victims is None:
                    # The policy could not (or chose not to) free
                    # enough ways: bypass, same as a Bypass decision.
                    self.st_bypasses += 1
                    return
            else:
                if decorated is None:
                    decorated = []
                    i = 0
                    if is_plan:
                        # Static plan adherence: plan-bypassed
                        # residents leave first, furthest next use
                        # first within each class (the plan ranking
                        # queries the future at `now`, not `now - 1`).
                        interval_get = self.interval_start.get
                        admit = self.admit
                        n_admit = self.n_admit
                        occ = self.occ
                        span_get = self.span_get
                        after = now
                        for s, rec in cset.items():
                            if s == skip:
                                continue
                            pt = interval_get(s)
                            planned = 1 if (pt is not None
                                            and 0 <= pt < n_admit
                                            and admit[pt]) else 0
                            aux = rec[9]
                            if aux is None:
                                k = (s if start_identity
                                     else (s, rec[0]))
                                span = span_get(k)
                                aux = rec[9] = (
                                    [span[0], span[0], span[1]]
                                    if span is not None else [0, 0, 0])
                            idx, blo, bhi = aux
                            if not ((idx == blo
                                     or occ[idx - 1] <= after)
                                    and (idx == bhi
                                         or occ[idx] > after)):
                                idx = bisect_right(occ, after, blo, bhi)
                                aux[0] = idx
                            nuv = occ[idx] if idx < bhi else _NEVER
                            decorated.append((planned, -nuv, i, s))
                            i += 1
                    elif is_greedy:
                        # The bypass check ran on a stale time_ref; the
                        # victim ranking queries the future at `now`.
                        occ = self.occ
                        span_get = self.span_get
                        after = now - 1
                        for s, rec in cset.items():
                            if s == skip:
                                continue
                            aux = rec[9]
                            if aux is None:
                                k = (s if start_identity
                                     else (s, rec[0]))
                                span = span_get(k)
                                aux = rec[9] = (
                                    [span[0], span[0], span[1]]
                                    if span is not None else [0, 0, 0])
                            idx, blo, bhi = aux
                            if not ((idx == blo
                                     or occ[idx - 1] <= after)
                                    and (idx == bhi
                                         or occ[idx] > after)):
                                idx = bisect_right(occ, after, blo, bhi)
                                aux[0] = idx
                            if idx < bhi:
                                distance = float(occ[idx] - now)
                                if metric0:
                                    sc = distance * rec[1]
                                elif metric1:
                                    sc = distance
                                else:
                                    sc = (distance * rec[1]
                                          / max(1, rec[0]))
                            else:
                                sc = _INF
                            decorated.append((-sc, i, s))
                            i += 1
                    elif is_thermo:
                        # Cold before warm before hot, LRU within a
                        # class (last use lives in the record stamp).
                        classes_get = self.classes_get
                        for s, rec in cset.items():
                            if s == skip:
                                continue
                            decorated.append(
                                (classes_get(s, COLD), rec[8], i, s))
                            i += 1
                    else:
                        # The online kinds (Belady's ranking is always
                        # built by its bypass check).
                        decorated = self._rank(cset, skip)
                # Base-protocol greedy accumulation (stable sort; ties
                # fall back to residency order via `i`).
                decorated.sort()
                victims = []
                freed = 0
                for tup in decorated:
                    vs = tup[-1]
                    victims.append(vs)
                    freed += cset[vs][_SIZE]
                    if freed >= need:
                        break
                else:
                    # The set genuinely cannot host the PW; bypass (same
                    # fallback as ReplacementPolicy.choose_victims).
                    self.st_bypasses += 1
                    return
            # Evict (EvictionReason.REPLACEMENT).
            remove = self._remove
            for victim in victims:
                rec = cset[victim]
                self.st_evictions += 1
                self.st_evicted_entries += rec[_SIZE]
                remove(now, victim, rec, _REPLACEMENT)
        if existing is not None:
            # Upgrade in place: same tag, more entries (keep-larger).
            if weight is None:
                weight = existing[_WEIGHT]
            self._remove(now, start, existing, _UPGRADE)
        first_line = request[6]
        last_line = request[7]
        rec = [uops, size, set_index, request[1], request[2], weight,
               first_line, last_line, now, None, False]
        cset[start] = rec
        self.resident[start] = rec
        self.used_ways[set_index] += size
        line_map = self.line_map
        for line in range(first_line, last_line + 1):
            starts = line_map.get(line)
            if starts is None:
                line_map[line] = {start}
            else:
                starts.add(start)
        self.st_insertions += 1
        self.st_writes += size
        if is_lru:
            self.lu[start] = now
        elif is_srrip:
            # Offsets are normalized before drain-time attempts run,
            # so the absolute insert value is also the raw one.
            self.rrpv[start] = RRPV_INSERT
            rec[_AUX] = RRPV_INSERT
            self.lu[start] = now
        elif is_ghrp:
            self.g_sig[start] = sig
            rec[_G_I0:] = [(sig ^ sig >> 7) & _MASK12,
                           (sig >> 5 ^ sig >> 8) & _MASK12,
                           (sig >> 10 ^ sig >> 9) & _MASK12,
                           False, sig]
            self.g_reused[start] = False
            self.lu[start] = now
        elif is_furbys:
            self.o_last_use[start] = now
            self.o_rrpv[start] = RRPV_INSERT
        elif is_thermo:
            self.o_last_use[start] = now
        elif is_belady or is_plan or is_greedy:
            if not is_belady:
                # The residency interval starts at the lookup that
                # missed (async insertion), falling back to the
                # completion time.
                self.interval_start[start] = \
                    self.pending_lookup_t.pop(start, now)
            # Seed the record's occurrence-bracket cache ([idx, lo, hi]
            # into occ_list; [0, 0, 0] = no occurrences).
            key = start if start_identity else (start, uops)
            span = self.span_get(key)
            rec[9] = ([span[0], span[0], span[1]] if span is not None
                      else [0, 0, 0])

    def _rank(self, cset: dict[int, list], skip: int | None) -> list[tuple]:
        """Online kinds' victim sort keys (mirrors each victim_order).

        One ``(key..., i, start)`` tuple per resident other than
        ``skip``; sorted, they give the victim order, with ties broken
        in residency order by ``i`` like the reference's stable sorts
        over the same orderings.  Reads policy state from the records
        (the only live copy during the run).
        """
        kind = self.kind
        candidates = [s for s in cset if s != skip]
        if kind == "lru":
            return [(cset[s][_LU], i, s) for i, s in enumerate(candidates)]
        if kind == "random":
            # The shuffled order is the victim order; the leading index
            # keeps the sort from reordering it.
            self.rng_shuffle(candidates)
            return list(enumerate(candidates))
        if kind == "srrip":
            # Only reachable at drain time, after offsets are folded
            # back (raw == absolute); aging keeps dict and records in
            # lockstep like the reference's bulk rewrite.
            if not candidates:
                return []
            values = [cset[s][_AUX] for s in candidates]
            current_max = max(values)
            if current_max < RRPV_MAX:
                delta = RRPV_MAX - current_max
                values = [value + delta for value in values]
                rrpv = self.rrpv
                for s, value in zip(candidates, values):
                    rrpv[s] = value
                    cset[s][_AUX] = value
            return [(-values[i], cset[s][_LU], i, s)
                    for i, s in enumerate(candidates)]
        # ghrp: dead-predicted first, ties broken by LRU.
        t0, t1, t2 = self.g_tables
        decorated = []
        for i, s in enumerate(candidates):
            r = cset[s]
            i0 = r[_G_I0]
            dead = i0 is not None and (
                t0[i0] + t1[r[_G_I1]] + t2[r[_G_I2]] >= _DEAD_THRESHOLD)
            decorated.append((0 if dead else 1, r[_LU], i, s))
        return decorated

    def _furbys_victims(self, now: int, set_index: int, cset: dict,
                        skip, need: int) -> list | None:
        """Mirror of ``FurbysPolicy.choose_victims``."""
        policy = self.pipeline.policy
        decorated = []
        i = 0
        for s, rec in cset.items():
            if s == skip:
                continue
            w = rec[5]
            decorated.append((w if w is not None else 0,
                              rec[8], i, s))
            i += 1
        if not decorated:
            return []
        decorated.sort()
        ranked = [tup[3] for tup in decorated]
        use_fallback = False
        if self.f_pitfall_depth > 0:
            if ranked[0] in self.f_detector(set_index):
                # The weight-based victim was itself evicted from this
                # set just recently: degrade to SRRIP for one decision.
                use_fallback = True
        if use_fallback:
            candidates = [s for s in cset if s != skip]
            ranked = self._rrpv_victims(cset, candidates)
            policy.fallback_selections += 1
        else:
            policy.primary_selections += 1
        victims = []
        freed = 0
        for vs in ranked:
            if freed >= need:
                break
            victims.append(vs)
            freed += cset[vs][_SIZE]
        if freed < need:
            return None
        if self.f_pitfall_depth > 0:
            detector = self.f_detector(set_index)
            if use_fallback:
                detector.clear()
            else:
                for vs in victims:
                    detector.append(vs)
        return victims

    def _rrpv_victims(self, cset: dict, candidates: list) -> list:
        """Mirror of ``RRPVTable.victim_order`` with LRU tie-breaks."""
        o_rrpv = self.o_rrpv
        values = [o_rrpv.get(s, RRPV_MAX) for s in candidates]
        current_max = max(values)
        if current_max < RRPV_MAX:
            # Age the set until a distant entry exists, writing the
            # aged values back (hardware counter increments would).
            delta = RRPV_MAX - current_max
            values = [value + delta for value in values]
            for s, value in zip(candidates, values):
                o_rrpv[s] = value
        decorated = sorted(
            (-values[i], cset[s][8], i)
            for i, s in enumerate(candidates))
        return [candidates[i] for _, _, i in decorated]

    # --- main loop -----------------------------------------------------------

    def _segment(self, begin: int, end: int) -> None:
        """Simulate lookups ``[begin, end)`` into ``pipeline.stats``.

        The generic template of every kind's loop: runs execute the
        variant compiled with their flags baked in (module tail).
        """
        pipeline = self.pipeline
        stats = pipeline.stats
        cfg = pipeline.config
        cols = self.cols

        perfect_bp = cfg.perfect_branch_predictor
        perfect_icache = cfg.perfect_icache
        inclusive = self.inclusive
        line_bytes = self.line_bytes
        decode_width = cfg.core.decode_width
        delay = self.delay
        base = self.col_base

        starts_l = cols["starts"]
        uops_l = cols["uops"]
        reqs_l = cols["reqs"]
        ff_l = cols["first_line"]
        fl_l = cols["last_line"]
        cont_l = cols["contains"]
        ic_si_l = cols["ic_si"]

        kind = self.kind
        is_lru = kind == "lru"
        is_ghrp = kind == "ghrp"
        is_srrip = kind == "srrip"
        is_replay = kind in ("plan", "greedy")
        is_furbys = kind == "furbys"
        # Hit stamps: lru/srrip stamp the record only (their policy
        # dicts are rebuilt before the drain); furbys/thermometer stamp
        # the record and mirror the live policy dicts.
        rec_stamps = is_lru or is_srrip
        dict_stamps = is_furbys or kind == "thermometer"
        # The online kinds inline the insertion attempt below; the
        # offline kinds call _attempt.
        inline_attempt = kind in _ONLINE_KINDS
        has_phs = self.has_phs
        interval_start = self.interval_start
        pending_lookup_t = self.pending_lookup_t
        o_last_use = self.o_last_use
        o_rrpv = self.o_rrpv
        phs = self.phs
        phs_get = phs.get
        if is_srrip:
            rrpv_off = self.rrpv_off
        if is_ghrp:
            g_bypassed = self.g_bypassed
            g_bypassed_pop = g_bypassed.pop
            g_window = self.g_window
            t0, t1, t2 = self.g_tables
            g_sig_l = cols["g_sig"]
            g_i0_l = cols["g_i0"]
            g_i1_l = cols["g_i1"]
            g_i2_l = cols["g_i2"]
        elif kind == "random":
            rng_shuffle = self.rng_shuffle
            getrandbits = self.rng_getrandbits
            inline_shuffle = _INLINE_SHUFFLE
            # Bit lengths for rejection sampling, indexed by population
            # count (a set holds at most ``ways`` single-entry PWs).
            bitlen = [n.bit_length() for n in range(self.ways + 2)]

        ways = self.ways
        keep_larger = self.keep_larger
        sets_pws = self.sets_pws
        used_ways = self.used_ways
        resident = self.resident
        resident_get = resident.get
        pending = self.pending
        pending_append = pending.append
        pending_popleft = pending.popleft
        in_flight = self.in_flight
        in_flight_get = in_flight.get
        in_flight_pop = in_flight.pop
        in_flight_setdefault = in_flight.setdefault
        attempt = self.attempt_fn
        rank = self._rank
        remove = self._remove

        hints = pipeline.accumulator._hints
        has_hints = bool(hints)
        hints_get = hints.get

        icache = pipeline.icache
        isets = icache._sets
        ic_n_sets = icache.config.sets
        ic_ways = icache.config.ways
        line_map = self.line_map
        line_map_get = line_map.get

        # --- compressed BTB pass (independent of cache state) ---
        if not cfg.perfect_btb:
            btb = pipeline.btb
            bsets = btb._sets
            btb_ways = btb.config.btb_ways
            branch_pos = cols["branch_pos"]
            lo = int(_np.searchsorted(branch_pos, begin))
            hi = int(_np.searchsorted(branch_pos, end))
            btb_misses = 0
            prev_pc = None
            for pc, bi in zip(cols["branch_pcs"][lo:hi],
                              cols["branch_si"][lo:hi]):
                if pc == prev_pc:
                    continue  # still the MRU entry of its set
                prev_pc = pc
                bset = bsets[bi]
                if pc in bset:
                    bset.move_to_end(pc)
                else:
                    btb_misses += 1
                    if len(bset) >= btb_ways:
                        bset.popitem(last=False)
                    bset[pc] = None
            self.btb_accesses += hi - lo
            self.btb_misses += btb_misses
            stats.btb_misses += btb_misses

        # --- segment-local counters ---
        pw_partial_hits = 0
        uops_missed = 0
        reads_corr = 0
        path_switches = icache_accesses = inclusive_invalidations = 0
        dec_episodes = dec_insts = dec_uops = dec_cycles = 0
        ic_acc = ic_miss = 0
        accumulated = 0
        insertions = bypasses = writes = 0
        evictions = evicted_entries = 0
        cache_upgrades = 0
        on_uop_path = self.on_uop_path
        # Full misses record their index only; the per-miss totals are
        # numpy fancy-indexed sums over the precomputed columns.
        miss_idx: list[int] = []
        miss_append = miss_idx.append
        ic_prev = None  # last icache line touched (still MRU in its set)
        NEVER = 1 << 62  # int sentinel keeps the per-lookup compare int-int
        next_due = pending[0] + delay if pending else NEVER
        sig = i0 = i1 = i2 = 0

        for now, start, uops in zip(range(begin, end),
                                    starts_l[begin - base:end - base],
                                    uops_l[begin - base:end - base]):
            if next_due <= now:
                lim = now - delay
                while pending and pending[0] <= lim:
                    qi = pending_popleft()
                    queued_start = starts_l[qi - base]
                    request = in_flight_pop(queued_start, None)
                    if request is None:
                        continue  # superseded and already completed
                    if not inline_attempt:
                        attempt(self, now, queued_start, request)
                        continue
                    # --- inlined insertion attempt; the _attempt
                    # method is the readable reference for this
                    # block — keep them in lockstep.  (Attempts
                    # are not counted here: every attempt ends as
                    # exactly one insertion or bypass, so the fold
                    # derives the total.) ---
                    (q_uops, q_insts, q_bytes, q_weight, q_si, q_size,
                     q_line0, q_line1) = request
                    if q_size > ways:
                        bypasses += 1
                        continue
                    cset = sets_pws[q_si]
                    existing = cset.get(queued_start)
                    if existing is None:
                        need = q_size - ways + used_ways[q_si]
                    elif keep_larger and existing[0] >= q_uops:
                        bypasses += 1
                        continue
                    else:
                        need = (q_size - existing[1]
                                - ways + used_ways[q_si])
                    if is_ghrp:
                        # Signature and table indices were vectorized at
                        # column-build time, keyed by scheduling index.
                        sig = g_sig_l[qi - base]
                        i0 = g_i0_l[qi - base]
                        i1 = g_i1_l[qi - base]
                        i2 = g_i2_l[qi - base]
                        if t0[i0] + t1[i1] + t2[i2] >= _BYPASS_THRESHOLD:
                            g_bypassed[queued_start] = (sig, now)
                            if len(g_bypassed) > 1 << 16:
                                g_bypassed.clear()
                            bypasses += 1
                            continue
                    if need > 0:
                        if existing is not None:
                            # Rare: an upgrade that must evict others.
                            cands = [s for s in cset if s != queued_start]
                            if is_srrip:
                                # Offset-space ranking.  The reference
                                # ages only the candidates (the upgraded
                                # entry is excluded), so a positive
                                # offset bump must compensate the
                                # excluded entry's raw value instead.
                                vals = [cset[s][9] for s in cands]
                                if vals:
                                    off_si = rrpv_off[q_si]
                                    delta = RRPV_MAX - max(vals) - off_si
                                    if delta > 0:
                                        rrpv_off[q_si] = off_si + delta
                                        existing[9] -= delta
                                order = sorted(
                                    (-vals[i], cset[s][8], i)
                                    for i, s in enumerate(cands))
                                ranked = [cands[i] for _, _, i in order]
                            else:
                                ranked = [tup[-1] for tup in sorted(
                                    rank(cset, queued_start))]
                            victims = []
                            freed = 0
                            for vs in ranked:
                                victims.append(vs)
                                freed += cset[vs][1]
                                if freed >= need:
                                    break
                            if freed < need:
                                bypasses += 1
                                continue
                        elif is_lru:
                            # First victim = argmin recency; ties keep
                            # residency order (== stable-sort prefix).
                            best_s = best_r = None
                            best_v = 0
                            for s, r in cset.items():
                                v = r[8]
                                if best_s is None or v < best_v:
                                    best_s = s
                                    best_r = r
                                    best_v = v
                            if best_r[1] >= need:
                                victims = (best_s,)
                            else:
                                # Next victims by repeated argmin with
                                # exclusion — picks in exactly the
                                # stable (lu, residency) sort order.
                                victims = [best_s]
                                freed = best_r[1]
                                while freed < need:
                                    nbs = nbr = None
                                    nbv = 0
                                    for s, r in cset.items():
                                        if s in victims:
                                            continue
                                        v = r[8]
                                        if nbs is None or v < nbv:
                                            nbs = s
                                            nbr = r
                                            nbv = v
                                    if nbs is None:
                                        break
                                    victims.append(nbs)
                                    freed += nbr[1]
                        elif is_srrip:
                            # Raw RRPV values (absolute - offset) live
                            # in the records.  Uniform aging shifts the
                            # whole set, so raw order == absolute order
                            # and aging is a single offset bump instead
                            # of N dict writes.  The argmax's best_v IS
                            # max(raw), which prices the bump.
                            best_s = best_r = None
                            best_v = best_lu = 0
                            for s, r in cset.items():
                                v = r[9]
                                if (best_s is None or v > best_v
                                        or (v == best_v and r[8] < best_lu)):
                                    best_s = s
                                    best_r = r
                                    best_v = v
                                    best_lu = r[8]
                            off_si = rrpv_off[q_si]
                            delta = RRPV_MAX - best_v - off_si
                            if delta > 0:
                                rrpv_off[q_si] = off_si + delta
                            if best_r[1] >= need:
                                victims = (best_s,)
                            else:
                                # Next victims by repeated argmax with
                                # exclusion — exactly the reference's
                                # stable (-rrpv, lu, residency) order.
                                victims = [best_s]
                                freed = best_r[1]
                                while freed < need:
                                    nbs = nbr = None
                                    nbv = nbl = 0
                                    for s, r in cset.items():
                                        if s in victims:
                                            continue
                                        v = r[9]
                                        if (nbs is None or v > nbv
                                                or (v == nbv
                                                    and r[8] < nbl)):
                                            nbs = s
                                            nbr = r
                                            nbv = v
                                            nbl = r[8]
                                    if nbs is None:
                                        break
                                    victims.append(nbs)
                                    freed += nbr[1]
                        elif is_ghrp:
                            best_s = best_r = None
                            best_d = 2
                            best_lu = 0
                            for s, r in cset.items():
                                vi0 = r[9]
                                if vi0 is not None and (
                                    t0[vi0] + t1[r[10]] + t2[r[11]]
                                    >= _DEAD_THRESHOLD
                                ):
                                    d = 0
                                else:
                                    d = 1
                                lu_s = r[8]
                                if (best_s is None or d < best_d
                                        or (d == best_d and lu_s < best_lu)):
                                    best_s = s
                                    best_r = r
                                    best_d = d
                                    best_lu = lu_s
                            if best_r[1] >= need:
                                victims = (best_s,)
                            else:
                                # Repeated argmin with exclusion over
                                # the stable (dead, lu, residency) key;
                                # the tables only train at removal time,
                                # after selection, so re-evaluating
                                # deadness per pass is exact.
                                victims = [best_s]
                                freed = best_r[1]
                                while freed < need:
                                    nbs = nbr = None
                                    nbd = 2
                                    nbl = 0
                                    for s, r in cset.items():
                                        if s in victims:
                                            continue
                                        vi0 = r[9]
                                        if vi0 is not None and (
                                            t0[vi0] + t1[r[10]] + t2[r[11]]
                                            >= _DEAD_THRESHOLD
                                        ):
                                            d = 0
                                        else:
                                            d = 1
                                        if (nbs is None or d < nbd
                                                or (d == nbd
                                                    and r[8] < nbl)):
                                            nbs = s
                                            nbr = r
                                            nbd = d
                                            nbl = r[8]
                                    if nbs is None:
                                        break
                                    victims.append(nbs)
                                    freed += nbr[1]
                        else:  # random
                            cands = list(cset)
                            if inline_shuffle:
                                # Exact CPython Random.shuffle, with the
                                # _randbelow call layers peeled off (the
                                # import-time check guarantees identical
                                # draws and final RNG state).
                                for fy in range(len(cands) - 1, 0, -1):
                                    nn = fy + 1
                                    k = bitlen[nn]
                                    rr = getrandbits(k)
                                    while rr >= nn:
                                        rr = getrandbits(k)
                                    cands[fy], cands[rr] = \
                                        cands[rr], cands[fy]
                            else:  # pragma: no cover - stdlib changed
                                rng_shuffle(cands)
                            victims = []
                            freed = 0
                            for vs in cands:
                                victims.append(vs)
                                freed += cset[vs][1]
                                if freed >= need:
                                    break
                        # --- inlined removals (reason: replacement).
                        # Stale line-map entries are left behind (the
                        # invalidation scan re-validates), and policy
                        # dicts are rebuilt from the records at drain
                        # time, so only the storage views update here.
                        freed = 0
                        for vs in victims:
                            vrec = cset[vs]
                            del cset[vs]
                            del resident[vs]
                            vsize = vrec[1]
                            freed += vsize
                            evictions += 1
                            evicted_entries += vsize
                            if is_ghrp:
                                vi0 = vrec[9]
                                if vi0 is not None and not vrec[12]:
                                    c = t0[vi0]
                                    if c < 3:
                                        t0[vi0] = c + 1
                                    vi1 = vrec[10]
                                    c = t1[vi1]
                                    if c < 3:
                                        t1[vi1] = c + 1
                                    vi2 = vrec[11]
                                    c = t2[vi2]
                                    if c < 3:
                                        t2[vi2] = c + 1
                        used_ways[q_si] -= freed
                    if existing is not None:
                        # Upgrade in place (keep-larger merge); no
                        # dead-training on upgrades.
                        if q_weight is None:
                            q_weight = existing[5]
                        del cset[queued_start]
                        del resident[queued_start]
                        used_ways[q_si] -= existing[1]
                        cache_upgrades += 1
                    # --- inlined insert (line span precomputed in the
                    # request: same derivation the reference applies to
                    # start/bytes at insert time) ---
                    line0 = q_line0
                    line1 = q_line1
                    if is_ghrp:
                        nrec = [q_uops, q_size, q_si, q_insts, q_bytes,
                                q_weight, line0, line1, now,
                                i0, i1, i2, False, sig]
                    elif is_srrip:
                        nrec = [q_uops, q_size, q_si, q_insts, q_bytes,
                                q_weight, line0, line1, now,
                                RRPV_INSERT - rrpv_off[q_si], False]
                    else:
                        nrec = [q_uops, q_size, q_si, q_insts, q_bytes,
                                q_weight, line0, line1, now, None, False]
                    cset[queued_start] = nrec
                    resident[queued_start] = nrec
                    used_ways[q_si] += q_size
                    if line0 == line1:
                        lstarts = line_map_get(line0)
                        if lstarts is None:
                            line_map[line0] = {queued_start}
                        else:
                            lstarts.add(queued_start)
                    else:
                        for line in range(line0, line1 + 1):
                            lstarts = line_map_get(line)
                            if lstarts is None:
                                line_map[line] = {queued_start}
                            else:
                                lstarts.add(queued_start)
                    insertions += 1
                    writes += q_size
                next_due = pending[0] + delay if pending else NEVER

            if is_ghrp and g_bypassed and start in g_bypassed:
                entry = g_bypassed_pop(start)
                if now - entry[1] <= g_window:
                    bsg = entry[0]
                    bi = (bsg ^ bsg >> 7) & _MASK12
                    c = t0[bi]
                    if c > 0:
                        t0[bi] = c - 1
                    bi = (bsg >> 5 ^ bsg >> 8) & _MASK12
                    c = t1[bi]
                    if c > 0:
                        t1[bi] = c - 1
                    bi = (bsg >> 10 ^ bsg >> 9) & _MASK12
                    c = t2[bi]
                    if c > 0:
                        t2[bi] = c - 1

            rec = resident_get(start)
            if rec is not None and rec[0] >= uops:
                # Full hit: probe + recency stamp, everything else is
                # reconstructed from the prefix sums afterwards.
                if has_phs:
                    entry = phs_get(start)
                    if entry is None:
                        phs[start] = [uops, uops]
                    else:
                        entry[0] += uops
                        entry[1] += uops
                if rec_stamps:
                    rec[8] = now
                    if is_srrip:
                        rec[9] = RRPV_HIT - rrpv_off[rec[2]]
                elif is_ghrp:
                    rec[8] = now
                    if not rec[12]:
                        rec[12] = True
                        hi0 = rec[9]
                        if hi0 is not None:
                            c = t0[hi0]
                            if c > 0:
                                t0[hi0] = c - 1
                            hi1 = rec[10]
                            c = t1[hi1]
                            if c > 0:
                                t1[hi1] = c - 1
                            hi2 = rec[11]
                            c = t2[hi2]
                            if c > 0:
                                t2[hi2] = c - 1
                elif dict_stamps:
                    rec[8] = now  # ranking reads the record stamp
                    o_last_use[start] = now
                    if is_furbys:
                        o_rrpv[start] = RRPV_HIT
                elif is_replay:
                    interval_start[start] = now
                if not on_uop_path:
                    path_switches += 1
                    on_uop_path = True
            else:
                request = reqs_l[now - base]
                if rec is None:
                    # Full miss: record the index; totals are fancy-indexed
                    # numpy sums at segment fold time.
                    miss_append(now)
                    if has_phs:
                        entry = phs_get(start)
                        if entry is None:
                            phs[start] = [0, uops]
                        else:
                            entry[1] += uops
                    if is_replay:
                        pending_lookup_t[start] = now
                    if on_uop_path:
                        path_switches += 1
                        on_uop_path = False
                    fetch_first = ff_l[now - base]
                    fetch_last = fl_l[now - base]
                else:
                    # Partial hit: stored prefix served, remainder decodes,
                    # merged larger window is scheduled for insertion.
                    served = rec[0]
                    missed = uops - served
                    insts_now = request[1]
                    pw_partial_hits += 1
                    uops_missed += missed
                    reads_corr += rec[1] - request[5]
                    if has_phs:
                        entry = phs_get(start)
                        if entry is None:
                            phs[start] = [served, uops]
                        else:
                            entry[0] += served
                            entry[1] += uops
                    missed_insts = max(1, round(insts_now * missed / uops))
                    dec_episodes += 1
                    dec_insts += missed_insts
                    dec_uops += missed
                    cycles = -(-missed_insts // decode_width)
                    dec_cycles += cycles if cycles > 1 else 1
                    if rec_stamps:
                        rec[8] = now
                        if is_srrip:
                            rec[9] = RRPV_HIT - rrpv_off[rec[2]]
                    elif is_ghrp:
                        rec[8] = now
                        if not rec[12]:
                            rec[12] = True
                            hi0 = rec[9]
                            if hi0 is not None:
                                c = t0[hi0]
                                if c > 0:
                                    t0[hi0] = c - 1
                                hi1 = rec[10]
                                c = t1[hi1]
                                if c > 0:
                                    t1[hi1] = c - 1
                                hi2 = rec[11]
                                c = t2[hi2]
                                if c > 0:
                                    t2[hi2] = c - 1
                    elif dict_stamps:
                        rec[8] = now  # ranking reads the record stamp
                        o_last_use[start] = now
                        if is_furbys:
                            o_rrpv[start] = RRPV_HIT
                    elif is_replay:
                        interval_start[start] = now
                        pending_lookup_t[start] = now
                    path_switches += 1 if on_uop_path else 2
                    on_uop_path = False
                    fetch_start = start + rec[4]
                    fetch_end = start + request[2]
                    fetch_first = fetch_start // line_bytes
                    if fetch_end > fetch_start:
                        fetch_last = (fetch_end - 1) // line_bytes
                    else:
                        fetch_last = fetch_first

                n_lines = fetch_last - fetch_first + 1
                icache_accesses += n_lines
                if not perfect_icache:
                    ic_acc += n_lines
                    # Same line as the previous icache access: still the MRU
                    # entry of its set (nothing has touched that set since),
                    # so the hit is free — no probe, no move_to_end.
                    if n_lines == 1:
                        if fetch_first != ic_prev:
                            ic_prev = fetch_first
                            # Full misses fetch from the lookup's own first
                            # line, whose set index is a precomputed column.
                            icset = isets[ic_si_l[now - base] if rec is None
                                          else fetch_first % ic_n_sets]
                            if fetch_first in icset:
                                icset.move_to_end(fetch_first)
                            else:
                                ic_miss += 1
                                if len(icset) >= ic_ways:
                                    victim_line, _ = icset.popitem(last=False)
                                    if inclusive:
                                        victim_starts = line_map_get(victim_line)
                                        if victim_starts:
                                            for vstart in list(victim_starts):
                                                vrec = resident_get(vstart)
                                                if (vrec is not None
                                                        and vrec[6] <= victim_line
                                                        <= vrec[7]):
                                                    remove(now, vstart, vrec,
                                                           _INCLUSIVE)
                                                    inclusive_invalidations += 1
                                icset[fetch_first] = None
                    else:
                        evicted = []
                        for line in range(fetch_first, fetch_last + 1):
                            if line == ic_prev:
                                continue
                            ic_prev = line
                            icset = isets[line % ic_n_sets]
                            if line in icset:
                                icset.move_to_end(line)
                                continue
                            ic_miss += 1
                            if len(icset) >= ic_ways:
                                victim_line, _ = icset.popitem(last=False)
                                evicted.append(victim_line)
                            icset[line] = None
                        if inclusive and evicted:
                            for victim_line in evicted:
                                victim_starts = line_map_get(victim_line)
                                if victim_starts:
                                    for vstart in list(victim_starts):
                                        vrec = resident_get(vstart)
                                        if (vrec is not None
                                                and vrec[6] <= victim_line
                                                <= vrec[7]):
                                            remove(now, vstart, vrec, _INCLUSIVE)
                                            inclusive_invalidations += 1

                # Schedule the insertion (inlined accumulate + supersede).
                if has_hints:
                    cur = in_flight_get(start)
                    if cur is None:
                        accumulated += 1
                        if cont_l[now - base]:
                            request = (request[:3] + (hints_get(start),)
                                       + request[4:])
                        in_flight[start] = request
                        pending_append(now)
                        if next_due == NEVER:
                            next_due = now + delay
                    elif uops > cur[0]:
                        # A longer same-start window supersedes the pending
                        # one (the original due time is kept by the pending
                        # entry).
                        accumulated += 1
                        if cont_l[now - base]:
                            request = (request[:3] + (hints_get(start),)
                                       + request[4:])
                        in_flight[start] = request
                else:
                    # setdefault fuses the probe and the store; each reqs_l
                    # tuple is stored at most once, so identity with the
                    # just-read request means the slot was empty.
                    cur = in_flight_setdefault(start, request)
                    if cur is request:
                        accumulated += 1
                        pending_append(now)
                        if next_due == NEVER:
                            next_due = now + delay
                    elif uops > cur[0]:
                        # A longer same-start window supersedes the pending
                        # one (the original due time is kept by the pending
                        # entry).
                        accumulated += 1
                        in_flight[start] = request

        # --- fold the segment into stats ---
        pw_misses = len(miss_idx)
        if pw_misses:
            idx = _np.array(miss_idx, dtype=_np.int64) - base
            miss_uops = int(cols["arr_uops"][idx].sum())
            uops_missed += miss_uops
            dec_uops += miss_uops
            dec_episodes += pw_misses
            dec_insts += int(cols["arr_insts"][idx].sum())
            dec_cycles += int(cols["arr_cycles"][idx].sum())
            reads_corr -= int(cols["arr_esize"][idx].sum())
        n_seg = end - begin
        cum_uops = cols["cum_uops"]
        cum_insts = cols["cum_insts"]
        cum_esize = cols["cum_esize"]
        cum_branches = cols["cum_branches"]
        b0 = begin - base
        e0 = end - base
        seg_uops = int(cum_uops[e0] - cum_uops[b0])
        seg_branches = int(cum_branches[e0] - cum_branches[b0])
        stats.lookups += n_seg
        stats.uops_total += seg_uops
        stats.instructions += int(cum_insts[e0] - cum_insts[b0])
        stats.branches += seg_branches
        stats.btb_accesses += seg_branches
        if not perfect_bp:
            cum_mispred = cols["cum_mispred"]
            stats.mispredictions += int(cum_mispred[e0] - cum_mispred[b0])
        stats.pw_hits += n_seg - pw_partial_hits - pw_misses
        stats.pw_partial_hits += pw_partial_hits
        stats.pw_misses += pw_misses
        stats.uops_hit += seg_uops - uops_missed
        stats.uops_missed += uops_missed
        stats.uop_cache_reads += (
            int(cum_esize[e0] - cum_esize[b0]) + reads_corr
        )
        stats.decoder_uops += uops_missed
        stats.path_switches += path_switches
        stats.icache_accesses += icache_accesses
        stats.inclusive_invalidations += inclusive_invalidations
        # Insertion outcomes: the inlined attempt counts in locals,
        # _attempt/_remove count on self (and also maintain the
        # cache-object counters).  For a given kind one of the two is
        # always 0; fold both, then reset the latter like the drain does.
        stats.insertion_attempts += insertions + bypasses + self.st_attempts
        stats.insertions += insertions + self.st_insertions
        stats.bypasses += bypasses + self.st_bypasses
        stats.uop_cache_writes += writes + self.st_writes
        stats.evictions += evictions + self.st_evictions
        stats.evicted_entries += evicted_entries + self.st_evicted_entries
        self.st_attempts = self.st_insertions = self.st_bypasses = 0
        self.st_writes = self.st_evictions = self.st_evicted_entries = 0
        # Cache-object counters mirror the stats-level ones exactly for
        # the inline replacement path, so one pair of locals serves both.
        self.cache_evictions += evictions
        self.cache_evicted_entries += evicted_entries
        self.cache_upgrades += cache_upgrades
        self.dec_episodes += dec_episodes
        self.dec_insts += dec_insts
        self.dec_uops += dec_uops
        self.dec_cycles += dec_cycles
        self.ic_accesses += ic_acc
        self.ic_misses += ic_miss
        self.accumulated += accumulated
        self.on_uop_path = on_uop_path


# --- per-kind loop specialization ---------------------------------------------

#: Run-constant flags baked into the specialized variants of each
#: template.  The kind flags prune the cross-kind branches; the config
#: flags (hints, icache, inclusion, keep-larger, and the replay policy's
#: identity mode, asynchrony and metric) fold their per-event tests away.
_SPEC_NAMES = {
    "_segment": ("is_lru", "is_srrip", "is_ghrp", "is_replay", "is_furbys",
                 "rec_stamps", "dict_stamps", "inline_attempt", "has_phs",
                 "keep_larger", "has_hints", "perfect_icache", "inclusive",
                 "inline_shuffle"),
    "_attempt": ("is_lru", "is_srrip", "is_ghrp", "is_belady", "is_plan",
                 "is_greedy", "is_furbys", "is_thermo", "start_identity",
                 "async_aware", "metric0", "metric1", "keep_larger"),
}
#: Compiled variants keyed by (template, flag tuple); None means
#: compilation was unavailable.
_spec_cache: dict[tuple, object] = {}
#: One-element caches for each template's extracted source.
_spec_templates: dict[str, list[str]] = {name: [] for name in _SPEC_NAMES}


def _specialized(method: str, flags: dict):
    """Cached ``_Kernel.<method>`` with ``flags`` baked in (None on failure).

    Delegates the source transformation to
    :mod:`repro.frontend._specialize` and compiles in-process; any
    failure falls back to the generic template.
    """
    names = _SPEC_NAMES[method]
    key = (method, *(bool(flags[n]) for n in names))
    if key not in _spec_cache:
        try:
            _spec_cache[key] = compile_flagged(
                getattr(_Kernel, method), names, flags,
                new_name=f"{method}_spec", namespace=globals(),
                prefix=method.lstrip("_"), template=_spec_templates[method],
            )
        except Exception:  # pragma: no cover - source unavailable
            _spec_cache[key] = None
    return _spec_cache[key]


#: Cumulative evictions via :func:`clear_segment_cache`.
_spec_evictions = 0


def segment_cache_stats() -> dict[str, int]:
    """Resident and cumulatively evicted compiled variants."""
    return {"entries": len(_spec_cache), "evicted": _spec_evictions}


def clear_segment_cache() -> int:
    """Drop the compiled specialized variants (cache maintenance)."""
    global _spec_evictions
    dropped = len(_spec_cache)
    _spec_evictions += dropped
    _spec_cache.clear()
    return dropped
