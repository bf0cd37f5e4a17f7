"""The one driver of the simulation kernels: arm groups over column windows.

Every kernel run goes through :func:`run_group`.  A solo
:meth:`FrontendPipeline.run` is a one-arm group
(:func:`repro.frontend.simd.run_kernel`), profiling replays included;
the batch prepass in :mod:`repro.harness.parallel` hands it every cold
request that shares a trace and geometry, so a K-policy figure pays
the column build, the segment warmup and the GC pause once per app
instead of K times.

Within each column window every arm advances through its **own**
flag-specialized segment (:mod:`repro.frontend.simd` for the online
kinds, :mod:`repro.frontend.simd_offline` for the offline and
profile-guided ones), so each arm's inner loop is exactly its solo
kernel and stays small enough for the CPU's instruction and
inline-cache working set.

Columns come from one windowed source, sized by :data:`STREAM_WINDOW`:

* a trace of at most ``STREAM_WINDOW`` lookups builds its single window
  once and memoizes it on the trace, so every arm and every later run
  over that trace and geometry shares it;
* a longer trace streams its windows — each built on demand and
  released before the next — and memoizes nothing, so peak memory stays
  flat in the trace length.  Window reads are ``base``-relative (see
  :func:`repro.frontend.simd._build_columns`), so every access stays
  inside the live window.

A group this driver cannot serve raises :class:`FusedUnsupported` and
the caller falls back to the per-arm path, counting
``sim_fallback:fused:<reason>``.
"""

from __future__ import annotations

import gc as _gc

from .. import stagetimer
from ..core.stats import SimulationStats
from ..core.trace import callable_token
from ._specialize import gc_paused as _gc_paused
from .simd import _Kernel, _build_columns, kernel_kind
from .simd_offline import _OfflineKernel

#: Lookups per column window.  A trace of at most this many lookups
#: memoizes its single window; a longer one streams.  Smaller windows
#: would make the paper-scale traces stream and rebuild their columns
#: on every run.
STREAM_WINDOW = 65536


class FusedUnsupported(Exception):
    """This arm mix cannot run as one group; ``reason`` feeds the
    fallback counter (``sim_fallback:fused:<reason>``)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _window_columns(pipeline, trace, lo: int, hi: int) -> dict:
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


def _make_kernel(pipeline, columns: dict, n: int) -> _Kernel:
    if kernel_kind(pipeline.policy) is not None:
        return _Kernel(pipeline, columns, n)
    return _OfflineKernel(pipeline, columns, n)


def run_group(pipelines, trace, warmup: int) -> list[SimulationStats]:
    """Advance all arms over one trace in a single windowed pass.

    Every pipeline must share the trace-shaping config (geometry and
    perfect-structure flags — policy/hints may differ freely) and pass
    :func:`repro.frontend.simd.fallback_reason`; the caller is
    responsible for both.  Returns one finalized
    :class:`SimulationStats` per pipeline, bit-identical to
    :meth:`FrontendPipeline.run_reference` on each arm.
    """
    if not pipelines:
        return []
    config = pipelines[0].config
    if any(p.config != config for p in pipelines[1:]):
        raise FusedUnsupported("config_mismatch")

    with stagetimer.timed("sim_kernel"):
        n = len(trace)
        window = STREAM_WINDOW
        # Warmup discards the counters once, at the warmup lookup; a
        # warmup covering the whole trace discards nothing (as in the
        # reference loop).
        reset_at = warmup if 0 < warmup < n else -1

        columns = _window_columns(pipelines[0], trace, 0, min(n, window))
        kernels = [_make_kernel(p, columns, n) for p in pipelines]
        segments = []
        for k in kernels:
            if isinstance(k, _OfflineKernel):
                k._bind_specialized()
            spec = k._specialized()
            segments.append(spec.__get__(k) if spec is not None
                            else k._segment)

        # The working set is acyclic (columns of ints/tuples plus flat
        # list records), so the cyclic collector can only cost time
        # here: every gen-2 pass re-scans the column pointers while the
        # loop's record churn keeps triggering collections.  Pause it
        # and restore the caller's setting afterwards.
        gc_was_enabled = _gc.isenabled()
        if gc_was_enabled:
            _gc.disable()
        try:
            for lo in range(0, max(n, 1), window):
                hi = min(n, lo + window)
                if lo:
                    # Release the finished window before building the
                    # next one, so only one is ever live.
                    columns = None
                    for k in kernels:
                        k.cols = k.hist = None
                    columns = _window_columns(pipelines[0], trace, lo, hi)
                    for k in kernels:
                        k._bind_columns(columns)
                cuts = [lo, reset_at, hi] if lo < reset_at < hi else [lo, hi]
                for begin, end in zip(cuts, cuts[1:]):
                    for segment in segments:
                        segment(begin, end)
                    if end == reset_at:
                        for k in kernels:
                            k.pipeline.stats = SimulationStats()
            for k in kernels:
                k._drain(n)
        finally:
            if gc_was_enabled:
                _gc.enable()

        results = []
        for k in kernels:
            k._sync_back()
            results.append(k.pipeline._finalize(n))
        return results
