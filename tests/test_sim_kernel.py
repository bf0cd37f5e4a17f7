"""Bit-identity and memory guards for the vectorized simulation kernel.

Two layers:

* **Property sweep** — randomized cache geometries (sets x ways), all
  kernel-eligible policies, trace lengths 1k / 20k / 100k: the
  :mod:`repro.frontend.simd` kernel must reproduce
  :meth:`FrontendPipeline.run_reference` stats *and* end-of-run policy
  state field-by-field.
* **Miss classes** — the per-lookup class column the kernel folds
  ``miss_breakdown`` from equals a per-lookup
  :class:`~repro.frontend.pipeline._ShadowClassifier` replay, class by
  class, at tiny capacities.
* **Memory release** — :func:`~repro.harness.runner.clear_memory_cache`
  must drop every memoized per-trace entry (kernel columns,
  columnar future index) from the one memo holder, even while a caller
  still references that trace, verified with
  :func:`repro.core.trace.memo_census`.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro import stagetimer
from repro.config import preset
from repro.core.pw import PWLookup
from repro.core.trace import Trace, memo_census
from repro.frontend.pipeline import FrontendPipeline, _ShadowClassifier
from repro.harness.runner import clear_memory_cache
from repro.policies import make_policy
from repro.workloads.registry import clear_trace_cache, get_trace

POLICIES = ("lru", "srrip", "random", "ghrp", "ship++", "mockingjay")

#: Randomized geometries (n_sets, ways) — drawn once with a pinned seed
#: so the sweep is reproducible while still covering odd corners
#: (direct-mapped, single-set, wide) no hand-picked list would.
_GEOM_RNG = random.Random(0x5EED)
GEOMETRIES = sorted(
    {(2 ** _GEOM_RNG.randint(0, 5), _GEOM_RNG.choice((1, 2, 4, 8)))
     for _ in range(10)}
)[:6]

#: Longer traces sweep fewer geometries to keep the suite's runtime
#: bounded; the geometry space itself is covered at 1k.
LENGTH_CASES = [
    (1_000, GEOMETRIES),
    (20_000, GEOMETRIES[:2]),
    (100_000, GEOMETRIES[:1]),
]
SWEEP = [
    (n, sets, ways, policy)
    for n, geoms in LENGTH_CASES
    for sets, ways in geoms
    for policy in POLICIES
]


def _cold():
    clear_memory_cache()
    clear_trace_cache()


def _random_trace(seed: int, n: int) -> Trace:
    """Re-referenced windows with same-start size variants and overlap,
    the mix that exercises partial hits, keep-larger upgrades and
    inclusive invalidation (same recipe as test_golden_stats)."""
    rng = random.Random(seed)
    windows = []
    addr = 0x400000
    for _ in range(60):
        insts = rng.randint(1, 12)
        uops = insts + rng.randint(0, 8)
        bytes_len = max(1, insts * rng.randint(2, 6))
        windows.append((addr, uops, insts, bytes_len))
        addr += rng.choice((bytes_len, bytes_len, bytes_len // 2 + 1, 17))
    lookups = []
    for _ in range(n):
        start, uops, insts, bytes_len = rng.choice(windows)
        if rng.random() < 0.25:
            scale = rng.choice((0.5, 0.75, 1.5))
            uops = max(1, int(uops * scale))
            insts = max(1, min(insts, uops))
        lookups.append(PWLookup(
            start=start, uops=uops, insts=insts, bytes_len=bytes_len,
            terminated_by_branch=rng.random() < 0.7,
            contains_branch=rng.random() < 0.85,
            mispredicted=rng.random() < 0.05,
        ))
    return Trace(lookups)


def _policy_state(policy) -> dict:
    """End-of-run policy internals, repr'd for exact comparison (GHRP's
    ``_signature`` is a method, not state, so callables are skipped)."""
    state = {
        attr: repr(getattr(policy, attr, None))
        for attr in ("_last_use", "_rrpv_map", "_sig", "_reused",
                     "_bypassed", "_tables", "_history", "_clock",
                     "_shct", "_signature", "_set_clock", "_last_seen",
                     "_prediction", "_samples")
        if not callable(getattr(policy, attr, None))
    }
    rng = getattr(policy, "_rng", None)
    if rng is not None:
        state["_rng"] = repr(rng.getstate())
    rrpv = getattr(policy, "rrpv", None)
    if rrpv is not None:
        state["rrpv"] = repr(rrpv._rrpv)
    return state


@pytest.mark.parametrize(
    "n,sets,ways,policy",
    SWEEP,
    ids=[f"{n}-{s}x{w}-{p}" for n, s, w, p in SWEEP],
)
def test_kernel_matches_reference(n, sets, ways, policy):
    """Kernel stats and policy end-state are bit-identical to the
    reference loop across geometries, policies and trace lengths."""
    config = preset("zen3").with_uop_cache(entries=sets * ways, ways=ways)
    trace = _random_trace(seed=n * 31 + sets * 7 + ways, n=n)
    warmup = n // 5 if (sets + ways) % 2 else 0

    kernel_policy = make_policy(policy)
    kernel_pipeline = FrontendPipeline(config, kernel_policy)
    with stagetimer.capture() as stages:
        kernel_stats = kernel_pipeline.run(trace, warmup=warmup)
    assert stages.get("sim_kernel_calls"), (
        "vectorized kernel did not run for a supported configuration"
    )

    reference_policy = make_policy(policy)
    reference_pipeline = FrontendPipeline(config, reference_policy)
    reference_stats = reference_pipeline.run_reference(trace, warmup=warmup)

    assert dataclasses.asdict(kernel_stats) == \
        dataclasses.asdict(reference_stats)
    assert _policy_state(kernel_policy) == _policy_state(reference_policy)


#: (entries, ways) of the miss-class suite at 4 micro-ops per entry:
#: capacities of one to four entries, so lookups of up to 30 micro-ops
#: (8 entries) are often larger than the whole shadow.
TINY = [(1, 1), (2, 1), (2, 2), (4, 2), (4, 4)]
CLASS_CASES = [(seed, entries, ways)
               for seed in (3, 4) for entries, ways in TINY]


def _replayed_codes(classifier: _ShadowClassifier, trace: Trace) -> list:
    """The per-lookup oracle: classify, then touch, each lookup."""
    codes = []
    for lookup in trace:
        codes.append(_ShadowClassifier.CODES.index(
            classifier.classify(lookup)))
        classifier.touch(lookup)
    return codes


@pytest.mark.parametrize("seed,entries,ways", CLASS_CASES,
                         ids=[f"s{s}-{e}e{w}w" for s, e, w in CLASS_CASES])
def test_miss_class_column_matches_classifier_replay(seed, entries, ways):
    """The class column is the per-lookup classifier replay, class by
    class, also when built in two pieces at a warmup cut; a kernel run
    with classification and that warmup matches the reference's miss
    breakdown and ends with the same shadow state."""
    config = preset("zen3").with_uop_cache(entries=entries, ways=ways,
                                           uops_per_entry=4)
    uops_per_entry = 4
    trace = _random_trace(seed=seed, n=1_500)
    starts = [lookup.start for lookup in trace]
    uops = [lookup.uops for lookup in trace]
    assert max(uops) > entries * uops_per_entry  # some exceed the shadow

    oracle = _ShadowClassifier(entries, uops_per_entry)
    expected = _replayed_codes(oracle, trace)
    assert set(expected) == {0, 1, 2}
    whole = _ShadowClassifier(entries, uops_per_entry)
    assert list(whole.classes(starts, uops)) == expected
    cut = len(trace) // 3
    pieces = _ShadowClassifier(entries, uops_per_entry)
    split = (pieces.classes(starts[:cut], uops[:cut])
             + pieces.classes(starts[cut:], uops[cut:]))
    assert list(split) == expected
    for shadow in (whole, pieces):
        assert (shadow._seen, list(shadow._fa.items()), shadow._used) == \
            (oracle._seen, list(oracle._fa.items()), oracle._used)

    runs = []
    for engine in ("run", "run_reference"):
        pipeline = FrontendPipeline(config, make_policy("lru"),
                                    classify_misses=True)
        stats = getattr(pipeline, engine)(trace, warmup=cut)
        shadow = pipeline._classifier
        runs.append((dataclasses.asdict(stats), shadow._seen,
                     list(shadow._fa.items()), shadow._used))
    assert runs[0] == runs[1]
    stats = runs[0][0]
    assert sum(stats["miss_breakdown"].values()) == stats["uops_missed"] > 0


def test_clear_memory_cache_releases_trace_memos():
    """Per-trace memo entries (kernel columns, future indexes) sit on
    the one memo holder, and the clear drops them even though this test
    still references the holder — no memory-resident leftovers."""
    _cold()
    trace = get_trace("kafka", n_lookups=1200)
    config = preset("zen3").with_uop_cache(entries=64, ways=4)
    FrontendPipeline(config, make_policy("lru")).run(trace)
    census = memo_census()
    assert census["traces"] == 1
    assert census["entries"] >= 1
    assert census["holder"] == ("kafka", "default", 1200)
    _cold()
    census = memo_census()
    assert (census["traces"], census["entries"]) == (0, 0)
    assert not trace._derived
