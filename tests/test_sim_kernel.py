"""Bit-identity and memory guards for the vectorized simulation kernel.

Two layers:

* **Property sweep** — randomized cache geometries (sets x ways), all
  kernel-eligible policies, trace lengths 1k / 20k / 100k: the
  :mod:`repro.frontend.simd` kernel must reproduce
  :meth:`FrontendPipeline.run_reference` stats *and* end-of-run policy
  state field-by-field.
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
from repro.frontend.pipeline import FrontendPipeline
from repro.harness.runner import clear_memory_cache
from repro.policies import make_policy
from repro.workloads.registry import clear_trace_cache, get_trace

POLICIES = ("lru", "srrip", "random", "ghrp")

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
    """End-of-run policy internals, repr'd for exact comparison."""
    state = {
        attr: repr(getattr(policy, attr, None))
        for attr in ("_last_use", "_rrpv_map", "_sig", "_reused",
                     "_bypassed", "_tables", "_history", "_clock")
    }
    rng = getattr(policy, "_rng", None)
    if rng is not None:
        state["_rng"] = repr(rng.getstate())
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
