"""Belady optimality cross-check against exhaustive search.

On tiny single-set caches with uniform-size/uniform-cost PWs, Belady's
MIN (with insertion-time bypass) is provably optimal; this test
enumerates *every* keep/evict schedule on short traces and verifies the
replayed Belady policy matches the exhaustive optimum — the ground
truth anchor for the whole offline stack.
"""

from dataclasses import replace

from repro.config import zen3_config
from repro.core.trace import Trace
from repro.frontend.pipeline import FrontendPipeline
from repro.offline.belady import BeladyPolicy

from .conftest import pw


def exhaustive_min_misses(starts: list[int], ways: int) -> int:
    """Brute force: minimum misses for unit-size PWs, capacity ``ways``.

    State: frozenset of resident starts.  On a miss, try every
    possibility (bypass, or evict any resident / use free space).
    """
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def best(index: int, resident: frozenset) -> int:
        if index == len(starts):
            return 0
        start = starts[index]
        if start in resident:
            return best(index + 1, resident)
        miss = 1
        options = [best(index + 1, resident)]  # bypass
        if len(resident) < ways:
            options.append(best(index + 1, resident | {start}))
        else:
            for victim in resident:
                options.append(
                    best(index + 1, (resident - {victim}) | {start})
                )
        return miss + min(options)

    return best(0, frozenset())


def belady_misses(starts: list[int], ways: int) -> int:
    trace = Trace([pw(s * 0x40 + 0x1000, uops=8) for s in starts])
    config = replace(
        zen3_config().with_uop_cache(
            entries=ways, ways=ways, insertion_delay=0
        ),
        perfect_icache=True,
    )
    pipeline = FrontendPipeline(config, BeladyPolicy(trace),
                                set_index=lambda s, n: 0)
    stats = pipeline.run(trace)
    return stats.pw_misses


class TestBeladyOptimality:
    def test_matches_bruteforce_on_fixed_patterns(self):
        patterns = [
            [1, 2, 3, 1, 2, 3],                    # fits? ways=2: thrash
            [1, 2, 1, 3, 1, 2, 1, 3, 1],            # favour pinning 1
            [1, 2, 3, 4, 1, 2, 3, 4],               # pure cycle
            [1, 1, 2, 2, 3, 3, 1, 1],
            [1, 2, 3, 2, 1, 4, 1, 2, 3, 4, 2, 1],
        ]
        for starts in patterns:
            assert belady_misses(starts, ways=2) == exhaustive_min_misses(
                tuple(starts), 2
            ), starts

    def test_matches_bruteforce_on_random_patterns(self):
        import random
        rng = random.Random(12)
        for trial in range(8):
            starts = [rng.randrange(5) for _ in range(12)]
            assert belady_misses(starts, ways=2) == exhaustive_min_misses(
                tuple(starts), 2
            ), (trial, starts)

    def test_three_way_cache(self):
        import random
        rng = random.Random(5)
        for _ in range(5):
            starts = [rng.randrange(6) for _ in range(10)]
            assert belady_misses(starts, ways=3) == exhaustive_min_misses(
                tuple(starts), 3
            ), starts
