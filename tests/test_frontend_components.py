"""Tests for the frontend substrate components (icache, BTB, decoder,
accumulator)."""

from repro.config import BranchPredictorConfig, CoreConfig, ICacheConfig
from repro.frontend.accumulator import Accumulator
from repro.frontend.branch import BranchTargetBuffer
from repro.frontend.decoder import LegacyDecoder
from repro.frontend.icache import InstructionCache

from .conftest import pw


class TestInstructionCache:
    def _tiny(self):
        # 2 sets x 2 ways of 64B lines.
        return InstructionCache(ICacheConfig(size_bytes=256, ways=2))

    def test_miss_then_hit(self):
        icache = self._tiny()
        assert icache.access_line(0x1000) is None  # cold fill
        assert icache.misses == 1
        icache.access_line(0x1000)
        assert icache.misses == 1
        assert icache.accesses == 2

    def test_eviction_returns_victim_address(self):
        icache = self._tiny()
        # Lines 0x0, 0x100, 0x200 all map to set 0 (line % 2 == 0).
        icache.access_line(0x000)
        icache.access_line(0x100)
        victim = icache.access_line(0x200)
        assert victim == 0x000

    def test_lru_refresh_protects_line(self):
        icache = self._tiny()
        icache.access_line(0x000)
        icache.access_line(0x100)
        icache.access_line(0x000)  # refresh
        victim = icache.access_line(0x200)
        assert victim == 0x100

    def test_access_range_touches_every_line(self):
        icache = self._tiny()
        icache.access_range(0x1000, 0x1000 + 130)
        assert icache.accesses == 3  # 130 bytes -> 3 lines

    def test_contains(self):
        icache = self._tiny()
        icache.access_line(0x40)
        assert icache.contains(0x40)
        assert not icache.contains(0x80)

    def test_miss_rate(self):
        icache = self._tiny()
        assert icache.miss_rate == 0.0
        icache.access_line(0x0)
        assert icache.miss_rate == 1.0


class TestBranchTargetBuffer:
    def test_miss_allocates(self):
        btb = BranchTargetBuffer(BranchPredictorConfig(btb_entries=8, btb_ways=2))
        assert not btb.access(0x1234)
        assert btb.access(0x1234)
        assert btb.miss_rate == 0.5

    def test_capacity_eviction(self):
        btb = BranchTargetBuffer(BranchPredictorConfig(btb_entries=4, btb_ways=2))
        pcs = [0x10, 0x10 + (2 << 2) * 1, 0x10 + (2 << 2) * 2]  # same set
        for pc in pcs:
            btb.access(pc)
        assert not btb.access(pcs[0])  # evicted by the third fill


class TestLegacyDecoder:
    def test_throughput_cycles(self):
        decoder = LegacyDecoder(CoreConfig(decode_width=4))
        assert decoder.decode(insts=8, uops=10) == 2
        assert decoder.decode(insts=1, uops=1) == 1
        assert decoder.uops_decoded == 11
        assert decoder.episodes == 2


class TestAccumulator:
    def test_hint_attached_to_branchful_pw(self):
        accumulator = Accumulator({0x1000: 5})
        request = accumulator.accumulate(pw(0x1000), now=3, delay=5)
        assert request.weight == 5
        assert request.due == 8

    def test_no_hint_for_branchless_fragment(self):
        accumulator = Accumulator({0x1000: 5})
        fragment = pw(0x1000, branch=False, contains_branch=False)
        request = accumulator.accumulate(fragment, now=0, delay=5)
        assert request.weight is None

    def test_unknown_start_gets_none(self):
        accumulator = Accumulator({0x1000: 5})
        assert accumulator.accumulate(pw(0x2000), 0, 1).weight is None

    def test_counts_accumulations(self):
        accumulator = Accumulator()
        accumulator.accumulate(pw(0x1), 0, 1)
        accumulator.accumulate(pw(0x2), 1, 1)
        assert accumulator.accumulated == 2
        assert not accumulator.has_hints()
