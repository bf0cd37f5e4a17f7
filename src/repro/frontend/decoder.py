"""Legacy decode pipeline model.

The x86 legacy path fetches variable-length instructions from the
icache and cracks them into micro-ops through a deep (5-cycle), 4-wide
decoder (Table I).  For this reproduction the decoder's roles are:

* activity accounting — decoded micro-ops and active cycles drive the
  decoder's share of core power (the decoder is clock-gated while the
  micro-op cache serves the frontend, which is where the energy win
  comes from, Section II-A);
* latency accounting — the pipeline-depth delay between a micro-op
  cache miss and the availability (and insertion) of the decoded PW,
  which creates the asynchronous lookup/insertion window.
"""

from __future__ import annotations

import math

from ..config import CoreConfig


class LegacyDecoder:
    """Counts decode work; computes decode episode latencies."""

    def __init__(self, config: CoreConfig) -> None:
        self.config = config
        self.uops_decoded = 0
        self.insts_decoded = 0
        self.episodes = 0
        self.active_cycles = 0

    def decode(self, insts: int, uops: int) -> int:
        """Decode one PW's worth of instructions.

        Returns the number of cycles the episode occupies the decoder
        (throughput-limited by the decode width); the pipeline-fill
        latency is accounted separately by the caller when the episode
        follows a path switch.
        """
        self.episodes += 1
        self.insts_decoded += insts
        self.uops_decoded += uops
        cycles = max(1, math.ceil(insts / self.config.decode_width))
        self.active_cycles += cycles
        return cycles
