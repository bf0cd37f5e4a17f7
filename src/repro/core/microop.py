"""Micro-op record.

The simulator mostly works at prediction-window granularity for speed,
but a :class:`MicroOp` record exists so examples and tests can reason
about the contents of a window (e.g. when modelling partial hits, hint
injection into branch micro-ops, or entry packing).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class UopKind(Enum):
    """Coarse micro-op categories relevant to the frontend model."""

    ALU = "alu"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    NOP = "nop"


@dataclass(frozen=True, slots=True)
class MicroOp:
    """A single decoded micro-operation.

    ``pc`` is the address of the parent x86 instruction; several
    micro-ops may share one ``pc`` (complex instructions crack into
    multiple micro-ops).
    """

    pc: int
    kind: UopKind = UopKind.ALU
    #: True for the last micro-op of its parent instruction.
    ends_instruction: bool = True
