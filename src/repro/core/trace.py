"""Trace containers and (de)serialization.

A :class:`Trace` is the simulated analogue of an Intel PT recording
(STEP 1 of the FURBYS procedure, Figure 6): the dynamic sequence of
prediction-window lookups the frontend issues, plus enough metadata to
drive the timing and power models.

Two backing representations share the one façade:

* an **object list** of :class:`~repro.core.pw.PWLookup` (the reference
  representation every consumer was written against), and
* packed **columns** (:class:`TraceColumns`): five parallel stdlib
  ``array`` columns — starts, uops, insts, byte lengths and a flag
  bitmask — at ~21 bytes per lookup instead of ~10x that for a
  ``PWLookup`` object.  Aggregates (:meth:`Trace._totals`), the kernel
  column passes and the offline future index run single tight passes
  over the columns; the object list is materialized lazily only when a
  consumer (the reference simulation loop) actually indexes lookups.

Generation always emits columns; the object list survives as the
reference representation and as the output of the generator's
RNG-order oracle (``TraceGenerator._generate_reference``), which only
tests call.

Traces serialize to two interchangeable formats:

* **v1** — a line-oriented text format (diffs and compresses well),
  mirroring the artifact's ``datacenterTrace`` directory:

  .. code-block:: text

      #repro-trace v1
      #app=kafka input=default instructions=123456
      start uops insts bytes branch mispred
      40001000 6 5 24 1 0
      ...

* **v2** — a struct-packed little-endian binary format (the disk trace
  cache and shared-memory fan-out payload): a magic line, a JSON
  metadata block, then the five columns back to back.  See
  :meth:`Trace.dump_binary`.
"""

from __future__ import annotations

import io
import json
import struct
import sys
import weakref
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from ..errors import TraceError
from .pw import PWLookup

_HEADER = "#repro-trace v1"
#: First bytes of a v2 binary trace; kept newline-terminated and ASCII
#: so ``file``/``head`` on a trace file still identify it.
BINARY_MAGIC = b"#repro-trace v2\n"

#: Chunk size for streaming binary-trace reads and checksums (a
#: multiple of every column itemsize, so chunks split on item bounds).
_READ_CHUNK_BYTES = 8 << 20

#: Flag bits of the packed per-lookup bitmask column.
FLAG_TERMINATED = 1
FLAG_CONTAINS = 2
FLAG_MISPREDICTED = 4

# Column typecodes (u64 starts, u32 counts, u8 flags).  CPython
# guarantees these itemsizes on every supported platform; the assert
# turns an exotic-platform surprise into a loud import error instead of
# a silently incompatible binary format.
_START_CODE, _COUNT_CODE, _FLAG_CODE = "Q", "I", "B"
assert array(_START_CODE).itemsize == 8 and array(_COUNT_CODE).itemsize == 4
_LOOKUP_BYTES = 8 + 4 + 4 + 4 + 1


def callable_token(fn: Callable) -> Hashable:
    """A stable memo-key identity for a callable.

    Memo keys (:meth:`Trace.memo` callers) used
    to embed the function object itself, which pinned closures for the
    trace's lifetime and made equivalent references of one module-level
    function look distinct.  Instead:

    * module-level functions map to ``("fn", module, qualname)`` — a
      stable geometry identifier, so equivalent references share one
      cached pass and nothing is pinned;
    * bound methods are kept as-is (they compare by ``(self, func)``,
      and a weakref would die with the transient method object);
    * closures and lambdas become a :class:`weakref.ref` — same-object
      cache hits without extending the callable's lifetime.
    """
    if getattr(fn, "__self__", None) is not None:
        return fn
    if getattr(fn, "__closure__", None) is None:
        qualname = getattr(fn, "__qualname__", "<lambda>")
        module = getattr(fn, "__module__", None)
        if module and "<locals>" not in qualname and "<lambda>" not in qualname:
            return ("fn", module, qualname)
    try:
        return weakref.ref(fn)
    except TypeError:
        return fn


class TraceColumns:
    """Packed columnar backing store for a lookup sequence.

    Five parallel stdlib ``array`` columns; the flag column packs the
    three booleans of a :class:`PWLookup` into one byte
    (:data:`FLAG_TERMINATED` | :data:`FLAG_CONTAINS` |
    :data:`FLAG_MISPREDICTED`).  The trace generator appends into the
    columns directly; everything else reads them through the
    :class:`Trace` façade.
    """

    __slots__ = ("starts", "uops", "insts", "bytes_len", "flags")

    def __init__(
        self,
        starts: array | None = None,
        uops: array | None = None,
        insts: array | None = None,
        bytes_len: array | None = None,
        flags: array | None = None,
    ) -> None:
        self.starts = starts if starts is not None else array(_START_CODE)
        self.uops = uops if uops is not None else array(_COUNT_CODE)
        self.insts = insts if insts is not None else array(_COUNT_CODE)
        self.bytes_len = bytes_len if bytes_len is not None else array(_COUNT_CODE)
        self.flags = flags if flags is not None else array(_FLAG_CODE)
        n = len(self.starts)
        if not (
            len(self.uops) == len(self.insts)
            == len(self.bytes_len) == len(self.flags) == n
        ):
            raise TraceError("trace columns are not parallel")

    def __len__(self) -> int:
        return len(self.starts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceColumns):
            return NotImplemented
        return (
            self.starts == other.starts
            and self.uops == other.uops
            and self.insts == other.insts
            and self.bytes_len == other.bytes_len
            and self.flags == other.flags
        )

    @classmethod
    def from_lookups(cls, lookups: Sequence[PWLookup]) -> "TraceColumns":
        try:
            return cls(
                array(_START_CODE, (pw.start for pw in lookups)),
                array(_COUNT_CODE, (pw.uops for pw in lookups)),
                array(_COUNT_CODE, (pw.insts for pw in lookups)),
                array(_COUNT_CODE, (pw.bytes_len for pw in lookups)),
                array(_FLAG_CODE, (
                    (FLAG_TERMINATED if pw.terminated_by_branch else 0)
                    | (FLAG_CONTAINS if pw.contains_branch else 0)
                    | (FLAG_MISPREDICTED if pw.mispredicted else 0)
                    for pw in lookups
                )),
            )
        except OverflowError as exc:
            raise TraceError(f"lookup field out of column range: {exc}") from exc

    def materialize(self) -> list[PWLookup]:
        """The equivalent :class:`PWLookup` list (validates every row)."""
        return [
            PWLookup(
                start=start,
                uops=uops,
                insts=insts,
                bytes_len=bytes_len,
                terminated_by_branch=bool(flag & FLAG_TERMINATED),
                contains_branch=bool(flag & FLAG_CONTAINS),
                mispredicted=bool(flag & FLAG_MISPREDICTED),
            )
            for start, uops, insts, bytes_len, flag in zip(
                self.starts, self.uops, self.insts, self.bytes_len, self.flags
            )
        ]

    def totals(self) -> tuple[int, int, int, int]:
        """``(uops, insts, branches, mispredictions)`` in one pass."""
        flag_bytes = self.flags.tobytes()
        branches = mispredictions = 0
        # Flags only take 8 values; per-value C-level byte counts beat a
        # Python loop over the column by two orders of magnitude.
        for value in range(8):
            count = flag_bytes.count(value)
            if count:
                if value & FLAG_TERMINATED:
                    branches += count
                if value & FLAG_MISPREDICTED:
                    mispredictions += count
        return sum(self.uops), sum(self.insts), branches, mispredictions

    def slice(self, start: int, stop: int | None = None) -> "TraceColumns":
        return TraceColumns(
            self.starts[start:stop], self.uops[start:stop],
            self.insts[start:stop], self.bytes_len[start:stop],
            self.flags[start:stop],
        )

    # --- binary payload ------------------------------------------------------

    @staticmethod
    def payload_size(n: int) -> int:
        """Exact byte size of the packed payload for ``n`` lookups."""
        return _LOOKUP_BYTES * n

    def to_payload(self) -> bytes:
        """The five columns back to back, little-endian."""
        columns = (self.starts, self.uops, self.insts, self.bytes_len, self.flags)
        if sys.byteorder == "big":  # pragma: no cover - exotic platform
            swapped = []
            for column in columns:
                column = array(column.typecode, column)
                column.byteswap()
                swapped.append(column)
            columns = tuple(swapped)
        return b"".join(column.tobytes() for column in columns)

    @classmethod
    def from_payload(cls, buffer, n: int) -> "TraceColumns":
        """Rebuild columns from a :meth:`to_payload` byte block.

        Accepts any buffer (bytes, memoryview, shared-memory view); the
        column data is copied out, so the source buffer can be released
        immediately afterwards.
        """
        view = memoryview(buffer)
        if len(view) != cls.payload_size(n):
            raise TraceError(
                f"binary trace payload is {len(view)} bytes, expected "
                f"{cls.payload_size(n)} for {n} lookups"
            )
        columns = []
        offset = 0
        for code in (_START_CODE, _COUNT_CODE, _COUNT_CODE, _COUNT_CODE,
                     _FLAG_CODE):
            column = array(code)
            size = column.itemsize * n
            column.frombytes(view[offset:offset + size])
            if sys.byteorder == "big":  # pragma: no cover - exotic platform
                column.byteswap()
            offset += size
            columns.append(column)
        return cls(*columns)


#: Every constructed trace, weakly held — the census below never pins
#: one.  Keyed by id() because Trace is equality-comparable (unhashable);
#: a dead entry's reused id simply overwrites the vacated slot.
_live_traces: "weakref.WeakValueDictionary[int, Trace]" = \
    weakref.WeakValueDictionary()


#: Cumulative count of memo entries evicted via :func:`drop_simd_memos`.
_memo_evictions = 0


def drop_simd_memos() -> int:
    """Evict every live trace's simd column-pass memos; returns count.

    The packed kernel columns are by far the largest per-trace memo
    (tens of MB per (trace, geometry) pair at figure scale), and they
    key on tuples starting with ``"simd"``.  The registry LRU holds
    traces alive across :func:`repro.workloads.registry.clear_trace_cache`
    callers that still pin a trace reference, so a cache clear must
    drop the memos directly rather than rely on the traces dying.
    """
    global _memo_evictions
    dropped = 0
    for trace in list(_live_traces.values()):
        stale = [key for key in trace._derived
                 if isinstance(key, tuple) and key and key[0] == "simd"]
        for key in stale:
            del trace._derived[key]
        dropped += len(stale)
    _memo_evictions += dropped
    return dropped


def memo_census() -> dict[str, int]:
    """Memory-resident per-trace memo entries, across all live traces.

    Memoized derived data (:meth:`Trace.memo` artifacts such as the
    columnar future index and the simd kernel columns)
    lives only in each trace's
    ``_derived`` dict, so it is released exactly when the trace itself
    is.  After :func:`repro.harness.runner.clear_memory_cache` drops the
    registry LRU (and ``gc.collect()`` clears any cycles), the census
    returns to zero unless a caller still pins a trace — the regression
    check for memo leaks.
    """
    traces = entries = 0
    for trace in list(_live_traces.values()):
        held = len(trace._derived)
        if held:
            traces += 1
            entries += held
    return {"traces": traces, "entries": entries,
            "evicted": _memo_evictions}


@dataclass(frozen=True, slots=True)
class TraceMetadata:
    """Provenance of a trace: which app, which input, how it was made."""

    app: str = "unknown"
    input_name: str = "default"
    seed: int = 0
    description: str = ""


class Trace:
    """A dynamic PW lookup sequence with provenance metadata.

    Backed by either a ``PWLookup`` list or packed columns (see the
    module docstring); ``lookups`` materializes the object list lazily
    from columns, and ``columns`` packs the object list lazily on first
    (de)serialization or fan-out use.  Derived aggregates
    (``total_uops`` & friends) and :meth:`memo` artifacts are memoized
    in ``_derived``, keyed by the
    lookup-sequence length so appends invalidate them automatically.
    Callers that mutate ``lookups`` *in place without changing its
    length* must call :meth:`invalidate_derived`.
    """

    __slots__ = ("metadata", "_lookups", "_columns", "_derived", "__weakref__")

    def __init__(
        self,
        lookups: list[PWLookup] | None = None,
        metadata: TraceMetadata | None = None,
        *,
        columns: TraceColumns | None = None,
    ) -> None:
        if lookups is not None and columns is not None:
            raise TraceError("construct a Trace from lookups or columns, not both")
        if lookups is None and columns is None:
            lookups = []
        self._lookups = lookups
        self._columns = columns
        self.metadata = metadata if metadata is not None else TraceMetadata()
        self._derived: dict = {}
        _live_traces[id(self)] = self

    @property
    def lookups(self) -> list[PWLookup]:
        lookups = self._lookups
        if lookups is None:
            lookups = self._lookups = self._columns.materialize()
        return lookups

    @property
    def columns(self) -> TraceColumns:
        """The packed columns, (re)built when absent or stale.

        The length guard mirrors ``_derived``: columns packed before an
        append are rebuilt from the grown object list.
        """
        columns = self._columns
        lookups = self._lookups
        if columns is None or (lookups is not None and len(lookups) != len(columns)):
            columns = self._columns = TraceColumns.from_lookups(self.lookups)
        return columns

    def has_columns(self) -> bool:
        """Whether current packed columns exist (no repack needed)."""
        columns = self._columns
        return columns is not None and (
            self._lookups is None or len(self._lookups) == len(columns)
        )

    def __len__(self) -> int:
        lookups = self._lookups
        return len(lookups) if lookups is not None else len(self._columns)

    def __iter__(self) -> Iterator[PWLookup]:
        return iter(self.lookups)

    def __getitem__(self, index: int) -> PWLookup:
        return self.lookups[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.metadata == other.metadata and self.lookups == other.lookups

    def __repr__(self) -> str:
        meta = self.metadata
        backing = "columnar" if self.has_columns() else "objects"
        return (
            f"Trace(app={meta.app!r}, input={meta.input_name!r}, "
            f"lookups={len(self)}, backing={backing})"
        )

    # Keep pickles (process-pool workers, disk snapshots) free of the
    # derived caches: memo keys may hold unpicklable weakrefs.
    # Column-backed traces ship their packed arrays (compact and cheap
    # to unpickle) instead of 45k PWLookup objects.
    def __getstate__(self):
        if self._lookups is None:
            c = self._columns
            return ("cols", self.metadata,
                    (c.starts, c.uops, c.insts, c.bytes_len, c.flags))
        return (self._lookups, self.metadata)

    def __setstate__(self, state) -> None:
        self._derived = {}
        _live_traces[id(self)] = self
        if len(state) == 3 and state[0] == "cols":
            _, self.metadata, columns = state
            self._columns = TraceColumns(*columns)
            self._lookups = None
        else:
            self._lookups, self.metadata = state
            self._columns = None

    # --- derived properties -------------------------------------------------

    def invalidate_derived(self) -> None:
        """Drop memoized aggregates after in-place lookup mutation."""
        self._derived.clear()
        if self._lookups is not None:
            # Packed columns no longer match the mutated objects.
            self._columns = None

    def memo(self, key: Hashable, build: Callable[[], object]):
        """Memoize ``build()`` on this trace, invalidated by appends.

        Entries are stored as ``(len(lookups), value)``, so growing
        the trace drops them automatically.  Offline policies use this to share
        per-trace artifacts (future indices, interval decompositions)
        across policy instances.  Callers embedding callables in ``key``
        should wrap them with :func:`callable_token` so closures are not
        pinned for the trace's lifetime.
        """
        n = len(self)
        cached = self._derived.get(key)
        if cached is not None and cached[0] == n:
            return cached[1]
        value = build()
        self._derived[key] = (n, value)
        return value

    def _totals(self) -> tuple[int, int, int, int]:
        n = len(self)
        cached = self._derived.get("totals")
        if cached is not None and cached[0] == n:
            return cached[1]
        if self._lookups is None:
            totals = self._columns.totals()
        else:
            uops = insts = branches = mispredictions = 0
            for pw in self._lookups:
                uops += pw.uops
                insts += pw.insts
                if pw.terminated_by_branch:
                    branches += 1
                if pw.mispredicted:
                    mispredictions += 1
            totals = (uops, insts, branches, mispredictions)
        self._derived["totals"] = (n, totals)
        return totals

    @property
    def total_uops(self) -> int:
        return self._totals()[0]

    @property
    def total_instructions(self) -> int:
        return self._totals()[1]

    @property
    def total_branches(self) -> int:
        return self._totals()[2]

    @property
    def total_mispredictions(self) -> int:
        return self._totals()[3]

    @property
    def branch_mpki(self) -> float:
        """Branches per kilo-instruction — comparable to Table II."""
        _, insts, branches, _ = self._totals()
        if insts == 0:
            return 0.0
        return 1000.0 * branches / insts

    def unique_starts(self) -> set[int]:
        """Distinct PW start addresses (static code footprint in PWs)."""
        if self.has_columns():
            return set(self._columns.starts)
        return {pw.start for pw in self.lookups}

    def slice(self, start: int, stop: int | None = None) -> "Trace":
        """A sub-trace sharing metadata (useful for warmup splits)."""
        if self._lookups is None:
            return Trace(
                columns=self._columns.slice(start, stop), metadata=self.metadata
            )
        return Trace(self.lookups[start:stop], self.metadata)

    # --- serialization -------------------------------------------------------

    def dump(self, stream: io.TextIOBase) -> None:
        """Write the trace in the v1 text format."""
        meta = self.metadata
        stream.write(f"{_HEADER}\n")
        stream.write(
            f"#app={meta.app} input={meta.input_name} seed={meta.seed}\n"
        )
        stream.write("start uops insts bytes branch contbr mispred\n")
        for pw in self.lookups:
            stream.write(
                f"{pw.start:x} {pw.uops} {pw.insts} {pw.bytes_len} "
                f"{int(pw.terminated_by_branch)} {int(pw.contains_branch)} "
                f"{int(pw.mispredicted)}\n"
            )

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            self.dump(handle)

    @classmethod
    def parse(cls, stream: Iterable[str]) -> "Trace":
        """Read a trace in the v1 text format."""
        lines = iter(stream)
        try:
            header = next(lines).rstrip("\n")
        except StopIteration:
            raise TraceError("empty trace stream") from None
        if header != _HEADER:
            raise TraceError(f"bad trace header: {header!r}")
        meta = TraceMetadata()
        try:
            meta_line = next(lines).rstrip("\n")
        except StopIteration:
            raise TraceError("trace truncated before metadata") from None
        if meta_line.startswith("#"):
            fields = dict(
                part.split("=", 1)
                for part in meta_line.lstrip("#").split()
                if "=" in part
            )
            meta = TraceMetadata(
                app=fields.get("app", "unknown"),
                input_name=fields.get("input", "default"),
                seed=int(fields.get("seed", "0")),
            )
            try:
                next(lines)  # column header line
            except StopIteration:
                raise TraceError("trace truncated before column header") from None
        lookups: list[PWLookup] = []
        for lineno, line in enumerate(lines, start=4):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (6, 7):
                raise TraceError(f"line {lineno}: expected 6-7 fields, got {len(parts)}")
            try:
                terminated = bool(int(parts[4]))
                if len(parts) == 7:
                    contains = bool(int(parts[5]))
                    mispredicted = bool(int(parts[6]))
                else:  # legacy 6-field rows: infer from termination
                    contains = terminated
                    mispredicted = bool(int(parts[5]))
                lookups.append(
                    PWLookup(
                        start=int(parts[0], 16),
                        uops=int(parts[1]),
                        insts=int(parts[2]),
                        bytes_len=int(parts[3]),
                        terminated_by_branch=terminated,
                        contains_branch=contains,
                        mispredicted=mispredicted,
                    )
                )
            except ValueError as exc:
                raise TraceError(f"line {lineno}: {exc}") from exc
        return cls(lookups, meta)

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.parse(handle)

    # --- v2 binary serialization ---------------------------------------------

    def dump_binary(self, stream) -> None:
        """Write the trace in the v2 binary format.

        Layout (all integers little-endian)::

            #repro-trace v2\\n          magic line (16 bytes)
            u32 meta_len | u64 n       fixed header
            meta_len bytes             metadata as UTF-8 JSON
            8n | 4n | 4n | 4n | n      starts, uops, insts, bytes, flags
        """
        meta = self.metadata
        meta_json = json.dumps({
            "app": meta.app, "input": meta.input_name,
            "seed": meta.seed, "description": meta.description,
        }).encode("utf-8")
        columns = self.columns
        stream.write(BINARY_MAGIC)
        stream.write(struct.pack("<IQ", len(meta_json), len(columns)))
        stream.write(meta_json)
        for column in (columns.starts, columns.uops, columns.insts,
                       columns.bytes_len, columns.flags):
            if sys.byteorder == "big":  # pragma: no cover - exotic platform
                column = array(column.typecode, column)
                column.byteswap()
            # Column by column, chunk by chunk: never one payload-sized
            # bytes object in memory (see parse_binary).
            step = _READ_CHUNK_BYTES // column.itemsize
            for i in range(0, len(column), step):
                stream.write(column[i:i + step].tobytes())

    def save_binary(self, path: str | Path) -> None:
        with open(path, "wb") as handle:
            self.dump_binary(handle)

    @classmethod
    def parse_binary(cls, stream) -> "Trace":
        """Read a trace in the v2 binary format (see :meth:`dump_binary`).

        Truncated or corrupt streams raise :class:`TraceError`; per-row
        validity (positive uops/insts/bytes) is checked lazily when the
        lookups materialize, as for in-memory columnar traces.
        """

        def read_exact(size: int, what: str) -> bytes:
            data = stream.read(size)
            if len(data) != size:
                raise TraceError(f"binary trace truncated in {what}")
            return data

        magic = stream.read(len(BINARY_MAGIC))
        if magic != BINARY_MAGIC:
            raise TraceError(f"bad binary trace magic: {magic[:16]!r}")
        meta_len, n = struct.unpack("<IQ", read_exact(12, "header"))
        if n > 2**48:
            raise TraceError(f"implausible binary trace length {n}")
        try:
            fields = json.loads(read_exact(meta_len, "metadata"))
            if not isinstance(fields, dict):
                raise ValueError("metadata is not an object")
            meta = TraceMetadata(
                app=str(fields.get("app", "unknown")),
                input_name=str(fields.get("input", "default")),
                seed=int(fields.get("seed", 0)),
                description=str(fields.get("description", "")),
            )
        except ValueError as exc:
            raise TraceError(f"corrupt binary trace metadata: {exc}") from exc
        def read_column(code: str, what: str) -> array:
            # Stream each column in bounded chunks instead of one
            # payload-sized read: a 10M-lookup trace is a 210MB payload,
            # and the monolithic read would hold it alongside the column
            # copies.  Peak transient memory here is one chunk.
            column = array(code)
            remaining = column.itemsize * n
            pending = b""
            while remaining:
                data = stream.read(min(remaining, _READ_CHUNK_BYTES))
                if not data:
                    raise TraceError(f"binary trace truncated in {what}")
                remaining -= len(data)
                if pending:
                    data, pending = pending + data, b""
                cut = len(data) - len(data) % column.itemsize
                column.frombytes(data[:cut])
                pending = data[cut:]
            if pending:  # pragma: no cover - only a misbehaving stream
                raise TraceError(f"binary trace truncated in {what}")
            if sys.byteorder == "big":  # pragma: no cover - exotic platform
                column.byteswap()
            return column

        columns = TraceColumns(
            read_column(_START_CODE, "starts"),
            read_column(_COUNT_CODE, "uops"),
            read_column(_COUNT_CODE, "insts"),
            read_column(_COUNT_CODE, "bytes_len"),
            read_column(_FLAG_CODE, "flags"),
        )
        if stream.read(1):
            raise TraceError("binary trace has trailing bytes")
        return cls(columns=columns, metadata=meta)

    @classmethod
    def load_binary(cls, path: str | Path) -> "Trace":
        with open(path, "rb") as handle:
            return cls.parse_binary(handle)

    @classmethod
    def load_any(cls, path: str | Path) -> "Trace":
        """Load a trace file in either format, sniffing the magic line."""
        with open(path, "rb") as handle:
            magic = handle.read(len(BINARY_MAGIC))
        if magic == BINARY_MAGIC:
            return cls.load_binary(path)
        return cls.load(path)

    @classmethod
    def from_lookups(
        cls, lookups: Sequence[PWLookup], app: str = "synthetic"
    ) -> "Trace":
        """Convenience constructor used heavily by tests."""
        return cls(list(lookups), TraceMetadata(app=app))
