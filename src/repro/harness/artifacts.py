"""The artifact store: every cached result and artifact of the harness.

A FLACK profiling replay feeds the FURBYS hint widths and weight
scopes, Thermometer and the cross-input merges, and most figures share
their baseline runs, so the harness caches four kinds of artifact,
named by :data:`KINDS` (the same names as
:data:`repro.faultinject.ARTIFACT_KINDS`).  This module is storage
only: keys, the probe and publish paths, the census and gc, and trace
I/O; the runner builds the payloads and values it stores.

* ``stats`` — one simulation's result; the payload is the
  :meth:`~repro.harness.runner.RunRequest.cache_key` of the request's
  canonical form (:meth:`~repro.harness.runner.RunRequest.canonical`);
* ``hitstats`` — the per-PW hit stats of one profiling replay, keyed
  by the replay request's cache key and :data:`LAYOUTS` (the runner
  knows what a replay is, see :mod:`repro.harness.runner`), as the
  ascending-start columns ``starts`` (uint64)/``hits``/``totals`` of a
  :class:`~repro.profiling.hitrate.HitStats`;
* ``profile`` — one training input's FURBYS hint map, keyed by its
  replay's cache key, the hint width and weight scope and
  :data:`LAYOUTS`, as the columns ``starts`` (uint64)/``groups`` of a
  :class:`~repro.profiling.hints.HintColumns`;
* ``trace`` — a generated workload trace in the v2 binary format.

:func:`key` is the one function that derives a store key.  The key is
``<kind>-<digest>``, which is also the file name under ``.repro-cache/``
(``REPRO_CACHE_DIR`` moves it, ``REPRO_CACHE=0`` disables the disk
layer).  Its digest mixes in :data:`MODEL_VERSION`, so a version bump
turns every stored result into a miss; traces carry
:data:`~repro.workloads.generator.GENERATOR_VERSION` in their payload
instead.

The JSON kinds share one in-memory dict and one probe, :func:`fetch`:
memory, then the validated disk read, then compute; a computed value
is published to memory and written to disk atomically (a per-process
tmp file plus :func:`os.replace`, so parallel writers sharing the
directory never expose a truncated entry).  Each kind supplies only its
encode and decode.  Traces keep their streaming binary load/store, and
their in-memory layer is the bounded LRU in
:mod:`repro.workloads.registry`.

Every artifact is integrity-checked on load: JSON entries embed a
``sha256`` over their canonical payload, binary traces get a
``*.sha256`` sidecar over the file bytes.  A corrupt, truncated,
checksum-failing or undecodable entry is **quarantined** — renamed to
``*.corrupt`` for post-mortem instead of silently deleted — via an
internal :class:`~repro.errors.ArtifactError`, counted in the
resilience fallback counters, and treated as a miss so the artifact is
recomputed.  Failed disk writes are likewise counted (``disk_write``)
rather than silently swallowed.  :mod:`repro.faultinject` hooks the
load paths so the chaos suite can corrupt a named artifact kind on
demand.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Callable

from .. import faultinject
from ..errors import ArtifactError
from ..workloads.registry import trace_cache_stats
from . import resilience

#: Bump by hand whenever a change alters what a simulation or a
#: profiling replay computes: every stats, hitstats and profile entry
#: stored under the old value becomes a miss, in memory and on disk.
#: ``tests/fixtures/model_version.json`` pairs it with the sha256 of
#: ``tests/fixtures/golden_stats.json``, and a test fails when that
#: fixture changes while this value does not.
MODEL_VERSION = "1"

KINDS = ("stats", "hitstats", "profile", "trace")

#: The identity and column layout tag each reshaped kind appends to its
#: key payload, so an entry of another identity or layout is never probed
#: (and is stale).  Both kinds are keyed by their replay's cache key.
LAYOUTS = {"hitstats": "replay:starts/hits/totals",
           "profile": "replay:starts/groups"}

#: store key -> value, for every JSON kind.
_memory: dict[str, object] = {}


def key(kind: str, payload: object) -> str:
    """The store key of a ``kind`` artifact: ``<kind>-<digest>``."""
    mixed = [kind, payload] if kind == "trace" else [kind, MODEL_VERSION, payload]
    digest = hashlib.sha256(json.dumps(mixed, sort_keys=True).encode())
    return f"{kind}-{digest.hexdigest()[:24]}"


def clear_memory() -> None:
    """Drop every in-memory entry (the disk layer is untouched)."""
    _memory.clear()


def _cache_root() -> Path | None:
    """Where the on-disk cache lives; ``None`` when disabled."""
    if os.environ.get("REPRO_CACHE", "1") == "0":
        return None
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))


def _disk_cache_dir() -> Path | None:
    """Root of the on-disk cache; ``None`` when disabled or unwritable."""
    root = _cache_root()
    if root is None:
        return None
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    return root


def _path(store_key: str, suffix: str = ".json") -> Path | None:
    disk = _disk_cache_dir()
    return None if disk is None else disk / f"{store_key}{suffix}"


def _canonical_json(payload: dict) -> str:
    """Sorted-key JSON of a payload, excluding the checksum field."""
    return json.dumps(
        {k: v for k, v in payload.items() if k != "sha256"}, sort_keys=True
    )


def quarantine(path: Path, reason: str) -> ArtifactError:
    """Set a corrupt artifact aside (``*.corrupt``) and account for it.

    Returns the :class:`~repro.errors.ArtifactError` describing the
    event so load paths can ``raise quarantine(...)`` and probe paths
    can swallow it as a counted cache miss.  The file is renamed, never
    deleted, so a corruption bug leaves evidence behind.
    """
    target = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, target)
    except OSError:
        path_note = f"{path} (rename to {target.name} failed)"
    else:
        path_note = f"{path} (quarantined as {target.name})"
    resilience.note_fallback("corrupt_artifact")
    return ArtifactError(f"corrupt artifact at {path_note}: {reason}")


def load_validated_json(path: Path, kind: str) -> dict:
    """Read and integrity-check one JSON artifact.

    Raises :class:`~repro.errors.ArtifactError` (after quarantining the
    file) for unreadable, unparseable or checksum-failing entries.
    Entries written before checksums carry no ``sha256`` field; rather
    than accepting them unverified forever, they are upgraded in place
    — rewritten atomically with an embedded checksum (counted as
    ``note:cache_upgraded``) so integrity checking applies from the
    next read onward.
    """
    faultinject.maybe_corrupt_artifact(path, kind)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ArtifactError(f"unreadable {kind} artifact {path}: {exc}") from exc
    try:
        # UnicodeDecodeError is a ValueError: garbage bytes quarantine too.
        payload = json.loads(data.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("payload is not a JSON object")
    except ValueError as exc:
        raise quarantine(path, f"invalid JSON ({exc})") from exc
    expected = payload.get("sha256")
    checksum = hashlib.sha256(_canonical_json(payload).encode()).hexdigest()
    if expected is None:
        _store_json(path, payload)
        resilience.note_fallback("note:cache_upgraded")
    elif checksum != expected:
        raise quarantine(path, f"{kind} checksum mismatch")
    return payload


def probe_json(path: Path, kind: str) -> dict | None:
    """Validated read of a cache entry; corrupt entries become misses."""
    try:
        return load_validated_json(path, kind)
    except ArtifactError:
        return None


def _store_json(path: Path, payload: dict) -> None:
    """Write ``payload`` with its checksum, encoding it only once.

    The canonical text the checksum covers is also the file body: the
    ``"sha256"`` field is spliced in before its closing brace, and
    readers re-derive the canonical form after parsing.
    """
    canonical = _canonical_json(payload)
    field = f'"sha256": "{hashlib.sha256(canonical.encode()).hexdigest()}"'
    body = canonical[1:-1]
    text = "{" + (f"{body}, " if body else "") + field + "}"
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError:
        resilience.note_fallback("disk_write")
        tmp.unlink(missing_ok=True)


def lookup(store_key: str, decode: Callable) -> tuple[object, str | None]:
    """Probe memory, then disk: ``(value, "memory" | "disk")`` or
    ``(None, None)`` on a miss.

    A disk hit is promoted into memory.  A corrupt entry, or one that
    does not decode, is quarantined and is a miss.
    """
    if store_key in _memory:
        return _memory[store_key], "memory"
    path = _path(store_key)
    if path is None or not path.exists():
        return None, None
    kind = store_key.partition("-")[0]
    raw = probe_json(path, kind)
    if raw is None:
        return None, None
    try:
        value = decode(raw)
    except (ValueError, KeyError, TypeError) as exc:
        quarantine(path, f"undecodable {kind} payload ({exc})")
        return None, None
    _memory[store_key] = value
    return value, "disk"


def publish(store_key: str, value: object, encode: Callable | None = None):
    """Hold ``value`` in memory and, given ``encode``, write it to disk."""
    _memory[store_key] = value
    path = _path(store_key) if encode is not None else None
    if path is not None:
        _store_json(path, encode(value))


def fetch(store_key: str, compute: Callable, encode: Callable, decode: Callable):
    """The value under ``store_key``: from memory, from disk, or computed
    and then published to both."""
    value, _ = lookup(store_key, decode)
    if value is None:
        value = compute()
        publish(store_key, value, encode)
    return value


#: A pre-store result file, ``<RunRequest.cache_key()>.json``.
_LEGACY_RESULT = re.compile(r"[0-9a-f]{24}\.json")


def _kind_of(name: str) -> str | None:
    """The kind a cache file name belongs to (pre-store results are
    ``stats``), or ``None`` for files the store does not own."""
    kind = name.partition("-")[0]
    if kind in KINDS:
        return kind
    return "stats" if _LEGACY_RESULT.fullmatch(name) else None


def _key_payload(kind: str, raw: dict) -> object:
    """The key payload a JSON entry embeds: its request's canonical
    cache key for ``stats`` (an entry stored under a request's own key
    before requests were canonical no longer matches its name), its
    identity for the other kinds.  ``None`` when the entry cannot be
    judged: a request stored with an unresolved trace length or warmup
    was keyed under the writer's ``REPRO_TRACE_LEN``, which need not be
    this environment's."""
    if kind == "stats":
        from .runner import RunRequest

        request = raw["request"]
        if request["trace_len"] is None or request["warmup"] is None:
            return None
        return RunRequest.from_json(request).canonical().cache_key()
    identity = raw["identity"]
    if identity[-1] != LAYOUTS[kind]:
        raise ValueError(f"not the current {kind} layout")
    return identity


def _unservable(path: Path, kind: str) -> bool:
    """Whether a JSON entry's embedded payload no longer hashes to its
    name (an older :data:`MODEL_VERSION`) or is of an older artifact
    layout.  An unreadable entry is not judged (the probe quarantines
    it), nor is one whose key depended on its writer's environment."""
    try:
        raw = json.loads(path.read_bytes().decode("utf-8"))
    except (OSError, ValueError):
        return False
    if not isinstance(raw, dict):
        return False
    try:
        payload = _key_payload(kind, raw)
        return payload is not None and key(kind, payload) != path.stem
    except (IndexError, KeyError, TypeError, ValueError):
        return True


def _writer_gone(pid: str) -> bool:
    """Whether the process that named a ``*.<pid>.tmp`` file has exited."""
    try:
        number = int(pid)
        if number <= 0:
            return True
        os.kill(number, 0)
    except (ValueError, OverflowError, ProcessLookupError):
        return True
    except PermissionError:
        return False
    return False


def stale_files() -> list[tuple[str, Path]]:
    """``(kind, path)`` of every cache file no current kind can serve:
    pre-store ``<digest>.json`` results, ``*.tmp`` files whose writer
    has exited, and JSON entries whose embedded payload no longer hashes
    to their name.  Quarantined ``*.corrupt`` files and traces are never
    stale."""
    root = _cache_root()
    stale = []
    for path in sorted(root.iterdir()) if root is not None and root.is_dir() else ():
        name = path.name
        if name.endswith(".tmp"):
            owner, _, pid = name.removesuffix(".tmp").rpartition(".")
            kind = _kind_of(owner)
            if kind is not None and _writer_gone(pid):
                stale.append((kind, path))
            continue
        kind = _kind_of(name)
        if kind is None or path.suffix != ".json":
            continue
        if _LEGACY_RESULT.fullmatch(name) or _unservable(path, kind):
            stale.append((kind, path))
    return stale


def census() -> dict[str, dict[str, int]]:
    """Entries per kind: ``memory`` held by this process (traces: the
    registry's LRU), ``disk`` files in the cache directory, quarantined
    ``corrupt`` files, and ``stale`` files (:func:`stale_files`; stale
    entries also count under ``disk``, pre-store results and orphan
    ``*.tmp`` files only here)."""
    counts = {tier: dict.fromkeys(KINDS, 0)
              for tier in ("memory", "disk", "corrupt", "stale")}
    for store_key in _memory:
        counts["memory"][store_key.partition("-")[0]] += 1
    counts["memory"]["trace"] = trace_cache_stats()["cached"]
    root = _cache_root()
    for path in root.iterdir() if root is not None and root.is_dir() else ():
        kind = path.name.partition("-")[0]
        if kind not in KINDS:
            continue
        if path.suffix == ".corrupt":
            counts["corrupt"][kind] += 1
        elif path.suffix in (".json", ".bin"):
            counts["disk"][kind] += 1
    for kind, _ in stale_files():
        counts["stale"][kind] += 1
    return counts


def gc() -> dict[str, int]:
    """Delete every :func:`stale_files` file; the count deleted per kind."""
    removed = dict.fromkeys(KINDS, 0)
    for kind, path in stale_files():
        try:
            path.unlink()
        except OSError:
            continue
        removed[kind] += 1
    return removed


def _trace_sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".sha256")


class _HashingTee:
    """Forwards reads or writes to a stream while folding a sha256.

    A trace is checksummed over exactly the bytes written or parsed, in
    the one streaming pass: no whole-file payload in memory (a
    10M-lookup trace is a 210MB file), no second read, and no window for
    the file to change between checksum and parse.
    """

    def __init__(self, handle):
        self._handle = handle
        self.digest = hashlib.sha256()

    def write(self, data) -> int:
        self.digest.update(data)
        return self._handle.write(data)

    def read(self, size: int = -1) -> bytes:
        data = self._handle.read(size)
        self.digest.update(data)
        return data

    def drain(self) -> None:
        """Fold any bytes past the parsed payload (there should be none,
        but the sidecar covers the whole file)."""
        while self.read(1 << 20):
            pass


def load_cached_trace(
    app: str, input_name: str, n_lookups: int, version: str
) -> "Trace | None":
    """Probe the disk trace cache for a generated workload trace.

    Returns ``None`` on a miss or when caching is disabled.  A stored
    file that is truncated, unparseable, fails its ``*.sha256`` sidecar
    checksum, or disagrees with the requested identity is quarantined
    (renamed to ``*.corrupt``) and treated as a miss; sidecar-less
    files from before checksumming are validated structurally only.
    """
    path = _path(key("trace", [app, input_name, n_lookups, version]), ".bin")
    if path is None or not path.exists():
        return None
    from ..core.trace import Trace, TraceError

    faultinject.maybe_corrupt_artifact(path, "trace")
    sidecar = _trace_sidecar(path)
    try:
        expected = sidecar.read_text().strip()
    except OSError:
        expected = None
    try:
        # The parse streams the file in bounded chunks — a 10M-lookup
        # trace never exists as one bytes object — and the tee reader
        # folds the sidecar checksum over those same chunked reads, so
        # verification costs no second pass over the file.
        with open(path, "rb") as handle:
            reader = _HashingTee(handle)
            trace = Trace.parse_binary(reader)
            reader.drain()
        if expected and reader.digest.hexdigest() != expected:
            raise ArtifactError("binary trace checksum mismatch")
        if len(trace) != n_lookups or trace.metadata.app != app:
            raise ArtifactError(
                f"binary trace identity mismatch (app={trace.metadata.app!r}, "
                f"n={len(trace)}, expected app={app!r}, n={n_lookups})"
            )
    except OSError:
        return None
    except (ArtifactError, TraceError) as exc:
        quarantine(path, str(exc))
        sidecar.unlink(missing_ok=True)
        return None
    return trace


def store_cached_trace(
    trace: "Trace", app: str, input_name: str, n_lookups: int, version: str
) -> None:
    """Persist a generated trace in the v2 binary format (atomic).

    The file bytes are checksummed into a ``*.sha256`` sidecar so
    :func:`load_cached_trace` can detect bit-rot that still parses.
    A failed write is counted (``disk_write``) and leaves no partial
    entry behind.
    """
    path = _path(key("trace", [app, input_name, n_lookups, version]), ".bin")
    if path is None:
        return
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            writer = _HashingTee(handle)
            trace.dump_binary(writer)
        os.replace(tmp, path)
        sidecar = _trace_sidecar(path)
        sidecar_tmp = sidecar.with_name(f"{sidecar.name}.{os.getpid()}.tmp")
        sidecar_tmp.write_text(writer.digest.hexdigest() + "\n")
        os.replace(sidecar_tmp, sidecar)
    except OSError:
        resilience.note_fallback("disk_write")
        tmp.unlink(missing_ok=True)
