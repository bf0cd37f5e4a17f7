"""Shared offline-artifact store for profile-guided policies.

FURBYS and Thermometer both start from the same expensive artifact: a
full trace replay under an offline policy with per-PW hit recording
(:func:`repro.profiling.hitrate.collect_hit_stats`).  A batch that
evaluates both — every headline figure does — used to pay for that
replay once per policy; this module memoizes it per profiling key so
the second consumer (and every FURBYS hint-width/scope variant, which
only changes the cheap clustering step) reuses the recorded stats.

Two layers:

* an in-process cache (cleared by :func:`clear_artifact_caches`, which
  :func:`repro.harness.runner.clear_memory_cache` calls);
* a disk cache next to the simulation-result cache (``.repro-cache/``,
  disabled by ``REPRO_CACHE=0``), written atomically via a per-process
  tmp file + :func:`os.replace` so parallel workers sharing the
  directory can never observe a truncated entry.

Keys hash everything that shapes the artifact: the training trace
identity ``(app, input, trace_len)``, the offline decision ``source``,
and the cache geometry (config preset plus every uop-cache override);
profiles additionally include the hint parameters ``(n_bits, scope)``.

Every artifact is integrity-checked on load: JSON entries embed a
``sha256`` over their canonical payload, binary traces get a
``*.sha256`` sidecar over the file bytes.  A corrupt, truncated or
checksum-failing entry is **quarantined** — renamed to ``*.corrupt``
for post-mortem instead of silently deleted — via an internal
:class:`~repro.errors.ArtifactError`, counted in the resilience
fallback counters, and treated as a cache miss so the artifact is
recomputed.  Failed disk writes are likewise counted (``disk_write``)
rather than silently swallowed.  :mod:`repro.faultinject` hooks the
load paths so the chaos suite can corrupt a named artifact kind on
demand.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from .. import faultinject
from ..config import SimulationConfig
from ..errors import ArtifactError
from ..profiling.pipeline import FurbysProfile, profile_application
from ..workloads.registry import get_trace
from . import resilience

#: start -> (uops hit, uops requested) over the whole profiling replay.
HitStats = dict[int, tuple[int, int]]

_hitstats_cache: dict[str, HitStats] = {}
_profile_cache: dict[str, FurbysProfile] = {}


def _disk_cache_dir() -> Path | None:
    """Root of the on-disk cache; ``None`` when disabled or unwritable."""
    if os.environ.get("REPRO_CACHE", "1") == "0":
        return None
    root = Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    return root


def clear_artifact_caches() -> None:
    """Drop in-process profiling artifacts (tests use this)."""
    _hitstats_cache.clear()
    _profile_cache.clear()


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _canonical_json(payload: dict) -> str:
    """Sorted-key JSON of a payload, excluding the checksum field."""
    return json.dumps(
        {k: v for k, v in payload.items() if k != "sha256"}, sort_keys=True
    )


def _payload_checksum(payload: dict) -> str:
    """Canonical sha256 over a JSON payload, excluding the checksum field."""
    return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()


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
    if expected is None:
        _store_json(path, payload)
        resilience.note_fallback("note:cache_upgraded")
    elif _payload_checksum(payload) != expected:
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

    The canonical text :func:`_payload_checksum` hashes is also the
    file body: the ``"sha256"`` field is spliced in before its closing
    brace, and readers re-derive the canonical form after parsing.
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


def _trace_sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".sha256")


class _HashingWriter:
    """Tee writer: forwards to a stream while folding a sha256.

    Lets :func:`store_cached_trace` checksum exactly the bytes it
    writes without ever materializing the whole payload (a 10M-lookup
    trace is a 210MB file).
    """

    def __init__(self, handle):
        self._handle = handle
        self.digest = hashlib.sha256()

    def write(self, data) -> int:
        self.digest.update(data)
        return self._handle.write(data)


class _HashingReader:
    """Tee reader: forwards reads while folding a sha256.

    The mirror of :class:`_HashingWriter` for the load side: the
    chunked v2 trace parse consumes the file through this tee, so the
    ``*.sha256`` sidecar is verified over exactly the bytes parsed in
    the same single streaming pass — no separate whole-file checksum
    read, and no window for the file to change between the checksum
    pass and the parse.
    """

    def __init__(self, handle):
        self._handle = handle
        self.digest = hashlib.sha256()

    def read(self, size: int = -1) -> bytes:
        data = self._handle.read(size)
        if data:
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
    disk = _disk_cache_dir()
    if disk is None:
        return None
    key = _digest(["trace", app, input_name, n_lookups, version])
    path = disk / f"trace-{key}.bin"
    if not path.exists():
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
            reader = _HashingReader(handle)
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
    disk = _disk_cache_dir()
    if disk is None:
        return
    key = _digest(["trace", app, input_name, n_lookups, version])
    path = disk / f"trace-{key}.bin"
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            writer = _HashingWriter(handle)
            trace.dump_binary(writer)
        os.replace(tmp, path)
        sidecar = _trace_sidecar(path)
        sidecar_tmp = sidecar.with_name(f"{sidecar.name}.{os.getpid()}.tmp")
        sidecar_tmp.write_text(writer.digest.hexdigest() + "\n")
        os.replace(sidecar_tmp, sidecar)
    except OSError:
        resilience.note_fallback("disk_write")
        tmp.unlink(missing_ok=True)


def profiling_geometry(
    config_name: str,
    *,
    cache_entries: int | None,
    cache_ways: int | None,
    insertion_delay: int | None,
    inclusive: bool,
    keep_larger: bool,
    perfect: tuple[str, ...],
) -> list:
    """The geometry part of a profiling key: every knob that can change
    what the offline profiling replay observes."""
    return [
        config_name, cache_entries, cache_ways, insertion_delay,
        inclusive, keep_larger, sorted(perfect),
    ]


def shared_hit_stats(
    app: str,
    input_name: str,
    trace_len: int,
    config: SimulationConfig,
    *,
    source: str,
    geometry: list,
) -> HitStats:
    """Per-PW hit stats for one training trace, computed at most once.

    Callers must not mutate the returned mapping.
    """
    key = _digest(["hitstats", app, input_name, trace_len, source, geometry])
    cached = _hitstats_cache.get(key)
    if cached is not None:
        return cached
    disk = _disk_cache_dir()
    path = disk / f"hitstats-{key}.json" if disk is not None else None
    if path is not None and path.exists():
        raw = probe_json(path, "hitstats")
        if raw is not None and "stats" in raw:
            stats: HitStats = {
                int(start): (int(pair[0]), int(pair[1]))
                for start, pair in raw["stats"].items()
            }
            _hitstats_cache[key] = stats
            return stats
    from ..profiling.hitrate import collect_hit_stats

    trace = get_trace(app, input_name, trace_len)
    stats = collect_hit_stats(trace, config, source=source)
    _hitstats_cache[key] = stats
    if path is not None:
        _store_json(path, {
            "app": app, "input": input_name, "trace_len": trace_len,
            "source": source, "geometry": geometry,
            "stats": {str(start): list(pair) for start, pair in stats.items()},
        })
    return stats


def shared_profile(
    app: str,
    input_name: str,
    trace_len: int,
    config: SimulationConfig,
    *,
    source: str,
    n_bits: int,
    scope: str,
    geometry: list,
) -> FurbysProfile:
    """A single-input FURBYS profile, sharing the profiling replay.

    The hit-stats artifact is shared across hint widths, weight scopes
    and with Thermometer; only the clustering step is parameterized.
    Multi-input merges happen in memory (see the runner), so the disk
    layer stays a flat per-input store.
    """
    key = _digest([
        "profile", app, input_name, trace_len, source, n_bits, scope,
        geometry,
    ])
    cached = _profile_cache.get(key)
    if cached is not None:
        return cached
    disk = _disk_cache_dir()
    path = disk / f"profile-{key}.json" if disk is not None else None
    if path is not None and path.exists():
        raw = probe_json(path, "profile")
        if raw is not None and "hints" in raw:
            profile = FurbysProfile(
                hints={int(s): int(w) for s, w in raw["hints"].items()},
                hit_rates={
                    int(s): float(r) for s, r in raw["hit_rates"].items()
                },
                source=raw["source"],
                n_bits=int(raw["n_bits"]),
                scope=raw["scope"],
                sample_counts={
                    int(s): int(c) for s, c in raw["sample_counts"].items()
                },
            )
            _profile_cache[key] = profile
            return profile
    stats = shared_hit_stats(
        app, input_name, trace_len, config, source=source, geometry=geometry
    )
    trace = get_trace(app, input_name, trace_len)
    profile = profile_application(
        trace, config, source=source, n_bits=n_bits, scope=scope,
        hit_stats=stats,
    )
    _profile_cache[key] = profile
    if path is not None:
        _store_json(path, {
            "app": app, "input": input_name, "trace_len": trace_len,
            "source": source, "n_bits": n_bits, "scope": scope,
            "geometry": geometry,
            "hints": {str(s): w for s, w in profile.hints.items()},
            "hit_rates": {str(s): r for s, r in profile.hit_rates.items()},
            "sample_counts": {
                str(s): c for s, c in profile.sample_counts.items()
            },
        })
    return profile
