"""Shared infrastructure for the specialized simulation kernel.

The vectorized kernel (:mod:`repro.frontend.simd`) leans on two
mechanisms:

* :func:`gc_paused` — run a column-building pass with the cyclic
  collector paused (the builds materialize millions of tracked
  containers at once; generation scans over live survivors would turn
  an O(n) build into something closer to O(n^2 / threshold));
* :func:`compile_flagged` — derive a specialized variant of a generic
  kernel method (the ``_segment`` loop or the ``_attempt`` insertion)
  by baking run-constant boolean flags in as literals, so the bytecode
  compiler drops every dead cross-kind branch.  Each variant compiles
  in-process once per flag combination and lives in the kernel
  module's variant cache.
"""

from __future__ import annotations

import gc as _gc


def gc_paused(fn):
    """Run ``fn`` with the cyclic collector paused, restoring it after.

    Building the columns materializes millions of tracked containers at
    once; with the collector live, each generation pass re-scans every
    survivor while the build keeps allocating, which turns an O(n) build
    into something closer to O(n^2 / threshold) at 1M-lookup scale.  The
    column data is acyclic, so pausing costs nothing in reclaimed memory.
    """
    enabled = _gc.isenabled()
    if enabled:
        _gc.disable()
    try:
        return fn()
    finally:
        if enabled:
            _gc.enable()


def compile_flagged(method, spec_names, flags: dict, *, new_name: str,
                    namespace: dict, prefix: str, template: list[str]):
    """Compile ``method`` with the ``spec_names`` flags baked in.

    The generic loop assigns each flag once and branches on it per
    lookup/event.  Rewriting the flag names to literals lets the
    bytecode compiler drop every dead branch outright (``if False``
    blocks compile to nothing, ``True and x`` reduces to ``x``), so
    each policy kind runs a loop with no cross-kind tests left in it.
    The generic method stays the single source of truth: variants are
    derived from its source at first use and behave identically.
    ``template`` is the caller's one-element source cache (the
    ``inspect.getsource`` extraction is paid once per process).

    Each flag must be assigned on one ``name = ...`` line of the
    method; a flag without one raises :class:`ValueError` (a misspelt
    or stale flag name would otherwise be silently ignored).
    Only bare names are substituted: an attribute access such as
    ``self.name`` keeps its name.
    """
    import inspect
    import re
    import textwrap

    if not template:
        template.append(textwrap.dedent(inspect.getsource(method)))
    src = template[0]
    # Drop the flag assignments first (they would otherwise turn into
    # assignments *to* a literal), then substitute the bare names in
    # one pass (a pass per name costs more than the compile itself).
    for name in spec_names:
        src, found = re.subn(rf"^[ \t]*{name} = .*\n", "", src, count=1,
                             flags=re.MULTILINE)
        if not found:
            raise ValueError(
                f"{method.__qualname__} has no '{name} = ...' line")
    literals = {name: repr(bool(flags[name])) for name in spec_names}
    bare = re.compile(rf"(?<![\w.])({'|'.join(spec_names)})\b")
    src = bare.sub(lambda m: literals[m.group(1)], src)
    src = src.replace(f"def {method.__name__}(", f"def {new_name}(", 1)
    ns = dict(namespace)
    exec(compile(src, f"<simd-specialized-{prefix}>", "exec"), ns)
    return ns[new_name]
