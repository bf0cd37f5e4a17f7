"""The benchmark's workloads and how a seed turns into program inputs.

A workload is a closed loop: one caller submits each figure through
``repro.harness.experiments.run_recorded`` and waits for it before
submitting the next.  The program only ever sees the environment built
by :func:`child_env` (``REPRO_APPS``, ``REPRO_TRACE_LEN``, ``REPRO_JOBS``
and private cache/ledger paths) and the requests its figures produce.
Why each workload exists is recorded in ``BENCHMARK.json`` and
``bench/README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    figures: tuple[str, ...]
    #: The apps, in the order seed 0 submits them.
    apps: tuple[str, ...]
    trace_len: int
    jobs: int
    #: Trace inputs generated during set-up, so the timed run reads them
    #: from disk.  Unused when ``cold``.
    inputs: tuple[str, ...] = ("default",)
    #: Start from an empty cache directory; after the first pass clear
    #: the memory caches and run the figures again from the disk
    #: result cache.
    cold: bool = False

    def apps_for_seed(self, seed: int) -> tuple[str, ...]:
        """The apps in the order a seed submits them.

        A seed reorders the apps but never swaps one for another: the
        apps simulate at different speeds.  Drawing them put
        offline-50k's 10-seed wall-time spread at 15 %; reordering them
        keeps it at the host's own 4-10 %.
        """
        if seed == 0:
            return self.apps
        return tuple(random.Random(seed).sample(self.apps, len(self.apps)))


WORKLOADS = {
    w.name: w for w in (
        # The user-facing reproduction path: pool, dedupe, fusion and
        # reference-loop fallbacks all run.  Figure 18 also reads the
        # alt-seed and mixed-load inputs.
        Workload(
            name="figures",
            figures=("fig2", "fig5", "fig8", "fig10", "fig11", "fig15",
                     "fig16", "fig18", "fig19", "fig20", "fig21", "sec7",
                     "miss-classes"),
            apps=("kafka", "clang", "postgres"),
            trace_len=5_000,
            jobs=2,
            inputs=("default", "alt-seed", "mixed-load"),
        ),
        # Kernel-bound control: online policies cost nothing to build.
        Workload(
            name="online-200k",
            figures=("abl-online-scale",),
            apps=("kafka", "clang"),
            trace_len=200_000,
            jobs=1,
        ),
        # Offline and profile-guided construction is a large share.
        Workload(
            name="offline-50k",
            figures=("fig10", "abl-offline-scale", "fig15"),
            apps=("kafka", "postgres"),
            trace_len=50_000,
            jobs=1,
        ),
        # The write side: traces, profiles, results and ledger rows.
        Workload(
            name="cold-start",
            figures=("fig18", "fig2"),
            apps=("cassandra", "tomcat", "drupal", "finagle", "mysql",
                  "python"),
            trace_len=10_000,
            jobs=1,
            cold=True,
        ),
    )
}


def child_env(workload: Workload, apps: tuple[str, ...], trace_len: int,
              work_dir: str) -> dict[str, str]:
    """The ``REPRO_*`` settings one repeat runs under, and no others."""
    return {
        "REPRO_APPS": ",".join(apps),
        "REPRO_TRACE_LEN": str(trace_len),
        "REPRO_JOBS": str(workload.jobs),
        "REPRO_CACHE_DIR": f"{work_dir}/cache",
        "REPRO_LEDGER": f"{work_dir}/ledger.sqlite",
    }
