"""Worker counts for parallel campaign execution.

The paper runs per-field campaigns "in parallel across different compute
nodes in a cluster" (MPI-style scatter of independent work).  Without a
cluster, the same structure maps onto worker processes: the unit of work
is one bit position's shard of trials, seeds are pre-spawned per bit (so
the parallel result is bit-identical to the serial one, regardless of
worker count or scheduling), and shards are gathered and concatenated in
bit order.

The entry point is :func:`repro.inject.campaign.run_campaign`
(``jobs=N``), executed by :class:`repro.runner.CampaignRunner`; the
executors and their fork plumbing live in :mod:`repro.runner.executors`.
This module validates and resolves the ``jobs`` worker count.  (The
long-deprecated ``run_campaign_parallel`` wrapper has been removed; call
``run_campaign(..., jobs=N)``.)
"""

from __future__ import annotations

import os
import warnings

import numpy as np


def default_worker_count(shard_count: int | None = None) -> int:
    """Workers to use when unspecified: CPUs, capped at the shard count.

    ``shard_count`` is the number of shards actually scheduled; when
    given, the result never exceeds it (extra workers would only sit
    idle after paying the fork cost).
    """
    workers = max(os.cpu_count() or 1, 1)
    if shard_count is not None:
        workers = min(workers, max(shard_count, 1))
    return workers


def validate_jobs(jobs: int | None) -> int | None:
    """Reject nonsensical worker counts early.

    ``None`` means "auto" and passes through; anything else must be a
    positive integer (booleans and floats are rejected too — a silent
    ``jobs=True`` is a bug, not a request for one worker).
    """
    if jobs is None:
        return None
    if isinstance(jobs, bool) or not isinstance(jobs, (int, np.integer)):
        raise ValueError(f"jobs must be a positive integer or None, got {jobs!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return int(jobs)


def resolve_worker_count(jobs: int | None, shard_count: int | None = None) -> int:
    """Concrete worker count for a run: validate, auto-size, cap.

    ``None`` auto-sizes via :func:`default_worker_count`; an explicit
    request above the shard count is capped (with a warning) instead of
    silently forking idle workers.
    """
    jobs = validate_jobs(jobs)
    if jobs is None:
        return default_worker_count(shard_count)
    if shard_count is not None and jobs > max(shard_count, 1):
        capped = max(shard_count, 1)
        warnings.warn(
            f"jobs={jobs} exceeds the {shard_count} scheduled shard(s); "
            f"capping at {capped}",
            RuntimeWarning,
            stacklevel=2,
        )
        return capped
    return jobs
