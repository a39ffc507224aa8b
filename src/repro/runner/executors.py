"""Pluggable campaign executors: the *mechanism* half of the runner.

:class:`repro.runner.CampaignRunner` is policy — planning, manifests,
checksums, resume, verification.  How pending shards actually get
computed is mechanism, and this module owns it behind one interface:

:class:`SerialExecutor`
    In-process, bit order, retry with exponential backoff.
:class:`PoolExecutor`
    Forked children, each driven over its own pipe: a dead or hung child
    is SIGKILLed and replaced, and its shard retried with backoff, then
    computed in-process once its retries run out.
:class:`WorkStealingExecutor`
    Independent worker processes claim shards from the shared run
    directory via atomic lease files (:mod:`repro.runner.leases`);
    additional ``campaign worker`` processes on any machine sharing the
    filesystem can join mid-run, and a killed worker's lease expires
    and is stolen.

Executors see the run only through an :class:`ExecutionContext` — a
narrow facade over the runner that exposes what mechanism needs (the
run's :class:`repro.runner.worker.ShardKernel`, completion accounting,
event emission, budgets) and nothing else.  Every executor computes
through that one kernel, and every in-process retry goes through
:func:`repro.runner.worker.compute_with_retries`.  All three produce
bit-identical results for a fixed seed because the per-bit
``SeedSequence.spawn`` streams make shard results independent of
scheduling.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from collections import deque
from multiprocessing.connection import wait

from repro.runner.errors import RunnerError
from repro.runner.leases import (
    DEFAULT_LEASE_TIMEOUT,
    LeaseHeartbeat,
    cancel_requested,
    default_worker_id,
    read_done_records,
    try_claim,
    write_done_record,
)
from repro.runner.worker import ShardWorker, compute_with_retries
from repro.telemetry import DISABLED, Telemetry, telemetry_scope
from repro.telemetry.core import _reset_process_stack


class ExecutionContext:
    """What an executor may see and do during one run.

    Bound to a live :class:`CampaignRunner`; attribute reads delegate,
    and completion accounting flows through the runner's persistence
    path (atomic shard writes, checksums, manifest updates, events) no
    matter which executor drives it.
    """

    def __init__(self, runner, hooks, shards_total: int, trials_total: int):
        self._runner = runner
        self._hooks = hooks
        self.shards_total = shards_total
        self.trials_total = trials_total

    # -- static facts about the run ----------------------------------------

    @property
    def run_dir(self):
        return self._runner.run_dir

    @property
    def jobs(self) -> int:
        return self._runner._effective_jobs

    @property
    def kernel(self):
        """The run's :class:`repro.runner.worker.ShardKernel`."""
        return self._runner.kernel

    @property
    def max_retries(self) -> int:
        return self._runner.max_retries

    @property
    def retry_backoff(self) -> float:
        return self._runner.retry_backoff

    @property
    def heartbeat_timeout(self) -> float | None:
        return self._runner.heartbeat_timeout

    @property
    def chaos(self):
        return self._runner.chaos

    @property
    def telemetry(self):
        return self._runner.telemetry

    @property
    def trace_enabled(self) -> bool:
        """Whether this run is writing distributed-trace spans."""
        return self._runner._tracer is not None

    # -- actions ------------------------------------------------------------

    def compute_with_retries(self, spec):
        """Compute one shard in-process through the shared retry loop."""
        return compute_with_retries(
            self.kernel, spec.bit, spec.trials, spec.seed, emit=self.emit,
            max_retries=self.max_retries, retry_backoff=self.retry_backoff,
            chaos=self.chaos,
        )

    def finish(self, spec, records, duration: float, attempts: int) -> None:
        """Account a locally computed shard: persist, checksum, emit."""
        self._runner._finish_shard(
            spec, records, duration, attempts, self._hooks,
            self.shards_total, self.trials_total,
        )

    def adopt(self, spec, record: dict) -> None:
        """Account a shard completed by a cooperating worker process."""
        self._runner._adopt_shard(
            spec, record, self._hooks, self.shards_total, self.trials_total
        )

    def shard_checksum_of(self, bit: int) -> str | None:
        manifest = self._runner._manifest
        if manifest is None or bit not in manifest.shards:
            return None
        return manifest.shards[bit].checksum

    def emit(self, kind: str, **kwargs) -> None:
        self._runner._emit(
            self._hooks, kind,
            shards_total=self.shards_total, trials_total=self.trials_total,
            **kwargs,
        )

    def note_hung(self) -> None:
        self._runner._hung_count += 1
        self.telemetry.count("runner.shards_hung")


def _reset_forked_child() -> None:
    """Undo what a fork copied from the runner into a worker child.

    The runner's SIGTERM handler raises a checkpointing interrupt; a
    child must simply die when signalled, leaving the checkpoint to the
    parent.  Records into the inherited active telemetry
    collector would be silently lost; profiled children use their own.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _reset_process_stack(DISABLED)


class Executor:
    """Base class: one strategy for executing a run's pending shards."""

    #: Registry key and the name recorded in the manifest.
    name = "abstract"

    def execute(self, pending, ctx: ExecutionContext) -> None:
        """Complete every pending shard (``ctx.finish``/``ctx.adopt``).

        Raising fails the run (the runner checkpoints it interrupted);
        returning with shards unaccounted is a bug, not a contract.
        """
        raise NotImplementedError


class SerialExecutor(Executor):
    """In-process execution in bit order with retry + backoff."""

    name = "serial"

    def execute(self, pending, ctx: ExecutionContext) -> None:
        for spec in pending:
            ctx.emit("shard_start", bit=spec.bit)
            ctx.finish(spec, *ctx.compute_with_retries(spec))


def _pool_child(conn, inherited, kernel, chaos, profiled: bool) -> None:
    """Loop of one forked pool child: compute each shard the parent sends.

    Receives ``(bit, trials, seed, attempt)`` tasks in order and answers
    each with ``(records, seconds, snapshot)``, or with ``repr`` of the
    error it raised.  Chaos compute faults fire first, so an injected
    crash or hang leaves the trace a real one would.  A profiled shard
    records into a private collector whose snapshot the parent merges
    shard by shard, so totals match serial.  The child exits when its
    pipe closes: the parent is done with it, or died.
    """
    _reset_forked_child()
    for other in inherited:
        # The parent's ends of all pipes, this one's too, copied by the
        # fork: holding one keeps a child from seeing EOF if the parent dies.
        other.close()
    try:
        while True:
            bit, trials, seed, attempt = conn.recv()
            try:
                if chaos is not None:
                    from repro.chaos import fire_compute_faults

                    fire_compute_faults(chaos, bit, attempt)
                collector = Telemetry() if profiled else DISABLED
                with telemetry_scope(collector):
                    records, seconds = kernel.compute(bit, trials, seed)
                reply = (records, seconds, collector.snapshot() if profiled else None)
            except Exception as error:
                reply = repr(error)
            conn.send(reply)
    except (EOFError, OSError, KeyboardInterrupt):
        pass


class _PoolChild:
    """The parent's view of one pool child: the shards it holds, in order."""

    def __init__(self, process, conn):
        self.process, self.conn = process, conn
        self.bits: deque[int] = deque()
        self.since = 0.0  # when the head of ``bits`` started computing


class PoolExecutor(Executor):
    """Fork-pool execution that survives sick workers.

    The parent forks ``jobs`` children and drives each over its own
    pipe, keeping every child one shard ahead of the one it computes.
    Because the parent sends every shard itself, it always knows which
    child holds which shard and since when.  It blocks on every pipe and
    every child's exit sentinel at once, waking for a result, a death,
    or the nearest ``heartbeat_timeout`` deadline.  A child that died or
    outlived its budget is SIGKILLed and replaced, and its shard
    re-enters the retry path (backoff, then in-process fallback), so a
    crashed or hung worker costs one retry, not the run.
    """

    name = "pool"

    def execute(self, pending, ctx: ExecutionContext) -> None:
        context = multiprocessing.get_context("fork")
        specs = {spec.bit: spec for spec in pending}
        failures = dict.fromkeys(specs, 0)
        queue = deque(specs)  # shards no child holds, in dispatch order
        children: list[_PoolChild] = []
        budget = ctx.heartbeat_timeout

        def spawn() -> None:
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=_pool_child, daemon=True,
                args=(child_end, [child.conn for child in children] + [parent_end],
                      ctx.kernel, ctx.chaos, ctx.telemetry.enabled),
            )
            process.start()
            child_end.close()  # so the child's death reads as EOF here
            children.append(_PoolChild(process, parent_end))

        def dispatch(child: _PoolChild, depth: int) -> None:
            while len(child.bits) < depth and queue:
                bit = queue.popleft()
                if not child.bits:
                    child.since = time.monotonic()
                child.bits.append(bit)
                spec = specs[bit]
                try:
                    child.conn.send((bit, spec.trials, spec.seed, failures[bit]))
                except OSError:
                    return  # it died; its exit sentinel wakes the loop

        def fail(bit: int, error: str) -> None:
            failures[bit] += 1
            ctx.emit("shard_error", bit=bit, attempt=failures[bit] - 1, error=error)
            if failures[bit] > ctx.max_retries:
                # Degrade gracefully: recompute in-process, keep the run.
                ctx.emit("shard_fallback", bit=bit, attempt=failures[bit],
                         error="pool execution failed; running in-process")
                spec = specs[bit]
                records, duration = ctx.kernel.compute(bit, spec.trials, spec.seed)
                ctx.finish(spec, records, duration, failures[bit] + 1)
                return
            time.sleep(ctx.retry_backoff * (2 ** (failures[bit] - 1)))
            queue.appendleft(bit)
            ctx.emit("shard_retry", bit=bit, attempt=failures[bit], error=error)

        def receive(child: _PoolChild) -> bool:
            """Handle every reply the child sent; False once it is gone."""
            while True:
                try:  # only the pipe: persist and hook errors fail the run
                    if not child.conn.poll():
                        return True
                    reply = child.conn.recv()
                except (EOFError, OSError):
                    return False
                bit = child.bits.popleft()
                child.since = time.monotonic()
                # Refill before persisting: the child never waits on the
                # parent's write of the shard it just returned.
                dispatch(child, 2)
                if isinstance(reply, str):
                    fail(bit, reply)
                    continue
                records, duration, snapshot = reply
                if snapshot is not None:
                    ctx.telemetry.merge_snapshot(snapshot)
                ctx.finish(specs[bit], records, duration, failures[bit] + 1)

        def lose(child: _PoolChild, reason: str, *, hung: bool) -> None:
            children.remove(child)
            child.process.kill()  # a broken pipe may hide a live child
            child.process.join()
            child.conn.close()
            if not child.bits:
                return
            bit = child.bits.popleft()
            queue.extendleft(reversed(child.bits))  # sent, never started
            age = time.monotonic() - child.since
            ctx.note_hung()
            if hung:
                ctx.telemetry.count("runner.workers_killed")
            ctx.emit("shard_hung", bit=bit, attempt=failures[bit], error=reason,
                     detail={"pid": child.process.pid, "claimed_age": round(age, 3)})
            fail(bit, repr(RunnerError(f"shard bit={bit} hung: {reason}")))

        for spec in pending:
            ctx.emit("shard_start", bit=spec.bit)
        try:
            while queue or any(child.bits for child in children):
                while queue and len(children) < ctx.jobs:
                    spawn()
                for depth in (1, 2):
                    for child in children:
                        dispatch(child, depth)
                busy = [child.since for child in children if child.bits]
                timeout = (None if budget is None or not busy
                           else max(min(busy) + budget - time.monotonic(), 0.0))
                ready = wait([h for c in children for h in (c.conn, c.process.sentinel)], timeout)
                for child in list(children):
                    died = child.process.sentinel in ready
                    if child.conn in ready or died:
                        if not receive(child) or died:
                            lose(child, f"worker pid {child.process.pid} "
                                        "died mid-shard", hung=False)
                        continue
                    age = time.monotonic() - child.since
                    if child.bits and budget is not None and age >= budget:
                        lose(child, f"claimed {age:.1f}s ago with no completion "
                                    f"(heartbeat_timeout={budget:g}s)", hung=True)
        except BaseException:
            for child in children:
                child.process.kill()
            raise
        finally:
            for child in children:
                child.conn.close()
                child.process.join()


def _work_stealing_child(worker_kwargs: dict) -> None:
    """Entry point of a forked in-run work-stealing worker.

    The kernel arrives by fork copy-on-write (never pickled).  When the
    parent profiles/traces, the child's :class:`ShardWorker` gets its
    *own* collector (its snapshot lands beside its done records for the
    merge-at-read path, never double-counted into the parent's) and its
    own trace/metrics files.
    """
    _reset_forked_child()
    try:
        ShardWorker(**worker_kwargs).run()
    except Exception:
        # The child is expendable: the coordinator steals its leases and
        # recomputes anything it failed to deliver.  Exiting nonzero is
        # the only signal it leaves.
        os._exit(1)


class WorkStealingExecutor(Executor):
    """Cooperating processes claim shards via run-directory lease files.

    The calling (coordinator) process is itself one worker: it claims
    and computes shards through the runner's normal persistence path and
    is the *only* process that writes the manifest.  ``workers - 1``
    forked children run :class:`repro.runner.worker.ShardWorker` loops:
    each claims a lease, computes, writes the shard CSV + a completion
    record under ``leases/``, and appends its own events.  The
    coordinator folds children's completions into the manifest by
    *adopting* their done records (checksum-verified), so concurrent
    manifest writes never happen.

    Because claims go through the shared filesystem, external
    ``campaign worker <run-dir>`` processes — on this machine or any
    other sharing the filesystem — can join the same run at any time.
    A worker that dies mid-shard stops refreshing its lease's mtime;
    after ``lease_timeout`` the lease is stolen and the shard recomputed
    (bit-identically, thanks to per-bit seed streams).
    """

    name = "work-stealing"

    def __init__(self, workers: int | None = None,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 poll_interval: float = 0.05):
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive, got {lease_timeout}")
        self.workers = workers
        self.lease_timeout = float(lease_timeout)
        self.poll_interval = float(poll_interval)

    def execute(self, pending, ctx: ExecutionContext) -> None:
        if ctx.run_dir is None:
            raise RunnerError(
                "the work-stealing executor coordinates through lease files "
                "in the run directory; pass run_dir= (or use the serial/pool "
                "executor for in-memory runs)"
            )
        run_dir = ctx.run_dir
        worker_id = default_worker_id() + "-coord"
        workers = self.workers if self.workers is not None else ctx.jobs
        context = multiprocessing.get_context("fork")
        worker_kwargs = dict(
            run_dir=run_dir, kernel=ctx.kernel,
            lease_timeout=self.lease_timeout, poll_interval=self.poll_interval,
            max_retries=ctx.max_retries, retry_backoff=ctx.retry_backoff,
            chaos=ctx.chaos, finalize=False,
            telemetry=ctx.telemetry.enabled, trace=ctx.trace_enabled,
        )
        children = [
            context.Process(target=_work_stealing_child, args=(worker_kwargs,),
                            daemon=True)
            for _ in range(max(workers - 1, 0))
        ]
        for child in children:
            child.start()

        remaining = {spec.bit: spec for spec in pending}
        try:
            while remaining:
                if cancel_requested(run_dir):
                    raise RunnerError(
                        f"run cancelled (CANCELLED sentinel in {run_dir})"
                    )
                done = read_done_records(run_dir)
                progressed = False
                for bit in sorted(remaining):
                    spec = remaining[bit]
                    record = done.get(bit)
                    if record is not None:
                        if record.get("worker") != worker_id:
                            ctx.adopt(spec, record)
                            ctx.telemetry.count("runner.shards_adopted")
                        remaining.pop(bit)
                        progressed = True
                        continue
                    lease = try_claim(run_dir, bit, worker_id,
                                      lease_timeout=self.lease_timeout)
                    if lease is None:
                        continue  # another worker holds it; revisit next sweep
                    # Re-check done records *after* claiming, exactly like
                    # ShardWorker: the sweep-start read goes stale while
                    # earlier bits in this sweep compute, and a cooperating
                    # worker may have finished (and released) this bit in
                    # the meantime.  Done records are written before lease
                    # release, so a post-claim re-check is race-free —
                    # without it the coordinator silently recomputes
                    # already-finished shards (bit-identical, but wasted
                    # work that breaks N-worker telemetry counter identity).
                    record = read_done_records(run_dir).get(bit)
                    if record is not None:
                        lease.release()
                        if record.get("worker") != worker_id:
                            ctx.adopt(spec, record)
                            ctx.telemetry.count("runner.shards_adopted")
                        remaining.pop(bit)
                        progressed = True
                        continue
                    progressed = True
                    ctx.telemetry.count("runner.leases_claimed")
                    detail = {"worker": worker_id}
                    if lease.stolen_from:
                        ctx.telemetry.count("runner.leases_stolen")
                        ctx.emit("lease_stolen", bit=bit,
                                 detail={"worker": worker_id,
                                         "stolen_from": lease.stolen_from},
                                 error=f"lease of {lease.stolen_from} expired")
                    ctx.emit("shard_claimed", bit=bit, detail=detail)
                    try:
                        with LeaseHeartbeat(lease, self.lease_timeout / 3.0):
                            records, duration, attempts = ctx.compute_with_retries(
                                spec
                            )
                    except BaseException:
                        lease.release()
                        raise
                    ctx.finish(spec, records, duration, attempts)
                    write_done_record(
                        run_dir, bit,
                        trials=spec.trials, duration=duration,
                        attempts=attempts,
                        checksum=ctx.shard_checksum_of(bit) or "",
                        worker=worker_id,
                    )
                    lease.release()
                    remaining.pop(bit)
                if remaining and not progressed:
                    time.sleep(self.poll_interval)
        finally:
            deadline = time.monotonic() + max(self.lease_timeout, 5.0)
            for child in children:
                child.join(timeout=max(deadline - time.monotonic(), 0.1))
                if child.is_alive():
                    child.terminate()
                    child.join(timeout=1.0)


#: Executor registry: the ``--executor`` CLI choices and the
#: ``run_campaign(executor=...)`` string spellings.
EXECUTOR_REGISTRY: dict[str, type[Executor]] = {
    SerialExecutor.name: SerialExecutor,
    PoolExecutor.name: PoolExecutor,
    WorkStealingExecutor.name: WorkStealingExecutor,
}


def resolve_executor(spec, *, jobs: int = 1, pending: int = 0) -> Executor:
    """Turn an executor request into a concrete :class:`Executor`.

    ``None`` keeps the historical auto policy: in-process when a single
    worker (or at most one pending shard) makes a pool pointless,
    otherwise the hardened fork pool.  Strings go through
    :data:`EXECUTOR_REGISTRY`; instances pass through untouched.
    """
    if spec is None:
        if jobs <= 1 or pending <= 1:
            return SerialExecutor()
        return PoolExecutor()
    if isinstance(spec, Executor):
        return spec
    if isinstance(spec, str):
        try:
            cls = EXECUTOR_REGISTRY[spec]
        except KeyError:
            known = ", ".join(sorted(EXECUTOR_REGISTRY))
            raise ValueError(
                f"unknown executor {spec!r}; known executors: {known}"
            ) from None
        return cls()
    raise TypeError(
        f"executor must be None, a registry name, or an Executor instance; "
        f"got {type(spec).__name__}"
    )
