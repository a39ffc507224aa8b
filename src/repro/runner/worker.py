"""The work-stealing shard worker: ``campaign worker <run-dir>``.

A :class:`ShardWorker` is one independent process cooperating on a
submitted campaign through the shared run directory alone.  Its loop:

1. read the manifest (identity, shard plan) and the completion records
   under ``leases/``;
2. claim a still-pending shard via an atomic lease file
   (:func:`repro.runner.leases.try_claim`), stealing expired leases
   from dead workers;
3. compute the shard (bit-identical regardless of which worker runs it,
   thanks to per-bit ``SeedSequence.spawn`` streams), write the shard
   CSV atomically with a SHA-256 checksum, write the completion record,
   append its events to ``events.jsonl``, release the lease;
4. when every shard has a completion record, fold them into the
   manifest (:func:`fold_run`) and — if it wins the one-shot
   ``finalized`` marker — emit the closing ``run_finish`` event.

Workers never write the manifest during execution (concurrent
read-modify-write would lose shards); :func:`fold_run` derives the
manifest's shard states purely from the completion records, so folding
is idempotent and any worker (or a later ``campaign resume``) can do it.
Every executor computes through this module's :class:`ShardKernel`.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.formats import NumberFormat, resolve
from repro.inject.campaign import CampaignConfig, bit_seeds, run_campaign_shard
from repro.inject.results import TrialRecords
from repro.metrics.summary import SummaryStats
from repro.runner.errors import RunnerError
from repro.runner.events import EventLogWriter, RunnerEvent, dispatch_event
from repro.runner.leases import (
    DEFAULT_LEASE_TIMEOUT,
    LeaseHeartbeat,
    active_leases,
    cancel_requested,
    default_worker_id,
    read_done_records,
    try_acquire_finalize,
    try_claim,
    write_done_record,
)
from repro.runner.manifest import (
    RUN_COMPLETED,
    RUN_RUNNING,
    SHARD_COMPLETED,
    SHARD_DIR_NAME,
    RunManifest,
    dataset_fingerprint,
)
from repro.telemetry import (
    MetricsSampler,
    MetricsWriter,
    TraceContext,
    TraceWriter,
    resolve_collector,
    resolve_trace,
    telemetry_scope,
    write_worker_snapshot,
)


@dataclass(frozen=True)
class WorkerResult:
    """What one worker's run() accomplished."""

    worker: str
    claims: int
    stolen: int
    status: str  # "completed" | "cancelled" | "idle"
    finalized: bool = False


def persist_shard_file(run_dir, bit: int, records: TrialRecords) -> str:
    """Atomically write one shard CSV; returns its SHA-256 checksum.

    The one shard-file writer, used by the runner and every worker:
    serialize once, checksum the exact bytes that hit disk, write to a
    temp file, rename into place.  The pid-suffixed temp name keeps
    concurrent workers that (pathologically) compute the same shard from
    clobbering each other's temp files — and since shards are
    bit-identical, whichever rename lands last leaves the same bytes.
    """
    path = RunManifest.shard_path(run_dir, bit)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = records.to_csv_bytes()
    digest = hashlib.sha256(payload).hexdigest()
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    tmp.write_bytes(payload)
    try:
        os.replace(tmp, path)
    except FileNotFoundError:
        if not path.is_file():
            raise  # temp vanished and nobody landed the shard: real loss
    return digest


def sweep_shard_temps(run_dir) -> None:
    """Delete the ``.tmp-<pid>`` files that killed shard writers left.

    A writer SIGKILLed between its temp write and the rename leaves its
    temp behind, and ``verify`` flags unexplained files.  Call this once
    every shard has landed: a live writer whose temp it deletes then
    finds the shard file in place with the identical deterministic
    bytes, which :func:`persist_shard_file` treats as success.
    """
    for stale in (Path(run_dir) / SHARD_DIR_NAME).glob("*.tmp-*"):
        try:
            stale.unlink()
        except OSError:
            pass


class ShardKernel:
    """Everything needed to compute any shard of one campaign, anywhere.

    Holds the round-tripped field, the target, the baseline stats, the
    canonical fault spec and, for app campaigns, the
    :class:`repro.apps.campaign.AppCampaignConfig`.  Every executor
    computes through one kernel: the serial loop and the work-stealing
    coordinator call it in-process, pool and work-stealing children
    inherit it across the fork (never pickled), and a standalone
    ``campaign worker`` rebuilds it with :meth:`from_manifest`.  Per-bit
    seed streams make the records :meth:`compute` returns a pure
    function of its arguments.
    """

    def __init__(self, stored: np.ndarray | None, target: NumberFormat,
                 baseline: SummaryStats | None, fault_spec: str, app=None):
        self.stored = stored
        self.target = target
        self.baseline = baseline
        self.fault_spec = fault_spec
        self.app = app

    @classmethod
    def from_manifest(cls, manifest: RunManifest) -> "ShardKernel":
        """Rebuild a run's kernel from its manifest's recorded provenance."""
        target = resolve(manifest.target_spec)
        if manifest.app is not None:
            # App cells replay the solve; they never read the field.
            from repro.apps.campaign import AppCampaignConfig

            app = AppCampaignConfig.from_manifest(manifest)
            return cls(None, target, None, manifest.fault, app)
        from repro.runner.runner import _regenerate_dataset

        flat = np.asarray(_regenerate_dataset(manifest)).reshape(-1)
        if dataset_fingerprint(flat) != manifest.data_fingerprint:
            raise RunnerError("the dataset regenerated from the manifest's "
                              "provenance does not match its recorded fingerprint")
        stored = target.round_trip(flat)
        return cls(stored, target, SummaryStats.from_array(stored), manifest.fault)

    def compute(self, bit: int, trials: int, seed) -> tuple:
        """Every trial of one shard, and the seconds computing it took."""
        start = time.perf_counter()
        if self.app is not None:
            from repro.apps.campaign import run_app_shard

            records = run_app_shard(self.app, self.target, bit, trials, seed)
        else:
            records = run_campaign_shard(
                self.stored, self.target, bit, trials, seed, self.baseline,
                fault_spec=self.fault_spec,
            )
        return records, time.perf_counter() - start


def compute_with_retries(kernel: ShardKernel, bit: int, trials: int, seed, *,
                         emit, max_retries: int, retry_backoff: float,
                         chaos=None) -> tuple:
    """Compute one shard in-process, retrying with exponential backoff.

    The one synchronous retry loop: chaos compute faults fire before
    each attempt, ``emit(kind, bit=, attempt=, error=)`` receives a
    ``shard_error`` for every failed attempt and a ``shard_retry`` for
    every new one, both carrying the 0-based attempt.  Returns
    ``(records, seconds, attempts)``; raises :class:`RunnerError` once
    ``max_retries`` retries have failed too.
    """
    attempt = 0
    while True:
        try:
            if chaos is not None:
                from repro.chaos import fire_compute_faults

                fire_compute_faults(chaos, bit, attempt)
            records, seconds = kernel.compute(bit, trials, seed)
            return records, seconds, attempt + 1
        except Exception as error:
            emit("shard_error", bit=bit, attempt=attempt, error=repr(error))
            if attempt >= max_retries:
                raise RunnerError(
                    f"shard for bit {bit} failed after {attempt + 1} attempt(s)"
                ) from error
            attempt += 1
            time.sleep(retry_backoff * (2 ** (attempt - 1)))
            emit("shard_retry", bit=bit, attempt=attempt, error=repr(error))


def fold_run(run_dir) -> RunManifest:
    """Fold completion records into the manifest; idempotent.

    Derives every folded shard state purely from the ``leases/`` done
    records (checksum, duration, attempts, worker), so concurrent folds
    by racing workers write identical manifests (the write is an atomic
    replace).  When no shard remains pending the run status advances to
    completed.  Records whose shard file is missing are skipped — the
    shard simply stays pending and will be recomputed.
    """
    manifest = RunManifest.load(run_dir)
    records = read_done_records(run_dir)
    changed = False
    for bit, record in records.items():
        state = manifest.shards.get(bit)
        if state is None or state.status == SHARD_COMPLETED:
            continue
        if not RunManifest.shard_path(run_dir, bit).is_file():
            continue
        state.status = SHARD_COMPLETED
        state.checksum = record.get("checksum") or None
        state.duration = record.get("duration")
        state.attempts = int(record.get("attempts", 1))
        state.worker = record.get("worker")
        changed = True
    if not manifest.pending_bits() and manifest.status != RUN_COMPLETED:
        manifest.status = RUN_COMPLETED
        changed = True
    if changed:
        manifest.write(run_dir)
    return manifest


class ShardWorker:
    """One cooperating worker process for a submitted campaign.

    Parameters
    ----------
    run_dir:
        The shared run directory (manifest + leases + shards + events).
    worker_id:
        Identity recorded in leases, done records, and events; defaults
        to ``<hostname>-<pid>``.
    kernel:
        The run's :class:`ShardKernel`, passed by the in-run executor
        whose fork already holds it.  When omitted (the standalone
        ``campaign worker`` path) it is rebuilt from the manifest.
    lease_timeout:
        Seconds of heartbeat silence before another worker's lease is
        presumed orphaned and stolen.
    poll_interval:
        Sleep between sweeps when nothing was claimable.
    max_claims:
        Stop after claiming this many shards (None = unlimited).
    max_idle_seconds:
        Give up after this long without any observable progress across
        the whole run (None = wait forever).  Returns ``status="idle"``.
    max_retries / retry_backoff:
        Per-shard in-worker retry budget, as in the runner.
    chaos:
        Optional fault plan fired before each compute attempt (in-run
        children inherit the runner's plan across the fork).
    finalize:
        Fold + finalize when the run completes.  The in-run executor's
        children pass False — their coordinator owns the manifest.
    hooks:
        Optional extra event consumers (beyond the events.jsonl append).
    telemetry:
        Profiling control (:func:`repro.telemetry.resolve_collector`).
        When enabled, this worker's snapshot is written to
        ``telemetry-workers/<worker>.json`` beside its done records on
        exit, where ``load_run_snapshot`` / ``telemetry report`` merge
        it with every other worker's — restoring the jobs=1 ≡ N-worker
        counter identity for distributed runs.
    trace:
        Distributed tracing + metrics control: ``None`` follows
        ``REPRO_TRACE`` and then the manifest's recorded flag (so a
        ``campaign submit --trace`` run is traced by every worker that
        joins it), booleans force it.
    metrics_interval:
        Seconds between time-series sample points (default 1.0).
    """

    def __init__(
        self,
        run_dir,
        *,
        worker_id: str | None = None,
        kernel: ShardKernel | None = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        poll_interval: float = 0.2,
        max_claims: int | None = None,
        max_idle_seconds: float | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        chaos=None,
        finalize: bool = True,
        hooks=None,
        telemetry=None,
        trace=None,
        metrics_interval: float = 1.0,
    ):
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive, got {lease_timeout}")
        self.run_dir = Path(run_dir)
        self.worker_id = worker_id or default_worker_id()
        self.lease_timeout = float(lease_timeout)
        self.poll_interval = float(poll_interval)
        self.max_claims = max_claims
        self.max_idle_seconds = max_idle_seconds
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.chaos = chaos
        self.finalize = finalize
        if hooks is None:
            hooks = []
        elif not isinstance(hooks, (list, tuple)):
            hooks = [hooks]
        self.hooks = list(hooks)
        self.kernel = kernel
        self._failed: set[int] = set()
        self._started = 0.0
        self.telemetry = resolve_collector(telemetry)
        self._trace_arg = trace
        self.metrics_interval = float(metrics_interval)
        self._trace_ctx: TraceContext | None = None
        self._tracer: TraceWriter | None = None
        self._my_claims = 0
        self._my_trials = 0

    # -- setup --------------------------------------------------------------

    def _load(self) -> tuple[RunManifest, dict]:
        manifest = RunManifest.load(self.run_dir)
        if manifest.status == RUN_RUNNING and manifest.executor not in (
            None, "work-stealing",
        ):
            raise RunnerError(
                f"run {self.run_dir} is executing under the "
                f"{manifest.executor!r} executor, which does not coordinate "
                "through leases; a work-stealing worker cannot join it"
            )
        if self.kernel is None:
            self.kernel = ShardKernel.from_manifest(manifest)
        if self.kernel.app is not None:
            # App campaign: shards are (iteration, bit) cells whose seeds
            # are a pure function of (seed, iteration, bit), so this
            # worker replays any cell byte-identically to any other.
            from repro.apps.campaign import cell_seeds

            return manifest, cell_seeds(self.kernel.app, self.kernel.target)
        config = CampaignConfig(
            trials_per_bit=manifest.trials_per_bit,
            bits=manifest.bits,
            seed=manifest.seed,
            fault=manifest.fault,
        )
        return manifest, bit_seeds(config, self.kernel.target)

    # -- events -------------------------------------------------------------

    def _emit(self, log, kind: str, *, bit: int | None = None, attempt: int = 0,
              shards_done: int = 0, shards_total: int = 0,
              trials_done: int = 0, trials_total: int = 0,
              error: str | None = None, detail: dict | None = None) -> None:
        detail = dict(detail or {})
        detail.setdefault("worker", self.worker_id)
        event = RunnerEvent(
            kind=kind,
            elapsed=round(max(time.monotonic() - self._started, 0.0), 6),
            bit=bit,
            attempt=attempt,
            shards_done=shards_done,
            shards_total=shards_total,
            trials_done=trials_done,
            trials_total=trials_total,
            error=error,
            trace_id=self._trace_ctx.trace_id if self._trace_ctx else None,
            detail=detail,
        )
        for hook in [log, *self.hooks]:
            dispatch_event(hook, event)

    # -- the loop -----------------------------------------------------------

    def run(self) -> WorkerResult:
        """Claim, compute, and record shards until the run is done.

        Observability wraps — never alters — the claim loop: the
        worker's own telemetry collector is scoped around it, its
        snapshot lands beside the done records on exit, and when the run
        is traced this worker appends spans and time-series points to
        its own files under ``trace/`` and ``metrics/``.
        """
        self._started = time.monotonic()
        wall_start = time.time()
        sampler = None
        result: WorkerResult | None = None
        try:
            with telemetry_scope(self.telemetry):
                manifest, seeds = self._load()
                trace_on = resolve_trace(self._trace_arg) or (
                    self._trace_arg is None and manifest.trace
                )
                if trace_on:
                    self._trace_ctx = TraceContext.for_run(
                        manifest.identity(), self.run_dir, worker=self.worker_id
                    )
                    self._tracer = TraceWriter(self.run_dir, self._trace_ctx)
                    sampler = MetricsSampler(
                        MetricsWriter(self.run_dir, self.worker_id),
                        self._sample_metrics,
                        interval=self.metrics_interval,
                    ).start()
                result = self._run_loop(manifest, seeds)
                return result
        finally:
            if sampler is not None:
                sampler.stop()
            if self.telemetry.enabled:
                snapshot = self.telemetry.snapshot()
                if not snapshot.empty:
                    write_worker_snapshot(snapshot, self.run_dir, self.worker_id)
            if self._tracer is not None:
                ctx = self._trace_ctx
                self._tracer.emit(
                    f"worker {ctx.worker}",
                    ts=wall_start,
                    duration=time.time() - wall_start,
                    span_id=ctx.worker_span_id,
                    parent_id=ctx.run_span_id,
                    category="worker",
                    args={
                        "role": "standalone" if self.finalize else "forked",
                        "claims": result.claims if result else self._my_claims,
                        "status": result.status if result else "error",
                    },
                )
                self._tracer.close()
                self._tracer = None

    def _sample_metrics(self) -> dict:
        """One time-series point for this worker (the sampler callable)."""
        point = {
            "trials_done": self._my_trials,
            "shards_done": self._my_claims,
        }
        try:
            point["leases_active"] = len(active_leases(self.run_dir))
        except OSError:
            pass
        if self.telemetry.enabled:
            phases = self.telemetry.snapshot().phase_seconds()
            if phases:
                point["phase_seconds"] = {
                    name: round(seconds, 6) for name, seconds in phases.items()
                }
        return point

    def _run_loop(self, manifest: RunManifest, seeds: dict) -> WorkerResult:
        shards_total = len(manifest.shards)
        trials_total = manifest.trials_total
        already = set(manifest.completed_bits())
        claims = 0
        stolen = 0
        status = "completed"
        finalized = False
        last_progress = time.monotonic()
        last_seen_done = -1

        with EventLogWriter(RunManifest.event_log_path(self.run_dir)) as log:
            self._emit(log, "worker_start", shards_total=shards_total,
                       trials_total=trials_total,
                       detail={"pid": os.getpid(),
                               "lease_timeout": self.lease_timeout})
            while True:
                if cancel_requested(self.run_dir):
                    status = "cancelled"
                    break
                done = read_done_records(self.run_dir)
                done_bits = already | set(done)
                remaining = [b for b in sorted(manifest.shards)
                             if b not in done_bits]
                if not remaining:
                    break
                if len(done_bits) != last_seen_done:
                    last_seen_done = len(done_bits)
                    last_progress = time.monotonic()
                claimable = [b for b in remaining if b not in self._failed]
                if not claimable and not active_leases(self.run_dir):
                    raise RunnerError(
                        f"worker {self.worker_id} exhausted retries on bit(s) "
                        f"{sorted(self._failed)} and no other worker holds "
                        "a lease on them"
                    )
                progressed = False
                for bit in claimable:
                    if self.max_claims is not None and claims >= self.max_claims:
                        break
                    lease = try_claim(self.run_dir, bit, self.worker_id,
                                      lease_timeout=self.lease_timeout)
                    if lease is None:
                        continue
                    if read_done_records(self.run_dir).get(bit) is not None:
                        lease.release()  # finished between our scan and claim
                        continue
                    progressed = True
                    last_progress = time.monotonic()
                    counts = {"shards_done": len(done_bits),
                              "shards_total": shards_total,
                              "trials_done": sum(
                                  manifest.shards[b].trials for b in done_bits),
                              "trials_total": trials_total}
                    if lease.stolen_from:
                        stolen += 1
                        self._emit(log, "lease_stolen", bit=bit,
                                   error=f"lease of {lease.stolen_from} expired",
                                   detail={"stolen_from": lease.stolen_from},
                                   **counts)
                    self._emit(log, "shard_claimed", bit=bit, **counts)
                    outcome = self._run_shard(log, lease, bit,
                                              manifest.shards[bit].trials,
                                              seeds[bit], counts)
                    lease.release()
                    if outcome:
                        claims += 1
                if self.max_claims is not None and claims >= self.max_claims:
                    status = "idle"
                    break
                if not progressed:
                    if (self.max_idle_seconds is not None
                            and time.monotonic() - last_progress
                            > self.max_idle_seconds):
                        status = "idle"
                        break
                    time.sleep(self.poll_interval)

            if status == "completed" and self.finalize:
                folded = fold_run(self.run_dir)
                if (folded.status == RUN_COMPLETED
                        and try_acquire_finalize(self.run_dir, self.worker_id)):
                    finalized = True
                    sweep_shard_temps(self.run_dir)
                    self._emit(log, "run_finish",
                               shards_done=len(folded.completed_bits()),
                               shards_total=shards_total,
                               trials_done=folded.trials_done,
                               trials_total=trials_total,
                               detail={"finalized_by": self.worker_id})
            self._emit(log, "worker_exit", shards_total=shards_total,
                       trials_total=trials_total,
                       detail={"claims": claims, "stolen": stolen,
                               "status": status, "finalized": finalized})
        return WorkerResult(worker=self.worker_id, claims=claims,
                            stolen=stolen, status=status, finalized=finalized)

    def _run_shard(self, log, lease, bit: int, trials: int, seed, counts) -> bool:
        """Compute + persist one claimed shard; False if retries exhausted."""
        with LeaseHeartbeat(lease, self.lease_timeout / 3.0):
            try:
                records, duration, attempts = compute_with_retries(
                    self.kernel, bit, trials, seed,
                    emit=lambda kind, **event: self._emit(log, kind, **event,
                                                          **counts),
                    max_retries=self.max_retries,
                    retry_backoff=self.retry_backoff, chaos=self.chaos,
                )
            except RunnerError:
                # Leave the shard for a healthier worker; only if nobody
                # else can take it does the claim loop raise.
                self._failed.add(bit)
                return False
            checksum = persist_shard_file(self.run_dir, bit, records)
            write_done_record(
                self.run_dir, bit,
                trials=len(records), duration=duration, attempts=attempts,
                checksum=checksum, worker=self.worker_id,
            )
            self._my_claims += 1
            self._my_trials += len(records)
            if self._tracer is not None:
                self._tracer.shard_span(
                    bit=bit,
                    attempt=attempts - 1,
                    ts=time.time() - duration,
                    duration=duration,
                    args={"trials": len(records)},
                )
            self._emit(log, "shard_finish", bit=bit, attempt=attempts - 1,
                       detail={"duration": round(duration, 6)},
                       **{**counts, "shards_done": counts["shards_done"] + 1,
                          "trials_done": counts["trials_done"] + len(records)})
        return True


def run_worker(run_dir, **kwargs) -> WorkerResult:
    """Convenience wrapper: construct and run one :class:`ShardWorker`."""
    return ShardWorker(run_dir, **kwargs).run()
