"""The benchmark's workloads: seeded inputs, set-up, timed calls, checks.

Every workload drives the ``repro`` package through its public API from
one process (``fleet-sweep`` adds the runner's own worker processes, at
most two).  Inputs come only from the seed: preset fields are drawn
from seeded generators and each timed campaign runs on a seeded
rotation of its field, so every campaign sees data no cache has seen,
as a user running each field once would.

``paper-durable``
    Serial ``run_campaign`` with a run directory over two Table-1 fields
    at 64 Ki elements, ``posit32`` and ``ieee32``, all 32 bits, 313
    trials per bit; then ``verify_run`` and ``resume_campaign`` reopen
    the run directory.
``paper-memory``
    The same campaigns without a run directory.  In the first round the
    records are exported with ``TrialRecords.write_csv``; every round
    reads the export back with ``TrialRecords.read_csv``.  That read is
    this workload's reopen pass and the export's size its disk footprint.
``app-cells``
    A durable serial CG ``run_app_campaign`` at grid 8 in ``posit16``,
    one trial per cell, injections at iterations 1..12 on all 16 bits
    (192 shards); then the same reopen pass.
``fleet-sweep``
    Durable ``posit32`` campaigns on two fields, one under
    ``adjacent(2)`` and one under ``random(2)``, each run once by the
    ``pool`` and once by the ``work-stealing`` executor at two jobs; the
    work-stealing run directory is then reopened.

A round runs every cell of a workload once.  Checks run outside the
timed calls; any mismatch counts as a failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostspeed
import repro.apps.campaign as apps_api
import repro.inject.campaign as campaign_api
import repro.runner as runner_api
from repro.datasets.registry import get as get_preset
from repro.formats import resolve
from repro.inject.results import TrialRecords
from repro.inject.trial import run_single_trial
from repro.metrics.summary import SummaryStats

WORKLOADS = ("paper-durable", "paper-memory", "app-cells", "fleet-sweep")

FIELD_SIZE = 1 << 16
TRIALS_PER_BIT = campaign_api.PAPER_TRIALS_PER_BIT
PAPER_FIELDS = ("cesm/cloud", "nyx/temperature")
PAPER_FORMATS = ("posit32", "ieee32")
APP_FORMAT = "posit16"
APP_CONFIG = {"app": "cg", "grid": 8, "iterations": tuple(range(1, 13)),
              "trials_per_cell": 1}
#: Reopen passes per app campaign.
APP_REOPENS = 6
#: App cells replayed in memory per campaign and compared byte for byte.
APP_REPLAY_CELLS = 8
#: (field, fault model) of each fleet cell.
FLEET_CELLS = (("hacc/vx", "adjacent(2)"), ("nyx/temperature", "random(2)"))
FLEET_FORMAT = "posit32"
FLEET_EXECUTORS = ("pool", "work-stealing")
FLEET_JOBS = 2

#: Percentile reported as ``shard_tail_ms``: the highest one that keeps
#: at least ten of the shard profile's intervals beyond it
#: (:func:`shard_profiles`; 4 x 31 on the paper workloads, 191 on
#: ``app-cells``, 4 x 30 on ``fleet-sweep``).
TAIL_PERCENTILE = {"paper-durable": 91, "paper-memory": 91,
                   "app-cells": 94, "fleet-sweep": 91}
#: Passes over every cell in a traced run (each cell untraced, then traced).
TRACE_CYCLES = {"paper-durable": 2, "paper-memory": 4,
                "app-cells": 1, "fleet-sweep": 2}

#: Seconds between host-speed samples inside a serial campaign call.
SAMPLE_EVERY_S = 0.25

#: Runner events that count against ``shard_fail_ratio``.
FAILURE_EVENTS = ("shard_retry", "shard_quarantined", "shard_fallback")


def describe(workload: str) -> dict:
    """The fixed shape of a workload, for the run metadata."""
    if workload == "app-cells":
        return {"format": APP_FORMAT, **APP_CONFIG,
                "iterations": list(APP_CONFIG["iterations"])}
    if workload == "fleet-sweep":
        return {"cells": [list(cell) for cell in FLEET_CELLS], "formats": [FLEET_FORMAT],
                "executors": list(FLEET_EXECUTORS),
                "jobs": FLEET_JOBS, "field_size": FIELD_SIZE,
                "trials_per_bit": TRIALS_PER_BIT}
    return {"fields": list(PAPER_FIELDS), "formats": list(PAPER_FORMATS),
            "field_size": FIELD_SIZE, "trials_per_bit": TRIALS_PER_BIT,
            "durable": workload == "paper-durable"}


@dataclass
class Setup:
    """What set-up hands the timed loop: generated fields and a config."""

    workload: str
    seed: int
    data: dict[str, np.ndarray]
    config: object


def setup(workload: str, seed: int) -> Setup:
    """Generate the inputs and build the first runner (the timed set-up).

    Each format's first runner also runs one in-memory shard: codec
    tables the campaign needs (the composed classify layout, say) are
    built lazily on first use, and that build belongs to set-up, not to
    the first timed campaign.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if workload == "app-cells":
        config = apps_api.AppCampaignConfig(seed=seed, **APP_CONFIG)
        one_cell = dataclasses.replace(config, iterations=(1,), bits=(0,))
        apps_api.AppCampaignRunner(one_cell, APP_FORMAT).run()
        return Setup(workload, seed, {}, config)
    fleet = workload == "fleet-sweep"
    fields = tuple(name for name, _ in FLEET_CELLS) if fleet else PAPER_FIELDS
    data = {
        name: get_preset(name).generate(seed=np.random.default_rng([seed, i]),
                                        size=FIELD_SIZE)
        for i, name in enumerate(fields)
    }
    config = campaign_api.CampaignConfig(trials_per_bit=TRIALS_PER_BIT, seed=seed)
    one_shard = dataclasses.replace(config, bits=(0,))
    for fmt in (FLEET_FORMAT,) if fleet else PAPER_FORMATS:
        runner_api.CampaignRunner(data[fields[0]], resolve(fmt), one_shard).run()
    return Setup(workload, seed, data, config)


@dataclass
class Timing:
    """One timed call: wall seconds, calibrated seconds, shard intervals.

    Calibrated times are wall times divided by the host slowdown
    measured around them (:mod:`hostspeed`).
    """

    seconds: float
    calibrated_s: float
    #: Calibrated intervals between consecutive shard completions.
    intervals: list[float]

    @property
    def slowdown(self) -> float:
        return self.seconds / self.calibrated_s


class CallClock(runner_api.RunnerHooks):
    """Times calls against the host's speed; observes the runner's shards.

    :meth:`time` samples the host's speed before and after the call.
    Serial runs are also sampled from inside: at the first shard
    completion after every ``sample_every`` seconds, the clock samples
    again, so a long call is split into segments that each get the
    slowdown of the samples at its ends.  Sampling time is left out of
    the call's time and of every interval.  A parallel run is not
    sampled inside, where the kernel would compete with its workers;
    its samples run the kernel on as many cores as it has workers.

    A completion is a ``shard_finish`` or, for shards a work-stealing
    child computed, the coordinator's ``shard_adopted``.  With ``jobs``
    workers, the k-th interval is the time from completion k to
    completion k + jobs, over jobs: two workers that finish in pairs
    and two that finish in turn give the same intervals.
    """

    def __init__(self, sample_every: float | None = None):
        self.sample_every = sample_every
        self.failures: Counter = Counter()
        self._timing = False

    def time(self, call, jobs: int = 1):
        """Run ``call()`` with ``jobs`` workers; return its result and :class:`Timing`."""
        self._cpus = tuple(sorted(os.sched_getaffinity(0)))[:jobs] if jobs > 1 else ()
        self._segments: list[tuple[float, float]] = []
        #: ``(segment, time)`` of each completion, sampling time left out.
        self._completions: list[tuple[int, float]] = []
        self._sampling_s = 0.0
        self._sample = hostspeed.sample(self._cpus)
        self._timing = True
        self._start = time.perf_counter()
        try:
            result = call()
        finally:
            self._timing = False
        self._close_segment()
        slowdowns = [slow for _, slow in self._segments]
        done = self._completions
        return result, Timing(
            seconds=sum(wall for wall, _ in self._segments),
            calibrated_s=sum(wall / slow for wall, slow in self._segments),
            intervals=[(done[k + jobs][1] - done[k][1]) / jobs / slowdowns[done[k + jobs][0]]
                       for k in range(len(done) - jobs)],
        )

    def _close_segment(self) -> None:
        end = time.perf_counter()
        after = hostspeed.sample(self._cpus)
        self._segments.append((end - self._start, hostspeed.slowdown(self._sample, after)))
        self._sample = after
        self._start = time.perf_counter()
        self._sampling_s += self._start - end

    def on_event(self, event) -> None:
        if event.kind in ("shard_finish", "shard_adopted") and self._timing:
            now = time.perf_counter()
            self._completions.append((len(self._segments), now - self._sampling_s))
            if self.sample_every is not None and now - self._start >= self.sample_every:
                self._close_segment()
        elif event.kind in FAILURE_EVENTS:
            self.failures[event.kind] += 1


@dataclass
class Tally:
    """Everything the timed loop measured.

    Each timed call is kept under its *kind* (the cell it ran, e.g.
    field x format) so the metrics can compare calls of one kind; the
    totals cover every call.
    """

    campaign_s: float = 0.0
    trials: int = 0
    export_s: float = 0.0
    reopen_s: float = 0.0
    reopen_trials: int = 0
    disk_bytes: int = 0
    disk_trials: int = 0
    shards: int = 0
    campaigns: dict[str, list] = field(default_factory=dict)
    reopens: dict[str, list] = field(default_factory=dict)
    by_label: dict[str, list] = field(default_factory=dict)
    failures: Counter = field(default_factory=Counter)
    clock: CallClock = field(default_factory=CallClock)

    def add_campaign(self, kind: str, label: str, trials: int, timing: Timing,
                     shards: int) -> None:
        self.campaigns.setdefault(kind, []).append((trials, timing))
        self.campaign_s += timing.seconds
        self.trials += trials
        self.shards += shards
        entry = self.by_label.setdefault(label, [0, 0.0])
        entry[0] += trials
        entry[1] += timing.seconds

    def add_reopen(self, kind: str, trials: int, timing: Timing) -> None:
        self.reopens.setdefault(kind, []).append((trials, timing))
        self.reopen_trials += trials
        self.reopen_s += timing.seconds

    def add_disk(self, size: int, trials: int) -> None:
        self.disk_bytes += size
        self.disk_trials += trials

    def fail(self, reason: str, count: int = 1) -> None:
        if count:
            self.failures[reason] += count

    @property
    def failed(self) -> int:
        return sum(self.failures.values()) + sum(self.clock.failures.values())

    @property
    def busy_s(self) -> float:
        """Wall time of every timed call into the program."""
        return self.campaign_s + self.export_s + self.reopen_s


@dataclass
class Pass:
    """One measured pass: its inputs, scratch space, and tally."""

    setup: Setup
    workdir: Path
    tally: Tally
    first_round: int
    quiet: object = contextlib.nullcontext
    #: Records exported in the first round, by cell (``paper-memory``).
    exported: dict = field(default_factory=dict)


def measure(s: Setup, workdir: Path, seconds: float) -> Tally:
    """Run whole rounds over every cell until ``seconds`` of wall time pass.

    Stopping only between rounds keeps the mix of cells the same in
    every run.  At least one round always runs.
    """
    cells, run_cell = _CELLS[s.workload](s)
    every = None if s.workload == "fleet-sweep" else SAMPLE_EVERY_S
    run = Pass(s, workdir, Tally(clock=CallClock(every)), first_round=0)
    deadline = time.perf_counter() + seconds
    round_index = 0
    while round_index == 0 or time.perf_counter() < deadline:
        for cell in cells:
            run_cell(run, cell, round_index)
        round_index += 1
    return run.tally


def measure_traced(s: Setup, workdir: Path, tracer, cycles: int) -> tuple[Tally, Tally]:
    """Run every cell twice in a row, untraced then traced.

    Pairing each traced cell with an untraced twin on the same kind of
    input keeps machine drift out of the tracing-overhead ratio.
    Returns ``(untraced, traced)`` tallies.
    """
    cells, run_cell = _CELLS[s.workload](s)
    plain = Pass(s, workdir, Tally(), 0, tracer.paused)
    traced = Pass(s, workdir, Tally(), 1, tracer.paused)
    for cycle in range(cycles):
        for cell in cells:
            tracer.enabled = False
            run_cell(plain, cell, 2 * cycle)
            tracer.enabled = True
            run_cell(traced, cell, 2 * cycle + 1)
    tracer.enabled = False
    return plain.tally, traced.tally


# -- cells ------------------------------------------------------------------


def _rotation(s: Setup, round_index: int, name: str) -> np.ndarray:
    """A seeded rotation of a field: same values, unseen by any cache."""
    salt = sorted(s.data).index(name)
    shift = np.random.default_rng([s.seed, round_index, salt]).integers(1, FIELD_SIZE)
    return np.roll(s.data[name], int(shift))


def _slug(*parts) -> str:
    return "-".join(str(p).replace("/", "_").replace("(", "").replace(")", "")
                    for p in parts)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _paper_cells(s: Setup):
    cells = [(name, fmt) for name in PAPER_FIELDS for fmt in PAPER_FORMATS]
    run = _paper_durable_cell if s.workload == "paper-durable" else _paper_memory_cell
    return cells, run


def _paper_durable_cell(run: Pass, cell, round_index: int) -> None:
    s, workdir, tally, quiet = run.setup, run.workdir, run.tally, run.quiet
    name, fmt = cell
    data = _rotation(s, round_index, name)
    run_dir = workdir / _slug(name, fmt, round_index)
    result, timing = tally.clock.time(lambda: campaign_api.run_campaign(
        data, fmt, s.config, run_dir=run_dir, hooks=tally.clock))
    tally.add_campaign(f"{name} {fmt}", fmt, result.trial_count, timing, resolve(fmt).nbits)
    tally.add_disk(_dir_bytes(run_dir), result.trial_count)
    (report, resumed), timing = tally.clock.time(lambda: (
        runner_api.verify_run(run_dir),
        runner_api.resume_campaign(run_dir, data=data, hooks=tally.clock)))
    tally.add_reopen(f"{name} {fmt}", resumed.trial_count, timing)
    with quiet():
        _check_reopen(tally, report, resumed, result, resolve(fmt).nbits)
        reference = campaign_api.run_campaign(data, fmt, s.config)
        for bit in range(resolve(fmt).nbits):
            expected = reference.records.for_bit(bit).to_csv_string().encode()
            shard = runner_api.RunManifest.shard_path(run_dir, bit).read_bytes()
            if shard != expected:
                tally.fail("durable-vs-memory shard bytes")
    shutil.rmtree(run_dir)


def _paper_memory_cell(run: Pass, cell, round_index: int) -> None:
    s, workdir, tally, quiet = run.setup, run.workdir, run.tally, run.quiet
    name, fmt = cell
    data = _rotation(s, round_index, name)
    result, timing = tally.clock.time(lambda: campaign_api.run_campaign(
        data, fmt, s.config, hooks=tally.clock))
    tally.add_campaign(f"{name} {fmt}", fmt, result.trial_count, timing, resolve(fmt).nbits)
    with quiet():
        _check_memory(tally, data, fmt, s.config, result.records)
    # Export in the first round only (the CSV writer costs more per trial
    # than the campaign and would crowd it out of the run); read the
    # export back every round.
    export = workdir / f"{_slug(name, fmt, run.first_round)}.csv"
    if round_index == run.first_round:
        start = time.perf_counter()
        result.records.write_csv(export)
        tally.export_s += time.perf_counter() - start
        tally.add_disk(export.stat().st_size, result.trial_count)
        run.exported[cell] = result.records
    back, timing = tally.clock.time(lambda: TrialRecords.read_csv(export))
    tally.add_reopen(f"{name} {fmt}", len(back), timing)
    with quiet():
        if not same_records(back, run.exported[cell]):
            tally.fail("export read-back records")


def _check_memory(tally, data, fmt, config, records) -> None:
    """Runner records == the batched all-bits engine == the scalar trial."""
    target = resolve(fmt)
    stored = target.round_trip(data)
    baseline = SummaryStats.from_array(stored)
    batched = campaign_api.run_field_trials(stored, target, baseline, config)
    if not same_records(batched, records):
        tally.fail("runner-vs-batched records")
    for row in np.flatnonzero(records.trial == 0):
        single = run_single_trial(stored, int(records.index[row]),
                                  int(records.bit[row]), target)
        agree = (
            np.array_equal([records.faulty[row], records.abs_err[row]],
                           [single.faulty, single.abs_err], equal_nan=True)
            and records.field[row] == single.field
            and records.regime_k[row] == single.regime_k
        )
        if not agree:
            tally.fail("scalar-trial mismatch")


def _app_cells(s: Setup):
    return [0], _app_cell


def _app_cell(run: Pass, cell, round_index: int) -> None:
    s, workdir, tally, quiet = run.setup, run.workdir, run.tally, run.quiet
    seed = int(np.random.default_rng([s.seed, round_index]).integers(2**31))
    config = dataclasses.replace(s.config, seed=seed)
    run_dir = workdir / _slug("app", round_index)
    result, timing = tally.clock.time(lambda: apps_api.run_app_campaign(
        config, APP_FORMAT, run_dir=run_dir, hooks=tally.clock))
    seeds = apps_api.cell_seeds(config, APP_FORMAT)
    tally.add_campaign("app", APP_FORMAT, len(result.records), timing, len(seeds))
    tally.add_disk(_dir_bytes(run_dir), len(result.records))
    # The reopen pass is short next to the campaign: repeat it so the
    # run has as many reopen samples as campaign shards to draw on.
    for _ in range(APP_REOPENS):
        (report, resumed), timing = tally.clock.time(lambda: (
            runner_api.verify_run(run_dir),
            runner_api.resume_campaign(run_dir, hooks=tally.clock)))
        tally.add_reopen("app", len(resumed.records), timing)
        with quiet():
            _check_reopen(tally, report, resumed, result, len(seeds))
    with quiet():
        if not set(result.records.outcome.tolist()) <= set(apps_api.OUTCOMES):
            tally.fail("unknown app outcome")
        pick = np.random.default_rng([seed, 1]).choice(
            sorted(seeds), APP_REPLAY_CELLS, replace=False)
        for cell_id in pick.tolist():
            replay = apps_api.run_app_shard(config, APP_FORMAT, cell_id,
                                            config.trials_per_cell, seeds[cell_id])
            shard = runner_api.RunManifest.shard_path(run_dir, cell_id).read_bytes()
            if replay.to_csv_string().encode() != shard:
                tally.fail("app-cell replay bytes")
    shutil.rmtree(run_dir)


def _fleet_cells(s: Setup):
    return list(FLEET_CELLS), _fleet_cell


def _fleet_cell(run: Pass, cell, round_index: int) -> None:
    s, workdir, tally, quiet = run.setup, run.workdir, run.tally, run.quiet
    name, fault = cell
    data = _rotation(s, round_index, name)
    config = dataclasses.replace(s.config, fault=fault)
    nbits = resolve(FLEET_FORMAT).nbits
    dirs, results = {}, {}
    for executor in FLEET_EXECUTORS:
        run_dir = dirs[executor] = workdir / _slug(name, fault, executor, round_index)
        results[executor], timing = tally.clock.time(lambda: campaign_api.run_campaign(
            data, FLEET_FORMAT, config, run_dir=run_dir, executor=executor,
            jobs=FLEET_JOBS, hooks=tally.clock,
        ), jobs=FLEET_JOBS)
        tally.add_campaign(f"{name} {executor}", executor, results[executor].trial_count,
                           timing, nbits)
        tally.add_disk(_dir_bytes(run_dir), results[executor].trial_count)
    stealing = dirs["work-stealing"]
    (report, resumed), timing = tally.clock.time(lambda: (
        runner_api.verify_run(stealing),
        runner_api.resume_campaign(stealing, data=data, hooks=tally.clock)))
    tally.add_reopen(name, resumed.trial_count, timing)
    with quiet():
        _check_reopen(tally, report, resumed, results["work-stealing"], nbits)
        tally.fail("verify error finding", len(runner_api.verify_run(dirs["pool"]).errors))
        for bit in range(nbits):
            pool = runner_api.RunManifest.shard_path(dirs["pool"], bit).read_bytes()
            if pool != runner_api.RunManifest.shard_path(stealing, bit).read_bytes():
                tally.fail("pool-vs-work-stealing shard bytes")
    for run_dir in dirs.values():
        shutil.rmtree(run_dir)


_CELLS = {
    "paper-durable": _paper_cells,
    "paper-memory": _paper_cells,
    "app-cells": _app_cells,
    "fleet-sweep": _fleet_cells,
}


# -- checks -----------------------------------------------------------------


def _check_reopen(tally, report, resumed, result, shards: int) -> None:
    """Verify is clean and resume restored every shard unchanged."""
    tally.fail("verify error finding", len(report.errors))
    if resumed.extras.get("resumed_shards") != shards:
        tally.fail("shards recomputed on resume")
    if not same_records(resumed.records, result.records):
        tally.fail("resumed records")


def same_records(a, b) -> bool:
    """Column-wise equality of two record sets.

    Floats must match to the bit, signed zeros included, except that any
    NaN equals any NaN: the CSV writes every NaN as ``nan``.
    """
    if type(a) is not type(b) or len(a) != len(b):
        return False
    for column in dataclasses.fields(a):
        x, y = getattr(a, column.name), getattr(b, column.name)
        if x is None or y is None:
            if x is not y:
                return False
        elif x.dtype.kind == "f":
            numbers = ~np.isnan(x)
            if not (np.array_equal(x, y, equal_nan=True)
                    and np.array_equal(np.signbit(x[numbers]), np.signbit(y[numbers]))):
                return False
        elif not np.array_equal(x, y):
            return False
    return True


# -- metrics ----------------------------------------------------------------


def end_to_end(workload: str, tally: Tally, setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end metric values of one timed run.

    Every timing is a call's wall time divided by the host slowdown
    measured around it (:mod:`hostspeed`), and each kind of call (field
    x format, say) counts with the median over the run's calls of that
    kind.  Sizes and memory come from the whole run.
    """
    profiles = shard_profiles(tally.campaigns)
    return {
        "trials_per_s": median_rate(tally.campaigns),
        "reopen_trials_per_s": median_rate(tally.reopens),
        "setup_s": setup_s,
        # Per kind, then averaged: pooled, the posit32 and ieee32 shards
        # form two clusters and the median would fall between them.
        "shard_p50_ms": float(np.mean([np.median(p) for p in profiles.values()])) * 1e3,
        "shard_tail_ms": float(np.percentile(np.concatenate(list(profiles.values())),
                                             TAIL_PERCENTILE[workload])) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "disk_bytes_per_trial": tally.disk_bytes / tally.disk_trials,
    }


def shard_profiles(calls_by_kind: dict[str, list]) -> dict[str, np.ndarray]:
    """Each kind's shard intervals, position by position, as a median call has them.

    The k-th interval of a call ends at a later shard completion
    (:class:`CallClock`).  Intervals are calibrated, and position k gets the median over the
    kind's calls: a slow shard shows in every call, a burst of
    contention in only one.
    """
    profiles = {}
    for kind, calls in calls_by_kind.items():
        width = min(len(timing.intervals) for _, timing in calls)
        table = np.array([timing.intervals[:width] for _, timing in calls])
        profiles[kind] = np.median(table, axis=0)
    return profiles


def median_rate(calls_by_kind: dict[str, list]) -> float:
    """Trials per calibrated second of one median call of each kind.

    Every call of a kind runs the same number of trials.
    """
    trials = sum(calls[0][0] for calls in calls_by_kind.values())
    seconds = sum(statistics.median(timing.calibrated_s for _, timing in calls)
                  for calls in calls_by_kind.values())
    return trials / seconds
