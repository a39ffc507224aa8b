"""The fault-injection platform's benchmark: one workload per invocation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-durable --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics for ``--seconds`` of wall
time with nothing wrapped, each timing divided by the host slowdown
measured around it (``hostspeed.py``); set-up time is the median of
three fresh processes (this one and two ``setup_probe.py`` runs).  ``--trace 1`` wraps each layer's
public functions (``layers.py``), runs a fixed number of passes over the
workload untraced and then traced, and reports per-layer metrics, the
layer budget, and the tracing overhead.  ``--workload all`` runs every
workload in turn and adds the durable-over-memory throughput ratio.

The metadata line and one line per metric come first; the last line of
standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: Start of this process's set-up (after the standard library imports).
_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for run directories, inside the checkout, removed on exit.
WORK_DIR = ROOT / ".perfbench-work"
#: Set-up samples per run: this process plus fresh ``setup_probe.py`` runs.
SETUP_PROBES = 3
WORKLOAD_NAMES = ("paper-durable", "paper-memory", "app-cells", "fleet-sweep")

END_TO_END_UNITS = {
    "trials_per_s": "trials/s",
    "reopen_trials_per_s": "trials/s",
    "setup_s": "s",
    "shard_p50_ms": "ms",
    "shard_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "disk_bytes_per_trial": "B",
}
#: A traced run must attribute at least this share of its wall time.
RECONCILE_FLOOR = 0.97


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        if args.trace:
            correct, attempted, failed, metrics, units = traced_run(args, workdir)
        else:
            correct, attempted, failed, metrics, units = timed_run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def timed_run(args, workdir: Path):
    import hostspeed
    import workloads

    setup = workloads.setup(args.workload, args.seed)
    seconds = time.perf_counter() - _START
    setup_samples = [seconds / hostspeed.slowdown(hostspeed.sample())]
    tally = workloads.measure(setup, workdir, seconds=args.seconds)
    # Read peak RSS before this process starts any helper (git, the
    # set-up probes): a forked child's peak RSS counts the pages it
    # shares with this process.
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    peak_rss_mb = sum(usage) / 1024.0
    print("meta " + json.dumps(metadata(args)))
    setup_samples += [probe_setup(args) for _ in range(SETUP_PROBES - 1)]
    metrics = workloads.end_to_end(args.workload, tally,
                                   statistics.median(setup_samples), peak_rss_mb)
    report_tally(tally, tally.failed, tally.shards)
    print(f"info all calls: {tally.trials / tally.campaign_s:.1f} trials/s, "
          f"reopen {tally.reopen_trials / tally.reopen_s:.1f} trials/s")
    samples = sum(len(p) for p in workloads.shard_profiles(tally.campaigns).values())
    percentile = workloads.TAIL_PERCENTILE[args.workload]
    beyond = samples * (100 - percentile) // 100
    print(f"info shard profile: {samples} intervals, tail = p{percentile} "
          f"({beyond} beyond)")
    if beyond < 10:
        print("warning: fewer than 10 shard intervals beyond the tail percentile",
              file=sys.stderr)
    slowdowns = [timing.slowdown for calls in tally.campaigns.values() for _, timing in calls]
    print(f"info host slowdown around campaign calls: min {min(slowdowns):.3f}, "
          f"median {statistics.median(slowdowns):.3f}, max {max(slowdowns):.3f}")
    print(f"info setup samples: {', '.join(f'{s:.4f}' for s in setup_samples)} s")
    return tally.failed == 0, tally.shards, tally.failed, metrics, END_TO_END_UNITS


def traced_run(args, workdir: Path):
    import layers
    import workloads
    from spans import Tracer

    print("meta " + json.dumps(metadata(args)))
    tracer = Tracer(workdir / "spans")
    layers.install(tracer)
    tracer.enabled = True
    setup = workloads.setup(args.workload, args.seed)
    tracer.enabled = False
    region_start = time.perf_counter_ns()
    untraced, traced = workloads.measure_traced(
        setup, workdir, tracer, workloads.TRACE_CYCLES[args.workload])
    trace = tracer.collect()

    metrics = layers.layer_metrics(trace)
    metrics["trace.overhead"] = traced.busy_s / untraced.busy_s
    metrics["trace.wall_s"] = traced.busy_s
    here, children = layers.layer_budget(trace, region_start)
    attributed = sum(here.values())
    share = attributed / traced.busy_s
    print(f"budget {args.workload}: traced wall {traced.busy_s:.4f} s, "
          f"attributed {attributed:.4f} s ({share:.1%}), "
          f"untraced wall {untraced.busy_s:.4f} s, "
          f"overhead {metrics['trace.overhead']:.3f}x")
    for layer, seconds in sorted(here.items(), key=lambda kv: -kv[1]):
        print(f"budget   {layer:<18s} {seconds:10.4f} s  {seconds / traced.busy_s:6.1%}")
    if children:
        busy = sum(children.values())
        print(f"budget worker processes: {busy:.4f} s of self time")
        for layer, seconds in sorted(children.items(), key=lambda kv: -kv[1]):
            print(f"budget   {layer:<18s} {seconds:10.4f} s  {seconds / busy:6.1%}")
    reconciled = RECONCILE_FLOOR <= share <= 1.0 + 1e-6
    if not reconciled:
        print(f"error: layer self times cover {share:.1%} of the traced wall time",
              file=sys.stderr)
    missing = layers.missing_calls(trace, args.workload)
    for name in missing:
        print(f"error: wrapped call {name} recorded no span", file=sys.stderr)
    failed = untraced.failed + traced.failed
    report_tally(traced, failed, untraced.shards + traced.shards)
    correct = failed == 0 and not missing and reconciled
    units = {name: unit for name, unit, _ in layers.PER_LAYER_METRICS}
    ordered = {name: metrics[name] for name in units}
    return correct, untraced.shards + traced.shards, failed, ordered, units


def report_tally(tally, failed: int, shards: int) -> None:
    """Human-readable lines: throughput per format or executor, failures."""
    for label, (trials, seconds) in sorted(tally.by_label.items()):
        print(f"info {label}: {trials} trials in {seconds:.4f} s = "
              f"{trials / seconds:.1f} trials/s")
    print(f"info export {tally.export_s:.4f} s, reopen {tally.reopen_trials} trials "
          f"in {tally.reopen_s:.4f} s, disk {tally.disk_bytes} B")
    failures = dict(tally.failures) | dict(tally.clock.failures)
    print(f"derived shard_fail_ratio = {failed / shards:.6g} ratio "
          f"({failed} of {shards} shards) {failures or ''}")


def probe_setup(args) -> float:
    """Set-up seconds of one fresh process."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"),
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def metadata(args) -> dict:
    """Where and on what a result was measured."""
    import numpy
    import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        **workloads.describe(args.workload),
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the package sources: identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_all(args) -> int:
    """Every workload in its own process, then the derived ratio."""
    results = {}
    for workload in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, check=False,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: workload {workload} exited {done.returncode}",
                  file=sys.stderr)
            return 1
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        results[workload] = json.loads(lines[-1])
    if not args.trace:
        durable = results["paper-durable"]["metrics"]["trials_per_s"]["value"]
        memory = results["paper-memory"]["metrics"]["trials_per_s"]["value"]
        print(f"derived paper-durable.trials_per_s / paper-memory.trials_per_s = "
              f"{durable / memory:.4f} (not gated)")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
