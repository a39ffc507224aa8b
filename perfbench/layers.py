"""The layers the traced run wraps, and the metrics built from their spans.

Every wrapped function is a public entry point of one layer of the
``repro`` package.  A span's *layer* is looked up in :data:`LAYER_OF`;
a layer's self time is the time its spans cover minus what nested
traced calls in the same process cover.  ``*_s`` metrics below are the
inclusive time of the named calls, summed over every process of the
run; ``runner.self_s`` and ``executors.coord_wait_s`` are self times.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

#: span name -> layer (module of the ``repro`` package it belongs to).
LAYER_OF = {
    "formats.round_trip": "formats",
    "formats.to_bits": "formats",
    "formats.from_bits": "formats",
    "inject.field_pipeline": "inject",
    "inject.run_campaign_shard": "inject",
    "inject.masks": "inject",
    "results.to_csv_string": "inject.results",
    "results.write_csv": "inject.results",
    "results.read_csv": "inject.results",
    "results.concatenate": "inject.results",
    "manifest.write": "runner.manifest",
    "manifest.load": "runner.manifest",
    "manifest.shard_checksum": "runner.manifest",
    "manifest.dataset_fingerprint": "runner.manifest",
    "events.on_event": "runner.events",
    "leases.try_claim": "runner.leases",
    "leases.write_done_record": "runner.leases",
    "leases.read_done_records": "runner.leases",
    "worker.fold_run": "runner.worker",
    "worker.ShardWorker.run": "runner.worker",
    "executors.execute": "runner.executors",
    "verify.verify_run": "runner.verify",
    "apps.run_app_shard": "apps",
    "apps.cg_solve": "apps",
    "runner.CampaignRunner.run": "runner.runner",
    "runner.run_campaign": "runner.runner",
    "runner.resume_campaign": "runner.runner",
    "runner.run_app_campaign": "runner.runner",
    "datasets.generate": "datasets",
}

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER_METRICS = (
    ("formats.round_trip_s", "s", "lower"),
    ("formats.round_trip_calls", "count", "lower"),
    ("formats.bits_s", "s", "lower"),
    ("inject.pipeline_s", "s", "lower"),
    ("inject.pipeline_calls", "count", "lower"),
    ("inject.shard_s", "s", "lower"),
    ("inject.shard_calls", "count", "lower"),
    ("inject.trials_per_busy_s", "trials/s", "higher"),
    ("inject.masks_s", "s", "lower"),
    ("results.to_csv_s", "s", "lower"),
    ("results.csv_bytes", "B", "lower"),
    ("results.read_csv_s", "s", "lower"),
    ("results.concatenate_s", "s", "lower"),
    ("manifest.write_s", "s", "lower"),
    ("manifest.write_calls", "count", "lower"),
    ("manifest.bytes_written", "B", "lower"),
    ("manifest.load_s", "s", "lower"),
    ("manifest.checksum_s", "s", "lower"),
    ("manifest.fingerprint_s", "s", "lower"),
    ("events.emit_s", "s", "lower"),
    ("events.emit_calls", "count", "lower"),
    ("events.bytes", "B", "lower"),
    ("leases.claims", "count", "lower"),
    ("leases.steals", "count", "lower"),
    ("leases.s", "s", "lower"),
    ("worker.done_records", "count", "lower"),
    ("worker.fold_s", "s", "lower"),
    ("executors.coord_wait_s", "s", "lower"),
    ("verify.s", "s", "lower"),
    ("verify.findings", "count", "lower"),
    ("apps.shard_s", "s", "lower"),
    ("apps.solves", "count", "lower"),
    ("apps.solve_s", "s", "lower"),
    ("runner.self_s", "s", "lower"),
    ("datasets.generate_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
)

_CAMPAIGN = (
    "formats.round_trip", "formats.to_bits", "formats.from_bits",
    "results.concatenate", "runner.CampaignRunner.run", "executors.execute",
)
_DURABLE = (
    "results.to_csv_string", "results.read_csv",
    "manifest.write", "manifest.load", "manifest.shard_checksum",
    "manifest.dataset_fingerprint", "events.on_event", "verify.verify_run",
    "runner.resume_campaign",
)
_VALUE = ("inject.field_pipeline", "inject.run_campaign_shard",
          "runner.run_campaign", "datasets.generate")

#: Spans each workload must record at least once: a patch that stops
#: matching the program's call sites fails the run instead of reading 0.
REQUIRED_CALLS = {
    "paper-durable": _CAMPAIGN + _DURABLE + _VALUE,
    "paper-memory": _CAMPAIGN + _VALUE + ("results.write_csv", "results.read_csv"),
    "app-cells": _CAMPAIGN + _DURABLE + (
        "apps.run_app_shard", "apps.cg_solve", "inject.masks",
        "runner.run_app_campaign",
    ),
    "fleet-sweep": _CAMPAIGN + _DURABLE + _VALUE + (
        "inject.masks", "leases.try_claim", "leases.write_done_record",
        "leases.read_done_records", "worker.fold_run", "worker.ShardWorker.run",
    ),
}


def install(tracer) -> None:
    """Wrap every layer entry point named in :data:`LAYER_OF`."""
    import repro.apps.campaign as app_campaign
    import repro.datasets.presets as presets
    import repro.formats.base as formats_base
    import repro.inject.faults as faults
    import repro.inject.parallel  # noqa: F401  (pool call sites)
    import repro.inject.results as results
    import repro.runner.events as events
    import repro.runner.executors as executors
    import repro.runner.manifest as manifest
    import repro.runner.runner as runner
    import repro.runner.worker as worker

    for method in ("round_trip", "to_bits", "from_bits"):
        tracer.patch_method(formats_base.NumberFormat, method, f"formats.{method}")

    tracer.patch_function("repro.inject.trial", "field_pipeline", "inject.field_pipeline")
    tracer.patch_function(
        "repro.inject.campaign", "run_campaign_shard", "inject.run_campaign_shard",
        on_return=lambda t, args, records: t.count("inject.trials", len(records)),
    )
    for cls in _subclasses(faults.FaultModel):
        if "masks" in cls.__dict__:
            tracer.patch_method(cls, "masks", "inject.masks")

    def csv_bytes(t, args, text):
        t.count("results.csv_bytes", len(text))

    for cls in (results.TrialRecords, app_campaign.AppTrialRecords):
        tracer.patch_method(cls, "to_csv_string", "results.to_csv_string", csv_bytes)
        tracer.patch_method(cls, "write_csv", "results.write_csv")
        tracer.patch_method(cls, "read_csv", "results.read_csv")
        tracer.patch_method(cls, "concatenate", "results.concatenate")

    def manifest_bytes(t, args, _):
        path = Path(args[1]) / manifest.MANIFEST_NAME
        t.count("manifest.bytes_written", path.stat().st_size)

    tracer.patch_method(manifest.RunManifest, "write", "manifest.write", manifest_bytes)
    tracer.patch_method(manifest.RunManifest, "load", "manifest.load")
    tracer.patch_function("repro.runner.manifest", "shard_checksum",
                          "manifest.shard_checksum")
    tracer.patch_function("repro.runner.manifest", "dataset_fingerprint",
                          "manifest.dataset_fingerprint")

    def event_bytes(t, args, _):
        line = json.dumps(args[1].to_json(), separators=(",", ":"))
        t.count("events.bytes", len(line) + 1)

    tracer.patch_method(events.EventLogWriter, "on_event", "events.on_event", event_bytes)

    def claim(t, args, lease):
        if lease is not None:
            t.count("leases.claims")
            if lease.stolen_from:
                t.count("leases.steals")

    tracer.patch_function("repro.runner.leases", "try_claim", "leases.try_claim", claim)
    tracer.patch_function("repro.runner.leases", "write_done_record",
                          "leases.write_done_record")
    tracer.patch_function("repro.runner.leases", "read_done_records",
                          "leases.read_done_records")
    tracer.patch_function("repro.runner.worker", "fold_run", "worker.fold_run")
    tracer.patch_method(worker.ShardWorker, "run", "worker.ShardWorker.run")
    for cls in executors.EXECUTOR_REGISTRY.values():
        tracer.patch_method(cls, "execute", "executors.execute")

    tracer.patch_function(
        "repro.runner.verify", "verify_run", "verify.verify_run",
        on_return=lambda t, args, report: t.count("verify.findings", len(report.findings)),
    )
    tracer.patch_function("repro.apps.campaign", "run_app_shard", "apps.run_app_shard")
    # cg_solve is patched where the app campaign calls it (and wherever
    # else repro imported it by name).
    tracer.patch_function("repro.apps.krylov", "cg_solve", "apps.cg_solve")

    tracer.patch_method(runner.CampaignRunner, "run", "runner.CampaignRunner.run")
    tracer.patch_function("repro.inject.campaign", "run_campaign", "runner.run_campaign")
    tracer.patch_function("repro.runner.runner", "resume_campaign",
                          "runner.resume_campaign")
    tracer.patch_function("repro.apps.campaign", "run_app_campaign",
                          "runner.run_app_campaign")
    tracer.patch_method(presets.FieldPreset, "generate", "datasets.generate")


def _subclasses(cls) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def missing_calls(trace, workload: str) -> list[str]:
    """Required spans of ``workload`` that the trace never recorded."""
    seen = {span.name for span in trace.spans}
    return [name for name in REQUIRED_CALLS[workload] if name not in seen]


def layer_metrics(trace) -> dict[str, float]:
    """Every per-layer metric except the ``trace.*`` ones."""
    self_s = trace.self_seconds()

    def root_self(layer: str) -> float:
        return sum(
            self_s[span.sid] for span in trace.spans
            if span.pid == trace.root_pid and LAYER_OF[span.name] == layer
        )

    shard_s = trace.seconds("inject.run_campaign_shard")
    counts = defaultdict(float, trace.counts)
    return {
        "formats.round_trip_s": trace.seconds("formats.round_trip"),
        "formats.round_trip_calls": trace.calls("formats.round_trip"),
        "formats.bits_s": trace.seconds("formats.to_bits", "formats.from_bits"),
        "inject.pipeline_s": trace.seconds("inject.field_pipeline"),
        "inject.pipeline_calls": trace.calls("inject.field_pipeline"),
        "inject.shard_s": shard_s,
        "inject.shard_calls": trace.calls("inject.run_campaign_shard"),
        "inject.trials_per_busy_s": counts["inject.trials"] / shard_s if shard_s else 0.0,
        "inject.masks_s": trace.seconds("inject.masks"),
        "results.to_csv_s": trace.seconds("results.to_csv_string"),
        "results.csv_bytes": counts["results.csv_bytes"],
        "results.read_csv_s": trace.seconds("results.read_csv"),
        "results.concatenate_s": trace.seconds("results.concatenate"),
        "manifest.write_s": trace.seconds("manifest.write"),
        "manifest.write_calls": trace.calls("manifest.write"),
        "manifest.bytes_written": counts["manifest.bytes_written"],
        "manifest.load_s": trace.seconds("manifest.load"),
        "manifest.checksum_s": trace.seconds("manifest.shard_checksum"),
        "manifest.fingerprint_s": trace.seconds("manifest.dataset_fingerprint"),
        "events.emit_s": trace.seconds("events.on_event"),
        "events.emit_calls": trace.calls("events.on_event"),
        "events.bytes": counts["events.bytes"],
        "leases.claims": counts["leases.claims"],
        "leases.steals": counts["leases.steals"],
        "leases.s": trace.seconds("leases.try_claim", "leases.write_done_record",
                                  "leases.read_done_records"),
        "worker.done_records": trace.calls("leases.write_done_record"),
        "worker.fold_s": trace.seconds("worker.fold_run"),
        "executors.coord_wait_s": root_self("runner.executors"),
        "verify.s": trace.seconds("verify.verify_run"),
        "verify.findings": counts["verify.findings"],
        "apps.shard_s": trace.seconds("apps.run_app_shard"),
        "apps.solves": trace.calls("apps.cg_solve"),
        "apps.solve_s": trace.seconds("apps.cg_solve"),
        "runner.self_s": root_self("runner.runner"),
        "datasets.generate_s": trace.seconds("datasets.generate"),
    }


def layer_budget(trace, since_ns: int) -> tuple[dict[str, float], dict[str, float]]:
    """Self seconds per layer from ``since_ns`` on: (this process, children)."""
    self_s = trace.self_seconds()
    here: dict[str, float] = defaultdict(float)
    children: dict[str, float] = defaultdict(float)
    for span in trace.spans:
        if span.start < since_ns:
            continue
        side = here if span.pid == trace.root_pid else children
        side[LAYER_OF[span.name]] += self_s[span.sid]
    return dict(here), dict(children)
