"""Chaos engineering for the campaign harness itself.

The paper measures how number formats absorb silent corruption; this
package holds the campaign *infrastructure* to the same standard.  A
:class:`FaultPlan` injects worker crashes, hangs, raised exceptions,
torn shard writes, byte/bit corruption of shard CSVs and the manifest,
and hard kills into a live :class:`repro.runner.CampaignRunner`:

    from repro.chaos import FaultPlan, FaultSpec
    from repro.inject import CampaignConfig, run_campaign

    plan = FaultPlan([
        FaultSpec("worker-raise", bits=(3,)),
        FaultSpec("worker-hang", bits=(5,), hang=30.0),
        FaultSpec("shard-byte", bits=(7,)),
    ], seed=99)
    run_campaign(data, "posit32", config, jobs=2, run_dir="runs/drill",
                 chaos=plan, heartbeat_timeout=2.0)

The hardened runner survives: retries and hung-worker kills recover
compute faults, SHA-256 shard checksums catch file corruption on
resume (corrupt shards are quarantined and recomputed), and
``posit-resiliency campaign verify <run-dir>`` audits a run directory
end to end.  ``tests/chaos`` asserts the invariant: any chaos run
either completes bit-identical to the fault-free run or fails loudly
with an actionable error.  See ``docs/robustness.md``.
"""

from repro.chaos.inject import (
    corrupt_file,
    fire_artifact_faults,
    fire_compute_faults,
)
from repro.chaos.plan import (
    ARTIFACT_FAULTS,
    COMPUTE_FAULTS,
    FAULT_KINDS,
    SITE_ARTIFACT,
    SITE_COMPUTE,
    ChaosError,
    FaultPlan,
    FaultSpec,
)

__all__ = [
    "ARTIFACT_FAULTS",
    "COMPUTE_FAULTS",
    "ChaosError",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "SITE_ARTIFACT",
    "SITE_COMPUTE",
    "corrupt_file",
    "fire_artifact_faults",
    "fire_compute_faults",
]
