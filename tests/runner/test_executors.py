"""Tests for the pluggable executor layer (repro.runner.executors)."""

import multiprocessing

import numpy as np
import pytest

from repro.chaos import FaultPlan, FaultSpec
from repro.inject.campaign import CampaignConfig, run_campaign
from repro.runner import RunManifest, RunnerError, RunnerHooks, read_event_log, verify_run
from repro.runner.executors import (
    EXECUTOR_REGISTRY,
    Executor,
    PoolExecutor,
    SerialExecutor,
    WorkStealingExecutor,
    resolve_executor,
)

EXECUTOR_NAMES = ("serial", "pool", "work-stealing")


class TestResolveExecutor:
    def test_none_with_one_job_is_serial(self):
        assert isinstance(resolve_executor(None, jobs=1, pending=8), SerialExecutor)

    def test_none_with_one_pending_is_serial(self):
        assert isinstance(resolve_executor(None, jobs=4, pending=1), SerialExecutor)

    def test_none_with_real_parallelism_is_pool(self):
        assert isinstance(resolve_executor(None, jobs=4, pending=8), PoolExecutor)

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_registry_names_resolve(self, name):
        executor = resolve_executor(name)
        assert executor.name == name
        assert isinstance(executor, EXECUTOR_REGISTRY[name])

    def test_instance_passes_through(self):
        instance = WorkStealingExecutor(workers=3)
        assert resolve_executor(instance) is instance

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("carrier-pigeon")

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="Executor instance"):
            resolve_executor(42)

    def test_registry_covers_all_names(self):
        assert set(EXECUTOR_REGISTRY) == set(EXECUTOR_NAMES)
        for cls in EXECUTOR_REGISTRY.values():
            assert issubclass(cls, Executor)

    def test_work_stealing_rejects_bad_lease_timeout(self):
        with pytest.raises(ValueError, match="positive"):
            WorkStealingExecutor(lease_timeout=0)


def _assert_results_identical(a, b) -> None:
    assert a.target_name == b.target_name
    assert a.trial_count == b.trial_count
    for column in a.records.column_names():
        lhs = getattr(a.records, column)
        rhs = getattr(b.records, column)
        assert np.array_equal(lhs, rhs, equal_nan=lhs.dtype.kind == "f"), column


class TestExecutorsBitIdentical:
    """The acceptance gate: every executor produces the same run."""

    def test_all_executors_match_and_verify(self, small_field, tmp_path):
        config = CampaignConfig(trials_per_bit=5, bits=tuple(range(8)), seed=42)
        results = {}
        for name in EXECUTOR_NAMES:
            run_dir = tmp_path / name
            results[name] = run_campaign(
                small_field, "posit16", config, jobs=2,
                run_dir=run_dir, executor=name,
            )
            assert results[name].extras["executor"] == name
            assert RunManifest.load(run_dir).executor == name
            report = verify_run(run_dir)
            assert report.ok, report.render()

        _assert_results_identical(results["serial"], results["pool"])
        _assert_results_identical(results["serial"], results["work-stealing"])

        # The shard CSVs on disk must be byte-identical too: the run
        # directories differ only in events/telemetry/lease bookkeeping.
        for name in ("pool", "work-stealing"):
            for bit in config.bits:
                serial_shard = RunManifest.shard_path(tmp_path / "serial", bit)
                other_shard = RunManifest.shard_path(tmp_path / name, bit)
                assert serial_shard.read_bytes() == other_shard.read_bytes(), (
                    f"{name} shard bit={bit} diverged from serial"
                )

    def test_executor_instance_accepted(self, small_field, tmp_path):
        config = CampaignConfig(trials_per_bit=3, bits=(0, 5, 15), seed=7)
        result = run_campaign(
            small_field, "posit16", config, run_dir=tmp_path / "run",
            executor=WorkStealingExecutor(workers=2, lease_timeout=10.0),
        )
        assert result.extras["executor"] == "work-stealing"
        assert result.trial_count == 9

    def test_serial_name_without_run_dir(self, small_field):
        config = CampaignConfig(trials_per_bit=3, bits=(0, 1), seed=7)
        result = run_campaign(small_field, "posit16", config, executor="serial")
        assert result.extras["executor"] == "serial"

    def test_work_stealing_requires_run_dir(self, small_field):
        config = CampaignConfig(trials_per_bit=2, bits=(0, 1), seed=7)
        with pytest.raises(RunnerError, match="run directory"):
            run_campaign(small_field, "posit16", config, executor="work-stealing")

    def test_unknown_executor_name_surfaces(self, small_field):
        with pytest.raises(ValueError, match="unknown executor"):
            run_campaign(
                small_field, "posit16",
                CampaignConfig(trials_per_bit=2, bits=(0,), seed=7),
                executor="quantum",
            )


class TestPoolChildren:
    """The pool replaces lost children and never leaves one behind."""

    def test_replaced_child_is_itself_replaceable(self, small_field, tmp_path):
        config = CampaignConfig(trials_per_bit=3, bits=tuple(range(8)), seed=5)
        run_campaign(small_field, "posit16", config, run_dir=tmp_path / "clean")
        run_dir = tmp_path / "crash"
        plan = FaultPlan([FaultSpec("worker-crash", bits=(2, 5))], seed=2)
        result = run_campaign(
            small_field, "posit16", config, jobs=2, executor="pool",
            run_dir=run_dir, chaos=plan,
        )
        assert result.extras["shards_hung"] == 2
        hung = [event["bit"] for event in read_event_log(run_dir / "events.jsonl")
                if event["kind"] == "shard_hung"]
        assert sorted(hung) == [2, 5]
        for bit in config.bits:
            assert (RunManifest.shard_path(run_dir, bit).read_bytes()
                    == RunManifest.shard_path(tmp_path / "clean", bit).read_bytes()), bit

    @pytest.mark.parametrize("error", [RuntimeError("hook failed"),
                                       OSError(28, "No space left on device")],
                             ids=["runtime", "oserror"])
    def test_failing_hook_orphans_no_child(self, small_field, error):
        # An error on the parent's side of a shard (a hook here, a shard
        # write on a full disk alike) is a run error, not a lost child,
        # even when it is an OSError as a broken pipe is: the run raises
        # it and leaves no child behind.
        kinds = []

        class RaiseOnFinish(RunnerHooks):
            def on_event(self, event):
                kinds.append(event.kind)

            def on_shard_finish(self, event):
                raise error

        config = CampaignConfig(trials_per_bit=3, bits=tuple(range(8)), seed=5)
        with pytest.raises(type(error)) as raised:
            run_campaign(small_field, "posit16", config, jobs=2, executor="pool",
                         hooks=RaiseOnFinish())
        assert raised.value is error
        assert "shard_hung" not in kinds
        assert multiprocessing.active_children() == []


class TestManifestRecordsExecutor:
    def test_auto_policy_records_resolved_name(self, small_field, tmp_path):
        config = CampaignConfig(trials_per_bit=2, bits=(0, 1, 2), seed=3)
        run_campaign(small_field, "posit16", config, jobs=1,
                     run_dir=tmp_path / "run")
        assert RunManifest.load(tmp_path / "run").executor == "serial"

    def test_executor_excluded_from_identity(self, small_field, tmp_path):
        # Resuming under a different executor must not trip the identity
        # check — executor choice is mechanism, not campaign identity.
        config = CampaignConfig(trials_per_bit=2, bits=(0, 1, 2), seed=3)
        run_campaign(small_field, "posit16", config, run_dir=tmp_path / "run",
                     executor="serial")
        manifest = RunManifest.load(tmp_path / "run")
        manifest.executor = "work-stealing"
        assert manifest.identity() == RunManifest.load(tmp_path / "run").identity()
