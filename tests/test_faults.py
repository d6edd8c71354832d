"""Fault injection: the recovery paths, exercised deterministically.

Every failure mode the runner claims to survive is staged here with a
:class:`~repro.netsim.faults.ChaosEngine` and checked against a no-fault
run of the same scan: crashes at an exact probe index, retry budgets,
broken process pools (hard ``os._exit`` crashes), operator interrupts
with salvage, straggler shards, and sink write failures.  Fault draws
are keyed hashes of (seed, shard, attempt), so every one of these tests
reproduces from its seed alone.
"""

import random

import pytest
from helpers import truncate_tail

from repro.netsim.faults import (
    HARD_CRASH_EXIT,
    ChaosEngine,
    CrashingSequence,
    FailingSink,
    FaultPlan,
    InjectedCrash,
    InjectedSinkError,
)
from repro.scanner.checkpoint import load_checkpoint
from repro.scanner.sharded import (
    ScanInterrupted,
    ShardedScanRunner,
    ShardFailedError,
)
from repro.scanner.stream import MemorySink
from repro.scanner.targets import bgp_slash48_targets
from repro.scanner.zmapv6 import ScanConfig
from repro.telemetry.scan import ScanTelemetry

CONFIG = ScanConfig(pps=200_000.0, seed=5)


@pytest.fixture(scope="module")
def fault_targets(tiny_world):
    return list(
        bgp_slash48_targets(
            tiny_world.bgp,
            max_per_prefix=8,
            max_targets=1_200,
            rng=random.Random(11),
        )
    )


def run_scan(
    world, targets, *, shards, chaos=None, retries=0, sleeps=None, **kwargs
):
    """One runner scan; ``sleeps`` (a list) collects the backoff delays
    the runner sleeps between retry rounds, one per round."""
    telemetry = ScanTelemetry()
    runner = ShardedScanRunner(
        world,
        shards=shards,
        executor=kwargs.pop("executor", "serial"),
        max_shard_retries=retries,
        sleep=(lambda _d: None) if sleeps is None else sleeps.append,
    )
    result = runner.scan(
        targets,
        CONFIG,
        name="faulted",
        epoch=1,
        telemetry=telemetry,
        chaos=chaos,
        **kwargs,
    )
    return result, telemetry


class TestFaultPlanUnits:
    def test_empty_plan_injects_nothing(self):
        engine = ChaosEngine()
        targets = [1, 2, 3]
        assert engine.wrap_targets(targets, shard=0, attempt=0) is targets
        assert engine.wrap_sink(None) is None
        sink = MemorySink()
        assert engine.wrap_sink(sink) is sink
        assert not engine.wants_interrupt(100)

    def test_planned_crash_is_per_attempt(self):
        engine = ChaosEngine(
            plan=FaultPlan(crash_shard=2, crash_attempts=2)
        )
        assert engine.should_crash(2, 0)
        assert engine.should_crash(2, 1)
        assert not engine.should_crash(2, 2)
        assert not engine.should_crash(1, 0)

    def test_stochastic_crashes_are_deterministic(self):
        plan = FaultPlan(seed=3, crash_probability=0.5)
        first = [
            ChaosEngine(plan=plan).should_crash(shard, attempt)
            for shard in range(8)
            for attempt in range(3)
        ]
        second = [
            ChaosEngine(plan=plan).should_crash(shard, attempt)
            for shard in range(8)
            for attempt in range(3)
        ]
        assert first == second
        assert any(first) and not all(first)

    def test_crashing_sequence_counts_accesses(self):
        sequence = CrashingSequence([10, 20, 30, 40], at_probe=2, hard=False)
        assert len(sequence) == 4
        assert sequence[0] == 10
        assert sequence[3] == 40
        with pytest.raises(InjectedCrash, match="probe access"):
            sequence[1]

    def test_failing_sink_fails_after_n(self):
        inner = MemorySink()
        sink = FailingSink(inner, fail_after=2)
        sink.emit("a")
        sink.emit("b")
        assert sink.emitted == 2
        with pytest.raises(InjectedSinkError):
            sink.emit("c")
        assert inner.records == ["a", "b"]

    def test_truncate_tail(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_bytes(b"0123456789")
        truncate_tail(path, 4)
        assert path.read_bytes() == b"012345"
        truncate_tail(path, 100)
        assert path.read_bytes() == b""

    def test_hard_crash_exit_code_is_distinctive(self):
        assert HARD_CRASH_EXIT not in (0, 1, 2)


class TestCrashRetry:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_crashed_shard_retries_transparently(
        self, tiny_world, fault_targets, executor
    ):
        clean, clean_telemetry = run_scan(
            tiny_world, fault_targets, shards=4, retries=2, executor=executor
        )
        plan = FaultPlan(crash_shard=2, crash_at_probe=25, crash_attempts=2)
        sleeps = []
        faulted, telemetry = run_scan(
            tiny_world,
            fault_targets,
            shards=4,
            retries=2,
            executor=executor,
            chaos=ChaosEngine(plan=plan),
            sleeps=sleeps,
        )
        assert faulted.records == clean.records
        assert faulted.engine_stats == clean.engine_stats
        # The telemetry export is fault-invariant...
        assert telemetry.to_jsonl() == clean_telemetry.to_jsonl()
        assert telemetry.to_prometheus() == clean_telemetry.to_prometheus()
        # ...and the runner backed off exactly before the two retries.
        assert sleeps == [0.1, 0.2]
        # One retry fewer, and the same crashes name the shard that failed.
        with pytest.raises(ShardFailedError) as excinfo:
            run_scan(
                tiny_world,
                fault_targets,
                shards=4,
                retries=1,
                executor=executor,
                chaos=ChaosEngine(plan=plan),
            )
        assert (excinfo.value.shard, excinfo.value.attempts) == (2, 2)
        assert isinstance(excinfo.value.error, InjectedCrash)

    def test_retry_budget_exhaustion_raises(self, tiny_world, fault_targets):
        chaos = ChaosEngine(
            plan=FaultPlan(crash_shard=1, crash_at_probe=5, crash_attempts=99)
        )
        with pytest.raises(ShardFailedError, match="shard 1 failed 2"):
            run_scan(
                tiny_world, fault_targets, shards=4, retries=1, chaos=chaos
            )

    def test_zero_retry_budget_fails_fast(self, tiny_world, fault_targets):
        chaos = ChaosEngine(plan=FaultPlan(crash_shard=0, crash_at_probe=1))
        with pytest.raises(ShardFailedError) as excinfo:
            run_scan(tiny_world, fault_targets, shards=2, retries=0, chaos=chaos)
        assert excinfo.value.shard == 0
        assert isinstance(excinfo.value.error, InjectedCrash)

    def test_stochastic_crashes_recover(self, tiny_world, fault_targets):
        clean, _ = run_scan(tiny_world, fault_targets, shards=4, retries=3)
        # seed=4 fates shards 0/1/2 to crash on their first attempt and
        # every shard to succeed within the retry budget (keyed hashing
        # makes this a fixed property of the seed, not a flaky draw).
        chaos = ChaosEngine(
            plan=FaultPlan(seed=4, crash_probability=0.45)
        )
        sleeps = []
        faulted, _ = run_scan(
            tiny_world, fault_targets, shards=4, retries=3, chaos=chaos,
            sleeps=sleeps,
        )
        assert faulted.records == clean.records
        # The crashes cost at least one retry round.
        assert sleeps

    def test_slow_shards_change_nothing(self, tiny_world, fault_targets):
        clean, _ = run_scan(tiny_world, fault_targets, shards=4)
        chaos = ChaosEngine(
            plan=FaultPlan(slow_shards={0: 0.05, 3: 0.1})
        )
        # Worker processes: the delayed shards really finish out of order.
        slowed, _ = run_scan(
            tiny_world,
            fault_targets,
            shards=4,
            retries=1,
            chaos=chaos,
            executor="process",
        )
        assert slowed.records == clean.records
        assert slowed.engine_stats == clean.engine_stats


class TestHardCrash:
    def test_hard_crash_breaks_pool_and_recovers(
        self, tiny_world, fault_targets
    ):
        """A worker dying mid-shard (os._exit, as a kill -9 would) breaks
        the pool; the next round's fresh pool completes the scan."""
        clean, _ = run_scan(
            tiny_world, fault_targets, shards=2, retries=2, executor="process"
        )
        chaos = ChaosEngine(
            plan=FaultPlan(
                crash_shard=1, crash_at_probe=10, crash_attempts=1, hard=True
            )
        )
        sleeps = []
        faulted, _ = run_scan(
            tiny_world,
            fault_targets,
            shards=2,
            retries=2,
            executor="process",
            chaos=chaos,
            sleeps=sleeps,
        )
        assert faulted.records == clean.records
        assert faulted.engine_stats == clean.engine_stats
        # The victim's one crash costs one retry round (collateral shards
        # on the broken pool retry in the same round).
        assert sleeps == [0.1]


class TestInterruptSalvage:
    def test_interrupt_salvages_completed_shards(
        self, tiny_world, fault_targets, tmp_path
    ):
        checkpoint = tmp_path / "salvage.ckpt"
        telemetry = ScanTelemetry()
        # A pool: the interrupt lands while sibling shards are in flight.
        runner = ShardedScanRunner(
            tiny_world, shards=4, executor="process", sleep=lambda _d: None
        )
        chaos = ChaosEngine(plan=FaultPlan(interrupt_after_shards=2))
        with pytest.raises(ScanInterrupted) as excinfo:
            runner.scan(
                fault_targets,
                CONFIG,
                name="salvage",
                epoch=1,
                telemetry=telemetry,
                checkpoint=checkpoint,
                chaos=chaos,
            )
        interrupted = excinfo.value
        assert interrupted.checkpoint_path == checkpoint
        assert interrupted.completed >= 2
        assert interrupted.remaining == 4 - interrupted.completed
        journal = load_checkpoint(checkpoint)
        assert len(journal.completed_shards) == interrupted.completed
        assert journal.shards - len(journal.completed_shards) == interrupted.remaining

    def test_request_interrupt_before_scan(self, tiny_world, fault_targets):
        """A pre-set interrupt flag is cleared at scan start, not obeyed."""
        runner = ShardedScanRunner(tiny_world, shards=2, executor="serial")
        runner.request_interrupt()
        result = runner.scan(
            fault_targets,
            CONFIG,
            name="fresh",
            epoch=1,
            chaos=ChaosEngine(),
        )
        assert result.sent == len(fault_targets)

    def test_resume_reruns_only_the_missing_shards(
        self, tiny_world, fault_targets, tmp_path, monkeypatch
    ):
        from repro.scanner import sharded

        clean, _ = run_scan(tiny_world, fault_targets, shards=4)
        checkpoint = tmp_path / "count.ckpt"
        with pytest.raises(ScanInterrupted):
            run_scan(
                tiny_world,
                fault_targets,
                shards=4,
                checkpoint=checkpoint,
                chaos=ChaosEngine(plan=FaultPlan(interrupt_after_shards=2)),
            )
        salvaged = load_checkpoint(checkpoint).completed_shards
        assert len(salvaged) >= 2
        scanned = []
        real = sharded.scan_shard

        def spy(world, config, targets, **kwargs):
            scanned.append(kwargs["shard"])
            return real(world, config, targets, **kwargs)

        monkeypatch.setattr(sharded, "scan_shard", spy)
        resumed, _ = run_scan(
            tiny_world, fault_targets, shards=4, checkpoint=checkpoint, resume=True
        )
        assert sorted(scanned) == sorted(set(range(4)) - set(salvaged))
        assert resumed.records == clean.records


class TestArtifactWorldFaults:
    def test_crash_resume_against_artifact_world(
        self, tiny_world, fault_targets, tmp_path
    ):
        """Crash-resume over the zero-pickle worker path: shard workers
        bootstrap from a WorldRef (artifact path + fingerprint), a planned
        interrupt checkpoints the scan, and the resumed run completes
        byte-identically to an uninterrupted eager-world scan."""
        from repro.topology.config import tiny_config
        from repro.topology.generator import build_world_artifact

        world = build_world_artifact(
            tiny_config(seed=7), tmp_path / "faulted.sraw"
        )
        clean, _ = run_scan(
            tiny_world, fault_targets, shards=4, executor="process"
        )
        checkpoint = tmp_path / "artifact.ckpt"
        runner = ShardedScanRunner(
            world, shards=4, executor="process", sleep=lambda _d: None
        )
        with pytest.raises(ScanInterrupted):
            runner.scan(
                fault_targets,
                CONFIG,
                name="faulted",
                epoch=1,
                telemetry=ScanTelemetry(),
                checkpoint=checkpoint,
                chaos=ChaosEngine(plan=FaultPlan(interrupt_after_shards=2)),
            )
        assert load_checkpoint(checkpoint).completed_shards
        resumed = ShardedScanRunner(world, shards=4, executor="process").scan(
            fault_targets,
            CONFIG,
            name="faulted",
            epoch=1,
            telemetry=ScanTelemetry(),
            checkpoint=checkpoint,
            resume=True,
        )
        assert resumed.records == clean.records
        assert resumed.engine_stats == clean.engine_stats
        assert not checkpoint.exists(), "the finished resume drops its journal"

    def test_hard_crash_recovers_on_artifact_world(
        self, fault_targets, tmp_path
    ):
        """A worker hard-crash breaks the pool; the recovery round's fresh
        pool re-resolves the WorldRef and completes the scan."""
        from repro.topology.config import tiny_config
        from repro.topology.generator import build_world_artifact

        world = build_world_artifact(
            tiny_config(seed=7), tmp_path / "crashy.sraw"
        )
        clean, _ = run_scan(
            world, fault_targets, shards=2, retries=2, executor="process"
        )
        chaos = ChaosEngine(
            plan=FaultPlan(
                crash_shard=1, crash_at_probe=10, crash_attempts=1, hard=True
            )
        )
        sleeps = []
        faulted, _ = run_scan(
            world,
            fault_targets,
            shards=2,
            retries=2,
            executor="process",
            chaos=chaos,
            sleeps=sleeps,
        )
        assert faulted.records == clean.records
        assert sleeps == [0.1]


class TestAdaptiveStrategyFaults:
    """Crash tolerance of feedback-driven discovery strategies.

    The invariant under test: a scan interrupted mid-epoch and resumed
    from its checkpoint journal reproduces the epoch's records
    byte-identically, so ``observe()`` folds the *same* record set into
    the feedback state — and every later window is unchanged.
    """

    @pytest.mark.parametrize(
        "name", ["hitlist-feedback", "entropy-clustered"]
    )
    def test_resume_reconstructs_identical_next_window(
        self, tiny_world, tmp_path, name
    ):
        from repro.scanner.strategies import build_strategy

        def fresh(executor="serial", **kwargs):
            return ShardedScanRunner(
                tiny_world,
                shards=4,
                executor=executor,
                sleep=lambda _d: None,
                **kwargs,
            )

        def strategy():
            return build_strategy(name, tiny_world, seed=5, budget=400)

        # Clean reference: epoch 0 uninterrupted, observe, next window.
        clean = strategy()
        result = fresh().scan(
            clean.window(0),
            CONFIG,
            name=f"adaptive-{name}",
            epoch=1,
        )
        clean.observe(result.records)

        # Faulted run: interrupt after 2 of 4 shards with a checkpoint.
        checkpoint = tmp_path / f"{name}.ckpt"
        crashed = strategy()
        with pytest.raises(ScanInterrupted):
            fresh().scan(
                crashed.window(0),
                CONFIG,
                name=f"adaptive-{name}",
                epoch=1,
                checkpoint=checkpoint,
                chaos=ChaosEngine(plan=FaultPlan(interrupt_after_shards=2)),
            )
        # The crash wiped all in-memory state: rebuild the strategy cold
        # (epoch-0 windows are pure functions of the world, so the
        # journal's target fingerprint still matches) and resume.
        resumed = strategy()
        replayed = fresh().scan(
            resumed.window(0),
            CONFIG,
            name=f"adaptive-{name}",
            epoch=1,
            checkpoint=checkpoint,
            resume=True,
        )
        assert replayed.records == result.records
        resumed.observe(replayed.records)
        assert resumed.feedback_state() == clean.feedback_state()
        assert resumed.feedback_state()  # the scan actually taught it
        assert list(resumed.window(1)) == list(clean.window(1))

    def test_interrupted_race_resumes_to_identical_table(
        self, tiny_world, tmp_path
    ):
        """The acceptance criterion end to end: interrupt the race mid
        strategy, re-run the same command, get byte-identical JSONL."""
        from repro.experiments.strategy_race import run_strategy_race

        kwargs = dict(epochs=2, budget=200, seed=5)
        clean = run_strategy_race(tiny_world, **kwargs).to_table_jsonl()

        checkpoint_dir = str(tmp_path / "race-ckpt")

        class InterruptingRunner(ShardedScanRunner):
            """Injects one mid-scan interrupt into the Nth scan call."""

            def __init__(self, *args, interrupt_call, **kw):
                super().__init__(*args, **kw)
                self._calls = 0
                self._interrupt_call = interrupt_call

            def scan(self, *args, **kw):
                self._calls += 1
                if self._calls == self._interrupt_call:
                    kw["chaos"] = ChaosEngine(
                        plan=FaultPlan(interrupt_after_shards=2)
                    )
                return super().scan(*args, **kw)

        # Crash inside the 3rd scan — mid-way through the second
        # strategy, after adaptive feedback has already evolved.
        faulted_runner = InterruptingRunner(
            tiny_world,
            shards=4,
            executor="serial",
            sleep=lambda _d: None,
            checkpoint_dir=checkpoint_dir,
            interrupt_call=3,
        )
        with pytest.raises(ScanInterrupted):
            run_strategy_race(tiny_world, runner=faulted_runner, **kwargs)

        # "Re-run the same command": a fresh runner over the same
        # checkpoint dir auto-resumes every journalled scan.
        resumed_runner = ShardedScanRunner(
            tiny_world,
            shards=4,
            executor="serial",
            checkpoint_dir=checkpoint_dir,
        )
        resumed = run_strategy_race(
            tiny_world, runner=resumed_runner, **kwargs
        )
        assert resumed.to_table_jsonl() == clean


class TestSinkFaults:
    def test_sink_failure_surfaces_and_aborts_cleanly(
        self, tiny_world, fault_targets, tmp_path
    ):
        from repro.scanner.stream import JsonlSink

        path = tmp_path / "out.jsonl"
        sink = JsonlSink(path)
        chaos = ChaosEngine(plan=FaultPlan(sink_fail_after=5))
        runner = ShardedScanRunner(tiny_world, shards=2, executor="serial")
        with pytest.raises(InjectedSinkError):
            try:
                runner.scan(
                    fault_targets,
                    CONFIG,
                    name="sinkfail",
                    epoch=1,
                    sink=chaos.wrap_sink(sink),
                    chaos=chaos,
                )
            finally:
                sink.abort()
        # The destination was never promoted: only the .partial remains.
        assert not path.exists()
        partial = path.with_name(path.name + ".partial")
        assert partial.exists()
