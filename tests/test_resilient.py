"""The resilient transport layer, unit by unit.

The backend contract suite (tests/test_backend_contract.py) pins the
end-to-end properties — wrapper identity, transient-fault byte identity,
quarantine, the breaker cycle under a real scan.  This file covers the
mechanisms underneath:

* ``RetryPolicy`` validation and its capped exponential backoff
  (a hypothesis property),
* transactional attempts: a failed ``probe_columns`` rolls back stats,
  deferred rate-limit checks, and ``unmatched_replies``,
* the watchdog deadline recovering a hung backend (injected join, zero
  wall-time),
* batch splitting isolating a single poison probe,
* the ``CircuitBreaker`` state machine on a fake clock,
* checkpoint ``config_key`` refusing a resume across a policy change,
* CLI validation (exit 2 + one-line stderr) for the resilience flags,
* the sharded runner's injectable retry-backoff sleep,
* ``merge_results`` adding up resilience deltas (``faulted_probes`` reads them),
* ``FaultyBackend``'s short-outcome and blackhole modes.

Every backend answers in ``ProbeColumns``, so ``ResilientBackend`` and
``FaultyBackend`` have one body; the scenario tests at the end drive real
scans through it over ``sim`` and over ``wire-sim`` (whose own wire round
trip then runs under the same wrappers) and hold each to the other's
bytes.
"""

from __future__ import annotations

import math

import pytest
from faults import ChaosEngine, FaultPlan, FaultyBackend, injected
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.engine import (
    FLAG_REPLY,
    EngineStats,
    ProbeColumns,
    SimulationEngine,
)
from repro.packet.icmpv6 import ICMPv6Type
from repro.scanner.backends import (
    BackendFault,
    BackendTimeoutError,
    CircuitBreaker,
    ResilienceStats,
    ResilientBackend,
    RetryPolicy,
    ProbeBackend,
)
from repro.scanner.checkpoint import (
    CheckpointMismatchError,
    ScanCheckpoint,
    config_key,
)
from repro.scanner.backends.resilient import (
    BREAKER_COOLDOWN,
    BREAKER_MIN_BATCHES,
    BREAKER_WINDOW,
)
from repro.scanner.backends.sim import SimBackend
from repro.scanner.backends.wiresim import WireSimBackend
from repro.scanner.records import ScanResult, merge_results, records_jsonl
from repro.scanner.sharded import ScanInterrupted, ShardedScanRunner
from repro.scanner.zmapv6 import ScanConfig, ZMapV6Scanner
from repro.telemetry.scan import ScanTelemetry

TARGETS = [0x2001_0DB8_0000_0000_0000_0000_0000_0000 + i for i in range(8)]
TIMES = [i / 1000.0 for i in range(8)]


class ScriptedBackend(ProbeBackend):
    """A backend whose per-call behaviour is a script.

    Every call mutates observable state *before* acting out its step —
    like a real backend that got half-way before failing — so the
    transactional-rollback tests can prove the wrapper undoes it.  Every
    probe it does send is answered (an echo from ``target ^ 1``), so a
    quarantined row is distinguishable from a sent one.
    """

    name = "scripted"
    deterministic = True

    def __init__(self, script=(), release=None):
        self.script = list(script)  # "ok" | "fail" | "short" | "hang"
        self.calls = 0
        self.unmatched_replies = 0
        self._epoch = 0
        self._stats = EngineStats()
        self._checks: list[tuple[float, int]] = []
        self._release = release

    @property
    def epoch(self) -> int:
        return self._epoch

    def new_epoch(self, epoch: int) -> None:
        self._epoch = epoch

    @property
    def stats(self) -> EngineStats:
        return self._stats

    @property
    def pending_checks(self) -> list[tuple[float, int]]:
        return self._checks

    def _step(self, targets, times) -> str:
        step = self.script[self.calls] if self.calls < len(self.script) else "ok"
        self.calls += 1
        # Mutations first: a failure leaves them behind for the wrapper
        # to roll back.
        self._stats.probes += len(targets)
        self._checks.append((times[0], 1))
        self.unmatched_replies += 1
        if step == "fail":
            raise RuntimeError("scripted transport failure")
        if step == "hang":
            self._release.wait()
        return step

    def probe_columns(
        self, targets, times, *, hop_limit=64, probe_ids=None, out=None
    ):
        step = self._step(targets, times)
        cols = out if out is not None else ProbeColumns()
        cols.blank(targets, times)
        for row, target in enumerate(targets):
            cols.flags[row] = FLAG_REPLY
            cols.source_hi[row] = (target ^ 1) >> 64
            cols.source_lo[row] = (target ^ 1) & (2**64 - 1)
        if step == "short" and cols.n > 1:
            cols.n -= 1
        return cols


def send(backend, targets=None, times=None):
    """One batch through the backend, as ``[reply source or None, ...]``
    — one entry per row answered."""
    targets = TARGETS if targets is None else targets
    times = TIMES if times is None else times
    cols = backend.probe_columns(targets, times, out=ProbeColumns())
    assert cols.targets == targets and cols.times == times
    return [
        cols.source(row) if cols.flags[row] & FLAG_REPLY else None
        for row in range(cols.n)
    ]


ANSWERED = [target ^ 1 for target in TARGETS]


class PoisonBackend(ScriptedBackend):
    """Fails any batch containing the poison target; clean otherwise."""

    def __init__(self, poison: int):
        super().__init__()
        self.poison = poison

    def _step(self, targets, times) -> str:
        if self.poison in targets:
            self.calls += 1
            raise RuntimeError("poison probe in batch")
        return super()._step(targets, times)


# ---------------- RetryPolicy validation + backoff math ---------------- #


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_retries": -1},
        {"max_retries": 1.5},
        {"backoff": -0.1},
        {"backoff": float("nan")},
        {"backoff_cap": float("inf")},
        {"timeout": 0.0},
        {"timeout": float("nan")},
        {"breaker_threshold": 0.0},
        {"breaker_threshold": 1.5},
        {"breaker_threshold": float("nan")},
        {"max_split_depth": -1},
    ],
)
def test_policy_rejects_bad_knobs(kwargs):
    with pytest.raises(ValueError):
        RetryPolicy(**kwargs)


@pytest.mark.parametrize(
    "name", ["breaker_window", "breaker_min_batches", "breaker_cooldown"]
)
def test_breaker_tuning_is_not_a_policy_field(name):
    with pytest.raises(TypeError, match=name):
        RetryPolicy(**{name: 1})


def test_policy_is_picklable_and_hashable():
    import pickle

    policy = RetryPolicy(max_retries=3, backoff=0.5, timeout=2.0)
    assert pickle.loads(pickle.dumps(policy)) == policy
    assert hash(policy) == hash(RetryPolicy(max_retries=3, backoff=0.5, timeout=2.0))


@settings(max_examples=200, deadline=None)
@given(
    attempt=st.integers(0, 20),
    backoff=st.floats(0.0, 100.0),
    cap=st.floats(0.0, 100.0),
)
def test_backoff_delay_is_capped_exponential(attempt, backoff, cap):
    policy = RetryPolicy(backoff=backoff, backoff_cap=cap)
    assert policy.backoff_delay(attempt) == min(backoff * 2.0**attempt, cap)


def test_schedule_matches_historical_shard_backoff():
    # The sharded runner's pre-policy formula, bit for bit.
    policy = RetryPolicy(max_retries=5, backoff=0.1, backoff_cap=5.0)
    assert [policy.backoff_delay(i) for i in range(7)] == [
        0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 5.0,
    ]


# ---------------- transactional attempts ---------------- #


def test_failed_attempt_rolls_back_observable_state():
    inner = ScriptedBackend(script=["fail", "ok"])
    policy = RetryPolicy(max_retries=1, backoff=0.0)
    backend = ResilientBackend(inner, policy, sleep=lambda _d: None)
    assert send(backend) == ANSWERED
    # One logical batch: the failed attempt's mutations were undone.
    assert inner.stats.probes == len(TARGETS)
    assert len(inner.pending_checks) == 1
    assert inner.unmatched_replies == 1
    assert backend.resilience.retries == 1
    assert backend.resilience.faulted_probes == 0


def test_short_outcome_list_is_rolled_back_and_retried():
    inner = ScriptedBackend(script=["short", "ok"])
    policy = RetryPolicy(max_retries=1, backoff=0.0)
    backend = ResilientBackend(inner, policy, sleep=lambda _d: None)
    assert send(backend) == ANSWERED
    assert inner.stats.probes == len(TARGETS)
    assert backend.resilience.retries == 1


def test_exhausted_batch_records_last_error():
    inner = ScriptedBackend(script=["fail", "fail"])
    policy = RetryPolicy(max_retries=1, backoff=0.0, max_split_depth=0)
    backend = ResilientBackend(inner, policy, sleep=lambda _d: None)
    assert send(backend) == [None] * len(TARGETS)
    assert inner.stats.probes == 0, "every attempt rolled back"
    (fault,) = backend.resilience.faults
    assert fault.reason == "exhausted"
    assert fault.attempts == 2
    assert "scripted transport failure" in fault.error
    assert backend.resilience.faulted_probes == len(TARGETS)


def test_open_breaker_fast_fails_without_touching_the_backend():
    failures = BREAKER_MIN_BATCHES  # the fewest the breaker opens on
    inner = ScriptedBackend(script=["fail"] * failures)
    policy = RetryPolicy(
        max_retries=0, backoff=0.0, max_split_depth=0, breaker_threshold=0.5
    )
    backend = ResilientBackend(
        inner, policy, sleep=lambda _d: None, clock=lambda: 0.0
    )
    for _ in range(failures + 1):
        assert send(backend) == [None] * len(TARGETS)
    assert backend.breaker.state == "open"
    assert inner.calls == failures, "the last batch never reached the backend"
    assert backend.resilience.breaker_fastfails == 1
    assert [fault.reason for fault in backend.resilience.faults] == [
        *["exhausted"] * failures, "breaker-open",
    ]


def test_resilient_breaker_takes_the_module_tuning():
    backend = ResilientBackend(
        ScriptedBackend(script=[]), RetryPolicy(breaker_threshold=0.5)
    )
    breaker = backend.breaker
    assert breaker._window.maxlen == BREAKER_WINDOW
    assert breaker.min_batches == BREAKER_MIN_BATCHES
    assert breaker.cooldown == BREAKER_COOLDOWN
    assert ResilientBackend(ScriptedBackend(script=[]), RetryPolicy()).breaker is None


def test_open_breaker_half_opens_after_the_module_cooldown():
    failures = BREAKER_MIN_BATCHES
    clock = [0.0]
    inner = ScriptedBackend(script=["fail"] * failures + ["ok"])
    policy = RetryPolicy(
        max_retries=0, backoff=0.0, max_split_depth=0, breaker_threshold=0.5
    )
    backend = ResilientBackend(
        inner, policy, sleep=lambda _d: None, clock=lambda: clock[0]
    )
    for _ in range(failures):
        send(backend)
    assert backend.breaker.state == "open"
    clock[0] = BREAKER_COOLDOWN / 2
    assert send(backend) == [None] * len(TARGETS)
    assert inner.calls == failures, "still cooling down: fast-failed"
    clock[0] = BREAKER_COOLDOWN
    assert None not in send(backend)
    assert inner.calls == failures + 1, "the half-open trial ran"
    assert backend.breaker.state == "closed"


# ---------------- watchdog deadline ---------------- #


def test_watchdog_recovers_hung_backend():
    import threading

    release = threading.Event()
    inner = ScriptedBackend(script=["hang", "ok"], release=release)
    policy = RetryPolicy(max_retries=1, backoff=0.0, timeout=30.0)
    # Injected join returns without waiting: the "deadline" expires
    # instantly, so the test spends zero wall-time on the hang.
    backend = ResilientBackend(
        inner,
        policy,
        sleep=lambda _d: None,
        join=lambda _thread, _timeout: None,
    )
    try:
        assert send(backend) == ANSWERED
        assert backend.resilience.timeouts == 1
        assert backend.resilience.retries == 1
        assert backend.resilience.faulted_probes == 0
    finally:
        release.set()  # let the abandoned watchdog thread finish


def test_abandoned_attempt_cannot_write_into_returned_columns():
    """The hung attempt of a columnar send wakes up *after* the retry has
    answered and writes its whole batch: neither the caller's buffer nor
    the columns the retry returned may change under it."""
    import threading

    release = threading.Event()
    inner = ScriptedBackend(script=["hang", "ok"], release=release)
    # The late writer answers from a different source than the retry.
    late_sources = []
    real = inner.probe_columns

    def probe_columns(targets, times, **kwargs):
        hung = inner.calls == 0
        cols = real(targets, times, **kwargs)
        if hung:
            for row in range(cols.n):
                cols.source_lo[row] = 0xDEAD
                cols.flags[row] = 0
            late_sources.append(cols)
        return cols

    inner.probe_columns = probe_columns
    threads = []

    def join(thread, _timeout):
        threads.append(thread)  # deadline expires at once

    backend = ResilientBackend(
        inner,
        RetryPolicy(max_retries=1, backoff=0.0, timeout=30.0),
        sleep=lambda _d: None,
        join=join,
    )
    mine = ProbeColumns()
    returned = backend.probe_columns(TARGETS, TIMES, out=mine)
    before = (returned.flags.tobytes(), returned.source_lo.tobytes())
    mine_before = (mine.flags.tobytes(), mine.source_lo.tobytes())
    release.set()
    for thread in threads:
        thread.join(10.0)
        assert not thread.is_alive()
    assert len(late_sources) == 1, "the abandoned attempt did run to its end"
    assert late_sources[0] is not returned and late_sources[0] is not mine
    assert (returned.flags.tobytes(), returned.source_lo.tobytes()) == before
    assert (mine.flags.tobytes(), mine.source_lo.tobytes()) == mine_before
    assert [returned.source(row) for row in range(returned.n)] == ANSWERED


def test_timeout_error_names_the_deadline():
    with pytest.raises(ValueError):
        RetryPolicy(timeout=-1.0)
    error = BackendTimeoutError("send exceeded the 2.0s deadline")
    assert "2.0s" in str(error)


# ---------------- splitting isolates poison probes ---------------- #


def test_split_quarantines_only_the_poison_probe():
    poison = TARGETS[5]
    inner = PoisonBackend(poison)
    policy = RetryPolicy(max_retries=0, backoff=0.0, max_split_depth=3)
    backend = ResilientBackend(inner, policy, sleep=lambda _d: None)
    # Rows stay aligned with their probes; only the poison one is quiet.
    assert send(backend) == [
        None if target == poison else target ^ 1 for target in TARGETS
    ]
    assert backend.resilience.faulted_probes == 1
    (fault,) = backend.resilience.faults
    assert fault.probes == 1
    assert fault.reason == "exhausted"
    # The seven clean probes were actually sent.
    assert inner.stats.probes == len(TARGETS) - 1


# ---------------- the breaker state machine ---------------- #


def test_breaker_opens_half_opens_and_closes_on_fake_clock():
    clock = [0.0]
    breaker = CircuitBreaker(
        threshold=0.5, window=4, min_batches=2, cooldown=10.0,
        clock=lambda: clock[0],
    )
    assert breaker.allow() and breaker.state == "closed"
    breaker.record(False)
    assert breaker.state == "closed", "below min_batches"
    breaker.record(False)
    assert breaker.state == "open"
    assert not breaker.allow(), "cooldown has not expired"
    clock[0] = 10.0
    assert breaker.allow()
    assert breaker.state == "half-open"
    breaker.record(True)
    assert breaker.state == "closed"
    assert breaker.transitions == [
        ("closed", "open"), ("open", "half-open"), ("half-open", "closed"),
    ]


def test_breaker_reopens_on_failed_trial():
    clock = [0.0]
    breaker = CircuitBreaker(
        threshold=0.5, window=4, min_batches=2, cooldown=5.0,
        clock=lambda: clock[0],
    )
    breaker.record(False)
    breaker.record(False)
    clock[0] = 5.0
    assert breaker.allow() and breaker.state == "half-open"
    breaker.record(False)
    assert breaker.state == "open"
    assert not breaker.allow(), "cooldown restarted"


# ---------------- checkpoint: policy is part of the identity ------------ #


def test_config_key_includes_retry_policy():
    without = config_key(ScanConfig(pps=100.0))
    with_policy = config_key(
        ScanConfig(pps=100.0, retry_policy=RetryPolicy())
    )
    assert without != with_policy
    assert with_policy == config_key(
        ScanConfig(pps=100.0, retry_policy=RetryPolicy())
    )


# One changed value per policy field; a new field must join this table.
POLICY_CHANGES = {
    "max_retries": 3,
    "backoff": 0.07,
    "backoff_cap": 6.0,
    "timeout": 1.0,
    "breaker_threshold": 0.5,
    "max_split_depth": 3,
}


def test_config_key_changes_with_every_policy_field():
    from dataclasses import fields

    assert set(POLICY_CHANGES) == {field.name for field in fields(RetryPolicy)}
    default = config_key(ScanConfig(pps=100.0, retry_policy=RetryPolicy()))
    for name, value in POLICY_CHANGES.items():
        changed = ScanConfig(pps=100.0, retry_policy=RetryPolicy(**{name: value}))
        assert config_key(changed) != default, name


def test_resume_across_policy_change_fails_loudly():
    stored = config_key(ScanConfig(pps=100.0))
    checkpoint = ScanCheckpoint(
        name="scan", epoch=0, shards=2, scan_key=stored,
        target_count=8, fingerprint=1,
    )
    resuming = config_key(
        ScanConfig(pps=100.0, retry_policy=RetryPolicy(max_retries=1))
    )
    with pytest.raises(CheckpointMismatchError, match="scan config"):
        checkpoint.validate_resume(
            name="scan", epoch=0, shards=2, scan_key=resuming,
            target_count=8, fingerprint=1,
        )


def test_scan_config_rejects_non_policy():
    with pytest.raises(ValueError, match="retry_policy"):
        ScanConfig(pps=100.0, retry_policy="not-a-policy")


# ---------------- CLI validation: exit 2, one-line stderr ------------- #


def _cli_main(prog):
    if prog == "sra-scan":
        from repro.scanner.cli import main
    else:
        from repro.experiments.runner import main
    return main


# sra-scan refuses what RetryPolicy / ScanConfig would raise on;
# sra-repro has no resilience flags and checks only its rate.
_BAD_RATES = [
    (["--pps", "0"], "--pps"),
    (["--pps", "-1"], "--pps"),
    (["--pps", "nan"], "--pps"),
    (["--pps", "inf"], "--pps"),
]
_BAD_SCAN_FLAGS = [
    (["--backend-retries", "-1"], "--backend-retries"),
    (["--backend-timeout", "0"], "--backend-timeout"),
    (["--backend-timeout", "-3"], "--backend-timeout"),
    (["--backend-timeout", "nan"], "--backend-timeout"),
    (["--backend-timeout", "inf"], "--backend-timeout"),
    (["--breaker-threshold", "0"], "--breaker-threshold"),
    (["--breaker-threshold", "1.5"], "--breaker-threshold"),
    (["--breaker-threshold", "nan"], "--breaker-threshold"),
    *_BAD_RATES,
]


@pytest.mark.parametrize(
    "prog, argv, fragment",
    [("sra-scan", argv, fragment) for argv, fragment in _BAD_SCAN_FLAGS]
    + [("sra-repro", argv, fragment) for argv, fragment in _BAD_RATES]
    + [("sra-scan", ["--max-shard-retries", "-1"], "--max-shard-retries")],
)
def test_cli_rejects_bad_resilience_flags(prog, argv, fragment, capsys):
    assert _cli_main(prog)(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{prog}: ")
    assert fragment in err
    assert err.count("\n") == 1, "one-line diagnostics only"


class _Built(Exception):
    """Stops ``sra-scan`` once it has built its scan config."""


@pytest.mark.parametrize(
    "argv, knobs",
    [
        ([], None),
        (["--backend-retries", "0"], None),
        (["--backend-retries", "2"], (2, None, None)),
        (["--backend-timeout", "1.5"], (0, 1.5, None)),
        (["--breaker-threshold", "0.5"], (0, None, 0.5)),
        (
            ["--backend-retries", "1", "--backend-timeout", "2",
             "--breaker-threshold", "1", "--pps", "900", "--batch-size", "7"],
            (1, 2.0, 1.0),
        ),
    ],
)
def test_cli_flags_build_the_same_configs(argv, knobs, tiny_world, monkeypatch):
    """``sra-scan`` turns the flags into the RetryPolicy it always has:
    no wrapper when every knob is unset, else exactly the knobs given."""
    import repro.scanner.cli as cli

    expected = None if knobs is None else RetryPolicy.from_knobs(*knobs)
    built = []
    real_scan_config = cli._scan_config

    def scan_config(*args):
        built.append(real_scan_config(*args))
        raise _Built

    monkeypatch.setattr(cli, "build_world", lambda config: tiny_world)
    monkeypatch.setattr(cli, "_scan_config", scan_config)
    with pytest.raises(_Built):
        cli.main(["--max-targets", "8", *argv])
    assert built[0].retry_policy == expected
    if "--pps" in argv:
        assert (built[0].pps, built[0].batch_size) == (900.0, 7)


def test_scan_cli_accepts_resilience_flags(tmp_path, capsys):
    from repro.scanner.cli import main

    code = main(
        [
            "--world", "tiny",
            "--input-set", "bgp-plain",
            "--max-targets", "32",
            "--backend-retries", "2",
            "--breaker-threshold", "0.5",
            "--jsonl", str(tmp_path / "records.jsonl"),
            "--summary",
        ]
    )
    assert code == 0
    assert (tmp_path / "records.jsonl").exists()


# ---------------- sharded runner: injectable backoff sleep ------------ #


def test_shard_retry_backoff_uses_injected_sleep(tiny_world):
    from repro.scanner.cli import build_targets

    delays: list[float] = []
    chaos = ChaosEngine(
        FaultPlan(crash_shard=0, crash_at_probe=0, crash_attempts=2)
    )
    runner = ShardedScanRunner(
        tiny_world,
        shards=2,
        executor="serial",
        max_shard_retries=2,
        sleep=delays.append,
    )
    targets = build_targets(tiny_world, "bgp-plain", max_targets=32, seed=5)
    with injected(chaos):
        result = runner.scan(
            targets,
            ScanConfig(pps=10_000.0, seed=5),
            name="backoff-sleep",
            epoch=7300,
        )
    assert result.sent == len(targets)
    # Two failed rounds, exponential schedule, zero wall-time.
    assert delays == [0.1, 0.2]


# ---------------- merge + FaultyBackend odds and ends ----------------- #


def test_merge_results_sums_faulted_probes():
    fault = BackendFault(batch=0, probes=3, attempts=2, error="e", reason="exhausted")
    later = BackendFault(batch=5, probes=4, attempts=1, error="f", reason="breaker-open")
    merged = merge_results(
        "merged",
        [
            ScanResult(
                name="a", sent=10,
                resilience=ResilienceStats(
                    retries=1, quarantined_batches=1, faulted_probes=3,
                    faults=[fault], transitions=[("closed", "open")],
                ),
            ),
            ScanResult(name="b", sent=10),
            ScanResult(
                name="c", sent=10,
                resilience=ResilienceStats(
                    timeouts=2, quarantined_batches=1, faulted_probes=4,
                    breaker_fastfails=1, faults=[later],
                    transitions=[("open", "half-open")],
                ),
            ),
        ],
    )
    assert merged.faulted_probes == 7
    assert merged.sent == 30
    # Counts summed, faults and transitions in input order.
    assert merged.resilience == ResilienceStats(
        retries=1, timeouts=2, quarantined_batches=2, faulted_probes=7,
        breaker_fastfails=1, faults=[fault, later],
        transitions=[("closed", "open"), ("open", "half-open")],
    )
    assert merge_results("m", [ScanResult(name="a")]).resilience is None


def test_faulty_backend_short_mode_truncates_once():
    inner = ScriptedBackend()
    faulty = FaultyBackend(
        inner, FaultPlan(backend_short_batch=0), shard=0
    )
    assert send(faulty) == ANSWERED[:-1], "first attempt is short"
    assert send(faulty) == ANSWERED, "retries see the full batch"


def test_faulty_backend_blackhole_eats_echo_replies(tiny_world):
    from repro.scanner.backends import build_backend
    from repro.scanner.cli import build_targets

    config = ScanConfig(backend="sim")
    targets = list(
        build_targets(tiny_world, "bgp-plain", max_targets=16, seed=5)
    )
    times = [i / 1000.0 for i in range(len(targets))]
    def echoes(cols):
        return [
            row
            for row in range(cols.n)
            if cols.flags[row] & FLAG_REPLY and cols.icmp_type[row] == ICMPv6Type.ECHO_REPLY
        ]

    clean = build_backend(config, SimulationEngine(tiny_world, epoch=0))
    assert echoes(clean.probe_columns(targets, times)), (
        "vacuous: the tiny world answered nothing"
    )

    fresh = build_backend(config, SimulationEngine(tiny_world, epoch=0))
    faulty = FaultyBackend(fresh, FaultPlan(backend_blackhole=True))
    assert echoes(faulty.probe_columns(targets, times)) == []
    # Counters stay coherent with the surviving replies.
    assert fresh.stats.echo_replies == 0


def test_stochastic_fault_plan_is_deterministic():
    plan = FaultPlan(seed=42, backend_error_probability=0.5)
    first = FaultyBackend(ScriptedBackend(), plan, shard=3)
    second = FaultyBackend(ScriptedBackend(), plan, shard=3)
    verdicts_a = [first._fated(ordinal) for ordinal in range(64)]
    verdicts_b = [second._fated(ordinal) for ordinal in range(64)]
    assert verdicts_a == verdicts_b
    assert any(verdicts_a) and not all(verdicts_a)


def test_resilience_is_invisible_without_math_weirdness():
    # A policy whose knobs are all no-ops must behave as pure delegation.
    inner = ScriptedBackend()
    backend = ResilientBackend(
        inner, RetryPolicy(max_retries=0, backoff=0.0), sleep=lambda _d: None
    )
    assert send(backend) == ANSWERED
    assert backend.resilience.empty()
    assert math.isfinite(RetryPolicy().backoff_delay(1000))


# ---------------- real scans through the wrappers ---------------------- #
#
# The scans below run probe_columns -> wrapper -> FaultyBackend -> backend
# (armed by ``faults.injected``), over ``sim`` and over ``wire-sim``.  Each
# scenario is held to the fault-free bytes where the fault is transient,
# and to the other backend's run of the same plan where it is not.  Each
# runs at two (batch size, shards) pairs, one sharded and one with whole
# batches: that the fault-free bytes are the same at every pair is
# tests/test_identity_matrix.py's.

SCENARIO_EPOCH = 7400
CLEAN = "the fault-free bytes"


@pytest.fixture(scope="module")
def scenario_targets(tiny_world):
    import random

    from repro.scanner.targets import bgp_slash48_targets

    # Unassigned space (errors, rate limiting), live subnets' SRA addresses
    # (echo replies) and loop regions (amplified Time Exceeded).
    targets = list(
        bgp_slash48_targets(
            tiny_world.bgp, max_per_prefix=8, max_targets=400, rng=random.Random(11)
        )
    )
    targets += [subnet.sra_address for subnet in tiny_world.subnets.values()][:200]
    for region in tiny_world.loop_regions[:2]:
        targets.extend(region.prefix.network | offset for offset in range(1, 12))
    return targets


def _scenario_scan(
    world, targets, *, backend, shards, batch_size, plan, policy, executor="serial"
):
    """One runner scan under ``plan`` (None: an empty plan — the same
    deferred-shard execution, nothing injected)."""
    telemetry = ScanTelemetry()
    runner = ShardedScanRunner(
        world, shards=shards, executor=executor, telemetry=telemetry
    )
    with injected(ChaosEngine(plan if plan is not None else FaultPlan())):
        result = runner.scan(
            targets,
            ScanConfig(
                pps=20_000.0,
                seed=5,
                backend=backend,
                batch_size=batch_size,
                progress_every=100,
                retry_policy=policy,
            ),
            name="scenario",
            epoch=SCENARIO_EPOCH,
        )
    surfaces = (
        records_jsonl(result.rows),
        telemetry.to_jsonl(),
        telemetry.to_prometheus(),
    )
    return surfaces, result


TRANSIENT = {
    "error-batch": (
        FaultPlan(backend_error_batch=0, backend_error_attempts=2),
        RetryPolicy(max_retries=2, backoff=0.0),
    ),
    # Seed 2 fates the first batch of every shard (and ~60 % of the rest).
    "error-draws": (
        FaultPlan(seed=2, backend_error_probability=0.6, backend_error_attempts=1),
        RetryPolicy(max_retries=1, backoff=0.0),
    ),
    "short-batch": (
        FaultPlan(backend_short_batch=0),
        RetryPolicy(max_retries=1, backoff=0.0),
    ),
}
# A first batch that never goes through whole, no retries: it is bisected,
# both halves (fresh batch identities to the plan) succeed, and the spliced
# result stands in for the batch.  Needs batches that can be halved.
BISECTED = (
    FaultPlan(backend_error_batch=0, backend_error_attempts=None),
    RetryPolicy(max_retries=0, backoff=0.0, max_split_depth=1),
)


@pytest.mark.parametrize("batch_size, shards", [(1, 4), (1024, 1)])
@pytest.mark.parametrize("scenario", sorted(TRANSIENT))
def test_transient_scenarios_reproduce_fault_free_bytes(
    tiny_world, scenario_targets, scenario, batch_size, shards,
):
    _assert_transient(
        tiny_world, scenario_targets, scenario, batch_size, shards,
        *TRANSIENT[scenario],
    )


@pytest.mark.parametrize("batch_size, shards", [(16, 4), (128, 1)])
def test_bisected_batch_is_spliced_back_to_fault_free_bytes(
    tiny_world, scenario_targets, batch_size, shards
):
    plan, policy = BISECTED
    _assert_transient(
        tiny_world, scenario_targets, "bisected", batch_size, shards, plan, policy,
        leaves_trace=False,  # no retry, no quarantine: nothing to report
    )
    # Non-vacuity: without the bisection the same plan costs a batch a shard.
    from dataclasses import replace

    _, unsplit = _scenario_scan(
        tiny_world, scenario_targets, backend="sim", shards=shards,
        batch_size=batch_size, plan=plan, policy=replace(policy, max_split_depth=0),
    )
    assert unsplit.faulted_probes == shards * batch_size


def _assert_transient(
    tiny_world, scenario_targets, scenario, batch_size, shards, plan, policy,
    leaves_trace=True,
):
    clean, _ = _scenario_scan(
        tiny_world, scenario_targets, backend="sim", shards=shards,
        batch_size=batch_size, plan=None, policy=None,
    )
    for backend in ("sim", "wire-sim"):
        got, result = _scenario_scan(
            tiny_world, scenario_targets, backend=backend, shards=shards,
            batch_size=batch_size, plan=plan, policy=policy,
        )
        assert got == clean and clean[0], (scenario, backend)
        assert result.faulted_probes == 0
        # Non-vacuity: the plan fired and the wrapper recovered, which
        # only the result's resilience delta may show.  (A batch of one
        # cannot be short.)
        if leaves_trace and not (scenario == "short-batch" and batch_size == 1):
            assert not result.resilience.empty(), (scenario, backend)


LOSSY = {
    # Echo replies never arrive; errors do.
    "blackhole": (FaultPlan(backend_blackhole=True), RetryPolicy(max_retries=1)),
    # The fewest dead batches that open the breaker, which never cools
    # down on the frozen clock: the rest of every shard fast-fails
    # without touching the transport.
    "breaker-open": (
        FaultPlan(
            backend_error_batches=BREAKER_MIN_BATCHES, backend_error_attempts=None
        ),
        RetryPolicy(
            max_retries=0, backoff=0.0, max_split_depth=0, breaker_threshold=0.5
        ),
    ),
    # One dead shard transport, retried, bisected, quarantined.
    "dead-shard": (
        FaultPlan(backend_error_shard=0, backend_error_attempts=None),
        RetryPolicy(max_retries=1, backoff=0.0, max_split_depth=2),
    ),
}


class FrozenClockResilientBackend(ResilientBackend):
    """The scanner's wrapper on a frozen clock: an open breaker stays open
    however long the scan takes."""

    def __init__(self, inner, policy):
        super().__init__(inner, policy, clock=lambda: 0.0)


# A batch of 16 leaves every one of four shards more batches than the
# breaker needs to open.
@pytest.mark.parametrize("batch_size, shards", [(1, 4), (16, 1)])
@pytest.mark.parametrize("scenario", sorted(LOSSY))
def test_lossy_scenarios_match_across_backends(
    tiny_world, scenario_targets, scenario, batch_size, shards, monkeypatch,
):
    plan, policy = LOSSY[scenario]
    monkeypatch.setattr(
        "repro.scanner.zmapv6.ResilientBackend", FrozenClockResilientBackend
    )
    clean, clean_result = _scenario_scan(
        tiny_world, scenario_targets, backend="sim", shards=shards,
        batch_size=batch_size, plan=None, policy=None,
    )
    columnar, result = _scenario_scan(
        tiny_world, scenario_targets, backend="sim", shards=shards,
        batch_size=batch_size, plan=plan, policy=policy,
    )
    wire, wire_result = _scenario_scan(
        tiny_world, scenario_targets, backend="wire-sim", shards=shards,
        batch_size=batch_size, plan=plan, policy=policy,
    )
    assert columnar == wire, scenario
    assert result.engine_stats == wire_result.engine_stats
    assert result.faulted_probes == wire_result.faulted_probes
    assert result.sent == clean_result.sent, "quiet rows stay counted"
    assert clean[0], "vacuous: the scenario scan gets no replies"
    assert columnar != clean, "vacuous: the plan changed nothing"
    if scenario == "blackhole":
        assert result.faulted_probes == 0
        assert result.engine_stats.echo_replies == 0
        assert not any(record.is_echo for record in result.records)
        assert [r for r in result.records if r.is_error] == [
            r for r in clean_result.records if r.is_error
        ]
    elif scenario == "breaker-open":
        assert result.faulted_probes == result.sent
        reasons = {fault.reason for fault in result.resilience.faults}
        assert reasons == {"exhausted", "breaker-open"}
    else:
        per_shard = len(range(0, len(scenario_targets), shards))
        assert result.faulted_probes == per_shard


@pytest.mark.parametrize("scenario", ["error-draws", "dead-shard"])
def test_resilience_delta_is_the_same_from_a_pool(
    tiny_world, scenario_targets, scenario
):
    """Shards run in pool workers bring their resilience deltas home on
    their results, and the merge adds them up in shard order: the
    scan's ``result.resilience`` is the one its shards run in place give."""
    plan, policy = {**TRANSIENT, **LOSSY}[scenario]
    serial, pooled = (
        _scenario_scan(
            tiny_world, scenario_targets, backend="sim", shards=4, batch_size=16,
            plan=plan, policy=policy, executor=executor,
        )[1]
        for executor in ("serial", "process")
    )
    assert not serial.resilience.empty(), "vacuous: the plan changed nothing"
    assert pooled.resilience == serial.resilience
    assert pooled.records == serial.records


def test_resilience_delta_survives_a_resume(tiny_world, scenario_targets, tmp_path):
    """A journalled shard keeps its resilience delta on its result: a scan
    interrupted and resumed reports the delta an uninterrupted one does."""
    from dataclasses import replace

    plan, policy = LOSSY["dead-shard"]
    config = ScanConfig(pps=20_000.0, seed=5, batch_size=16, retry_policy=policy)

    def scan(chaos_plan, **kwargs):
        runner = ShardedScanRunner(tiny_world, shards=4, executor="serial")
        with injected(ChaosEngine(chaos_plan)):
            return runner.scan(
                scenario_targets, config, name="resume", epoch=SCENARIO_EPOCH, **kwargs
            )

    whole = scan(plan)
    checkpoint = tmp_path / "resume.ckpt"
    with pytest.raises(ScanInterrupted):
        scan(replace(plan, interrupt_after_shards=2), checkpoint=checkpoint)
    resumed = scan(plan, checkpoint=checkpoint, resume=True)
    assert whole.resilience.faults, "vacuous: the dead shard quarantined nothing"
    assert resumed.resilience == whole.resilience
    assert resumed.records == whole.records


# What EXPERIMENTS.md's "Resilient transport under chaos" walkthrough
# prints: the test below is its code.
WALKTHROUGH = [
    "transient: sent=96 received=15 faulted=0",
    "ResilienceStats(retries=2, timeouts=0, quarantined_batches=0, "
    "faulted_probes=0, breaker_fastfails=0, faults=[], transitions=[])",
    "dead shard: sent=96 received=11 faulted=24",
    "ResilienceStats(retries=3, timeouts=0, quarantined_batches=4, "
    "faulted_probes=24, breaker_fastfails=0, faults=["
    + ", ".join(
        "BackendFault(batch=0, probes=6, attempts=1, error='InjectedBackendError: "
        f"injected backend error (shard 2, batch {batch}, attempt 0)', "
        "reason='exhausted')"
        for batch in (2, 3, 5, 6)
    )
    + "], transitions=[])",
]


def test_chaos_walkthrough(tiny_world):
    """One sharded scan with a RetryPolicy under two fault plans; what
    the resilience layer did is read off the scan's own result."""
    from repro.scanner.cli import build_targets

    targets = build_targets(tiny_world, "bgp-plain", max_targets=96, seed=5)
    config = ScanConfig(
        pps=10_000.0, seed=5,
        retry_policy=RetryPolicy(max_retries=3, backoff=0.0, breaker_threshold=0.8),
    )
    plans = {
        "transient": FaultPlan(
            seed=5, backend_error_probability=0.6, backend_error_attempts=1
        ),
        "dead shard": FaultPlan(
            seed=5, backend_error_shard=2, backend_error_attempts=None
        ),
    }
    lines = []
    for label, plan in plans.items():
        runner = ShardedScanRunner(tiny_world, shards=4, executor="serial")
        with injected(ChaosEngine(plan)):
            result = runner.scan(targets, config, name="chaos-demo", epoch=0)
        lines.append(
            f"{label}: sent={result.sent} received={result.received} "
            f"faulted={result.faulted_probes}"
        )
        lines.append(str(result.resilience))
    assert lines == WALKTHROUGH


class _PoisonMixin:
    """Fails any batch that contains the poison target."""

    poison = -1

    def _check(self, targets):
        if self.poison in targets:
            raise RuntimeError("poison probe in batch")

    def probe_columns(self, targets, *args, **kwargs):
        self._check(targets)
        return super().probe_columns(targets, *args, **kwargs)


class PoisonSim(_PoisonMixin, SimBackend):
    pass


class PoisonWire(_PoisonMixin, WireSimBackend):
    pass


def _scanner_scan(backend, targets, policy, batch_size):
    telemetry = ScanTelemetry()
    scanner = ZMapV6Scanner(
        backend,
        ScanConfig(
            pps=20_000.0, seed=5, batch_size=batch_size, progress_every=100,
            retry_policy=policy,
        ),
        telemetry=telemetry,
    )
    result = scanner.scan(targets, name="scenario", epoch=SCENARIO_EPOCH)
    surfaces = (
        records_jsonl(result.rows),
        telemetry.to_jsonl(),
        telemetry.to_prometheus(),
    )
    return surfaces, result, scanner


@pytest.mark.parametrize("batch_size", [16, 1024])
def test_bisection_isolates_a_poison_probe_in_a_real_scan(
    tiny_world, scenario_targets, batch_size
):
    clean, clean_result, _ = _scanner_scan(
        SimBackend(SimulationEngine(tiny_world, defer_rate_limit=True)),
        scenario_targets, None, batch_size,
    )
    poison = clean_result.records[len(clean_result.records) // 2].target
    policy = RetryPolicy(max_retries=0, backoff=0.0, max_split_depth=10)
    surfaces = []
    for cls in (PoisonSim, PoisonWire):
        inner = SimBackend(SimulationEngine(tiny_world, defer_rate_limit=True))
        backend = cls(inner.engine) if cls is PoisonSim else cls(inner)
        backend.poison = poison
        got, result, _ = _scanner_scan(
            backend, scenario_targets, policy, batch_size
        )
        assert result.faulted_probes == 1
        assert result.sent == clean_result.sent
        assert result.records == [
            record for record in clean_result.records if record.target != poison
        ]
        (fault,) = result.resilience.faults
        assert (fault.probes, fault.reason) == (1, "exhausted")
        surfaces.append(got)
    assert surfaces[0] == surfaces[1]
    assert surfaces[0] != clean


def test_hung_columnar_send_is_recovered_by_the_watchdog(
    tiny_world, scenario_targets
):
    """FaultyBackend's hang over ``sim``, a real (short) deadline and a
    real join: the abandoned attempt is released at ``close()`` and ends;
    the scan's bytes are the fault-free ones."""
    import threading

    clean, _, _ = _scanner_scan(
        SimBackend(SimulationEngine(tiny_world, defer_rate_limit=True)),
        scenario_targets, None, 256,
    )
    faulty = FaultyBackend(
        SimBackend(SimulationEngine(tiny_world, defer_rate_limit=True)),
        FaultPlan(backend_hang_batch=1),
    )
    before = set(threading.enumerate())
    got, result, scanner = _scanner_scan(
        faulty, scenario_targets,
        RetryPolicy(max_retries=1, backoff=0.0, timeout=0.2), 256,
    )
    assert got == clean
    assert result.resilience.timeouts == 1
    assert result.resilience.retries == 1
    assert result.faulted_probes == 0
    (hung,) = [
        thread
        for thread in set(threading.enumerate()) - before
        if thread.name == "resilient-send"
    ]
    scanner.backend.close()
    hung.join(10.0)
    assert not hung.is_alive()


# ---------------- retries and live rate limiters ----------------------- #


def _drained_routers_targets(world):
    """40 live subnets x 60 unassigned in-subnet addresses: each router
    answers a burst of Address Unreachable errors until its bucket is dry."""
    subnets = [s for s in world.subnets.values() if not s.aliased][:40]
    targets = []
    for subnet in subnets:
        taken = set(subnet.hosts) | {subnet.sra_address, subnet.router_interface}
        candidates = (subnet.prefix.first + 0x1000 + k for k in range(1 << 12))
        targets.extend([a for a in candidates if a not in taken][:60])
    return targets


@pytest.mark.parametrize("deferred", [True, False], ids=["deferred", "live"])
def test_failed_send_on_a_live_limiter_is_quarantined_not_repeated(deferred):
    """Rollback restores counters, not token buckets.  Over a deferred
    engine (every journalled / sharded / chaos run) a re-sent batch is
    byte-identical to a fault-free one; over a live one it would meet
    routers the failed attempt had already drained and silently lose
    their errors — so it is not re-sent, and says so."""
    from repro.topology.config import tiny_config
    from repro.topology.generator import build_world

    world = build_world(tiny_config(2024))
    targets = _drained_routers_targets(world)
    config = ScanConfig(
        pps=200_000, seed=3, retry_policy=RetryPolicy(max_retries=2, backoff=0.0)
    )

    def scan(plan):
        backend = SimBackend(SimulationEngine(world, defer_rate_limit=deferred))
        if plan is not None:
            backend = FaultyBackend(backend, plan)
        return ZMapV6Scanner(backend, config).scan(targets, name="limiter", epoch=0)

    clean = scan(None)
    # The first batch comes back one row short *after* the engine ran it.
    faulted = scan(FaultPlan(backend_short_batch=0))
    errors = sum(record.is_error for record in clean.records)
    assert errors > 100, "vacuous: nothing to rate-limit"
    if deferred:
        assert faulted.records == clean.records
        assert faulted.engine_stats == clean.engine_stats
        assert faulted.faulted_probes == 0
        assert faulted.resilience.retries == 1
    else:
        assert len(clean.records) < len(targets) // 4, "the limiter must bite"
        (fault,) = faulted.resilience.faults
        assert fault.reason == "unrepeatable"
        assert (fault.batch, fault.attempts, fault.probes) == (0, 1, 1024)
        assert "short outcome list" in fault.error
        assert faulted.resilience.retries == 0, "nothing was sent twice"
        assert faulted.faulted_probes == 1024
        assert faulted.sent == clean.sent
        # The quarantined batch is silent and uncounted by the engine.
        assert all(record.time >= 1024 / config.pps for record in faulted.records)
        assert faulted.engine_stats.probes == clean.engine_stats.probes - 1024
