"""Deterministic fault injection for exercising crash-recovery paths.

Recovery code that is only ever exercised by real crashes is recovery
code that does not work.  This module provides a :class:`ChaosEngine`
that injects the failure modes the scan runner must survive — worker
crashes at an exact probe index, sink-write exceptions, slow shards,
transport faults and operator interrupts — all *deterministically*:
stochastic faults are keyed BLAKE2 draws over ``(seed, purpose, shard,
attempt)`` exactly like every other stochastic decision in the simulator
(:mod:`repro.netsim.stochastic`), so a failing CI run reproduces locally
from the seed alone.

The runner takes no fault plan.  :func:`injected` arms one by patching
seams the runner already has, for the scans run inside its block; a
process pool forked there inherits the patches, so its faults fire
*inside* the worker — a "hard" crash is a genuine ``os._exit`` that the
parent observes as a broken pool, not a polite exception.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import pytest

from repro.netsim.engine import FLAG_REPLY
from repro.netsim.stochastic import stable_unit
from repro.packet.icmpv6 import ICMPv6Type
from repro.scanner import sharded, zmapv6
from repro.scanner.backends.base import BackendError, ProbeBackend, WrappingBackend
from repro.scanner.stream import RecordSink

if TYPE_CHECKING:
    from repro.netsim.engine import ProbeColumns

__all__ = [
    "ChaosEngine",
    "CrashingSequence",
    "FailingSink",
    "FaultPlan",
    "FaultyBackend",
    "InjectedBackendError",
    "InjectedCrash",
    "InjectedSinkError",
    "injected",
]

_ECHO_REPLY = int(ICMPv6Type.ECHO_REPLY)

# Exit status a hard-crashed worker dies with; chosen to be recognisable
# in pool post-mortems and unlike any real Python exit code.
HARD_CRASH_EXIT = 66


class InjectedCrash(RuntimeError):
    """A deliberate, planned worker failure (soft crash)."""


class InjectedBackendError(BackendError):
    """A deliberate, planned batch-send failure (transport fault)."""


class InjectedSinkError(OSError):
    """A deliberate, planned record-sink write failure."""


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """What to break, where, and how often.

    All fields default to "inject nothing", so an empty plan is a no-op
    engine.  Deterministic triggers (``crash_shard``/``crash_at_probe``)
    and stochastic ones (``crash_probability``) compose; either may fire.
    """

    seed: int = 0
    # Crash shard `crash_shard` at its `crash_at_probe`-th probe, on the
    # first `crash_attempts` attempts (so retries eventually succeed).
    crash_shard: int | None = None
    crash_at_probe: int = 0
    crash_attempts: int = 1
    # Hard crashes os._exit the worker (parent sees a broken pool);
    # soft crashes raise InjectedCrash.  Hard mode is only meaningful
    # under the process executor — in-process it would kill the test run.
    hard: bool = False
    # Independently of the planned crash, each (shard, attempt) crashes
    # with this probability, drawn via stable_unit(seed, ...).
    crash_probability: float = 0.0
    # Sink writes raise after this many successful emits (None = never).
    sink_fail_after: int | None = None
    # Per-shard start-up delays in seconds (simulates stragglers).
    slow_shards: Mapping[int, float] = field(default_factory=dict)
    # Ask the runner to interrupt itself (as if SIGINT arrived) once this
    # many shards have completed and checkpointed.
    interrupt_after_shards: int | None = None

    # ---- backend-level transport faults (FaultyBackend) ---- #
    # Fated batches raise InjectedBackendError from the send.  Batch
    # identity is the ordinal of the first sighting (stable across
    # retries of the same batch; split sub-batches get fresh ordinals).
    #
    # Fail exactly this batch ordinal (on backend_error_shard if set,
    # else on every shard).
    backend_error_batch: int | None = None
    # Fail the first N distinct batch ordinals (composable with the
    # shard filter; used to exercise breaker open -> half-open -> close).
    backend_error_batches: int | None = None
    # Shard filter for the two triggers above — or, set alone (both
    # batch triggers None, probability 0), fail *every* batch on this
    # shard (a permanently-dead transport).
    backend_error_shard: int | None = None
    # Independently, each (shard, batch) is fated with this probability
    # via stable_unit(seed, b"chaos-backend", shard, batch).
    backend_error_probability: float = 0.0
    # A fated batch fails its first N send attempts (retries then
    # succeed); None makes the fault permanent (every attempt fails).
    backend_error_attempts: int | None = 1
    # Hang the first attempt of this batch ordinal: the send blocks
    # (before touching the wrapped backend) until the chaos backend is
    # closed, then raises — the shape of a wedged raw socket.
    backend_hang_batch: int | None = None
    # Return a truncated result (one column row short)
    # from the first attempt of this batch ordinal — a seam-contract
    # violation the resilience layer must catch and retry.
    backend_short_batch: int | None = None
    # Eat every echo reply in flight: probes are sent, replies never
    # arrive (stats stay coherent — the eaten replies are uncounted).
    backend_blackhole: bool = False


class CrashingSequence:
    """A target sequence that dies at its N-th per-probe access.

    The scan hot path reads ``targets[index]`` exactly once per probe, so
    counting ``__getitem__`` calls addresses faults by probe ordinal —
    "crash at probe 37" — independent of batch size or permutation.
    """

    __slots__ = ("_targets", "_remaining", "_hard")

    def __init__(self, targets: Sequence[int], at_probe: int, hard: bool) -> None:
        self._targets = targets
        self._remaining = at_probe
        self._hard = hard

    def __len__(self) -> int:
        return len(self._targets)

    def __getitem__(self, index: int) -> int:
        if self._remaining <= 0:
            if self._hard:  # pragma: no cover - kills the process by design
                os._exit(HARD_CRASH_EXIT)
            raise InjectedCrash(
                f"planned crash at probe access (index {index})"
            )
        self._remaining -= 1
        return self._targets[index]


class FailingSink(RecordSink):
    """A record-sink proxy that passes exactly ``fail_after`` rows on to
    ``sink``, then fails: in ``_write_chunk``, so streaming and
    post-merge drains count rows identically."""

    __slots__ = ("_sink", "_remaining")

    def __init__(self, sink: RecordSink, fail_after: int) -> None:
        self._sink = sink
        self._remaining = fail_after

    @property
    def emitted(self) -> int:
        return self._sink.emitted

    def _write_chunk(self, rows) -> None:
        passed = rows[: self._remaining]
        self._sink.drain(passed)
        self._remaining -= len(passed)
        if len(passed) < len(rows):
            raise InjectedSinkError("planned sink write failure")

    def close(self) -> None:
        self._sink.close()


class FaultyBackend(WrappingBackend):
    """A :class:`ProbeBackend` wrapper that injects transport faults.

    Sits *under* the resilience layer (``ResilientBackend`` wraps it),
    exactly where a flaky NIC or a wedged raw socket would be.  Every
    injected fault fires *before* the wrapped backend is touched (or,
    for blackholes/truncation, adjusts only the returned columns), so a
    transactional retry above observes a clean rollback and reproduces
    the fault-free byte stream — the property the chaos contract tests
    pin for every backend in ``BACKENDS``.

    Batch identity: the ordinal of first sighting, keyed on
    ``(len, first target, last target)`` — retries of a batch keep their
    ordinal, split sub-batches get fresh ones.
    """

    def __init__(
        self, inner: ProbeBackend, plan: FaultPlan, shard: int = 0
    ) -> None:
        super().__init__(inner)
        self.plan = plan
        self.shard = shard
        self._batches: dict[tuple[int, int, int], list[int]] = {}
        self._next_ordinal = 0
        self._hang_fired = False
        self._release = threading.Event()

    def close(self) -> None:
        # Release any hung send first so its (abandoned) watchdog thread
        # raises and exits instead of blocking forever.
        self._release.set()
        super().close()

    # ---------------- fault logic ---------------- #

    def _fated(self, ordinal: int) -> bool:
        plan = self.plan
        shard_matches = (
            plan.backend_error_shard is None
            or plan.backend_error_shard == self.shard
        )
        if plan.backend_error_batch is not None:
            if shard_matches and ordinal == plan.backend_error_batch:
                return True
        if plan.backend_error_batches is not None:
            if shard_matches and ordinal < plan.backend_error_batches:
                return True
        if (
            plan.backend_error_batch is None
            and plan.backend_error_batches is None
            and plan.backend_error_shard == self.shard
            and plan.backend_error_probability == 0.0
        ):
            return True  # dead-transport mode: every batch on the shard
        if plan.backend_error_probability > 0.0:
            draw = stable_unit(plan.seed, b"chaos-backend", self.shard, ordinal)
            if draw < plan.backend_error_probability:
                return True
        return False

    def probe_columns(
        self,
        targets: Sequence[int],
        times: Sequence[float],
        *,
        hop_limit: int = 64,
        probe_ids: Sequence[int] | None = None,
        out: "ProbeColumns | None" = None,
    ) -> "ProbeColumns":
        """A short batch is ``cols.n`` one short; an eaten echo row is
        "probed, no reply", and an eaten extra echo reply is gone."""
        short = self._before_send(targets)
        cols = self.inner.probe_columns(
            targets, times, hop_limit=hop_limit, probe_ids=probe_ids, out=out
        )
        if short:
            cols.n -= 1
        elif self.plan.backend_blackhole:
            flags, icmp_type = cols.flags, cols.icmp_type
            for row in range(cols.n):
                if flags[row] & FLAG_REPLY and icmp_type[row] == _ECHO_REPLY:
                    flags[row] ^= FLAG_REPLY
                    self.inner.stats.echo_replies -= 1
            kept = [reply for reply in cols.extra if reply[2] != _ECHO_REPLY]
            self.inner.stats.echo_replies -= len(cols.extra) - len(kept)
            cols.extra[:] = kept
        return cols

    def _before_send(self, targets: Sequence[int]) -> bool:
        """Count this attempt against its batch and act out a planned hang
        or error — before the wrapped backend is touched.  Returns whether
        the plan wants this attempt's result one row short."""
        plan = self.plan
        key = (
            len(targets),
            targets[0] if targets else -1,
            targets[-1] if targets else -1,
        )
        state = self._batches.get(key)
        if state is None:
            state = self._batches[key] = [self._next_ordinal, 0]
            self._next_ordinal += 1
        ordinal, attempt = state
        state[1] += 1
        if (
            ordinal == plan.backend_hang_batch
            and attempt == 0
            and not self._hang_fired
        ):
            self._hang_fired = True
            self._release.wait()
            raise InjectedBackendError(
                f"hung batch {ordinal} released at close"
            )
        if self._fated(ordinal) and (
            plan.backend_error_attempts is None
            or attempt < plan.backend_error_attempts
        ):
            raise InjectedBackendError(
                f"injected backend error "
                f"(shard {self.shard}, batch {ordinal}, attempt {attempt})"
            )
        return (
            ordinal == plan.backend_short_batch
            and attempt == 0
            and len(targets) > 1
        )


@dataclass(slots=True)
class ChaosEngine:
    """Applies a :class:`FaultPlan` at the scan runner's seams.

    Plain data: a forked process-pool worker holds a copy and decides
    locally (and identically, thanks to keyed hashing) whether its
    (shard, attempt) is fated to fail.
    """

    plan: FaultPlan = field(default_factory=FaultPlan)

    def should_crash(self, shard: int, attempt: int) -> bool:
        """Is this (shard, attempt) planned or fated to crash?"""
        plan = self.plan
        if plan.crash_shard == shard and attempt < plan.crash_attempts:
            return True
        if plan.crash_probability > 0.0:
            draw = stable_unit(plan.seed, b"chaos-crash", shard, attempt)
            if draw < plan.crash_probability:
                return True
        return False

    def wrap_targets(
        self, targets: Sequence[int], shard: int, attempt: int
    ) -> Sequence[int]:
        """Arm the crash trigger on a shard's target view (or pass through)."""
        if self.should_crash(shard, attempt):
            return CrashingSequence(targets, self.plan.crash_at_probe, self.plan.hard)
        return targets

    def wrap_sink(self, sink):
        """Arm the sink-failure trigger (or pass through)."""
        if sink is not None and self.plan.sink_fail_after is not None:
            return FailingSink(sink, self.plan.sink_fail_after)
        return sink

    def has_backend_faults(self) -> bool:
        """Does the plan inject anything at the ProbeBackend seam?"""
        plan = self.plan
        return (
            plan.backend_error_batch is not None
            or plan.backend_error_batches is not None
            or plan.backend_error_shard is not None
            or plan.backend_error_probability > 0.0
            or plan.backend_hang_batch is not None
            or plan.backend_short_batch is not None
            or plan.backend_blackhole
        )

    def wrap_backend(self, backend: ProbeBackend, shard: int) -> ProbeBackend:
        """Interpose transport faults under a shard's backend (or pass
        through when the plan injects nothing at this seam)."""
        if self.has_backend_faults():
            return FaultyBackend(backend, self.plan, shard)
        return backend

    def delay_shard(self, shard: int) -> None:
        """Stall a slow shard's start-up per the plan."""
        delay = self.plan.slow_shards.get(shard, 0.0)
        if delay > 0.0:  # pragma: no branch
            time.sleep(delay)

    def wants_interrupt(self, completed_shards: int) -> bool:
        """Should the runner self-interrupt after this many completions?"""
        after = self.plan.interrupt_after_shards
        return after is not None and completed_shards >= after


@contextmanager
def injected(chaos: ChaosEngine) -> Iterator[ChaosEngine]:
    """Run the scans inside the block under ``chaos``'s plan.

    Patches, until the block ends: ``sharded.scan_shard`` (delay the
    shard, then arm its targets by ``(shard, attempt)``),
    ``zmapv6.build_backend`` (transport faults *under* the resilience
    wrapper the scanner adds, where a flaky NIC would sit), the runner's
    ``_unattended`` (every scan takes the dispatch loop, a one-shard one
    too, and ``scan_all`` runs nothing ahead) and the ``complete`` each
    ``_run_round`` receives (``interrupt_after_shards`` counts the
    scan's outcomes, a resumed journal's included).

    A pool worker sees the patches only by inheriting them from a fork,
    so a round about to open a pool under any other start method skips
    the test rather than run it unpatched.
    """
    scan_shard = sharded.scan_shard
    build_backend = zmapv6.build_backend
    run_round = sharded.ShardedScanRunner._run_round

    def faulted_scan_shard(world, config, targets, *, shard, attempt=0, **work):
        chaos.delay_shard(shard)
        targets = chaos.wrap_targets(targets, shard, attempt)
        return scan_shard(world, config, targets, shard=shard, attempt=attempt, **work)

    def faulted_build_backend(config, engine=None):
        return chaos.wrap_backend(build_backend(config, engine), config.shard)

    def counted_run_round(self, pending, target_list, *args):
        *args, complete = args
        if self._resolve_executor(len(target_list)) != "serial":
            method = multiprocessing.get_start_method()
            if method != "fork":
                pytest.skip(
                    "pool workers inherit the fault patches only when "
                    f"forked; the start method is {method!r}"
                )
        # Every shard a round does not run is done: in the journal a scan
        # resumed, or completed by an earlier round.
        done = self.shards - len(pending)

        def counted(outcome):
            nonlocal done
            complete(outcome)
            done += 1
            if chaos.wants_interrupt(done):
                self._interrupted = True

        return run_round(self, pending, target_list, *args, counted)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sharded, "scan_shard", faulted_scan_shard)
        patch.setattr(zmapv6, "build_backend", faulted_build_backend)
        patch.setattr(sharded.ShardedScanRunner, "_unattended", lambda *_: False)
        patch.setattr(sharded.ShardedScanRunner, "_run_round", counted_run_round)
        yield chaos
