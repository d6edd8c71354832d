"""``ResilientBackend``: retry, timeout, breaker, and quarantine at the seam.

PR 5 made the scanner crash-tolerant at the *shard process* level: a
dead worker costs a whole-shard retry.  That is the wrong granularity
for transient transport trouble — one failed batch out of
thousands, a wedged raw socket, an RFC 4443 rate limiter eating a burst.
This module adds resilience at the :class:`ProbeBackend` seam itself,
where a fault costs at most one batch:

* :class:`RetryPolicy` — a declarative, picklable knob bundle.  It rides
  :class:`~repro.scanner.zmapv6.ScanConfig` across the pickle boundary
  to pool workers and into the checkpoint config key, so resuming a
  journal across a policy change fails loudly instead of silently
  merging runs with different failure semantics.
* :class:`CircuitBreaker` — the classic three-state machine (closed →
  open → half-open) over a sliding window of *final* batch outcomes.
  While open, batches fail fast into quarantine without touching the
  backend; after a cooldown one trial batch decides re-close vs re-open.
* :class:`ResilientBackend` — a wrapper that retries failed batches with
  capped exponential backoff, recovers hung sends
  with a watchdog deadline, and — when retries are exhausted — bisects
  the batch to isolate poison probes, quarantining only those as
  explicit :class:`BackendFault` outcomes.  Quarantined probes surface
  as quiet rows (probed, no reply) plus ``ScanResult.faulted_probes``,
  so a scan under permanent faults completes with an honest partial
  result instead of dying.

Every attempt is transactional: the wrapper snapshots the inner
backend's ``stats``, ``pending_checks`` length, and ``unmatched_replies``
before delegating and rolls all three back on failure, so a retried
batch never double-counts probes or double-appends deferred rate-limit
checks — which keeps a retried run byte-identical to a fault-free one
(pinned by the backend contract suite) **over a deferred engine**, as
every journalled, sharded or chaos run has.  A live engine also drains
token buckets, which are not snapshotted: an attempt that fails *after*
probing a live rate limiter (``stats.probes`` moved) is not sent again —
neither retried nor bisected — but quarantined, ``"unrepeatable"``.

The wrapper is built *around* an existing backend and is not in
``BACKENDS``: the scanner adds it whenever ``ScanConfig.retry_policy`` is
set, whichever backend the config names.  Every backend answers in
``ProbeColumns``, so breaker, attempts, bisection and quarantine have one
body: a quiet row is a zeroed flag byte, and a bisected batch is its
halves spliced back together.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Callable, Sequence

from ...netsim.engine import ProbeColumns
from .base import BackendError, ProbeBackend, WrappingBackend


#: The breaker's tuning under a policy's ``breaker_threshold``: the
#: sliding window of final batch outcomes the failure rate is computed
#: over, the outcomes it needs before it may open, and the seconds it
#: stays open before a half-open trial.
BREAKER_WINDOW = 8
BREAKER_MIN_BATCHES = 4
BREAKER_COOLDOWN = 1.0


class BackendTimeoutError(BackendError):
    """A send exceeded the policy's watchdog deadline."""


def _finite(value: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


@dataclass(frozen=True)
class RetryPolicy:
    """Declarative resilience knobs for one scan.

    Frozen, hashable, picklable: it travels inside ``ScanConfig`` to
    pool workers and into ``config_key`` (so checkpoint resume across a
    policy change raises ``CheckpointMismatchError``).  The backoff
    schedule is the sharded runner's ``min(backoff * 2**attempt, cap)``.
    """

    #: Retries per batch after the first attempt (0 = fail immediately).
    max_retries: int = 2
    #: Base backoff delay in seconds; doubles per retry.
    backoff: float = 0.05
    #: Backoff ceiling in seconds.
    backoff_cap: float = 5.0
    #: Per-batch watchdog deadline in wall seconds; ``None`` disables
    #: the watchdog thread entirely (direct delegation).
    timeout: float | None = None
    #: Windowed batch failure rate in (0, 1] that opens the breaker
    #: (over :data:`BREAKER_WINDOW` batches, see :class:`CircuitBreaker`);
    #: ``None`` disables the breaker.
    breaker_threshold: float | None = None
    #: Bisect exhausted batches to isolate poison probes, up to this
    #: many levels deep (0 = quarantine the whole batch at once).
    max_split_depth: int = 2

    def __post_init__(self) -> None:
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise ValueError("max_retries must be a non-negative integer")
        if not _finite(self.backoff) or self.backoff < 0:
            raise ValueError("backoff must be a finite non-negative number")
        if not _finite(self.backoff_cap) or self.backoff_cap < 0:
            raise ValueError("backoff_cap must be a finite non-negative number")
        if self.timeout is not None and (
            not _finite(self.timeout) or self.timeout <= 0
        ):
            raise ValueError("timeout must be a finite positive number")
        if self.breaker_threshold is not None and (
            not _finite(self.breaker_threshold)
            or not 0.0 < self.breaker_threshold <= 1.0
        ):
            raise ValueError("breaker_threshold must be in (0, 1]")
        if not isinstance(self.max_split_depth, int) or self.max_split_depth < 0:
            raise ValueError("max_split_depth must be a non-negative integer")

    @classmethod
    def from_knobs(
        cls,
        retries: int,
        timeout: float | None,
        breaker_threshold: float | None,
    ) -> "RetryPolicy | None":
        """The policy the three operator knobs ask for, or None when all
        are unset (no retries, no deadline, no breaker): the scan then
        runs without the resilient wrapper at all."""
        if retries == 0 and timeout is None and breaker_threshold is None:
            return None
        return cls(
            max_retries=retries,
            timeout=timeout,
            breaker_threshold=breaker_threshold,
        )

    def backoff_delay(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (0-based), in seconds:
        ``min(backoff * 2**attempt, backoff_cap)``."""
        return min(self.backoff * (2.0**attempt), self.backoff_cap)


@dataclass(frozen=True)
class BackendFault:
    """One quarantined batch: the honest record of what was given up on."""

    batch: int  # batch ordinal within the scan (0-based)
    probes: int  # probes quarantined with it
    attempts: int  # send attempts made before giving up
    error: str  # last failure, e.g. "InjectedBackendError: ..."
    reason: str  # "exhausted", "unrepeatable" or "breaker-open"


@dataclass
class ResilienceStats:
    """Per-backend resilience counters (picklable; rides ShardOutcome)."""

    retries: int = 0
    timeouts: int = 0
    quarantined_batches: int = 0
    faulted_probes: int = 0
    breaker_fastfails: int = 0
    faults: list[BackendFault] = field(default_factory=list)
    #: Breaker state transitions, as (from_state, to_state) pairs.
    transitions: list[tuple[str, str]] = field(default_factory=list)

    def empty(self) -> bool:
        return (
            self.retries == 0
            and self.timeouts == 0
            and self.quarantined_batches == 0
            and self.faulted_probes == 0
            and self.breaker_fastfails == 0
            and not self.faults
            and not self.transitions
        )

    def copy(self) -> "ResilienceStats":
        return replace(
            self, faults=list(self.faults), transitions=list(self.transitions)
        )

    def since(self, before: "ResilienceStats") -> "ResilienceStats":
        """The delta accumulated after ``before`` was snapshotted."""
        return ResilienceStats(
            retries=self.retries - before.retries,
            timeouts=self.timeouts - before.timeouts,
            quarantined_batches=(
                self.quarantined_batches - before.quarantined_batches
            ),
            faulted_probes=self.faulted_probes - before.faulted_probes,
            breaker_fastfails=self.breaker_fastfails - before.breaker_fastfails,
            faults=self.faults[len(before.faults):],
            transitions=self.transitions[len(before.transitions):],
        )


class CircuitBreaker:
    """Three-state breaker over a sliding window of final batch outcomes.

    ``closed``: every batch is allowed; once the window holds at least
    ``min_batches`` outcomes and the failure rate reaches ``threshold``,
    the breaker opens.  ``open``: batches fail fast (the caller
    quarantines without touching the backend) until ``cooldown`` seconds
    pass on the injected clock.  ``half-open``: one trial batch runs;
    success re-closes, failure re-opens.
    """

    def __init__(
        self,
        *,
        threshold: float,
        window: int,
        min_batches: int,
        cooldown: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.threshold = threshold
        self.min_batches = min_batches
        self.cooldown = cooldown
        self.clock = clock
        self.state = "closed"
        self.transitions: list[tuple[str, str]] = []
        self._window: deque[bool] = deque(maxlen=window)
        self._open_until = 0.0

    def _move(self, state: str) -> None:
        self.transitions.append((self.state, state))
        self.state = state

    def allow(self) -> bool:
        """Whether the next batch may touch the backend."""
        if self.state == "open":
            if self.clock() < self._open_until:
                return False
            self._move("half-open")
        return True

    def record(self, success: bool) -> None:
        """Record a batch's *final* outcome (after retries/quarantine)."""
        if self.state == "half-open":
            if success:
                self._move("closed")
                self._window.clear()
            else:
                self._move("open")
                self._open_until = self.clock() + self.cooldown
            return
        self._window.append(success)
        if success or len(self._window) < self.min_batches:
            return
        failures = sum(1 for ok in self._window if not ok)
        if failures / len(self._window) >= self.threshold:
            self._move("open")
            self._open_until = self.clock() + self.cooldown
            self._window.clear()


class ResilientBackend(WrappingBackend):
    """Wraps any :class:`ProbeBackend` with a :class:`RetryPolicy`.

    Built around a live backend by the scanner: every capability and
    observability surface delegates to the wrapped backend, so the layers
    above see the inner backend with failure semantics changed underneath.
    """

    def __init__(
        self,
        inner: ProbeBackend,
        policy: RetryPolicy,
        *,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        join: Callable[[threading.Thread, float], None] | None = None,
    ) -> None:
        super().__init__(inner)
        self.policy = policy
        self.resilience = ResilienceStats()
        self._sleep = sleep
        self._join = join if join is not None else threading.Thread.join
        self._batch_ordinal = -1
        self._last_error = ""
        self.breaker = None
        if policy.breaker_threshold is not None:
            self.breaker = CircuitBreaker(
                threshold=policy.breaker_threshold,
                window=BREAKER_WINDOW,
                min_batches=BREAKER_MIN_BATCHES,
                cooldown=BREAKER_COOLDOWN,
                clock=clock,
            )

    # ---------------- probing ---------------- #

    def probe_columns(
        self,
        targets: Sequence[int],
        times: Sequence[float],
        *,
        hop_limit: int = 64,
        probe_ids: Sequence[int] | None = None,
        out: ProbeColumns | None = None,
    ) -> ProbeColumns:
        """One batch through breaker, attempts, bisection and quarantine.
        Read the columns this *returns*: a watchdog attempt never runs
        into ``out``."""
        cols = ProbeColumns() if out is None else out
        self._batch_ordinal += 1
        ordinal = self._batch_ordinal
        if self.breaker is not None and not self.breaker.allow():
            # Fail fast: the breaker is open, the backend is not touched.
            self.resilience.breaker_fastfails += 1
            self._quarantine(ordinal, len(targets), 0, "breaker-open")
            return self._quiet(targets, times, cols)
        answered, quarantined = self._recover(
            ordinal,
            targets,
            times,
            hop_limit,
            probe_ids,
            cols,
            retries=self.policy.max_retries,
            depth=0,
        )
        if self.breaker is not None:
            self.breaker.record(not quarantined)
            self.resilience.transitions.extend(
                self.breaker.transitions[
                    len(self.resilience.transitions):
                ]
            )
        return answered

    # benchmarks/e2e/trace.py looks this name up in the class body
    # (``vars(ResilientBackend)["send_batch"]``); the phase timers of
    # ROADMAP.md item 3's second slice replace that lookup and delete
    # this line.
    send_batch = probe_columns

    def _recover(
        self,
        ordinal: int,
        targets: Sequence[int],
        times: Sequence[float],
        hop_limit: int,
        probe_ids: Sequence[int] | None,
        cols: ProbeColumns,
        *,
        retries: int,
        depth: int,
    ) -> tuple[ProbeColumns, bool]:
        """Attempt a (sub-)batch; on exhaustion split or quarantine.

        Returns ``(columns, any_quarantined)`` — always one row per
        probe, quiet rows standing in for quarantined ones.
        """
        answered, failure, attempts = self._attempts(
            targets, times, hop_limit, probe_ids, cols, retries
        )
        if failure is None:
            return answered, False
        if (
            failure == "exhausted"
            and len(targets) > 1
            and depth < self.policy.max_split_depth
        ):
            # Bisect to isolate poison probes: each half gets one shot.
            mid = len(targets) // 2
            (left, left_bad), (right, right_bad) = (
                self._recover(
                    ordinal,
                    targets[part],
                    times[part],
                    hop_limit,
                    probe_ids[part] if probe_ids is not None else None,
                    ProbeColumns(),
                    retries=0,
                    depth=depth + 1,
                )
                for part in (slice(mid), slice(mid, None))
            )
            self._quiet(targets, times, cols)
            cols.splice(0, left)
            cols.splice(mid, right)
            return cols, left_bad or right_bad
        self._quarantine(ordinal, len(targets), attempts, failure)
        return self._quiet(targets, times, cols), True

    def _attempts(
        self,
        targets: Sequence[int],
        times: Sequence[float],
        hop_limit: int,
        probe_ids: Sequence[int] | None,
        cols: ProbeColumns,
        retries: int,
    ):
        """Up to ``retries + 1`` transactional sends: ``(columns, why it
        failed or None, attempts made)``."""
        stats = self.inner.stats
        live_limiter = not getattr(self.engine, "defer_rate_limit", True)
        for attempt in range(1, retries + 2):
            if attempt > 1:
                self.resilience.retries += 1
                delay = self.policy.backoff_delay(attempt - 2)
                if delay > 0:
                    self._sleep(delay)
            marker = self._begin_attempt()
            sent_before = stats.probes
            try:
                answered = self._call(targets, times, hop_limit, probe_ids, cols)
            except Exception as error:  # noqa: BLE001 — any backend fault
                self._last_error = f"{type(error).__name__}: {error}"
                if isinstance(error, BackendTimeoutError):
                    self.resilience.timeouts += 1
            else:
                if answered.n == len(targets):
                    return answered, None, attempt
                # Short/partial result: a seam-contract violation (lost
                # alignment would corrupt the merge) — the whole batch
                # failed.
                self._last_error = f"short outcome list ({answered.n}/{len(targets)})"
            probed = stats.probes != sent_before
            self._rollback(marker)
            if probed and live_limiter:
                # Counters roll back, token buckets do not: a second send
                # would meet routers the first one already drained.
                return None, "unrepeatable", attempt
        return None, "exhausted", retries + 1

    def _call(self, targets, times, hop_limit, probe_ids, cols):
        watchdog = self.policy.timeout is not None
        # An abandoned watchdog thread may still write: it gets columns of
        # its own, never the caller's buffer.
        send = partial(
            self.inner.probe_columns,
            targets,
            times,
            hop_limit=hop_limit,
            probe_ids=probe_ids,
            out=ProbeColumns() if watchdog else cols,
        )
        if not watchdog:
            return send()
        # Watchdog: run the send on a daemon thread and abandon it at
        # the deadline.  A well-behaved hung call (e.g. FaultyBackend's
        # injected hang) blocks *before* mutating shared state and
        # raises when released at close, so abandonment is safe.
        box: list = []

        def run() -> None:
            try:
                box.append(("ok", send()))
            except BaseException as error:  # noqa: BLE001 — reraised below
                box.append(("err", error))

        thread = threading.Thread(
            target=run, name="resilient-send", daemon=True
        )
        thread.start()
        self._join(thread, self.policy.timeout)
        if not box:
            raise BackendTimeoutError(
                f"send exceeded the {self.policy.timeout}s deadline"
            )
        kind, value = box[0]
        if kind == "err":
            raise value
        return value

    # ---------------- transactional attempts ---------------- #

    def _begin_attempt(self):
        stats = self.inner.stats
        return (
            {f.name: getattr(stats, f.name) for f in fields(stats)},
            len(self.inner.pending_checks),
            self.inner.unmatched_replies,
        )

    def _rollback(self, marker) -> None:
        snapshot, check_count, unmatched = marker
        stats = self.inner.stats
        for name, value in snapshot.items():
            setattr(stats, name, value)
        checks = self.inner.pending_checks
        del checks[check_count:]
        self.inner.unmatched_replies = unmatched

    # ---------------- quarantine ---------------- #

    def _quarantine(
        self, ordinal: int, probes: int, attempts: int, reason: str
    ) -> None:
        self.resilience.quarantined_batches += 1
        self.resilience.faulted_probes += probes
        self.resilience.faults.append(
            BackendFault(
                batch=ordinal,
                probes=probes,
                attempts=attempts,
                error=reason if reason == "breaker-open" else self._last_error,
                reason=reason,
            )
        )

    def _quiet(self, targets, times, cols: ProbeColumns) -> ProbeColumns:
        # Quarantined probes become quiet rows — "probed, no reply" —
        # keeping row alignment and `sent` honest while faulted_probes
        # says how many of those silences were ours.
        cols.blank(targets, times)
        return cols
