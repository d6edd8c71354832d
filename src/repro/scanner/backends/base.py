"""The ``ProbeBackend`` protocol: one seam between scanner and wire.

The paper's measurement tool is a real ZMapv6 sending ICMPv6 over a NIC;
this reproduction mostly drives a :class:`~repro.netsim.engine.\
SimulationEngine`.  Everything the scanner layers built — sharding,
streaming, checkpointing, telemetry, strategies — only cares about *one*
operation: "send these probes at these times, give me the answers as
packed columns" (:meth:`ProbeBackend.probe_columns`).  ``ProbeBackend`` is
that operation as an interface, so the simulator, the wire-format
loopback, and a raw-socket ICMPv6 sender are interchangeable underneath
the whole stack, and the scanner has one scan loop.

Which backend a scan uses, with which key, authorization and rate, is
:class:`~repro.scanner.zmapv6.ScanConfig`'s to say:
:func:`repro.scanner.backends.build_backend` builds it from those fields.
No live backend ever crosses a pickle boundary — sharded pool workers
receive the config and build their own, the way they rebuild worlds from
``WorldRef``.

``deterministic`` — byte-identical outcomes for identical inputs, as
required for sharded merges, checkpoint resume and golden tests — is a
class-level flag, readable without instantiating: the sharded runner
refuses a non-deterministic backend *before* building anything.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, ClassVar, Sequence

if TYPE_CHECKING:  # concrete outcome types come from the engine module
    from ...netsim.engine import EngineStats, ProbeColumns


class BackendError(Exception):
    """Base class for backend construction/lifecycle failures."""


class BackendAuthorizationError(BackendError):
    """A backend that probes real networks was built without explicit
    authorization (``--i-am-authorized``)."""


class BackendPrivilegeError(BackendError):
    """The process lacks the privileges the backend needs (raw sockets)."""


class ProbeBackend(ABC):
    """Sends probe batches somewhere and returns their outcomes.

    The contract every backend honours (pinned by the backend contract
    suite in ``tests/backend_contract.py``):

    * :meth:`probe_columns` returns one
      :class:`~repro.netsim.engine.ProbeColumns` with ``n`` equal to the
      number of input rows and the caller's ``targets``/``times``
      borrowed — row ``i`` answers probe ``i``, matched by probe id,
      never by arrival order; a probe's second and later distinct
      replies go to the columns' ``extra`` list,
    * lifecycle is idempotent: :meth:`open` before the first send (the
      scanner calls it defensively), :meth:`close` when done; both are
      no-ops where there is nothing to hold open,
    * :attr:`stats` / :attr:`pending_checks` / :attr:`unmatched_replies`
      expose the same observability surface the simulation engine does,
      so every layer above reads one shape.
    """

    name: ClassVar[str] = "abstract"
    deterministic: ClassVar[bool] = True

    #: Replies that arrived but failed probe extraction/validation and
    #: were dropped (zmap's "validation failed" drop).  Cumulative over
    #: the backend's lifetime; the scanner reports per-scan deltas.
    unmatched_replies: int = 0

    # ---------------- lifecycle ---------------- #

    def open(self) -> None:
        """Acquire whatever the backend sends through (idempotent)."""

    def close(self) -> None:
        """Release it (idempotent)."""

    def __enter__(self) -> "ProbeBackend":
        self.open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------- epoch + observability ---------------- #

    @property
    @abstractmethod
    def epoch(self) -> int:
        """The current scan epoch (scopes probe ids and stochastic draws)."""

    @abstractmethod
    def new_epoch(self, epoch: int) -> None:
        """Start a new scan epoch: reset counters and per-epoch state."""

    @property
    @abstractmethod
    def stats(self) -> "EngineStats":
        """Aggregate counters since the last :meth:`new_epoch`."""

    @property
    def pending_checks(self) -> list[tuple[float, int]]:
        """Deferred rate-limit checks recorded this epoch (simulated
        backends in ``defer_rate_limit`` mode; empty elsewhere)."""
        return []

    @property
    def needs_probe_ids(self) -> bool:
        """Whether the scanner must materialise the probe-id column.

        The simulator only reads probe ids when loss draws exist; wire
        backends always encode them into payloads.
        """
        return True

    # Hot-path observability hook (duck-typed HotPathCollector), set by
    # the scanner for the duration of an instrumented scan.  Simulated
    # backends forward it to their engine; others may ignore it.
    telemetry = None

    def pop_warnings(self) -> list[str]:
        """Drain queued operational warnings (e.g. a receiver thread
        that refused to join).  Whoever closes the backend reads them
        (``sra-scan`` prints them to stderr); wrapper backends delegate to
        the wrapped backend.  Empty for backends with nothing to warn
        about."""
        return []

    # ---------------- probing ---------------- #

    @abstractmethod
    def probe_columns(
        self,
        targets: Sequence[int],
        times: Sequence[float],
        *,
        hop_limit: int = 64,
        probe_ids: Sequence[int] | None = None,
        out: "ProbeColumns | None" = None,
    ) -> "ProbeColumns":
        """Send one probe per ``(target, time)`` row; one answer per row,
        in row order, replies matched back by probe id.  Read the columns
        *returned*: usually ``out``, but not necessarily."""


class WrappingBackend(ProbeBackend):
    """A backend built around a live one, changing what happens to a
    batch on its way through.

    Capability flags and every lifecycle/observability surface are the
    wrapped backend's, so the layers above see that backend; a
    subclass writes only its ``probe_columns``.
    """

    def __init__(self, inner: ProbeBackend) -> None:
        self.inner = inner
        # Instance-level capability flags mirror the wrapped backend.
        self.name = inner.name
        self.deterministic = inner.deterministic

    def open(self) -> None:
        self.inner.open()

    def close(self) -> None:
        self.inner.close()

    @property
    def epoch(self) -> int:
        return self.inner.epoch

    def new_epoch(self, epoch: int) -> None:
        self.inner.new_epoch(epoch)

    @property
    def stats(self) -> "EngineStats":
        return self.inner.stats

    @property
    def pending_checks(self) -> list[tuple[float, int]]:
        return self.inner.pending_checks

    @property
    def needs_probe_ids(self) -> bool:
        return self.inner.needs_probe_ids

    @property
    def engine(self):
        return getattr(self.inner, "engine", None)

    @property
    def telemetry(self):
        return self.inner.telemetry

    @telemetry.setter
    def telemetry(self, collector) -> None:
        self.inner.telemetry = collector

    @property
    def unmatched_replies(self) -> int:
        return self.inner.unmatched_replies

    @unmatched_replies.setter
    def unmatched_replies(self, value: int) -> None:
        self.inner.unmatched_replies = value

    def pop_warnings(self) -> list[str]:
        return self.inner.pop_warnings()
