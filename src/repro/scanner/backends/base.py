"""The ``ProbeBackend`` protocol: one seam between scanner and wire.

The paper's measurement tool is a real ZMapv6 sending ICMPv6 over a NIC;
this reproduction mostly drives a :class:`~repro.netsim.engine.\
SimulationEngine`.  Everything the scanner layers built — sharding,
streaming, checkpointing, telemetry, strategies — only cares about *one*
operation: "send these probes at these times, give me the outcomes".
``ProbeBackend`` is that operation as an interface, so the simulator, the
wire-format loopback, and a raw-socket ICMPv6 sender are interchangeable
underneath the whole stack.

Two pieces mirror the target-stream machinery in
:mod:`repro.scanner.stream`:

* :class:`BackendSpec` — a picklable recipe (``name`` + option pairs),
  the only backend representation that ever crosses a pickle boundary.
  Sharded pool workers rebuild their backend from the spec exactly the
  way they rebuild worlds from ``WorldRef`` — no live sockets or
  engines are ever pickled.
* a registry — :func:`register_backend` / :func:`build_backend` /
  :func:`backend_names` — keyed by spec name, importing the spec's
  module on demand so workers that never imported the registering
  module still resolve it.

Capability flags are class-level, readable without instantiating (the
sharded runner refuses non-deterministic backends *before* building
anything):

* ``supports_columns`` — the backend offers the columnar
  ``probe_columns`` call, and a scan then makes no other (today: the
  simulator, and wrappers around it, which mirror the wrapped backend's
  flag); ``send_batch`` is all that ``wire-sim`` and ``raw`` have,
* ``deterministic`` — byte-identical outcomes for identical inputs;
  required for sharded merges, checkpoint resume, and golden tests,
* ``requires_privilege`` — needs raw-socket privileges (and explicit
  authorization) to open.
"""

from __future__ import annotations

import importlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Sequence

if TYPE_CHECKING:  # concrete outcome types come from the engine module
    from ...netsim.engine import EngineStats, ProbeColumns, ProbeResult
    from ...topology.entities import World


class BackendError(Exception):
    """Base class for backend construction/lifecycle failures."""


class BackendAuthorizationError(BackendError):
    """A backend that probes real networks was built without explicit
    authorization (``--i-am-authorized``)."""


class BackendPrivilegeError(BackendError):
    """The process lacks the privileges the backend needs (raw sockets)."""


@dataclass(frozen=True)
class BackendSpec:
    """A picklable recipe: which registered backend, built how.

    A live backend (sockets, an engine) cannot cross a process boundary,
    so pool workers rebuild it from this: ``module`` is imported before
    lookup so they resolve the builder without having imported the
    registering module, and ``options`` is a tuple of ``(key, value)``
    pairs, keeping the spec hashable and pickle-stable.
    """

    name: str
    module: str = "repro.scanner.backends"
    options: tuple[tuple[str, object], ...] = ()

    def arguments(self) -> dict[str, object]:
        return dict(self.options)


def make_backend_spec(
    name: str, module: str = "repro.scanner.backends", **options
) -> BackendSpec:
    return BackendSpec(
        name=name, module=module, options=tuple(sorted(options.items()))
    )


class ProbeBackend(ABC):
    """Sends probe batches somewhere and returns their outcomes.

    The contract every backend honours (pinned by the backend contract
    suite in ``tests/backend_contract.py``):

    * :meth:`send_batch` returns one
      :class:`~repro.netsim.engine.ProbeResult` per input row, in input
      order — outcome ``i`` answers probe ``i``, matched by probe id,
      never by arrival order,
    * :meth:`spec` round-trips through :func:`build_backend` to an
      equivalent backend (same name, same capability flags),
    * lifecycle is idempotent: :meth:`open` before the first send (the
      scanner calls it defensively), :meth:`close` when done; both are
      no-ops where there is nothing to hold open,
    * :attr:`stats` / :attr:`pending_checks` / :attr:`unmatched_replies`
      expose the same observability surface the simulation engine does,
      so every layer above reads one shape.
    """

    name: ClassVar[str] = "abstract"
    supports_columns: ClassVar[bool] = False
    deterministic: ClassVar[bool] = True
    requires_privilege: ClassVar[bool] = False

    #: Replies that arrived but failed probe extraction/validation and
    #: were dropped (zmap's "validation failed" drop).  Cumulative over
    #: the backend's lifetime; the scanner reports per-scan deltas.
    unmatched_replies: int = 0

    # ---------------- construction ---------------- #

    @classmethod
    @abstractmethod
    def from_spec(
        cls,
        spec: BackendSpec,
        *,
        world: "World | None" = None,
        engine=None,
        epoch: int = 0,
        defer_rate_limit: bool = False,
    ) -> "ProbeBackend":
        """Rebuild a backend from its picklable spec.

        ``world`` (and optionally a pre-built ``engine``) ground the
        simulated backends; wire backends ignore both.  ``epoch`` and
        ``defer_rate_limit`` parameterise a freshly-built engine the way
        :func:`repro.scanner.sharded.scan_shard` needs it.
        """

    @abstractmethod
    def spec(self) -> BackendSpec:
        """The picklable recipe that rebuilds this backend."""

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
        """Whether the batched path must materialise the probe-id column.

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
        that refused to join).  The scanner surfaces them on the ops
        telemetry channel; wrapper backends delegate to the wrapped
        backend.  Empty for backends with nothing to warn about."""
        return []

    # ---------------- probing ---------------- #

    @abstractmethod
    def send_batch(
        self,
        targets: Sequence[int],
        times: Sequence[float],
        *,
        hop_limit: int = 64,
        probe_ids: Sequence[int] | None = None,
    ) -> "list[ProbeResult]":
        """Send one probe per ``(target, time)`` row; one outcome per row,
        in row order, replies matched back by probe id.  The column-less
        call: what a scan makes on a backend without ``probe_columns``."""

    def probe(
        self, target: int, time: float, *, hop_limit: int = 64, probe_id: int = 0
    ) -> "ProbeResult":
        """Single-probe convenience over :meth:`send_batch`."""
        return self.send_batch(
            [target], [time], hop_limit=hop_limit, probe_ids=[probe_id]
        )[0]

    def probe_columns(
        self,
        targets: Sequence[int],
        times: Sequence[float],
        *,
        hop_limit: int = 64,
        probe_ids: Sequence[int] | None = None,
        out: "ProbeColumns | None" = None,
    ) -> "ProbeColumns":
        """The columnar call; only when :attr:`supports_columns`.  Read
        the columns *returned*: usually ``out``, but not necessarily."""
        raise NotImplementedError(
            f"backend {self.name!r} has no columnar probe path"
        )


class WrappingBackend(ProbeBackend):
    """A backend built around a live one (never from a spec, never
    registered), changing what happens to a batch on its way through.

    Capability flags, ``spec()`` and every lifecycle/observability surface
    are the wrapped backend's, so the layers above see that backend; a
    subclass writes only its ``send_batch`` and ``probe_columns``.
    """

    def __init__(self, inner: ProbeBackend) -> None:
        self.inner = inner
        # Instance-level capability flags mirror the wrapped backend.
        self.name = inner.name
        self.supports_columns = inner.supports_columns
        self.deterministic = inner.deterministic
        self.requires_privilege = inner.requires_privilege

    @classmethod
    def from_spec(cls, spec: BackendSpec, **_) -> "ProbeBackend":
        raise TypeError(
            f"{cls.__name__} wraps a built backend; it is not spec-built"
        )

    def spec(self) -> BackendSpec:
        return self.inner.spec()

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


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #

_BACKENDS: dict[str, type[ProbeBackend]] = {}


def register_backend(name: str, cls: type[ProbeBackend]) -> type[ProbeBackend]:
    """Register a backend class under its spec name."""
    _BACKENDS[name] = cls
    return cls


def backend_names() -> list[str]:
    """Registered backend names, sorted (the ``--backend`` choices)."""
    return sorted(_BACKENDS)


def backend_class(
    name: str, module: str = "repro.scanner.backends"
) -> type[ProbeBackend]:
    """Resolve a backend class by name, importing ``module`` on demand.

    This is how capability flags (``deterministic``, ...) are read
    without building a backend — and therefore without tripping the raw
    backend's authorization check.
    """
    if name not in _BACKENDS:
        importlib.import_module(module)
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"no probe backend registered as {name!r} "
            f"(choose from {', '.join(backend_names())})"
        ) from None


def build_backend(
    spec: BackendSpec,
    world: "World | None" = None,
    *,
    engine=None,
    epoch: int = 0,
    defer_rate_limit: bool = False,
) -> ProbeBackend:
    """Rebuild the backend a spec describes (what pool workers run)."""
    cls = backend_class(spec.name, spec.module)
    return cls.from_spec(
        spec,
        world=world,
        engine=engine,
        epoch=epoch,
        defer_rate_limit=defer_rate_limit,
    )
