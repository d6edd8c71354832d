"""Probe backends: simulator, wire-format loopback, raw-socket ICMPv6.

:data:`BACKENDS` names the three (``sim``, ``wire-sim``, ``raw``) — the
CLIs' ``--backend`` choices, and the table the sharded runner reads a
backend's ``deterministic`` flag from.  :func:`build_backend` builds one
from the :class:`~repro.scanner.zmapv6.ScanConfig` fields that choose it
(``backend``, ``key``, ``authorized``, ``pps``): the config is what
crosses a pickle boundary, so a pool worker builds the same backend the
parent would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...packet.probe import DEFAULT_PROBE_KEY
from .base import (
    BackendAuthorizationError,
    BackendError,
    BackendPrivilegeError,
    ProbeBackend,
    WrappingBackend,
)
from .raw import RawSocketBackend
from .resilient import (
    BackendFault,
    BackendTimeoutError,
    CircuitBreaker,
    ResilienceStats,
    ResilientBackend,
    RetryPolicy,
)
from .sim import SimBackend
from .wiresim import WireSimBackend

if TYPE_CHECKING:
    from ...netsim.engine import SimulationEngine
    from ..zmapv6 import ScanConfig

BACKENDS: dict[str, type[ProbeBackend]] = {
    cls.name: cls for cls in (SimBackend, WireSimBackend, RawSocketBackend)
}


def build_backend(
    config: ScanConfig, engine: SimulationEngine | None = None
) -> ProbeBackend:
    """The backend ``config.backend`` names, probing ``engine`` (the
    simulated backends) or the network (``raw``, which ignores it)."""
    if config.backend == "raw":
        return RawSocketBackend(
            key=config.key, authorized=config.authorized, pps=config.pps
        )
    if engine is None:
        raise ValueError(f"the {config.backend} backend needs an engine")
    backend = SimBackend(engine)
    if config.backend == "wire-sim":
        return WireSimBackend(backend, key=config.key)
    return backend


__all__ = [
    "BACKENDS",
    "DEFAULT_PROBE_KEY",
    "BackendAuthorizationError",
    "BackendError",
    "BackendFault",
    "BackendPrivilegeError",
    "BackendTimeoutError",
    "CircuitBreaker",
    "ProbeBackend",
    "RawSocketBackend",
    "ResilienceStats",
    "ResilientBackend",
    "RetryPolicy",
    "SimBackend",
    "WireSimBackend",
    "WrappingBackend",
    "build_backend",
]
