"""Probe backends: simulator, wire-format loopback, raw-socket ICMPv6.

Importing this package registers the three stock backends (``sim``,
``wire-sim``, ``raw``) — it is the default ``module`` of every
:class:`BackendSpec`, so pool workers rebuilding a backend from a spec
resolve them without any other import.
"""

from .base import (
    BackendAuthorizationError,
    BackendError,
    BackendPrivilegeError,
    BackendSpec,
    ProbeBackend,
    WrappingBackend,
    backend_class,
    backend_names,
    build_backend,
    make_backend_spec,
    register_backend,
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
from .wiresim import DEFAULT_PROBE_KEY, WireSimBackend

__all__ = [
    "DEFAULT_PROBE_KEY",
    "BackendAuthorizationError",
    "BackendError",
    "BackendFault",
    "BackendPrivilegeError",
    "BackendSpec",
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
    "backend_class",
    "backend_names",
    "build_backend",
    "make_backend_spec",
    "register_backend",
]
