"""RPSL ``route6`` objects (RFC 2622/4012).

IRR databases hold routing-policy objects; the one the SRA survey consumes
is ``route6``, which registers an IPv6 prefix with its intended origin AS::

    route6:     2001:db8::/48
    origin:     AS64500
    descr:      Example customer block
    mnt-by:     MAINT-EXAMPLE
    source:     RIPE

The simulated world registers its objects directly; no RPSL text is read
or written.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..addr.ipv6 import IPv6Prefix, set_slots


@dataclass(frozen=True, slots=True)
class Route6Object:
    """One ``route6`` object."""

    prefix: IPv6Prefix
    origin_asn: int
    descr: str = ""
    maintainer: str = ""
    source: str = ""
    extra: tuple[tuple[str, str], ...] = field(default_factory=tuple)
    __setstate__ = set_slots
