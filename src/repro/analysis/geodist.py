"""Geographic and network-type distributions (Fig. 3, Fig. 10)."""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterable

from ..metadata.asn import ASNMapper
from ..metadata.astype import ASTypeDatabase
from ..metadata.geoip import GeoIPDatabase, continent_of


def country_distribution(
    addresses: Iterable[int], geo: GeoIPDatabase
) -> Counter[str]:
    """Router IPs per country — the Fig. 3 world map data."""
    counts: Counter[str] = Counter()
    for address in addresses:
        counts[geo.country_of(address) or "??"] += 1
    return counts


def country_shares(
    addresses: Iterable[int], geo: GeoIPDatabase
) -> list[tuple[str, float]]:
    """Country shares, descending (paper: IND 27 %, CHN 20 %)."""
    counts = country_distribution(addresses, geo)
    total = sum(counts.values())
    if total == 0:
        return []
    return [
        (country, count / total) for country, count in counts.most_common()
    ]


def type_distribution(
    addresses: Iterable[int],
    mapper: ASNMapper,
    types: ASTypeDatabase,
) -> Counter[str]:
    """Addresses per network type (Fig. 10b)."""
    counts: Counter[str] = Counter()
    for address in addresses:
        asn = mapper.asn_of(address)
        if asn is None:
            counts["unknown"] += 1
            continue
        as_type = types.type_of(asn)
        counts[as_type.value if as_type else "unknown"] += 1
    return counts


def continent_type_crosstab(
    addresses: Iterable[int],
    geo: GeoIPDatabase,
    mapper: ASNMapper,
    types: ASTypeDatabase,
) -> dict[str, Counter[str]]:
    """Per-continent network-type counts (Fig. 10a)."""
    table: dict[str, Counter[str]] = defaultdict(Counter)
    for address in addresses:
        continent = continent_of(geo.country_of(address))
        asn = mapper.asn_of(address)
        as_type = types.type_of(asn) if asn is not None else None
        table[continent][as_type.value if as_type else "unknown"] += 1
    return dict(table)


def isp_share(
    addresses: Iterable[int], mapper: ASNMapper, types: ASTypeDatabase
) -> float:
    """Share of addresses in ISP networks (paper: >80 % for SRA)."""
    counts = type_distribution(addresses, mapper, types)
    total = sum(counts.values())
    return counts.get("isp", 0) / total if total else 0.0
