"""Routing-loop and amplification analysis (§6, Fig. 8, Table 4).

Works purely on scan output: every Time Exceeded record whose target lies
beyond the transit path is evidence of a loop; the record's ``count`` is
the amplification the probe suffered.  Grouping by source router and by
/48 reproduces the paper's loop statistics.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import compress

from ..metadata.geoip import GeoIPDatabase
from ..packet.icmpv6 import ICMPv6Type
from ..scanner.records import ScanResult

SLASH48_SHIFT = 128 - 48


@dataclass(slots=True)
class LoopAnalysis:
    """Loop/amplification aggregates extracted from one or more scans."""

    # router source address -> set of looping /48 networks (ints)
    loops_per_router: dict[int, set[int]] = field(default_factory=dict)
    # router source address -> maximum amplification factor observed
    amplification_per_router: dict[int, int] = field(default_factory=dict)
    # /48 network -> max amplification observed for probes into it
    amplification_per_slash48: dict[int, int] = field(default_factory=dict)

    # ---------------- construction ---------------- #

    @classmethod
    def from_scans(cls, *scans: ScanResult) -> "LoopAnalysis":
        analysis = cls()
        for scan in scans:
            analysis.ingest(scan)
        return analysis

    def ingest(self, scan: ScanResult) -> None:
        looped = map(int(ICMPv6Type.TIME_EXCEEDED).__eq__, scan.column("icmp_type"))
        rows = zip(scan.column("target"), scan.column("source"), scan.column("count"))
        for target, source, count in compress(rows, looped):
            slash48 = (target >> SLASH48_SHIFT) << SLASH48_SHIFT
            self.loops_per_router.setdefault(source, set()).add(slash48)
            if count > self.amplification_per_router.get(source, 0):
                self.amplification_per_router[source] = count
            if count > self.amplification_per_slash48.get(slash48, 0):
                self.amplification_per_slash48[slash48] = count

    # ---------------- headline numbers ---------------- #

    @property
    def looping_slash48s(self) -> set[int]:
        result: set[int] = set()
        for subnets in self.loops_per_router.values():
            result |= subnets
        return result

    @property
    def looping_routers(self) -> set[int]:
        return set(self.loops_per_router)

    @property
    def amplifying_routers(self) -> set[int]:
        """Routers that sent more than one reply to a single request."""
        return {
            source
            for source, factor in self.amplification_per_router.items()
            if factor > 1
        }

    def single_subnet_router_share(self) -> float:
        """Fraction of looping routers responsible for exactly one /48
        (paper: ~60 %)."""
        if not self.loops_per_router:
            return 0.0
        singles = sum(
            1 for subnets in self.loops_per_router.values() if len(subnets) == 1
        )
        return singles / len(self.loops_per_router)

    # ---------------- Fig. 8 series ---------------- #

    def amplification_ccdf(self) -> list[tuple[int, float]]:
        """(factor, fraction of amplifying routers with factor >= x)."""
        factors = sorted(
            factor
            for factor in self.amplification_per_router.values()
            if factor > 1
        )
        return _ccdf(factors)

    def loops_per_router_ccdf(self) -> list[tuple[int, float]]:
        """(loop count, fraction of looping routers with >= that many)."""
        counts = sorted(len(s) for s in self.loops_per_router.values())
        return _ccdf(counts)

    def amplification_share_below(self, threshold: int = 10) -> float:
        """Share of amplifying routers with factor <= threshold (98 %)."""
        amplifying = [
            factor
            for factor in self.amplification_per_router.values()
            if factor > 1
        ]
        if not amplifying:
            return 0.0
        return sum(1 for f in amplifying if f <= threshold) / len(amplifying)

    # ---------------- Table 4 ---------------- #

    def table4a(self, geo: GeoIPDatabase, n: int = 5) -> list[dict[str, object]]:
        """Top countries by looping /48 count."""
        loops_by_country: Counter[str] = Counter()
        routers_by_country: dict[str, set[int]] = defaultdict(set)
        for router, subnets in self.loops_per_router.items():
            country = geo.country_of(router) or "??"
            loops_by_country[country] += len(subnets)
            routers_by_country[country].add(router)
        total = sum(loops_by_country.values())
        rows = []
        for country, count in loops_by_country.most_common(n):
            rows.append(
                {
                    "country": country,
                    "looping_48s": count,
                    "share": count / total if total else 0.0,
                    "router_ips": len(routers_by_country[country]),
                }
            )
        return rows

    def table4b(self, geo: GeoIPDatabase, n: int = 5) -> list[dict[str, object]]:
        """Top countries by amplifying /48 count, with max factors."""
        ampl_by_country: Counter[str] = Counter()
        max_by_country: dict[str, int] = defaultdict(int)
        routers_by_country: dict[str, set[int]] = defaultdict(set)
        for slash48, factor in self.amplification_per_slash48.items():
            if factor <= 1:
                continue
            country = geo.country_of(slash48) or "??"
            ampl_by_country[country] += 1
        for router, factor in self.amplification_per_router.items():
            if factor <= 1:
                continue
            country = geo.country_of(router) or "??"
            routers_by_country[country].add(router)
            max_by_country[country] = max(max_by_country[country], factor)
        total = sum(ampl_by_country.values())
        rows = []
        for country, count in ampl_by_country.most_common(n):
            rows.append(
                {
                    "country": country,
                    "amplifying_48s": count,
                    "share": count / total if total else 0.0,
                    "router_ips": len(routers_by_country[country]),
                    "max_amplification": max_by_country[country],
                }
            )
        return rows


def _ccdf(sorted_values: list[int]) -> list[tuple[int, float]]:
    """CCDF points (value, P(X >= value)) over pre-sorted values."""
    if not sorted_values:
        return []
    total = len(sorted_values)
    points: list[tuple[int, float]] = []
    previous: int | None = None
    for index, value in enumerate(sorted_values):
        if value != previous:
            points.append((value, (total - index) / total))
            previous = value
    return points
