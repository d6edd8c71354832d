"""Feeding SRA discoveries back into the community hitlist.

The paper commits to "provide our data as new source to further improve
the coverage of the hitlist service" (§5.2).  This module implements that
contribution pipeline: take scan results, keep router addresses that are
plausible hitlist entries (responsive, not aliased, not transient
per-region error sub-interfaces), and merge them into a hitlist with full
accounting of what was added, already known, or rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..hitlist.aliases import AliasedPrefixList
from ..hitlist.hitlist import Hitlist
from ..scanner.records import ScanResult


@dataclass(slots=True)
class ContributionReport:
    """Outcome of one contribution run."""

    added: int = 0
    already_known: int = 0
    rejected_aliased: int = 0
    rejected_error_only: int = 0
    new_addresses: list[int] = field(default_factory=list)

    @property
    def considered(self) -> int:
        return (
            self.added
            + self.already_known
            + self.rejected_aliased
            + self.rejected_error_only
        )


def contribute_to_hitlist(
    hitlist: Hitlist,
    scans: Iterable[ScanResult],
    *,
    alias_list: AliasedPrefixList | None = None,
    include_error_sources: bool = False,
) -> ContributionReport:
    """Merge scan-discovered router addresses into ``hitlist``.

    By default only Echo-reply sources qualify — addresses that provably
    answer — matching the hitlist service's responsiveness requirement.
    Error-only sources can be included for an "extended" list (the TUM
    hitlist's traceroute-augmented variant does this).
    """
    report = ContributionReport()
    echo_sources: set[int] = set()
    error_sources: set[int] = set()
    for scan in scans:
        echo_sources |= scan.echo_sources()
        error_sources |= scan.error_sources()
    error_only = error_sources - echo_sources

    # Every source is considered, error-only ones included: an aliased
    # error-only address counts as rejected_aliased, not rejected_error_only
    # — the alias verdict holds whatever the reply type was.
    for source in sorted(echo_sources | error_only):
        if alias_list is not None and alias_list.contains_address(source):
            report.rejected_aliased += 1
            continue
        if not include_error_sources and source in error_only:
            report.rejected_error_only += 1
            continue
        if hitlist.add(source):
            report.added += 1
            report.new_addresses.append(source)
        else:
            report.already_known += 1
    return report
