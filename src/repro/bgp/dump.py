"""Reading and writing BGP table dumps in a simple text format.

Real pipelines parse MRT; our dumps use the one-route-per-line text form
RouteViews' ``show ip bgp``-style exports reduce to::

    # comment
    2001:db8::/32 64500

Lines are ``<prefix> <origin-asn>``; blank lines and ``#`` comments are
ignored.  This keeps fixtures human-editable while exercising a real
parse/serialise round trip.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, TextIO

from ..addr.ipv6 import AddressError, IPv6Prefix
from .table import Announcement, BGPTable


class DumpFormatError(ValueError):
    """Raised when a dump line cannot be parsed."""


def parse_dump_line(line: str) -> Announcement | None:
    """Parse one dump line; None for blanks/comments."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parts = stripped.split()
    if len(parts) != 2:
        raise DumpFormatError(f"expected '<prefix> <asn>', got {line!r}")
    try:
        prefix = IPv6Prefix.parse(parts[0])
    except AddressError as exc:
        raise DumpFormatError(f"bad prefix in {line!r}: {exc}") from exc
    try:
        asn = int(parts[1])
    except ValueError as exc:
        raise DumpFormatError(f"bad ASN in {line!r}") from exc
    if asn < 0 or asn > 0xFFFFFFFF:
        raise DumpFormatError(f"ASN out of range in {line!r}")
    return Announcement(prefix=prefix, origin_asn=asn)


def read_dump(source: TextIO | str | Path) -> BGPTable:
    """Read a dump from a path or open text stream into a BGPTable."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return read_dump(handle)
    table = BGPTable()
    for line in source:
        announcement = parse_dump_line(line)
        if announcement is not None:
            table.add(announcement)
    return table


def write_dump(
    announcements: Iterable[Announcement],
    destination: TextIO | str | Path,
    *,
    header: str | None = None,
) -> None:
    """Write announcements one per line, sorted by prefix."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as handle:
            write_dump(announcements, handle, header=header)
        return
    if header:
        for line in header.splitlines():
            destination.write(f"# {line}\n")
    for announcement in sorted(announcements, key=lambda a: a.prefix):
        destination.write(f"{announcement.prefix} {announcement.origin_asn}\n")
