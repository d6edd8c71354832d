"""BGP substrate: longest-prefix-match maps, announcement table, and dump I/O."""

from .lpm import LengthIndexedLPM
from .dump import DumpFormatError, parse_dump_line, read_dump, write_dump
from .table import Announcement, BGPTable

__all__ = [
    "Announcement",
    "BGPTable",
    "DumpFormatError",
    "LengthIndexedLPM",
    "parse_dump_line",
    "read_dump",
    "write_dump",
]
