"""BGP substrate: longest-prefix-match maps and the announcement table."""

from .lpm import LengthIndexedLPM
from .table import Announcement, BGPTable

__all__ = [
    "Announcement",
    "BGPTable",
    "LengthIndexedLPM",
]
