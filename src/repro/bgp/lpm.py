"""Length-indexed longest-prefix match.

The world's resolution index holds tens of thousands of /64 subnets plus a
handful of other prefix lengths.  A per-bit trie would allocate millions of
nodes; instead we keep one hash table per distinct prefix length and probe
them longest-first — the classic "DIR" LPM scheme.  Lookups cost one dict
probe per distinct length present (≈8 in practice).

Hot-path structure: the probe loop walks ``_tables_desc``, a flat list of
``(length, mask, table)`` rows sorted longest-first that contains only
non-empty tables (``remove`` prunes; nothing ever iterates an empty
per-length dict).  Each table maps a network to the interned
``(prefix, value)`` tuple built once at ``insert``, so a lookup returns a
stored object instead of constructing and validating a prefix.  On top
sits the bounded block cache of :mod:`repro.bgp.blockcache`; any mutation
invalidates it, keeping lookups bit-identical to the uncached path.
"""

from __future__ import annotations

from typing import Iterator

from ..addr.ipv6 import IPv6Prefix, prefix_mask
from .blockcache import DEFAULT_CACHE_SIZE, BlockCachedLPM, V

_Match = tuple[IPv6Prefix, V]


class LengthIndexedLPM(BlockCachedLPM[V]):
    """Longest-prefix-match map optimised for few distinct lengths."""

    def __init__(self, *, cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        super().__init__(cache_size)
        self._by_length: dict[int, dict[int, _Match]] = {}
        # (length, mask, table) longest-first; non-empty tables only.
        self._tables_desc: list[tuple[int, int, dict[int, _Match]]] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, prefix: IPv6Prefix, value: V) -> None:
        table = self._by_length.get(prefix.length)
        new_length = table is None
        if new_length:
            table = {}
            self._by_length[prefix.length] = table
        if prefix.network not in table:
            self._size += 1
        table[prefix.network] = (prefix, value)
        if new_length:
            # Lookup rows reference the table dict, so only a new length
            # needs a rebuild (after populating — empty tables are pruned).
            self._rebuild_tables()
        self._invalidate(self._tables_desc[0][0])

    def remove(self, prefix: IPv6Prefix) -> bool:
        table = self._by_length.get(prefix.length)
        if table is None or prefix.network not in table:
            return False
        del table[prefix.network]
        self._size -= 1
        if not table:
            del self._by_length[prefix.length]
            self._rebuild_tables()
        self._invalidate(self._tables_desc[0][0] if self._tables_desc else 0)
        return True

    def _rebuild_tables(self) -> None:
        """Recompute the lookup rows.  Empty per-length tables are pruned
        here, so ``_probe`` never probes a dict that cannot match."""
        self._tables_desc = [
            (length, prefix_mask(length), self._by_length[length])
            for length in sorted(self._by_length, reverse=True)
            if self._by_length[length]
        ]

    def get(self, prefix: IPv6Prefix, default: V | None = None) -> V | None:
        table = self._by_length.get(prefix.length)
        match = None if table is None else table.get(prefix.network)
        return default if match is None else match[1]

    def _probe(self, address: int) -> _Match | None:
        for _, mask, table in self._tables_desc:
            # A stored value of None still matches (the tuple is not
            # None), mirroring PrefixTrie semantics.
            match = table.get(address & mask)
            if match is not None:
                return match
        return None

    # benchmarks/e2e/trace.py rebinds vars(cls)["longest_match_batch"], so
    # the class body owns the name.
    longest_match_batch = BlockCachedLPM.longest_match_batch

    def has_cover(self, prefix: IPv6Prefix, *, strict: bool = False) -> bool:
        """True if a stored prefix covers ``prefix``.

        With ``strict`` the cover must be a proper supernet (shorter).
        """
        for length, mask, table in self._tables_desc:
            if length > prefix.length or (strict and length == prefix.length):
                continue
            if (prefix.network & mask) in table:
                return True
        return False

    def all_matches(self, address: int) -> Iterator[_Match]:
        """All stored prefixes containing ``address``, longest first."""
        for _, mask, table in self._tables_desc:
            match = table.get(address & mask)
            if match is not None:
                yield match

    def items(self) -> Iterator[_Match]:
        for length in sorted(self._by_length):
            table = self._by_length[length]
            for network in sorted(table):
                yield table[network]

    def frozen(self, *, cache_size: int | None = None):
        """A read-only :class:`~repro.bgp.frozenfib.FrozenLPM` snapshot of
        the current contents: sorted array columns instead of dicts,
        shareable across shard workers, lookups pinned bit-identical."""
        from .frozenfib import FrozenLPM

        if cache_size is None:
            cache_size = self._cache_size
        return FrozenLPM.freeze(self, cache_size=cache_size)
