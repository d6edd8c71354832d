"""Length-indexed longest-prefix match.

The world's resolution index holds tens of thousands of /64 subnets plus a
handful of other prefix lengths.  A per-bit trie would allocate millions of
nodes; instead we keep one hash table per distinct prefix length — the
classic "DIR" LPM scheme — each mapping a network to the interned
``(prefix, value)`` tuple built once at ``insert``, so a lookup returns a
stored object instead of constructing and validating a prefix.

A block-cache miss runs :mod:`repro.bgp.blockcache`'s one miss path,
shared with :class:`~repro.bgp.frozenfib.FrozenLPM`: a ``dict.get`` in
the longest row, else a ``bisect_right`` in the disjoint address ranges
:func:`repro.bgp.frozenfib.flatten` makes of the shorter rows; this class
supplies only that data (``_miss_path``).  Every ``remove`` drops the
range table and the cache, and so does every ``insert`` except one at a
stored length while neither exists (no lookup since the last drop):
that one leaves the block shift as it was and has nothing stale to
drop, so building a world pays no drop per subnet.  The next lookup
rebuilds the range table, linear (plus a sort) in the entries *below
the longest row*.  That
assumes those are few and that mutations come in runs — build, then scan
— as in generated worlds (see :mod:`repro.bgp.frozenfib`).  A table
mutated between every two lookups, or one whose longest row is the
sparse one (a few /128s over many /64s), pays the whole flatten per
lookup, and so would a frozen one in every worker.  ``get`` /
``has_cover`` / ``all_matches`` / ``items`` read the per-length tables
(``_tables_desc``: ``(length, mask, table)`` rows, longest first,
non-empty only) and never touch the range table.
"""

from __future__ import annotations

from typing import Iterator

from ..addr.ipv6 import IPv6Prefix, prefix_mask
from .blockcache import DEFAULT_CACHE_SIZE, BlockCachedLPM, MissPath, V
from .frozenfib import FrozenLPM, flatten

_Match = tuple[IPv6Prefix, V]


class LengthIndexedLPM(BlockCachedLPM[V]):
    """Longest-prefix-match map optimised for few distinct lengths."""

    def __init__(self, *, cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        super().__init__(cache_size)
        self._by_length: dict[int, dict[int, _Match]] = {}
        # (length, mask, table) longest-first; non-empty tables only.
        self._tables_desc: list[tuple[int, int, dict[int, _Match]]] = []
        # What a miss reads (see _miss_path); None after a mutation.
        self._path: MissPath | None = None
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
        if new_length or self._path is not None or self._cache:
            # At a stored length the block shift stays: only a built range
            # table or a cached block can be stale.
            self._mutated()

    def remove(self, prefix: IPv6Prefix) -> bool:
        table = self._by_length.get(prefix.length)
        if table is None or prefix.network not in table:
            return False
        del table[prefix.network]
        self._size -= 1
        if not table:
            del self._by_length[prefix.length]
            self._rebuild_tables()
        self._mutated()
        return True

    def _mutated(self) -> None:
        """Forget everything derived from the tables: the miss path's
        range table (its owners are the interned matches a re-insert
        replaces) and every cached block."""
        self._path = None
        self._invalidate(self._tables_desc[0][0] if self._tables_desc else 0)

    def _rebuild_tables(self) -> None:
        """Recompute the per-length rows, pruning empty tables."""
        self._tables_desc = [
            (length, prefix_mask(length), self._by_length[length])
            for length in sorted(self._by_length, reverse=True)
            if self._by_length[length]
        ]

    def get(self, prefix: IPv6Prefix, default: V | None = None) -> V | None:
        table = self._by_length.get(prefix.length)
        match = None if table is None else table.get(prefix.network)
        return default if match is None else match[1]

    def _miss_path(self) -> MissPath:
        """The longest table's ``get`` (it holds the interned matches, and
        ``tuple`` returns a tuple unchanged) and the flattened shorter
        rows, built by the first lookup after a mutation.  Threads racing
        to build it each store an equal tuple, atomically."""
        path = self._path
        if path is None:
            rows = self._tables_desc
            _, mask, table = rows[0] if rows else (0, 0, {})
            shorter = (match for row in rows[1:] for match in row[2].values())
            self._path = path = (mask, table.get, tuple, *flatten(shorter))
        return path

    # benchmarks/e2e/trace.py rebinds vars(cls)["longest_match_batch"], so
    # the class body owns the name.
    longest_match_batch = BlockCachedLPM.longest_match_batch

    def has_cover(self, prefix: IPv6Prefix, *, strict: bool = False) -> bool:
        """True if a stored prefix covers ``prefix`` (``strict``: a proper
        supernet only)."""
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

    def frozen(self):
        """A read-only :class:`~repro.bgp.frozenfib.FrozenLPM` snapshot of
        the current contents, with this table's cache size: sorted array
        columns instead of dicts, shareable across shard workers, lookups
        pinned bit-identical."""
        return FrozenLPM.freeze(self, cache_size=self._cache_size)
