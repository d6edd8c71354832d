"""Frozen, array-backed longest-prefix match.

:class:`~repro.bgp.lpm.LengthIndexedLPM` and
:class:`~repro.bgp.trie.PrefixTrie` are built around Python dicts and
nodes: perfect while a table is being assembled, but expensive to ship —
pickling a world's resolution index into every shard worker rivals the
scan itself, and a million /64 entries cost hundreds of megabytes of
dict overhead.

:class:`FrozenLPM` is the read-only counterpart: the contents of either
mutable structure flattened into per-length *sorted key columns* — two
``array('Q')``-compatible sequences holding the high and low 64-bit words
of each network, plus a parallel value sequence.  Lookups probe lengths
longest-first (the DIR scheme, same as the mutable map) and find the key
by binary search instead of a dict probe.  The columns are plain machine
words, so they can live in an mmap'd world artifact and be shared
zero-copy by every shard worker — see :mod:`repro.topology.artifact`.

Bit-identity contract: ``longest_match`` / ``longest_match_batch`` /
``items`` / ``has_cover`` / ``all_matches`` return exactly what the
mutable map they were frozen from would return, including ``None``
values matching, behind the same bounded block cache keyed by the covering
``/max(48, longest)`` block (:mod:`repro.bgp.blockcache`; pinned by
tests/test_frozenfib.py and tests/test_blockcache.py).
Mutation (``insert`` / ``remove``) raises :class:`TypeError` — freezing
is one-way; build with the mutable structures, freeze, then share.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Sequence

from ..addr.ipv6 import IPv6Prefix, prefix_mask
from .blockcache import DEFAULT_CACHE_SIZE, BlockCachedLPM, V

__all__ = ["FrozenLPM", "FrozenRow"]

_LO_MASK = (1 << 64) - 1


class FrozenRow:
    """One prefix length's sorted key columns.

    ``keys_hi`` / ``keys_lo`` are parallel sequences of unsigned 64-bit
    words sorted by ``(hi, lo)`` — any object speaking the sequence
    protocol works (``array('Q')``, a ``memoryview(...).cast('Q')`` over
    an mmap).  ``values`` is a parallel sequence; a lazy implementation
    may materialise entries on first access, but must return the *same*
    object for the same index every time (callers key caches by payload
    identity).  :meth:`match` memoises the interned ``(prefix, value)``
    tuple per index on first use, so the memo grows with the rows a scan
    actually hits, not with the table.
    """

    __slots__ = ("length", "mask", "keys_hi", "keys_lo", "values", "_matches")

    def __init__(
        self,
        length: int,
        keys_hi: Sequence[int],
        keys_lo: Sequence[int],
        values: Sequence,
    ) -> None:
        if len(keys_hi) != len(keys_lo) or len(keys_hi) != len(values):
            raise ValueError("key/value columns must have equal length")
        self.length = length
        self.mask = prefix_mask(length)
        self.keys_hi = keys_hi
        self.keys_lo = keys_lo
        self.values = values
        self._matches: dict[int, tuple[IPv6Prefix, object]] = {}

    def __len__(self) -> int:
        return len(self.keys_hi)

    def match(self, i: int) -> tuple[IPv6Prefix, object]:
        """The ``(prefix, value)`` tuple of entry ``i``: one object per
        entry, however often and from whichever thread it is asked for."""
        found = self._matches.get(i)
        if found is None:
            network = (self.keys_hi[i] << 64) | self.keys_lo[i]
            found = self._matches.setdefault(
                i, (IPv6Prefix(network, self.length), self.values[i])
            )
        return found

    def find(self, network: int) -> int:
        """Index of ``network`` in the columns, or -1."""
        hi = network >> 64
        lo = network & _LO_MASK
        keys_hi = self.keys_hi
        i = bisect_left(keys_hi, hi)
        n = len(keys_hi)
        if i >= n or keys_hi[i] != hi:
            return -1
        keys_lo = self.keys_lo
        if keys_lo[i] == lo:  # prefixes <= /64 always land here (lo == 0)
            return i
        j = bisect_right(keys_hi, hi, i)
        k = bisect_left(keys_lo, lo, i, j)
        if k < j and keys_lo[k] == lo:
            return k
        return -1


class FrozenLPM(BlockCachedLPM[V]):
    """Read-only longest-prefix-match map over sorted array columns.

    Drop-in for the lookup side of :class:`~repro.bgp.lpm.LengthIndexedLPM`
    (``longest_match``, ``longest_match_batch``, ``block_shift``, ``get``,
    ``has_cover``, ``all_matches``, ``items``, ``len``); the mutation side
    raises.
    """

    __slots__ = ("_rows_desc", "_size")

    def __init__(
        self,
        rows: Iterable[FrozenRow],
        *,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        self._rows_desc = sorted(
            (row for row in rows if len(row)),
            key=lambda row: row.length,
            reverse=True,
        )
        lengths = [row.length for row in self._rows_desc]
        if len(set(lengths)) != len(lengths):
            raise ValueError("duplicate per-length rows")
        self._size = sum(len(row) for row in self._rows_desc)
        super().__init__(cache_size, lengths[0] if lengths else 0)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_items(
        cls,
        items: Iterable[tuple[IPv6Prefix, V]],
        *,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> "FrozenLPM[V]":
        """Freeze an item stream; later duplicates overwrite earlier ones
        (dict-insert semantics, matching the mutable maps)."""
        by_length: dict[int, dict[int, V]] = {}
        for prefix, value in items:
            by_length.setdefault(prefix.length, {})[prefix.network] = value
        rows = []
        for length, table in by_length.items():
            keys_hi = array("Q")
            keys_lo = array("Q")
            values: list[V] = []
            for network in sorted(table):
                keys_hi.append(network >> 64)
                keys_lo.append(network & _LO_MASK)
                values.append(table[network])
            rows.append(FrozenRow(length, keys_hi, keys_lo, values))
        return cls(rows, cache_size=cache_size)

    @classmethod
    def freeze(cls, lpm, *, cache_size: int = DEFAULT_CACHE_SIZE) -> "FrozenLPM[V]":
        """Freeze any map with ``items()`` yielding ``(IPv6Prefix, value)``
        — both :class:`LengthIndexedLPM` and :class:`PrefixTrie` qualify."""
        return cls.from_items(lpm.items(), cache_size=cache_size)

    # ------------------------------------------------------------------ #
    # lookups (pinned bit-identical to LengthIndexedLPM)
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._size

    def _probe(self, address: int) -> tuple[IPv6Prefix, V] | None:
        """Uncached longest-first walk (the dict-probe loop, with bisect)."""
        for row in self._rows_desc:
            i = row.find(address & row.mask)
            if i >= 0:
                return row.match(i)  # type: ignore[return-value]
        return None

    # benchmarks/e2e/trace.py rebinds vars(cls)["longest_match_batch"], so
    # the class body owns the name.
    longest_match_batch = BlockCachedLPM.longest_match_batch

    def get(self, prefix: IPv6Prefix, default: V | None = None) -> V | None:
        for row in self._rows_desc:
            if row.length == prefix.length:
                i = row.find(prefix.network)
                return row.values[i] if i >= 0 else default
        return default

    def has_cover(self, prefix: IPv6Prefix, *, strict: bool = False) -> bool:
        """True if a stored prefix covers ``prefix`` (``strict``: a proper
        supernet only)."""
        for row in self._rows_desc:
            if row.length > prefix.length or (
                strict and row.length == prefix.length
            ):
                continue
            if row.find(prefix.network & row.mask) >= 0:
                return True
        return False

    def all_matches(self, address: int) -> Iterator[tuple[IPv6Prefix, V]]:
        """All stored prefixes containing ``address``, longest first."""
        for row in self._rows_desc:
            i = row.find(address & row.mask)
            if i >= 0:
                yield row.match(i)  # type: ignore[misc]

    def items(self) -> Iterator[tuple[IPv6Prefix, V]]:
        for row in reversed(self._rows_desc):  # ascending length
            keys_hi = row.keys_hi
            keys_lo = row.keys_lo
            values = row.values
            for i in range(len(keys_hi)):
                network = (keys_hi[i] << 64) | keys_lo[i]
                yield IPv6Prefix(network, row.length), values[i]

    # ------------------------------------------------------------------ #
    # mutation: refused
    # ------------------------------------------------------------------ #

    def insert(self, prefix: IPv6Prefix, value: V) -> None:
        raise TypeError(
            "FrozenLPM is immutable: build a LengthIndexedLPM/PrefixTrie "
            "and re-freeze instead"
        )

    def remove(self, prefix: IPv6Prefix) -> bool:
        raise TypeError(
            "FrozenLPM is immutable: build a LengthIndexedLPM/PrefixTrie "
            "and re-freeze instead"
        )
