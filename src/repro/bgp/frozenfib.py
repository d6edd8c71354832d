"""Frozen, array-backed longest-prefix match.

:class:`~repro.bgp.lpm.LengthIndexedLPM` is built around Python dicts:
perfect while a table is being assembled, but expensive to ship —
pickling a world's resolution index into every shard worker rivals the
scan itself, and a million /64 entries cost hundreds of megabytes of
dict overhead.

:class:`FrozenLPM` is the read-only counterpart: the contents of the
mutable map laid out as per-length *sorted key columns* — two
``array('Q')``-compatible sequences holding the high and low 64-bit words
of each network, plus a parallel value sequence.  The columns are plain
machine words, so they can live in an mmap'd world artifact and be shared
zero-copy by every shard worker — see :mod:`repro.topology.artifact`.

A cache miss runs :mod:`repro.bgp.blockcache`'s one miss path: a
``dict.get`` in a ``{network: row index}`` index of the longest row,
else a ``bisect`` in the disjoint address ranges :func:`flatten` makes of
the shorter rows.  Both are per-process derived state (the index is built
by the first lookup, O(longest row)), never pickled or written to the
artifact; ``get`` / ``has_cover`` / ``all_matches`` / ``items`` search
the shared columns.  The ranges assume few shorter rows, as in generated
worlds (the benchmark world's resolution table keeps 346 of 76,320
entries below its /64 row; its BGP table flattens 1,251 of 1,417).

Bit-identity contract: ``longest_match`` / ``longest_match_batch`` /
``items`` / ``has_cover`` / ``all_matches`` return exactly what the
mutable map they were frozen from would return, including ``None``
values matching, behind the same bounded block cache keyed by the covering
``/max(48, longest)`` block (:mod:`repro.bgp.blockcache`; pinned by
tests/test_frozenfib.py and tests/test_blockcache.py).
Mutation (``insert`` / ``remove``) raises :class:`TypeError` — freezing
is one-way; build with the mutable map, freeze, then share.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Sequence

from ..addr.ipv6 import ADDRESS_BITS, IPv6Prefix, prefix_mask
from .blockcache import DEFAULT_CACHE_SIZE, BlockCachedLPM, MissPath, V

__all__ = ["FrozenLPM", "FrozenRow", "flatten"]

_LO_MASK = (1 << 64) - 1


class FrozenRow:
    """One prefix length's sorted key columns.

    ``keys_hi`` / ``keys_lo`` are parallel sequences of unsigned 64-bit
    words sorted by ``(hi, lo)`` — any object speaking the sequence
    protocol works (``array('Q')``, a ``memoryview(...).cast('Q')`` over
    an mmap).  ``values`` is a parallel sequence.  The length is checked
    here, once; a key with bits set below it raises in :meth:`match`.
    :meth:`match` interns entry ``i``'s ``(prefix, value)`` tuple on first
    use, and ``FrozenLPM``'s ``get`` / ``items`` / ``all_matches`` /
    ``longest_match`` all hand out that tuple or its value: one object per
    entry, to every caller and thread (callers key caches by payload
    identity; the memo publishes with ``dict.setdefault``).  A subclass may
    decode the value in an overriding ``match`` (the world artifact's
    resolution rows do), keeping this memo as the entry's only cache.  In
    a :class:`FrozenLPM`'s longest row the memo grows with the entries a
    scan actually hits; every shorter row is matched in full when the map
    is built (:func:`flatten`).
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


def flatten(
    matches: Iterable[tuple[IPv6Prefix, object]],
) -> tuple[list[int], list]:
    """Interned ``(prefix, value)`` matches as disjoint address ranges:
    ``owners[j]`` is the match of the longest prefix covering
    ``[starts[j], starts[j + 1])``, or None.

    Prefixes nest or are disjoint, so one sweep in (network, length) order
    over a stack of the prefixes still open resolves every overlap: a
    prefix owns its span until a more specific one opens, and again once
    that one has closed.  Of several ranges starting at one address all
    but the last are empty; ``bisect_right`` lands on the last, the
    innermost prefix's.  Boundaries are whole 128-bit integers.

    Linear (plus a sort) in ``matches``, which both FIBs pass every row
    but their longest, so those are assumed few — see the module
    docstring.  ``benchmarks/world_scale.py --check`` bounds artifact
    load time only for worlds of that shape.
    """
    starts: list[int] = [0]
    owners: list = [None]
    enclosing: list[tuple[int, object]] = []  # (end, owner), outermost first

    def close(limit: int) -> None:
        while enclosing and enclosing[-1][0] <= limit:
            starts.append(enclosing.pop()[0])
            owners.append(enclosing[-1][1] if enclosing else None)

    for owner in sorted(matches, key=lambda match: match[0]):
        prefix = owner[0]  # prefixes order by (network, length)
        close(prefix.network)
        starts.append(prefix.network)
        owners.append(owner)
        enclosing.append((prefix.last + 1, owner))
    close(1 << ADDRESS_BITS)
    return starts, owners


class FrozenLPM(BlockCachedLPM[V]):
    """Read-only longest-prefix-match map over sorted array columns.

    Drop-in for the lookup side of :class:`~repro.bgp.lpm.LengthIndexedLPM`
    (``longest_match``, ``longest_match_batch``, ``block_shift``, ``get``,
    ``has_cover``, ``all_matches``, ``items``, ``len``); the mutation side
    raises.  Construction is linear in every row but the longest; the
    first lookup in each process indexes the longest row.
    """

    __slots__ = ("_rows_desc", "_size", "_longest", "_starts", "_owners", "_path")

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
        self._longest = next(iter(self._rows_desc), FrozenRow(0, (), (), ()))
        # Every shorter entry is matched here: values materialised, row
        # memos filled.
        self._starts, self._owners = flatten(
            row.match(i) for row in self._rows_desc[1:] for i in range(len(row))
        )
        self._path: MissPath | None = None
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
        — a :class:`LengthIndexedLPM`, or another :class:`FrozenLPM`."""
        return cls.from_items(lpm.items(), cache_size=cache_size)

    # ------------------------------------------------------------------ #
    # lookups (pinned bit-identical to LengthIndexedLPM)
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._size

    def _miss_path(self) -> MissPath:
        """The longest row's ``{network: row index}`` index, resolved by
        its match memo, and the shorter rows' ranges; built by the first
        lookup in each process (racing threads store equal tuples)."""
        path = self._path
        if path is None:
            row = self._longest
            keys = zip(row.keys_hi, row.keys_lo)
            index = {(hi << 64) | lo: i for i, (hi, lo) in enumerate(keys)}
            path = (row.mask, index.get, row.match, self._starts, self._owners)
            self._path = path
        return path

    def __getstate__(self):
        """Everything but the index: a copy rebuilds it on first lookup."""
        slots = BlockCachedLPM.__slots__ + FrozenLPM.__slots__
        state = {name: getattr(self, name) for name in slots}
        state["_path"] = None
        return None, state

    # benchmarks/e2e/trace.py rebinds vars(cls)["longest_match_batch"], so
    # the class body owns the name.
    longest_match_batch = BlockCachedLPM.longest_match_batch

    def get(self, prefix: IPv6Prefix, default: V | None = None) -> V | None:
        for row in self._rows_desc:
            if row.length == prefix.length:
                i = row.find(prefix.network)
                return row.match(i)[1] if i >= 0 else default
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
            yield from map(row.match, range(len(row)))

    # ------------------------------------------------------------------ #
    # mutation: refused
    # ------------------------------------------------------------------ #

    def insert(self, prefix: IPv6Prefix, value: V) -> None:
        raise TypeError(
            "FrozenLPM is immutable: build a LengthIndexedLPM and "
            "re-freeze instead"
        )

    def remove(self, prefix: IPv6Prefix) -> bool:
        raise TypeError(
            "FrozenLPM is immutable: build a LengthIndexedLPM and "
            "re-freeze instead"
        )
