"""Binary radix (Patricia-style) trie over IPv6 prefixes.

This is the lookup structure behind the hitlist's
:class:`~repro.hitlist.aliases.AliasedPrefixList` (the BGP RIB and the
routers' FIBs use :mod:`repro.bgp.lpm` and :mod:`repro.bgp.frozenfib`).
It supports exact insert/remove, longest-prefix match, and
covering/covered queries.

The trie is a plain binary trie keyed on address bits; at IPv6 scale in the
simulator (tens of thousands of prefixes, lengths mostly 32–64) the depth is
bounded and lookups are a few dozen integer operations.

``longest_match`` — the alias filter's per-record containment probe — sits
behind the bounded block cache of :mod:`repro.bgp.blockcache`: two
addresses sharing their covering block walk identical trie paths, so one
cached result answers for the whole block.  A valued node holds the
interned ``(prefix, value)`` tuple built once at ``insert``, which is what
a match returns.  Every mutation invalidates the cache, so cached and
uncached lookups are indistinguishable.
"""

from __future__ import annotations

from typing import Generic, Iterator

from ..addr.ipv6 import ADDRESS_BITS, IPv6Prefix
from .blockcache import DEFAULT_CACHE_SIZE, BlockCachedLPM, V


class _Node(Generic[V]):
    __slots__ = ("children", "match")

    def __init__(self) -> None:
        self.children: list["_Node[V] | None"] = [None, None]
        # (prefix, value) if a prefix is stored here, else None.
        self.match: tuple[IPv6Prefix, V] | None = None


def _bit(address: int, depth: int) -> int:
    """The bit of ``address`` at ``depth`` (0 = most significant)."""
    return (address >> (ADDRESS_BITS - 1 - depth)) & 1


class PrefixTrie(BlockCachedLPM[V]):
    """A map from :class:`IPv6Prefix` to values with LPM queries."""

    def __init__(self, *, cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        super().__init__(cache_size)
        self._root: _Node[V] = _Node()
        self._size = 0
        # Stored-prefix length census; the max drives the cache key width.
        self._length_counts: dict[int, int] = {}

    def __len__(self) -> int:
        return self._size

    def __contains__(self, prefix: IPv6Prefix) -> bool:
        node = self._node_at(prefix)
        return node is not None and node.match is not None

    def insert(self, prefix: IPv6Prefix, value: V) -> None:
        """Insert or replace the value at ``prefix``."""
        node = self._root
        for depth in range(prefix.length):
            bit = _bit(prefix.network, depth)
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
        if node.match is None:
            self._size += 1
            self._length_counts[prefix.length] = (
                self._length_counts.get(prefix.length, 0) + 1
            )
        node.match = (prefix, value)
        self._invalidate(max(self._length_counts))

    def get(self, prefix: IPv6Prefix, default: object = None) -> object:
        """Exact-match lookup."""
        node = self._node_at(prefix)
        if node is None or node.match is None:
            return default
        return node.match[1]

    def _node_at(self, prefix: IPv6Prefix) -> _Node[V] | None:
        node = self._root
        for depth in range(prefix.length):
            child = node.children[_bit(prefix.network, depth)]
            if child is None:
                return None
            node = child
        return node

    def remove(self, prefix: IPv6Prefix) -> bool:
        """Remove an exact prefix; True if it was present.

        Empty branches are pruned so long-lived tries do not leak nodes.
        """
        path: list[tuple[_Node[V], int]] = []
        node = self._root
        for depth in range(prefix.length):
            bit = _bit(prefix.network, depth)
            child = node.children[bit]
            if child is None:
                return False
            path.append((node, bit))
            node = child
        if node.match is None:
            return False
        node.match = None
        self._size -= 1
        count = self._length_counts.get(prefix.length, 0) - 1
        if count > 0:
            self._length_counts[prefix.length] = count
        else:
            self._length_counts.pop(prefix.length, None)
        self._invalidate(max(self._length_counts, default=0))
        for parent, bit in reversed(path):
            child = parent.children[bit]
            assert child is not None
            if child.match is not None or child.children[0] or child.children[1]:
                break
            parent.children[bit] = None
        return True

    def _probe(self, address: int) -> tuple[IPv6Prefix, V] | None:
        node = self._root
        best = None
        shift = ADDRESS_BITS - 1
        while True:
            if node.match is not None:
                best = node.match
            if shift < 0:
                return best
            child = node.children[(address >> shift) & 1]
            if child is None:
                return best
            node = child
            shift -= 1

    def all_matches(self, address: int) -> Iterator[tuple[IPv6Prefix, V]]:
        """All stored prefixes containing ``address``, shortest first."""
        node = self._root
        depth = 0
        while True:
            if node.match is not None:
                yield node.match
            if depth == ADDRESS_BITS:
                return
            child = node.children[_bit(address, depth)]
            if child is None:
                return
            node = child
            depth += 1

    def covered_by(self, prefix: IPv6Prefix) -> Iterator[tuple[IPv6Prefix, V]]:
        """All stored prefixes equal to or more specific than ``prefix``."""
        start = self._node_at(prefix)
        if start is None:
            return
        stack = [start]
        while stack:
            node = stack.pop()
            if node.match is not None:
                yield node.match
            stack.extend(child for child in node.children if child is not None)

    def has_cover(self, prefix: IPv6Prefix, *, strict: bool = False) -> bool:
        """True if a stored prefix covers ``prefix``.

        With ``strict`` the cover must be shorter (a proper supernet).
        """
        node = self._root
        for depth in range(prefix.length):
            if node.match is not None:
                return True
            child = node.children[_bit(prefix.network, depth)]
            if child is None:
                return False
            node = child
        return node.match is not None and not strict

    def items(self) -> Iterator[tuple[IPv6Prefix, V]]:
        """All (prefix, value) pairs in depth-first (address) order."""
        yield from self.covered_by(IPv6Prefix(0, 0))

    def frozen(self, *, cache_size: int | None = None):
        """A read-only :class:`~repro.bgp.frozenfib.FrozenLPM` snapshot:
        the trie's contents as sorted array columns, with ``longest_match``
        / ``longest_match_batch`` pinned bit-identical."""
        from .frozenfib import FrozenLPM

        if cache_size is None:
            cache_size = self._cache_size
        return FrozenLPM.freeze(self, cache_size=cache_size)
