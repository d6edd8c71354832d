"""The block-keyed result cache and miss path every LPM structure shares.

Two addresses that agree on their top ``k`` bits, where ``k`` is the
longest stored prefix length (never finer than /48 — the paper's scans
are /48- and /64-grained, many targets per covering /48), match
identically at every stored length.  So one cached result, keyed by
``address >> block_shift``, answers for the whole covering block.

:class:`BlockCachedLPM` owns the cache and the uncached lookup once for
:class:`~repro.bgp.lpm.LengthIndexedLPM` and
:class:`~repro.bgp.frozenfib.FrozenLPM`; a structure supplies only data,
the ``_miss_path()`` tuple, and calls ``_invalidate`` on every mutation,
which keeps cached and uncached lookups indistinguishable.  A miss is one
hash probe of the longest row, else one ``bisect_right`` in the disjoint
ranges :func:`~repro.bgp.frozenfib.flatten` makes of the shorter rows,
run inline by ``longest_match_batch`` (no Python call but ``resolve``).

Policy: fill, then flush.  A hit is one ``dict.get`` and reorders
nothing; a miss into a full cache empties it with one ``clear()`` and
stores the new block.  Trimming the oldest eighth instead keeps a few
more hits, but on the survey, which misses 89 % of its lookups, the
bookkeeping costs more than they save (DESIGN.md §7).  ``cache_size=0``
stores nothing.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Generic, Iterable, Sequence, TypeVar

from ..addr.ipv6 import ADDRESS_BITS, IPv6Prefix

V = TypeVar("V")

# (longest-row mask, longest-row get, resolver, range starts, range owners)
MissPath = tuple[int, Callable, Callable, list[int], list]

_MISS = object()

# Cache granularity never finer than /48: the survey's target generators
# emit many /64s per covering /48, which is exactly the reuse we want.
_MIN_BLOCK_BITS = 48
DEFAULT_CACHE_SIZE = 8192


class BlockCachedLPM(Generic[V]):
    """``longest_match`` / ``longest_match_batch`` over a subclass's
    ``_miss_path()``, behind one bounded block cache."""

    __slots__ = ("_cache", "_cache_size", "_cache_shift")

    def __init__(self, cache_size: int, longest: int = 0) -> None:
        self._cache_size = cache_size
        self._cache: dict[int, tuple[IPv6Prefix, V] | None] = {}
        self._invalidate(longest)

    def _miss_path(self) -> MissPath:
        """``(mask, get, resolve, starts, owners)``: a miss on ``address``
        is ``resolve(get(address & mask))`` unless that ``get`` is None,
        else ``owners[bisect_right(starts, address) - 1]``."""
        raise NotImplementedError

    def _invalidate(self, longest: int) -> None:
        """Drop every cached result; ``longest`` is the longest stored
        prefix length after the mutation."""
        self._cache_shift = ADDRESS_BITS - max(_MIN_BLOCK_BITS, longest)
        self._cache.clear()

    @property
    def block_shift(self) -> int:
        """Right-shift that maps an address to its covering cache block.

        Two addresses with equal ``address >> block_shift`` match
        identically at every stored length.  The value tracks the longest
        stored length, so re-read it per batch, never cache it across
        inserts/removes.
        """
        return self._cache_shift

    def longest_match(self, address: int) -> tuple[IPv6Prefix, V] | None:
        """The most specific stored prefix containing ``address``."""
        key = address >> self._cache_shift
        found = self._cache.get(key, _MISS)
        if found is _MISS:
            found = self._fill(key, address)
        return found  # type: ignore[return-value]

    def longest_match_batch(
        self,
        addresses: Sequence[int],
        indices: Iterable[int],
        out: list,
    ) -> None:
        """Vectorised LPM: fill ``out[i] = longest_match(addresses[i])``
        for every ``i`` in ``indices``.

        A run of consecutive indices in one covering block costs one
        cache probe, but callers should not sort to make runs: the probe
        kernel passes batches in probe order, because on the benchmark
        campaigns sorting found a same-block neighbour for 0 of 2.56 M
        resolution lookups and 2.4–3.3 % of BGP lookups — less than the
        sort cost.  Results are bit-identical to per-address
        :meth:`longest_match` calls in any order.
        """
        mask, find, resolve, starts, owners = self._miss_path()
        cache = self._cache
        get = cache.get
        size = self._cache_size
        shift = self._cache_shift
        miss = _MISS
        last_key = -1
        last = None
        for i in indices:
            address = addresses[i]
            key = address >> shift
            if key != last_key:
                last = get(key, miss)
                if last is miss:
                    found = find(address & mask)
                    if found is None:
                        last = owners[bisect_right(starts, address) - 1]
                    else:
                        last = resolve(found)
                    if len(cache) < size:
                        cache[key] = last
                    elif size > 0:
                        cache.clear()
                        cache[key] = last
                last_key = key
            out[i] = last

    def _probe(self, address: int) -> tuple[IPv6Prefix, V] | None:
        """Uncached lookup: the stored prefix's interned ``(prefix,
        value)`` tuple, one object for every address it matches."""
        mask, find, resolve, starts, owners = self._miss_path()
        found = find(address & mask)
        if found is None:
            return owners[bisect_right(starts, address) - 1]
        return resolve(found)

    def _fill(self, key: int, address: int) -> tuple[IPv6Prefix, V] | None:
        """Miss path: probe the structure and remember the block's result."""
        result = self._probe(address)
        cache = self._cache
        size = self._cache_size
        if len(cache) < size:
            cache[key] = result
        elif size > 0:
            cache.clear()
            cache[key] = result
        return result
