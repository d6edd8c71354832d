"""The block cache contract, once for both LPM structures.

``LengthIndexedLPM`` and ``FrozenLPM`` share one cache implementation
(``repro.bgp.blockcache``) and supply only ``_miss_path``.  The cache is
advisory: whatever its size and however hard it is evicting, results must
equal the ``cache_size=0`` map's, it must stay bounded, and matches must
be the stored prefix's interned tuple.  ``LengthIndexedLPM`` runs the
contract twice: built in one go (which is also the uncached reference for
all three), and built with a lookup after every insert plus decoys
inserted and removed again, so its lazily flattened range table is
rebuilt at every step of the way.
"""

import random
import sys
import threading
from time import perf_counter

import pytest

from repro.addr.ipv6 import IPv6Prefix, parse_address
from repro.bgp.blockcache import DEFAULT_CACHE_SIZE
from repro.bgp.frozenfib import FrozenLPM
from repro.bgp.lpm import LengthIndexedLPM

BASE = 0x20010DB8 << 96


def _mutable(cls):
    def build(entries, cache_size):
        table = cls(cache_size=cache_size)
        for prefix, value in entries:
            table.insert(prefix, value)
        return table

    return build


def _churned(entries, cache_size):
    table = LengthIndexedLPM(cache_size=cache_size)
    stored = dict(entries)
    for prefix, value in entries:
        table.insert(prefix, "stale")
        table.longest_match(prefix.network)
        table.insert(prefix, value)
        decoy = IPv6Prefix.of(prefix.network, max(prefix.length - 1, 0))
        if decoy not in stored:
            table.insert(decoy, "decoy")
            table.longest_match(prefix.network)
            table.remove(decoy)
    return table


def _frozen(entries, cache_size):
    return FrozenLPM.from_items(entries, cache_size=cache_size)


BUILDERS = {
    "lpm": _mutable(LengthIndexedLPM),
    "lpm-churned": _churned,
    "frozen": _frozen,
}


@pytest.fixture(params=sorted(BUILDERS))
def build(request):
    return BUILDERS[request.param]


def p(text):
    return IPv6Prefix.parse(text)


def _table(seed=5, count=60, lengths=(32, 40, 48, 56, 64)):
    """Overlapping prefixes under 2001:db8::/32 (some valued ``None``) and
    addresses inside and outside them, each drawn twice."""
    rng = random.Random(seed)
    entries = {}
    for index in range(count):
        prefix = IPv6Prefix.of(
            BASE | (rng.getrandbits(32) << 64), rng.choice(lengths)
        )
        entries[prefix] = None if index % 7 == 0 else index
    networks = [prefix.network for prefix in entries]
    addresses = [BASE | rng.getrandbits(96) for _ in range(300)]
    addresses += [rng.choice(networks) | rng.getrandbits(64) for _ in range(300)]
    addresses += [rng.getrandbits(128) for _ in range(20)]
    addresses *= 2
    rng.shuffle(addresses)
    return list(entries.items()), addresses


class TestExactUnderEviction:
    @pytest.mark.parametrize("cache_size", [1, 2, 3, 8, 9, 64])
    def test_scalar_equals_uncached(self, build, cache_size):
        entries, addresses = _table()
        cached = build(entries, cache_size)
        reference = BUILDERS["lpm"](entries, 0)
        for _ in range(2):  # revisits hit, evict, refill
            for address in addresses:
                assert cached.longest_match(address) == reference.longest_match(
                    address
                )
                assert len(cached._cache) <= cache_size
        assert len(reference._cache) == 0

    @pytest.mark.parametrize("cache_size", [0, 1, 5, 64, 8192])
    @pytest.mark.parametrize("order", ["sorted", "unsorted"])
    def test_batch_equals_uncached(self, build, cache_size, order):
        entries, addresses = _table(seed=6)
        cached = build(entries, cache_size)
        reference = BUILDERS["lpm"](entries, 0)
        expected = [reference.longest_match(a) for a in addresses]
        indices = list(range(len(addresses)))
        if order == "sorted":
            indices.sort(key=addresses.__getitem__)
        for _ in range(2):
            out = [object()] * len(addresses)
            cached.longest_match_batch(addresses, indices, out)
            assert out == expected
            assert len(cached._cache) <= cache_size

    def test_extreme_lengths(self, build):
        """/0 and /128 stored: every address matches and every address is
        its own block."""
        entries, addresses = _table(seed=9, lengths=(0, 1, 47, 65, 127, 128))
        addresses += [prefix.network for prefix, _ in entries]
        cached = build(entries, 3)
        reference = BUILDERS["lpm"](entries, 0)
        assert cached.block_shift == 0
        expected = [reference.longest_match(a) for a in addresses]
        assert [cached.longest_match(a) for a in addresses] == expected
        out = [None] * len(addresses)
        cached.longest_match_batch(addresses, range(len(addresses)), out)
        assert out == expected
        assert len(cached._cache) <= 3

    def test_batch_fills_only_the_indices_given(self, build):
        entries, addresses = _table(seed=7)
        table = build(entries, 4)
        untouched = object()
        out = [untouched] * len(addresses)
        table.longest_match_batch(addresses, range(0, len(addresses), 2), out)
        assert all(value is untouched for value in out[1::2])
        assert all(value is not untouched for value in out[0::2])

    def test_none_value_is_a_match(self, build):
        prefix = p("2001:db8::/32")
        table = build([(prefix, None)], 2)
        for _ in range(2):  # miss, then hit
            assert table.longest_match(parse_address("2001:db8::1")) == (
                prefix,
                None,
            )


class TestCachePolicy:
    def test_hit_and_cached_negative_do_not_reprobe(self, build, monkeypatch):
        table = build([(p("2001:db8::/32"), "a")], 8)
        walks = []
        probe = type(table)._probe

        def counting(self, address):
            walks.append(address)
            return probe(self, address)

        monkeypatch.setattr(type(table), "_probe", counting)
        inside = parse_address("2001:db8::1")
        outside = parse_address("2002::1")
        for _ in range(3):
            assert table.longest_match(inside)[1] == "a"
            assert table.longest_match(inside + 1)[1] == "a"  # same /48 block
            assert table.longest_match(outside) is None
        assert walks == [inside, outside]

    def test_a_miss_into_a_full_cache_leaves_only_its_block(self, build):
        """A full cache is emptied by a miss, which then stores its own
        block; a hit into the full cache evicts nothing."""
        table = build([(p("2001:db8::/32"), "a")], 64)
        shift = table.block_shift
        blocks = [BASE | (block << 80) for block in range(65)]
        for address in blocks[:64]:
            table.longest_match(address)
            assert len(table._cache) <= 64
        assert set(table._cache) == {address >> shift for address in blocks[:64]}
        table.longest_match(blocks[0])
        assert len(table._cache) == 64
        assert table.longest_match(blocks[64]) == (p("2001:db8::/32"), "a")
        assert list(table._cache) == [blocks[64] >> shift]

    def test_batch_evicts_like_scalar_misses(self, build):
        """The batch loop's inline miss path evicts by the same rule: after
        every call the cache holds the same blocks, in the same order, as
        per-address lookups leave, and never more than its size."""
        entries = [(p("2001:db8::/32"), "a"), (p("2001:db8:4000::/36"), "b")]
        batched, scalar = build(entries, 8), build(entries, 8)
        rng = random.Random(5)
        blocks = [BASE | (rng.randrange(24) << 80) for _ in range(400)]
        for start in range(0, len(blocks), 7):
            indices = range(start, min(start + 7, len(blocks)))
            out = [None] * len(blocks)
            batched.longest_match_batch(blocks, indices, out)
            for i in indices:
                assert out[i] == scalar.longest_match(blocks[i])
            assert list(batched._cache) == list(scalar._cache)
            assert len(batched._cache) <= 8
        table = build(entries, 8)
        fresh = [BASE | ((block + 100) << 80) for block in range(9)]
        out = [None] * 9
        table.longest_match_batch(fresh, range(8), out)
        table.longest_match_batch(fresh, [3], out)
        assert len(table._cache) == 8
        table.longest_match_batch(fresh, [0, 8], out)  # a hit, then a miss
        assert list(table._cache) == [fresh[8] >> table.block_shift]

    def test_key_granularity_follows_longest_stored(self, build):
        # With a /64 stored the cache must distinguish sibling /64s of
        # one /48; without one, a /48 block shares one entry.
        coarse = build([(p("2001:db8::/32"), "a")], 8)
        fine = build(
            [(p("2001:db8:1:1::/64"), "one"), (p("2001:db8:1:2::/64"), "two")], 8
        )
        assert coarse.block_shift == 128 - 48
        assert fine.block_shift == 128 - 64
        assert fine.longest_match(parse_address("2001:db8:1:1::7"))[1] == "one"
        assert fine.longest_match(parse_address("2001:db8:1:2::7"))[1] == "two"


class TestInternedMatches:
    def test_one_object_per_stored_prefix(self, build):
        prefix = p("2001:db8::/32")
        table = build([(prefix, "a"), (p("2001:db8:5::/48"), "b")], 2)
        first = table.longest_match(parse_address("2001:db8:1::1"))
        other_block = table.longest_match(parse_address("2001:db8:2::1"))
        assert first == (prefix, "a")
        assert first is other_block
        out = [None, None]
        table.longest_match_batch(
            [parse_address("2001:db8:3::1"), parse_address("2001:db8:4::1")],
            [0, 1],
            out,
        )
        assert out[0] is first and out[1] is first

    def test_same_object_after_eviction(self, build):
        table = build([(p("2001:db8::/32"), "a")], 2)
        address = parse_address("2001:db8:1::1")
        before = table.longest_match(address)
        for block in range(2, 12):
            table.longest_match(BASE | (block << 80))
        assert address >> table.block_shift not in table._cache
        assert table.longest_match(address) is before

    def test_insert_reuses_the_callers_prefix(self):
        prefix = p("2001:db8::/32")
        table = LengthIndexedLPM()
        table.insert(prefix, "a")
        assert table.longest_match(parse_address("2001:db8::1"))[0] is prefix


def _lookups(table, address):
    """``address`` looked up both ways: scalar, then batch."""
    out = [object()]
    table.longest_match_batch([address], [0], out)
    return table.longest_match(address), out[0]


@pytest.mark.parametrize("cache_size", [0, 3, DEFAULT_CACHE_SIZE])
class TestMutationInvalidates:
    """Every mutation is visible to the very next lookup: neither a cached
    block nor the lazily flattened range table may outlive it."""

    def test_insert_then_remove(self, cache_size):
        table = LengthIndexedLPM(cache_size=cache_size)
        table.insert(p("2001:db8::/32"), "broad")
        address = parse_address("2001:db8:1::9")
        assert table.longest_match(address)[1] == "broad"
        table.insert(p("2001:db8:1::/48"), "narrow")
        assert table.longest_match(address)[1] == "narrow"
        assert table.remove(p("2001:db8:1::/48"))
        assert table.longest_match(address)[1] == "broad"
        assert table.remove(p("2001:db8::/32"))
        assert table.longest_match(address) is None

    def test_replacing_a_value_drops_the_old_match(self, cache_size):
        table = LengthIndexedLPM(cache_size=cache_size)
        table.insert(p("2001:db8::/32"), "old")
        address = parse_address("2001:db8::1")
        assert table.longest_match(address)[1] == "old"
        table.insert(p("2001:db8::/32"), "new")
        assert table.longest_match(address)[1] == "new"

    def test_insert_at_a_stored_length_after_a_negative_lookup(self, cache_size):
        """An insert at a length already stored skips the drop only while
        no lookup has built the range table or cached a block; after a
        lookup that found nothing in its block, a new network there (in
        the longest row, then in a shorter one) is seen at once."""
        table = LengthIndexedLPM(cache_size=cache_size)
        table.insert(p("2001:db8:1:1::/64"), "leaf")
        table.insert(p("2001:db8:2::/48"), "slice")
        table.insert(p("2001:db8:1:2::/64"), "built")  # stored length, no lookup
        assert _lookups(table, parse_address("2001:db8:1:2::1"))[0][1] == "built"
        missing = parse_address("2001:db8:1:3::1")
        assert _lookups(table, missing) == (None, None)
        table.insert(p("2001:db8:1:3::/64"), "new leaf")
        assert _lookups(table, missing) == ((p("2001:db8:1:3::/64"), "new leaf"),) * 2
        short_miss = parse_address("2001:db8:3::1")
        assert _lookups(table, short_miss) == (None, None)
        table.insert(p("2001:db8:3::/48"), "new slice")
        assert _lookups(table, short_miss) == ((p("2001:db8:3::/48"), "new slice"),) * 2

    def test_block_shift_tracks_mutation(self, cache_size):
        table = LengthIndexedLPM(cache_size=cache_size)
        table.insert(p("2001:db8::/32"), "a")
        assert table.block_shift == 128 - 48
        table.insert(p("2001:db8:1:1::/64"), "b")
        assert table.block_shift == 128 - 64
        assert table.remove(p("2001:db8:1:1::/64"))
        assert table.block_shift == 128 - 48

    def test_short_row_changes_reach_the_range_table(self, cache_size):
        """The range table holds every row but the longest.  Re-valuing or
        removing a short-row prefix, adding a new longest length and
        emptying the map each change what a longest-row miss returns."""
        short, longest = p("2001:db8::/32"), p("2001:db8:1:1::/64")
        table = LengthIndexedLPM(cache_size=cache_size)
        table.insert(short, "old")
        table.insert(p("2001:db8:2::/48"), None)
        table.insert(longest, "leaf")
        miss = parse_address("2001:db8:9::1")  # no /64, no /48: the /32
        assert _lookups(table, miss) == ((short, "old"),) * 2
        table.insert(short, "new")
        assert _lookups(table, miss) == ((short, "new"),) * 2
        assert _lookups(table, parse_address("2001:db8:2::1")) == (
            (p("2001:db8:2::/48"), None),
        ) * 2
        assert table.remove(short)
        assert _lookups(table, miss) == (None, None)
        table.insert(short, "back")
        host = p("2001:db8:1:1::7/128")  # the /64 moves into the range table
        table.insert(host, "host")
        assert _lookups(table, host.network) == ((host, "host"),) * 2
        assert _lookups(table, host.network + 1) == ((longest, "leaf"),) * 2
        assert _lookups(table, miss) == ((short, "back"),) * 2
        for prefix, _ in list(table.items()):
            assert table.remove(prefix)
        assert len(table) == 0
        assert _lookups(table, miss) == (None, None)
        assert _lookups(table, host.network) == (None, None)


def test_threads_sharing_one_map_stay_exact(build):
    """A send the resilient watchdog abandoned as slow shares a world's
    maps with its retry.  More threads than cores hammer
    one evicting cache, scalar and batch — racing to build the miss path
    its builder left unbuilt (a mutable map's range table, a frozen map's
    longest-row index); none may raise or see a wrong result, and the
    cache stays within one racing insert per thread of its bound."""
    entries, addresses = _table(seed=8)
    cache_size = 16
    shared = build(entries, cache_size)
    assert shared._path is None
    reference = BUILDERS["lpm"](entries, 0)
    expected = [reference.longest_match(a) for a in addresses]
    indices = sorted(range(len(addresses)), key=addresses.__getitem__)
    threads = 4
    errors = []

    def hammer(offset):
        try:
            for _ in range(15):
                for i in range(offset, len(addresses), 3):
                    assert shared.longest_match(addresses[i]) == expected[i]
                out = [None] * len(addresses)
                shared.longest_match_batch(addresses, indices, out)
                assert out == expected
                assert len(shared._cache) <= cache_size + threads
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [
            threading.Thread(target=hammer, args=(n,)) for n in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors, errors


def _miss_stream_seconds(table, addresses, indices):
    out = [None] * len(addresses)
    started = perf_counter()
    table.longest_match_batch(addresses, indices, out)
    return perf_counter() - started


def test_full_cache_misses_cost_like_unfilled_cache_misses():
    """The pathology this cache once had: evicting one head key per miss
    re-scans the dict's dead head slots, so a miss into a full cache cost
    8.5x a miss into a cache with room (1.2x with batched eviction).

    Relative, same process, interleaved min-of-N; a loaded box gets three
    attempts before the ratio counts.
    """
    rng = random.Random(14)
    entries = [
        (IPv6Prefix.of(BASE | (rng.getrandbits(32) << 64), 48), index)
        for index in range(10_000)
    ]
    addresses = [BASE | (block << 80) | 1 for block in range(40_000)]
    rng.shuffle(addresses)
    indices = range(len(addresses))
    ratio = None
    for _ in range(3):
        full, roomy = [], []
        for _ in range(3):
            evicting = BUILDERS["lpm"](entries, 8192)
            unfilled = BUILDERS["lpm"](entries, 1 << 20)
            full.append(_miss_stream_seconds(evicting, addresses, indices))
            roomy.append(_miss_stream_seconds(unfilled, addresses, indices))
            assert len(evicting._cache) <= 8192
            assert len(unfilled._cache) == len(addresses)
        ratio = min(full) / min(roomy)
        if ratio <= 2.0:
            break
    assert ratio <= 2.0, f"full-cache miss stream cost {ratio:.1f}x"
