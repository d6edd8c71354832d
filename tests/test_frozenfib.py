"""Property tests: FrozenLPM is lookup-equivalent to the mutable maps.

The frozen FIB is what every shard worker of an artifact-backed world
scans through, so its equivalence to ``LengthIndexedLPM`` — and of both to
a linear scan over the entries — is a correctness pin, not an optimisation
detail: any divergence would show up as scan output differing by world
representation.
"""

import pickle
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addr.ipv6 import IPv6Prefix, network_of
from repro.bgp.frozenfib import FrozenLPM, FrozenRow
from repro.bgp.lpm import LengthIndexedLPM
from repro.bgp.table import Announcement, BGPTable

addresses = st.integers(min_value=0, max_value=(1 << 128) - 1)
# Deliberately includes both extremes (/0 catch-all, /128 host routes)
# and lengths straddling the 64-bit word split of the key columns.
lengths = st.sampled_from([0, 1, 16, 32, 47, 48, 52, 63, 64, 65, 96, 127, 128])


@st.composite
def prefix_sets(draw):
    """A random prefix map plus removals applied before freezing.

    Networks cluster around a small pool of bases so that overlapping
    prefixes (the interesting LPM case) actually occur; values include
    ``None`` (which must still count as a match, per the sentinel-probe
    semantics of the mutable maps).
    """
    pool = draw(st.lists(addresses, min_size=1, max_size=3))
    count = draw(st.integers(min_value=0, max_value=25))
    entries = []
    for _ in range(count):
        base = draw(st.sampled_from(pool))
        length = draw(lengths)
        jitter = draw(st.integers(min_value=0, max_value=(1 << 20) - 1))
        network = network_of(base ^ jitter, length)
        value = draw(st.one_of(st.none(), st.integers(), st.text(max_size=4)))
        entries.append((IPv6Prefix(network, length), value))
    remove_count = draw(st.integers(min_value=0, max_value=len(entries)))
    removals = [p for p, _ in entries[:remove_count]]
    return entries, removals


@st.composite
def nested_prefix_sets(draw):
    """``prefix_sets`` plus the shapes the flattened range table has to get
    right: prefixes nested on one network (longer and shorter than an
    entry, across the /64 word split), adjacent siblings, and — half the
    time — a single-length table, which has no shorter rows at all."""
    entries, removals = draw(prefix_sets())
    extra = []
    for prefix, _ in entries:
        shape = draw(st.sampled_from(["none", "inner", "outer", "sibling"]))
        length = prefix.length
        if shape == "inner" and length < 128:
            length = draw(st.integers(min_value=prefix.length + 1, max_value=128))
            network = prefix.network
        elif shape == "outer" and length > 0:
            length = draw(st.integers(min_value=0, max_value=prefix.length - 1))
            network = network_of(prefix.network, length)
        elif shape == "sibling" and length > 0:
            network = prefix.network ^ (1 << (128 - length))
        else:
            continue
        extra.append((IPv6Prefix(network, length), draw(st.integers())))
    entries = entries + extra
    if entries and draw(st.booleans()):
        length = draw(lengths)
        entries = [
            (IPv6Prefix(network_of(prefix.network, length), length), value)
            for prefix, value in entries
        ]
        removals = []
    return entries, removals


def _live(entries, removals):
    live = dict(entries)  # later duplicates overwrite, as inserts do
    for prefix in removals:
        live.pop(prefix, None)
    return live


def _oracle_all(entries, removals, address):
    """Every covering prefix, longest first, by linear scan over the entry
    list: the reference that shares no code or idea with any LPM
    structure."""
    covering = [
        (prefix, value)
        for prefix, value in _live(entries, removals).items()
        if prefix.network <= address < prefix.network + (1 << (128 - prefix.length))
    ]
    return sorted(covering, key=lambda match: -match[0].length)


def _oracle(entries, removals, address):
    """Longest covering prefix by linear scan."""
    return next(iter(_oracle_all(entries, removals, address)), None)


def _memoryview_row(length, networks, values):
    """One row with key columns as memoryview casts over packed bytes —
    the exact shape the mmap'd world artifact feeds in.  ``networks`` must
    be sorted."""
    hi = array("Q", (network >> 64 for network in networks))
    lo = array("Q", (network & ((1 << 64) - 1) for network in networks))
    return FrozenRow(
        length,
        memoryview(hi.tobytes()).cast("Q"),
        memoryview(lo.tobytes()).cast("Q"),
        values,
    )


def _build(entries, removals):
    lpm: LengthIndexedLPM = LengthIndexedLPM()
    for prefix, value in entries:
        lpm.insert(prefix, value)
    live = set(dict(entries))
    for prefix in removals:
        assert lpm.remove(prefix) == (prefix in live)
        live.discard(prefix)
    return lpm


def _probes(entries, seed=0):
    """Addresses that exercise boundaries: the networks themselves, their
    last covered address, just-outside neighbours, plus random draws."""
    rng = random.Random(seed)
    probes = [rng.getrandbits(128) for _ in range(32)]
    for prefix, _ in entries:
        span = 1 << (128 - prefix.length)
        probes.append(prefix.network)
        probes.append(prefix.network + span - 1)
        if prefix.network > 0:
            probes.append(prefix.network - 1)
        if prefix.network + span < (1 << 128):
            probes.append(prefix.network + span)
    return probes


class TestFrozenEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(prefix_sets())
    def test_longest_match_matches_the_mutable_map(self, data):
        entries, removals = data
        lpm = _build(entries, removals)
        frozen = lpm.frozen()
        refrozen = FrozenLPM.freeze(frozen)
        assert len(frozen) == len(lpm) == len(refrozen)
        assert len(lpm) == len(_live(entries, removals))
        for address in _probes(entries):
            expected = _oracle(entries, removals, address)
            assert lpm.longest_match(address) == expected
            assert frozen.longest_match(address) == expected
            assert refrozen.longest_match(address) == expected

    @settings(max_examples=120, deadline=None)
    @given(nested_prefix_sets())
    def test_longest_match_equals_linear_scan(self, data):
        """Against an independent oracle, not a sibling structure: scalar
        and batch lookups, at every boundary address of every entry."""
        entries, removals = data
        lpm = _build(entries, removals)
        frozen = lpm.frozen()
        probes = _probes(entries, seed=3)
        expected = [_oracle(entries, removals, address) for address in probes]
        assert [frozen.longest_match(address) for address in probes] == expected
        out: list = [None] * len(probes)
        indices = sorted(range(len(probes)), key=lambda i: probes[i])
        lpm.frozen().longest_match_batch(probes, indices, out)
        assert out == expected

    @settings(max_examples=40, deadline=None)
    @given(nested_prefix_sets())
    def test_memoryview_columns_and_pickle_round_trip(self, data):
        """The artifact feeds every row in as memoryview casts over packed
        bytes; a frozen table that is pickled (a world shipped to a pool)
        carries array columns.  Both answer like the oracle."""
        entries, removals = data
        lpm = _build(entries, removals)
        by_length: dict = {}
        for prefix, value in sorted(lpm.items(), key=lambda item: item[0]):
            by_length.setdefault(prefix.length, []).append((prefix.network, value))
        mapped: FrozenLPM = FrozenLPM(
            _memoryview_row(length, *map(list, zip(*pairs)))
            for length, pairs in by_length.items()
        )
        pickled = pickle.loads(pickle.dumps(lpm.frozen()))
        assert len(mapped) == len(pickled) == len(lpm)
        for address in _probes(entries, seed=4):
            expected = _oracle(entries, removals, address)
            assert mapped.longest_match(address) == expected
            assert pickled.longest_match(address) == expected

    @settings(max_examples=40, deadline=None)
    @given(prefix_sets())
    def test_batch_equals_per_address(self, data):
        entries, removals = data
        lpm = _build(entries, removals)
        frozen = lpm.frozen()
        probes = _probes(entries, seed=1)
        indices = sorted(range(len(probes)), key=lambda i: probes[i])
        out_frozen: list = [None] * len(probes)
        frozen.longest_match_batch(probes, indices, out_frozen)
        out_lpm: list = [None] * len(probes)
        lpm.longest_match_batch(probes, indices, out_lpm)
        assert out_frozen == out_lpm
        # ... and both equal fresh per-address lookups.
        reference = lpm.frozen()
        assert out_frozen == [reference.longest_match(a) for a in probes]

    @settings(max_examples=40, deadline=None)
    @given(prefix_sets())
    def test_items_cover_get_all_matches(self, data):
        entries, removals = data
        lpm = _build(entries, removals)
        frozen = lpm.frozen()
        assert list(frozen.items()) == list(lpm.items())
        assert dict(frozen.items()) == _live(entries, removals)
        for prefix, value in lpm.items():
            assert frozen.get(prefix) == value
        for address in _probes(entries, seed=2):
            assert list(frozen.all_matches(address)) == list(
                lpm.all_matches(address)
            )
            assert list(frozen.all_matches(address)) == _oracle_all(
                entries, removals, address
            )
        for prefix, _ in entries:
            for strict in (False, True):
                assert frozen.has_cover(prefix, strict=strict) == lpm.has_cover(
                    prefix, strict=strict
                )


edge_lengths = st.sampled_from([0, 1, 47, 48, 64, 65, 127, 128])


@st.composite
def mutation_scripts(draw):
    """Interleaved inserts (``None`` values included), removals and
    lookups over a few nested networks, so that most steps change — or
    read — what the rows below the longest contribute."""
    pool = draw(st.lists(addresses, min_size=1, max_size=3))
    script = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        base = draw(st.sampled_from(pool)) ^ draw(
            st.integers(min_value=0, max_value=3)
        )
        op = draw(st.sampled_from(["insert", "insert", "remove", "lookup"]))
        if op == "lookup":
            script.append((op, base, None))
            continue
        prefix = IPv6Prefix.of(base, draw(edge_lengths))
        value = draw(st.one_of(st.none(), st.integers())) if op == "insert" else None
        script.append((op, prefix, value))
    script.append(("lookup", pool[0], None))
    return script


class TestMutableInterleavings:
    @settings(max_examples=150, deadline=None)
    @given(mutation_scripts())
    def test_every_step_equals_linear_scan(self, script):
        """``LengthIndexedLPM`` flattens its shorter rows lazily, on the
        first lookup after a mutation.  Whatever the interleaving and the
        cache size, scalar and batch lookups answer like the oracle over
        the entries live at that moment."""
        tables = [LengthIndexedLPM(cache_size=size) for size in (0, 3, 8192)]
        live: dict = {}
        for op, subject, value in script:
            if op == "insert":
                live[subject] = value
                for table in tables:
                    table.insert(subject, value)
                continue
            if op == "remove":
                present = live.pop(subject, _oracle) is not _oracle
                assert [table.remove(subject) for table in tables] == [present] * 3
                continue
            entries = list(live.items())
            probes = [subject] + _probes(entries, seed=5)[32:]
            expected = [_oracle(entries, [], address) for address in probes]
            for table in tables:
                assert len(table) == len(live)
                assert [table.longest_match(a) for a in probes] == expected
                out: list = [object()] * len(probes)
                table.longest_match_batch(probes, range(len(probes)), out)
                assert out == expected


_values = st.one_of(st.none(), st.integers(0, 9))


@st.composite
def longest_row_sets(draw):
    """A longest row at /64 (``lo == 0``), /96 or /128 whose keys crowd a
    few hi words — at /96 and /128 several keys share one — over a few
    shorter covering prefixes; values include ``None``."""
    longest = draw(st.sampled_from([64, 96, 128]))
    his = draw(st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=3))
    entries = []
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        hi = draw(st.sampled_from(his))
        lo = 0 if longest == 64 else draw(st.integers(0, 7)) << (128 - longest)
        entries.append((IPv6Prefix((hi << 64) | lo, longest), draw(_values)))
        if draw(st.booleans()):
            length = draw(st.sampled_from([16, 32, 48, 56, 63, longest - 1]))
            prefix = IPv6Prefix(network_of(hi << 64, length), length)
            entries.append((prefix, draw(_values)))
    return entries


def _artifact_shaped(entries):
    """A FrozenLPM over memoryview rows, as the world artifact lays them
    out: one row per length, sorted by network."""
    by_length: dict = {}
    for prefix, value in sorted(dict(entries).items(), key=lambda item: item[0]):
        by_length.setdefault(prefix.length, []).append((prefix.network, value))
    return lambda cache_size: FrozenLPM(
        (
            _memoryview_row(length, *map(list, zip(*pairs)))
            for length, pairs in by_length.items()
        ),
        cache_size=cache_size,
    )


class TestLongestRowIndex:
    """The frozen longest row is searched through a per-process hash index
    of its networks; the columns behind it stay the artifact's."""

    @settings(max_examples=80, deadline=None)
    @given(longest_row_sets())
    def test_index_agrees_with_the_linear_scan(self, entries):
        build = _artifact_shaped(entries)
        probes = _probes(entries, seed=6)
        probes += [prefix.network | 1 for prefix, _ in entries]
        probes += [prefix.network ^ (1 << 64) for prefix, _ in entries]
        expected = [_oracle(entries, [], address) for address in probes]
        for cache_size in (0, 1, 3, 8192):
            frozen = build(cache_size)
            assert [frozen.longest_match(a) for a in probes] == expected
            out: list = [object()] * len(probes)
            frozen.longest_match_batch(probes, range(len(probes)), out)
            assert out == expected  # over what the scalar pass cached
            assert len(frozen._cache) <= cache_size
            out = [object()] * len(probes)
            build(cache_size).longest_match_batch(probes, range(len(probes)), out)
            assert out == expected  # cold

    @settings(max_examples=30, deadline=None)
    @given(longest_row_sets())
    def test_pickle_carries_no_index(self, entries):
        """A pickled map is the columns alone; the copy builds its own
        index on its first lookup."""
        frozen = FrozenLPM.from_items(entries, cache_size=0)
        probes = _probes(entries, seed=7)
        expected = [_oracle(entries, [], address) for address in probes]
        assert [frozen.longest_match(a) for a in probes] == expected
        assert frozen._path is not None
        copy = pickle.loads(pickle.dumps(frozen))
        assert copy._path is None
        assert list(copy.items()) == list(frozen.items())
        out: list = [None] * len(probes)
        copy.longest_match_batch(probes, range(len(probes)), out)
        assert out == expected
        assert copy._path is not None


class TestFrozenBehaviour:
    def test_mutation_raises(self):
        frozen = LengthIndexedLPM().frozen()
        with pytest.raises(TypeError):
            frozen.insert(IPv6Prefix(0, 0), 1)
        with pytest.raises(TypeError):
            frozen.remove(IPv6Prefix(0, 0))

    def test_a_row_checks_its_length_once_and_its_keys_on_match(self):
        """The length when the row is built; a key with bits set below it
        when ``match`` builds the key's prefix (the columns are trusted
        until then: a lookup masks its address to the row's length)."""
        from repro.addr.ipv6 import AddressError

        with pytest.raises(AddressError, match="prefix length"):
            FrozenRow(129, array("Q"), array("Q"), [])
        row = FrozenRow(48, array("Q", [1 << 16, 2 << 16]), array("Q", [0, 1]), ["ok", "bad"])
        assert row.match(0) == (IPv6Prefix(1 << 80, 48), "ok")
        with pytest.raises(AddressError, match="host bits"):
            row.match(1)

    def test_empty(self):
        frozen = LengthIndexedLPM().frozen()
        assert len(frozen) == 0
        assert frozen.longest_match(123) is None
        assert list(frozen.items()) == []

    def test_block_shift_matches_source(self):
        lpm = LengthIndexedLPM()
        lpm.insert(IPv6Prefix.of(1 << 100, 32), "a")
        assert lpm.frozen().block_shift == lpm.block_shift  # /48 floor
        lpm.insert(IPv6Prefix.of(1 << 100, 96), "b")
        assert lpm.frozen().block_shift == lpm.block_shift

    def test_none_values_match(self):
        lpm = LengthIndexedLPM()
        prefix = IPv6Prefix.of(0xDEAD << 100, 48)
        lpm.insert(prefix, None)
        frozen = lpm.frozen()
        match = frozen.longest_match(prefix.network | 7)
        assert match is not None and match == (prefix, None)

    def test_memoryview_columns(self):
        """Key columns can be memoryview casts over packed bytes."""
        networks = sorted(
            network_of(random.Random(5).getrandbits(128), 64)
            for _ in range(50)
        )
        networks = sorted(set(networks))
        row = _memoryview_row(64, networks, list(range(len(networks))))
        frozen: FrozenLPM = FrozenLPM([row])
        reference: LengthIndexedLPM = LengthIndexedLPM()
        for i, network in enumerate(networks):
            reference.insert(IPv6Prefix(network, 64), i)
        for network in networks:
            for address in (network, network + 1, network - 1):
                assert frozen.longest_match(address) == reference.longest_match(
                    address
                )

    def test_bgp_table_freeze_lookups(self):
        table = BGPTable()
        rng = random.Random(11)
        prefixes = [
            IPv6Prefix.of(rng.getrandbits(128), rng.choice((32, 40, 48)))
            for _ in range(60)
        ]
        for i, prefix in enumerate(prefixes):
            table.add(Announcement(prefix=prefix, origin_asn=1000 + i))
        probes = [rng.getrandbits(128) for _ in range(200)]
        probes += [p.network | 5 for p in prefixes]
        before = [table.origin_of(a) for a in probes]
        table.freeze_lookups()
        assert [table.origin_of(a) for a in probes] == before
        assert table.has_cover(prefixes[0])
        with pytest.raises(TypeError):
            table.add(Announcement(prefix=IPv6Prefix(0, 0), origin_asn=1))
        with pytest.raises(TypeError):
            table.withdraw(prefixes[0])
