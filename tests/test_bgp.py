"""Tests for the BGP substrate: LPM and announcement table."""

from repro.addr.ipv6 import IPv6Prefix, parse_address
from repro.bgp.lpm import LengthIndexedLPM
from repro.bgp.table import Announcement, BGPTable


def p(text):
    return IPv6Prefix.parse(text)


class TestLengthIndexedLPM:
    def test_insert_get(self):
        lpm = LengthIndexedLPM()
        lpm.insert(p("2001:db8::/32"), "a")
        assert lpm.get(p("2001:db8::/32")) == "a"
        assert len(lpm) == 1

    def test_get_missing_returns_default(self):
        lpm = LengthIndexedLPM()
        assert lpm.get(p("2001:db8::/32"), "dflt") == "dflt"

    def test_replace_does_not_grow(self):
        lpm = LengthIndexedLPM()
        lpm.insert(p("::/0"), 1)
        lpm.insert(p("::/0"), 2)
        assert len(lpm) == 1
        assert lpm.get(p("::/0")) == 2

    def test_longest_match_prefers_specific(self):
        lpm = LengthIndexedLPM()
        lpm.insert(p("2001:db8::/32"), "broad")
        lpm.insert(p("2001:db8:1::/48"), "narrow")
        prefix, value = lpm.longest_match(parse_address("2001:db8:1::5"))
        assert value == "narrow"
        assert prefix == p("2001:db8:1::/48")

    def test_longest_match_falls_back(self):
        lpm = LengthIndexedLPM()
        lpm.insert(p("2001:db8::/32"), "broad")
        lpm.insert(p("2001:db8:1::/48"), "narrow")
        _, value = lpm.longest_match(parse_address("2001:db8:2::5"))
        assert value == "broad"

    def test_longest_match_none(self):
        lpm = LengthIndexedLPM()
        lpm.insert(p("2001:db8::/32"), "x")
        assert lpm.longest_match(parse_address("2001:db9::")) is None

    def test_all_matches_order(self):
        lpm = LengthIndexedLPM()
        lpm.insert(p("::/0"), 0)
        lpm.insert(p("2001:db8::/32"), 32)
        lpm.insert(p("2001:db8::/48"), 48)
        matches = list(lpm.all_matches(parse_address("2001:db8::1")))
        assert [value for _, value in matches] == [48, 32, 0]

    def test_remove(self):
        lpm = LengthIndexedLPM()
        lpm.insert(p("2001:db8::/32"), "x")
        assert lpm.remove(p("2001:db8::/32"))
        assert len(lpm) == 0
        assert not lpm.remove(p("2001:db8::/32"))
        assert lpm.longest_match(parse_address("2001:db8::1")) is None

    def test_remove_keeps_other_branches(self):
        lpm = LengthIndexedLPM()
        lpm.insert(p("2001:db8::/32"), "keep")
        lpm.insert(p("2001:db8:1::/48"), "drop")
        lpm.remove(p("2001:db8:1::/48"))
        assert lpm.longest_match(parse_address("2001:db8:1::5"))[1] == "keep"

    def test_items(self):
        lpm = LengthIndexedLPM()
        lpm.insert(p("2001:db8::/32"), 1)
        lpm.insert(p("2001:db8:1::/48"), 2)
        assert dict(lpm.items()) == {
            p("2001:db8::/32"): 1,
            p("2001:db8:1::/48"): 2,
        }

    def test_longest_match(self):
        lpm = LengthIndexedLPM()
        lpm.insert(p("2001:db8::/32"), "broad")
        lpm.insert(p("2001:db8:1::/48"), "narrow")
        assert lpm.longest_match(parse_address("2001:db8:1::9"))[1] == "narrow"
        assert lpm.longest_match(parse_address("2001:db8:2::9"))[1] == "broad"
        assert lpm.longest_match(parse_address("2002::1")) is None

    def test_remove_cleans_length_table(self):
        lpm = LengthIndexedLPM()
        lpm.insert(p("2001:db8::/32"), 1)
        assert lpm.remove(p("2001:db8::/32"))
        assert len(lpm) == 0
        assert lpm.longest_match(parse_address("2001:db8::1")) is None
        assert not lpm.remove(p("2001:db8::/32"))

    def test_default_route(self):
        lpm = LengthIndexedLPM()
        lpm.insert(p("::/0"), "default")
        assert lpm.longest_match(parse_address("abcd::1"))[1] == "default"

    def test_has_cover(self):
        lpm = LengthIndexedLPM()
        lpm.insert(p("2001:db8::/32"), 1)
        assert lpm.has_cover(p("2001:db8:1::/48"))
        assert lpm.has_cover(p("2001:db8::/32"))
        assert not lpm.has_cover(p("2001:db8::/32"), strict=True)
        assert not lpm.has_cover(p("2001::/16"))
        assert not lpm.has_cover(p("2001:db9::/48"))

    def test_all_matches_longest_first(self):
        lpm = LengthIndexedLPM()
        lpm.insert(p("::/0"), 0)
        lpm.insert(p("2001:db8::/32"), 32)
        lpm.insert(p("2001:db8::/64"), 64)
        values = [v for _, v in lpm.all_matches(parse_address("2001:db8::1"))]
        assert values == [64, 32, 0]

    def test_items_sorted(self):
        lpm = LengthIndexedLPM()
        lpm.insert(p("2001:db9::/32"), "b")
        lpm.insert(p("2001:db8::/32"), "a")
        assert [v for _, v in lpm.items()] == ["a", "b"]

    def test_get_exact(self):
        lpm = LengthIndexedLPM()
        lpm.insert(p("2001:db8::/32"), "x")
        assert lpm.get(p("2001:db8::/32")) == "x"
        assert lpm.get(p("2001:db8::/48")) is None

    def test_size_tracks_unique_inserts(self):
        lpm = LengthIndexedLPM()
        lpm.insert(p("2001:db8::/32"), 1)
        lpm.insert(p("2001:db8::/32"), 2)
        assert len(lpm) == 1

    def test_none_value_matches(self):
        # A stored None still counts.
        lpm = LengthIndexedLPM()
        lpm.insert(p("2001:db8::/32"), None)
        match = lpm.longest_match(parse_address("2001:db8::1"))
        assert match == (p("2001:db8::/32"), None)


class TestLengthIndexedLPMHotPath:
    """The lookup-row list behind longest_match (the block cache on top
    has its own suite, tests/test_blockcache.py)."""

    def test_lookup_rows_skip_empty_lengths(self):
        lpm = LengthIndexedLPM()
        lpm.insert(p("2001:db8::/32"), "a")
        lpm.insert(p("2001:db8:1::/48"), "b")
        assert [row[0] for row in lpm._tables_desc] == [48, 32]
        # Removing the only /48 prunes its row entirely — longest_match
        # never iterates a length that cannot match.
        assert lpm.remove(p("2001:db8:1::/48"))
        assert [row[0] for row in lpm._tables_desc] == [32]
        assert 48 not in lpm._by_length

    def test_insert_new_length_is_queryable_immediately(self):
        # Regression guard: the lookup rows must be rebuilt *after* the
        # new length's table is populated, or the row gets pruned as empty.
        lpm = LengthIndexedLPM()
        lpm.insert(p("2001:db8::/64"), "only")
        assert lpm.longest_match(parse_address("2001:db8::5"))[1] == "only"


class TestBGPTable:
    def _table(self):
        return BGPTable(
            [
                Announcement(p("2001:db8::/32"), 64500),
                Announcement(p("2001:db8:1::/48"), 64501),
                Announcement(p("2001:db9::/48"), 64502),
            ]
        )

    def test_origin_longest_match(self):
        table = self._table()
        assert table.origin_of(parse_address("2001:db8:1::9")) == 64501
        assert table.origin_of(parse_address("2001:db8:2::9")) == 64500
        assert table.origin_of(parse_address("2002::1")) is None

    def test_matching_prefix(self):
        table = self._table()
        assert table.matching_prefix(parse_address("2001:db8:1::9")) == p(
            "2001:db8:1::/48"
        )

    def test_is_routed(self):
        table = self._table()
        assert table.is_routed(parse_address("2001:db9::1"))
        assert not table.is_routed(parse_address("3000::1"))

    def test_prefixes_sorted(self):
        assert self._table().prefixes() == [
            p("2001:db8::/32"),
            p("2001:db8:1::/48"),
            p("2001:db9::/48"),
        ]

    def test_prefixes_in_the_order_of_plain_sorted(self, quick_context):
        """Sorted by (network, length) key, in IPv6Prefix's own order, for
        the quick world's BGP table and IRR database (whose prefixes nest)."""
        world = quick_context.world
        assert world.bgp.prefixes() == sorted(a.prefix for a in world.bgp)
        assert world.irr.prefixes() == sorted({obj.prefix for obj in world.irr})
        assert len(world.irr.prefixes()) > 100

    def test_withdraw(self):
        table = self._table()
        assert table.withdraw(p("2001:db8:1::/48"))
        assert table.origin_of(parse_address("2001:db8:1::9")) == 64500
        assert not table.withdraw(p("2001:db8:1::/48"))

    def test_has_cover(self):
        table = self._table()
        assert table.has_cover(p("2001:db8:2::/48"))
        assert table.has_cover(p("2001:db8::/32"))
        assert not table.has_cover(p("2001:db8::/32"), strict=True)
        assert not table.has_cover(p("2002::/32"))

    def test_len_contains_iter(self):
        table = self._table()
        assert len(table) == 3
        assert p("2001:db8::/32") in table
        assert {a.origin_asn for a in table} == {64500, 64501, 64502}

    def test_add_replaces_origin(self):
        table = self._table()
        table.add(Announcement(p("2001:db8:1::/48"), 64999))
        assert len(table) == 3
        assert table.origin_of(parse_address("2001:db8:1::9")) == 64999
        assert table.origin_of(parse_address("2001:db8:2::9")) == 64500

