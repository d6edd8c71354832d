"""Tests for the IRR (RPSL route6) substrate and hitlist containers."""

import random

import pytest

from repro.addr.ipv6 import AddressError, IPv6Prefix, parse_address
from repro.hitlist.aliases import AliasedPrefixList
from repro.hitlist.hitlist import Hitlist
from repro.irr.database import IRRDatabase
from repro.irr.rpsl import (
    RPSLError,
    Route6Object,
    parse_database,
    parse_route6,
    serialize_database,
)

BLOCK = """\
route6:         2001:db8:1::/48
origin:         AS64500
descr:          Example customer block
mnt-by:         MAINT-EXAMPLE
source:         RIPE
"""


class TestRPSLParse:
    def test_parse_basic(self):
        obj = parse_route6(BLOCK)
        assert obj.prefix == IPv6Prefix.parse("2001:db8:1::/48")
        assert obj.origin_asn == 64500
        assert obj.descr == "Example customer block"
        assert obj.maintainer == "MAINT-EXAMPLE"
        assert obj.source == "RIPE"

    def test_parse_lowercase_origin(self):
        obj = parse_route6("route6: 2001:db8::/32\norigin: as7\n")
        assert obj.origin_asn == 7

    def test_continuation_lines(self):
        block = (
            "route6: 2001:db8::/32\n"
            "origin: AS1\n"
            "descr: line one\n"
            "        line two\n"
            "+line three\n"
        )
        obj = parse_route6(block)
        assert obj.descr == "line one line two line three"

    def test_unknown_attributes_preserved(self):
        block = BLOCK + "remarks:        keep me\n"
        obj = parse_route6(block)
        assert ("remarks", "keep me") in obj.extra
        assert "remarks" in obj.to_rpsl()

    def test_comments_skipped(self):
        obj = parse_route6("% mirror header\n" + BLOCK)
        assert obj.origin_asn == 64500

    def test_missing_route6(self):
        with pytest.raises(RPSLError):
            parse_route6("origin: AS1\n")

    def test_missing_origin(self):
        with pytest.raises(RPSLError):
            parse_route6("route6: 2001:db8::/32\n")

    def test_bad_prefix(self):
        with pytest.raises(RPSLError):
            parse_route6("route6: bogus/48\norigin: AS1\n")

    def test_bad_origin(self):
        with pytest.raises(RPSLError):
            parse_route6("route6: 2001:db8::/32\norigin: ASXY\n")

    def test_line_without_colon(self):
        with pytest.raises(RPSLError):
            parse_route6("route6 2001:db8::/32\n")

    def test_roundtrip(self):
        obj = parse_route6(BLOCK)
        assert parse_route6(obj.to_rpsl()) == obj


class TestRPSLDatabaseText:
    def test_parse_database_multiple(self):
        text = BLOCK + "\n" + BLOCK.replace("2001:db8:1::/48", "2001:db8:2::/48")
        objects = parse_database(text)
        assert len(objects) == 2

    def test_parse_database_skips_other_classes(self):
        text = "mntner: MAINT-X\nsource: RIPE\n\n" + BLOCK
        assert len(parse_database(text)) == 1

    def test_serialize_sorted(self):
        objects = [
            Route6Object(IPv6Prefix.parse("2001:db9::/48"), 2),
            Route6Object(IPv6Prefix.parse("2001:db8::/48"), 1),
        ]
        text = serialize_database(objects)
        assert text.index("2001:db8::") < text.index("2001:db9::")

    def test_serialize_parse_roundtrip(self):
        objects = parse_database(BLOCK)
        assert parse_database(serialize_database(objects)) == objects


class TestIRRDatabase:
    def test_add_len_iter(self):
        db = IRRDatabase([Route6Object(IPv6Prefix.parse("2001:db8::/48"), 1)])
        assert len(db) == 1
        assert [o.origin_asn for o in db] == [1]

    def test_multiple_origins_same_prefix(self):
        prefix = IPv6Prefix.parse("2001:db8::/48")
        db = IRRDatabase([Route6Object(prefix, 1), Route6Object(prefix, 2)])
        assert len(db) == 2
        assert db.prefixes() == [prefix]

    def test_prefixes_distinct_and_sorted(self):
        db = IRRDatabase(
            [
                Route6Object(IPv6Prefix.parse("2001:dba::/32"), 2),
                Route6Object(IPv6Prefix.parse("2001:db9::/48"), 1),
                Route6Object(IPv6Prefix.parse("2001:db8::/48"), 1),
                Route6Object(IPv6Prefix.parse("2001:db9::/48"), 3),
            ]
        )
        assert [str(prefix) for prefix in db.prefixes()] == [
            "2001:db8::/48",
            "2001:db9::/48",
            "2001:dba::/32",
        ]

    def test_add_same_registration_twice_keeps_one(self):
        obj = Route6Object(IPv6Prefix.parse("2001:db8::/48"), 1)
        db = IRRDatabase([obj, obj])
        db.add(obj)
        assert len(db) == 1

    def test_remove(self):
        prefix = IPv6Prefix.parse("2001:db8::/48")
        db = IRRDatabase([Route6Object(prefix, 1)])
        assert db.remove(prefix, 1)
        assert not db.remove(prefix, 1)
        assert len(db) == 0

    def test_save_load(self, tmp_path):
        db = IRRDatabase([Route6Object(IPv6Prefix.parse("2001:db8::/48"), 64500)])
        path = tmp_path / "irr.db"
        db.save(path)
        loaded = IRRDatabase.load(path)
        assert len(loaded) == 1
        assert loaded.prefixes() == [IPv6Prefix.parse("2001:db8::/48")]


class TestHitlist:
    def test_add_dedup(self):
        hitlist = Hitlist()
        assert hitlist.add(1)
        assert not hitlist.add(1)
        assert len(hitlist) == 1

    def test_extend_counts_new(self):
        hitlist = Hitlist()
        assert hitlist.extend([1, 2, 2, 3]) == 3

    def test_contains_and_iter_order(self):
        hitlist = Hitlist()
        hitlist.extend([5, 3, 5, 9])
        assert 3 in hitlist
        assert list(hitlist) == [5, 3, 9]

    def test_unique_slash64s(self):
        hitlist = Hitlist()
        hitlist.extend(
            [
                parse_address("2001:db8::1"),
                parse_address("2001:db8::2"),
                parse_address("2001:db8:0:1::1"),
            ]
        )
        assert len(hitlist.unique_slash64s()) == 2

    def test_save_load(self, tmp_path):
        hitlist = Hitlist(name="test")
        hitlist.extend([parse_address("2001:db8::1"), parse_address("::2")])
        path = tmp_path / "hitlist.txt"
        hitlist.save(path)
        loaded = Hitlist.load(path)
        assert loaded.addresses() == hitlist.addresses()

    def test_load_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2001:db8::1\nnot-an-address\n")
        with pytest.raises(AddressError, match="2"):
            Hitlist.load(path)


class TestAliasedPrefixList:
    def test_contains_address(self):
        alias_list = AliasedPrefixList([IPv6Prefix.parse("2001:db8::/48")])
        assert alias_list.contains_address(parse_address("2001:db8::42"))
        assert not alias_list.contains_address(parse_address("2001:db9::42"))

    def test_dedup_and_iter_sorted(self):
        alias_list = AliasedPrefixList()
        alias_list.add(IPv6Prefix.parse("2001:db9::/48"))
        alias_list.add(IPv6Prefix.parse("2001:db8::/48"))
        alias_list.add(IPv6Prefix.parse("2001:db8::/48"))
        assert len(alias_list) == 2
        assert list(alias_list)[0] == IPv6Prefix.parse("2001:db8::/48")

    def test_save_load(self, tmp_path):
        alias_list = AliasedPrefixList([IPv6Prefix.parse("2001:db8::/48")])
        path = tmp_path / "aliases.txt"
        alias_list.save(path)
        loaded = AliasedPrefixList.load(path)
        assert len(loaded) == 1
        assert loaded.contains_address(parse_address("2001:db8::1"))

    def test_containment_equals_brute_force(self):
        """Against ``any(p.covers(...))`` over the plain prefix list,
        nested and adjacent prefixes included."""
        rng = random.Random(12)
        bases = [rng.getrandbits(128) for _ in range(4)]
        listed = {
            IPv6Prefix.of(
                rng.choice(bases) ^ rng.getrandbits(12) << rng.choice((0, 64, 80)),
                rng.choice((0, 1, 29, 32, 47, 48, 56, 64, 65, 127, 128)),
            )
            for _ in range(60)
        }
        listed.discard(IPv6Prefix(0, 0))  # added halfway, below
        alias_list = AliasedPrefixList(listed)
        queries = [rng.getrandbits(128) for _ in range(50)]
        for prefix in listed:
            queries += [prefix.network, prefix.last, prefix.network ^ 1]
            queries += [(prefix.network - 1) % (1 << 128), (prefix.last + 1) % (1 << 128)]
        for catch_all in (False, True):
            if catch_all:
                alias_list.add(IPv6Prefix(0, 0))
                listed.add(IPv6Prefix(0, 0))
            assert len(alias_list) == len(listed)
            for address in queries:
                host = IPv6Prefix(address, 128)
                assert alias_list.contains_address(address) == any(
                    prefix.covers(host) for prefix in listed
                )
