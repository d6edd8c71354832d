"""Tests for the IRR (route6) substrate and hitlist containers."""

import pickle
import random

from helpers import extend

from repro.addr.ipv6 import IPv6Prefix, parse_address
from repro.hitlist.aliases import AliasedPrefixList
from repro.hitlist.hitlist import Hitlist
from repro.irr.database import IRRDatabase
from repro.irr.rpsl import Route6Object


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

    def test_survives_pickle(self):
        """The world artifact pickles the database, extra attributes and all."""
        prefix = IPv6Prefix.parse("2001:db8::/48")
        db = IRRDatabase(
            [
                Route6Object(
                    prefix, 1, "customer", "MAINT-X", "RIPE", (("remarks", "r"),)
                ),
                Route6Object(IPv6Prefix.parse("2001:db8::/32"), 2),
            ]
        )
        thawed = pickle.loads(pickle.dumps(db))
        assert list(thawed) == list(db)
        assert thawed.prefixes() == db.prefixes()
        assert next(iter(thawed)).extra == (("remarks", "r"),)


class TestHitlist:
    def test_add_dedup(self):
        hitlist = Hitlist()
        assert hitlist.add(1)
        assert not hitlist.add(1)
        assert len(hitlist) == 1

    def test_extend_counts_new(self):
        hitlist = Hitlist()
        assert extend(hitlist, [1, 2, 2, 3]) == 3

    def test_contains_and_iter_order(self):
        hitlist = Hitlist()
        extend(hitlist, [5, 3, 5, 9])
        assert 3 in hitlist
        assert list(hitlist) == [5, 3, 9]

    def test_unique_slash64s(self):
        hitlist = Hitlist()
        extend(
            hitlist,
            [
                parse_address("2001:db8::1"),
                parse_address("2001:db8::2"),
                parse_address("2001:db8:0:1::1"),
            ],
        )
        assert len(hitlist.unique_slash64s()) == 2

    def test_addresses_is_a_copy_in_first_seen_order(self):
        hitlist = Hitlist()
        extend(hitlist, [9, 4, 9, 1])
        addresses = hitlist.addresses()
        assert addresses == [9, 4, 1]
        addresses.append(7)
        assert 7 not in hitlist
        assert hitlist.addresses() == [9, 4, 1]


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

    def test_add_after_a_lookup_is_seen(self):
        alias_list = AliasedPrefixList([IPv6Prefix.parse("2001:db8::/48")])
        address = parse_address("2001:db9::1")
        assert not alias_list.contains_address(address)
        alias_list.add(IPv6Prefix.parse("2001:db9::/64"))
        assert alias_list.contains_address(address)

    def test_containment_equals_brute_force(self):
        """Against ``any(p.covers(...))`` over the plain prefix list,
        nested and adjacent prefixes included, one address at a time and
        in one batch."""
        rng = random.Random(12)
        bases = [rng.getrandbits(128) for _ in range(4)]
        listed = {
            IPv6Prefix.of(
                rng.choice(bases) ^ rng.getrandbits(12) << rng.choice((0, 64, 80)),
                # No length below 29: a /1 covers half of all queries.
                rng.choice((29, 32, 47, 48, 56, 64, 65, 127, 128)),
            )
            for _ in range(60)
        }
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
            inside = []
            for address in queries:
                host = IPv6Prefix(address, 128)
                assert alias_list.contains_address(address) == any(
                    prefix.covers(host) for prefix in listed
                )
                inside += [address] * alias_list.contains_address(address)
            # The batched form, which the survey's alias filter uses.
            assert alias_list.listed(queries) == inside
            # Before the catch-all, some queries fall outside the list.
            assert 0 < len(inside) < len(queries) or catch_all
