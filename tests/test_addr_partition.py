"""Tests for the stage-1/2/3 target constructions and other input sets."""

import hashlib
import random
from itertools import chain, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.addr.ipv6 import AddressError, IPv6Prefix, parse_address
from repro.addr.partition import (
    _overlap_groups,
    _partition,
    hitlist_targets,
    route6_by_prefix,
    stage1_targets,
    stage2_by_prefix,
    stage3_by_prefix,
)
from repro.addr.sra import is_sra_candidate, sra_address, sra_of
from repro.bgp.table import Announcement, BGPTable
from repro.irr.database import IRRDatabase
from repro.irr.rpsl import Route6Object
from repro.scanner.targets import (
    _cut,
    bgp_plain_targets,
    bgp_slash48_targets,
    bgp_slash64_targets,
    hitlist_slash64_targets,
    route6_slash64_targets,
)


def prefixes(*texts):
    return [IPv6Prefix.parse(text) for text in texts]


def flat(chunks):
    """A ``*_by_prefix`` generator's per-prefix chunks, as one list."""
    return list(chain.from_iterable(chunks))


def nth_subnet(prefix, new_length, index):
    """The ``index``-th /``new_length`` subnet of ``prefix``, without
    iteration: the reference for ``_partition``'s sampled subnets."""
    if new_length < prefix.length:
        raise AddressError(
            f"cannot subnet /{prefix.length} into shorter /{new_length}"
        )
    count = 1 << (new_length - prefix.length)
    if not 0 <= index < count:
        raise AddressError(f"subnet index {index} out of range (0..{count - 1})")
    return IPv6Prefix(prefix.network + (index << (128 - new_length)), new_length)


class TestNthSubnet:
    def test_nth_subnet(self):
        prefix = IPv6Prefix.parse("2001:db8::/32")
        assert nth_subnet(prefix, 48, 0).network == prefix.network
        assert nth_subnet(prefix, 48, 5) == IPv6Prefix.parse("2001:db8:5::/48")

    def test_nth_subnet_bounds(self):
        prefix = IPv6Prefix.parse("2001:db8::/32")
        with pytest.raises(AddressError):
            nth_subnet(prefix, 48, 1 << 16)
        with pytest.raises(AddressError):
            nth_subnet(prefix, 48, -1)


class TestSRAConstruction:
    def test_sra_address_is_network(self):
        prefix = IPv6Prefix.parse("2001:db8:1::/48")
        assert sra_address(prefix) == prefix.network

    def test_sra_of_host(self):
        host = parse_address("2001:db8:1:2:3:4:5:6")
        assert sra_of(host, 64) == parse_address("2001:db8:1:2::")

    def test_sra_of_is_idempotent(self):
        host = parse_address("2001:db8::abcd")
        assert sra_of(sra_of(host, 64), 64) == sra_of(host, 64)

    def test_is_sra_candidate(self):
        assert is_sra_candidate(parse_address("2001:db8:1::"), 64)
        assert not is_sra_candidate(parse_address("2001:db8:1::1"), 64)


class TestStage1:
    def test_one_target_per_prefix(self):
        announcements = prefixes("2001:db8::/32", "2001:db9::/48")
        targets = list(stage1_targets(announcements))
        assert targets == [
            parse_address("2001:db8::"),
            parse_address("2001:db9::"),
        ]

    def test_deduplicates_same_network(self):
        announcements = prefixes("2001:db8::/32", "2001:db8::/48")
        assert len(list(stage1_targets(announcements))) == 1

    def test_empty(self):
        assert list(stage1_targets([])) == []


class TestStage2:
    def test_enumerates_all_slash48(self):
        announcements = prefixes("2001:db8::/44")
        targets = flat(stage2_by_prefix(announcements))
        assert len(targets) == 16
        assert targets[0] == parse_address("2001:db8::")
        assert targets[-1] == parse_address("2001:db8:f::")

    def test_sampling_budget(self):
        announcements = prefixes("2001:db8::/32")
        rng = random.Random(1)
        targets = flat(stage2_by_prefix(announcements, max_per_prefix=10, rng=rng))
        assert len(targets) == 10
        assert len(set(targets)) == 10
        for target in targets:
            assert IPv6Prefix.of(target, 32).network == announcements[0].network

    def test_slash48_announcement_kept_as_is(self):
        announcements = prefixes("2001:db8:1::/48")
        assert flat(stage2_by_prefix(announcements)) == [
            parse_address("2001:db8:1::")
        ]

    def test_more_specific_lifted_to_supernet(self):
        # A /52 with no covering announcement probes its /48 supernet.
        announcements = prefixes("2001:db8:1:f000::/52")
        assert flat(stage2_by_prefix(announcements)) == [
            parse_address("2001:db8:1::")
        ]

    def test_more_specific_skipped_when_covered(self):
        announcements = prefixes("2001:db8::/32", "2001:db8:1:f000::/52")
        rng = random.Random(2)
        targets = set(flat(stage2_by_prefix(announcements, max_per_prefix=4, rng=rng)))
        # Only the /32's own partition contributes; the /52 adds nothing
        # beyond what the covering /32 already partitions.
        assert len(targets) == 4

    def test_deduplicates_overlapping_announcements(self):
        announcements = prefixes("2001:db8::/44", "2001:db8::/48")
        targets = flat(stage2_by_prefix(announcements))
        assert len(targets) == len(set(targets)) == 16

    @given(
        picks=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.sampled_from([30, 36, 40, 44, 47, 48, 50, 52, 64]),
            ),
            max_size=10,
        ),
        max_per_prefix=st.integers(min_value=0, max_value=20),
        seed=st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=150, deadline=None)
    def test_nested_announcements_dedup_like_one_seen_set(
        self, picks, max_per_prefix, seed
    ):
        """Announcements that nest, repeat or lift to one /48 are filtered
        against each other only, with the draws made as before: the
        targets are the first occurrences of every announcement's sample
        or lifted supernet, in order."""
        base = parse_address("2001:db8::")
        announced = [
            IPv6Prefix.of(base | (jitter << 82), length) for jitter, length in picks
        ]
        rng, reference = random.Random(seed), random.Random(seed)
        expected = []
        for prefix in announced:
            if prefix.length > 48:
                lifted = prefix.supernet(48)
                if not any(o.length < 48 and o.covers(lifted) for o in announced):
                    expected.append(lifted.network)
                continue
            count = 1 << (48 - prefix.length)
            indices = (
                range(count)
                if count <= max_per_prefix
                else reference.sample(range(count), max_per_prefix)
            )
            expected += [prefix.network | (index << 80) for index in indices]
        got = flat(stage2_by_prefix(announced, max_per_prefix=max_per_prefix, rng=rng))
        assert got == list(dict.fromkeys(expected))
        assert rng.getstate() == reference.getstate()


class TestStage3:
    def test_only_slash48_announcements_expanded(self):
        announcements = prefixes("2001:db8::/32", "2001:db9:1::/48")
        rng = random.Random(3)
        targets = flat(stage3_by_prefix(announcements, max_per_prefix=8, rng=rng))
        assert len(targets) == 8
        for target in targets:
            assert IPv6Prefix.of(target, 48).network == parse_address(
                "2001:db9:1::"
            )

    def test_targets_are_slash64_networks(self):
        announcements = prefixes("2001:db8:1::/48")
        rng = random.Random(4)
        for target in flat(stage3_by_prefix(announcements, max_per_prefix=32, rng=rng)):
            assert is_sra_candidate(target, 64)

    def test_full_enumeration_count(self):
        announcements = prefixes("2001:db8:1::/48")
        targets = flat(stage3_by_prefix(announcements, max_per_prefix=None))
        assert len(targets) == 1 << 16

    def test_repeated_announcement_adds_nothing(self):
        announcements = prefixes("2001:db8:1::/48", "2001:db9::/48", "2001:db8:1::/48")
        targets = flat(stage3_by_prefix(announcements, max_per_prefix=3))
        assert targets == [
            parse_address(text)
            for text in (
                "2001:db8:1::", "2001:db8:1:1::", "2001:db8:1:2::",
                "2001:db9::", "2001:db9:0:1::", "2001:db9:0:2::",
            )
        ]  # fmt: skip


class TestRoute6:
    def test_samples_per_prefix(self):
        rng = random.Random(5)
        targets = flat(
            route6_by_prefix(prefixes("2001:db8:1::/48"), per_prefix=100, rng=rng)
        )
        assert len(targets) == 100
        assert len(set(targets)) == 100

    def test_small_prefix_enumerated(self):
        rng = random.Random(6)
        targets = flat(
            route6_by_prefix(
                prefixes("2001:db8:1:fff0::/60"), per_prefix=100, rng=rng
            )
        )
        assert len(targets) == 16  # only 16 /64s exist

    def test_longer_than_64_collapsed(self):
        rng = random.Random(7)
        targets = flat(
            route6_by_prefix(
                prefixes("2001:db8:1:2:8000::/66"), per_prefix=10, rng=rng
            )
        )
        assert targets == [parse_address("2001:db8:1:2::")]

    def test_targets_inside_registration(self):
        rng = random.Random(8)
        registration = IPv6Prefix.parse("2001:db8:42::/48")
        for target in flat(route6_by_prefix([registration], per_prefix=50, rng=rng)):
            assert target in registration

    @given(
        picks=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=40, max_value=72),
            ),
            max_size=10,
        ),
        per_prefix=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=150, deadline=None)
    def test_nested_registrations_dedup_like_one_seen_set(
        self, picks, per_prefix, seed
    ):
        """Registrations that nest, repeat or share a /64 are filtered
        against each other only, isolated ones not at all: the targets
        and the draws are the first occurrences of every registration's
        sample, in order."""
        base = parse_address("2001:db8::")
        registered = [
            IPv6Prefix.of(base | (jitter << 70), length) for jitter, length in picks
        ]
        rng, reference = random.Random(seed), random.Random(seed)
        expected = []
        for prefix in registered:
            if prefix.length > 64:
                expected.append(sra_of(prefix.network, 64))
                continue
            count = 1 << (64 - prefix.length)
            indices = (
                range(count)
                if count <= per_prefix
                else reference.sample(range(count), per_prefix)
            )
            expected += [prefix.network | (index << 64) for index in indices]
        got = flat(route6_by_prefix(registered, per_prefix=per_prefix, rng=rng))
        assert got == list(dict.fromkeys(expected))
        assert rng.getstate() == reference.getstate()


class TestHitlistTargets:
    def test_cuts_to_slash64(self):
        hosts = [parse_address("2001:db8:1:2:3:4:5:6")]
        assert list(hitlist_targets(hosts)) == [parse_address("2001:db8:1:2::")]

    def test_deduplicates_same_subnet(self):
        hosts = [
            parse_address("2001:db8::1"),
            parse_address("2001:db8::2"),
            parse_address("2001:db8:0:1::9"),
        ]
        targets = list(hitlist_targets(hosts))
        assert len(targets) == 2

    def test_custom_subnet_length(self):
        hosts = [parse_address("2001:db8:1:2::99")]
        assert list(hitlist_targets(hosts, subnet_length=48)) == [
            parse_address("2001:db8:1::")
        ]


class TestPartitionAgainstPrefixMethods:
    """The generators compute ``network | (index << shift)`` themselves;
    ``IPv6Prefix.subnets`` and :func:`nth_subnet` are the reference."""

    @given(
        address=st.integers(min_value=0, max_value=(1 << 128) - 1),
        length=st.integers(min_value=0, max_value=128),
        extra=st.integers(min_value=0, max_value=9),
        budget=st.one_of(st.none(), st.integers(min_value=0, max_value=600)),
        seed=st.one_of(st.none(), st.integers(min_value=0, max_value=99)),
    )
    @settings(max_examples=200, deadline=None)
    def test_partition_equals_subnet_methods(
        self, address, length, extra, budget, seed
    ):
        new_length = min(128, length + extra)
        prefix = IPv6Prefix.of(address, length)
        count = 1 << (new_length - length)
        rng = None if seed is None else random.Random(seed)
        got = list(_partition(prefix, new_length, budget, rng))
        if budget is None or budget >= count:
            expected = [subnet.network for subnet in prefix.subnets(new_length)]
        elif seed is None:
            expected = [
                subnet.network
                for subnet in islice(prefix.subnets(new_length), budget)
            ]
        else:
            indices = random.Random(seed).sample(range(count), budget)
            expected = [
                nth_subnet(prefix, new_length, index).network for index in indices
            ]
        assert got == expected
        if rng is not None:  # the draw happened exactly when the reference's did
            reference = random.Random(seed)
            if budget is not None and budget < count:
                reference.sample(range(count), budget)
            assert rng.getstate() == reference.getstate()

    @given(
        pool=st.lists(
            st.integers(min_value=0, max_value=(1 << 128) - 1),
            min_size=1,
            max_size=2,
        ),
        picks=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=0, max_value=7),
                st.sampled_from([30, 44, 47, 48, 49, 52, 64, 128]),
            ),
            max_size=12,
        ),
    )
    # An announced /48 is not "another" cover of itself: the /52 before it
    # is lifted, and lifted in its own place in the order.
    @example(pool=[0x20010DB8 << 96], picks=[(0, 0, 52), (0, 4, 48), (0, 0, 48)])
    @settings(max_examples=150, deadline=None)
    def test_stage2_lift_equals_covers_scan(self, pool, picks):
        """More-specifics are lifted to their /48 unless *another*
        announcement covers it: the per-length set lookups against
        ``any(other.covers(...))`` over the announcement list."""
        announcements = [
            IPv6Prefix.of(pool[which % len(pool)] ^ (jitter << 78), length)
            for which, jitter, length in picks
        ]
        expected = []
        for prefix in announcements:
            if prefix.length > 48:
                lifted = prefix.supernet(48)
                if any(o != lifted and o.covers(lifted) for o in announcements):
                    continue
                subnets = [lifted]
            else:
                subnets = islice(prefix.subnets(48), 3)
            expected += [
                s.network for s in subnets if s.network not in expected
            ]
        assert flat(stage2_by_prefix(announcements, max_per_prefix=3)) == expected

    @given(
        picks=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=20, max_value=80),
            ),
            max_size=12,
        ),
        length=st.sampled_from([48, 64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_overlap_groups_equal_pairwise_overlap(self, picks, length):
        """Two prefixes share a group exactly when their regions (cut at
        /``length``) overlap; a prefix overlapping none has no group."""
        base = parse_address("2001:db8::")
        listed = [IPv6Prefix.of(base | (jitter << 76), bits) for jitter, bits in picks]
        regions = [p.supernet(min(p.length, length)) for p in listed]
        groups = _overlap_groups(listed, length)
        for i, region in enumerate(regions):
            overlapping = [
                j
                for j, other in enumerate(regions)
                if j != i and (region.covers(other) or other.covers(region))
            ]
            if not overlapping:
                assert groups[i] is None
            for j in overlapping:
                assert groups[i] is not None and groups[i] == groups[j]

    def test_shorter_new_length_is_an_address_error(self):
        prefix = IPv6Prefix.parse("2001:db8:1::/48")
        for budget in (None, 0, 4):  # 0 used to yield nothing, silently
            with pytest.raises(AddressError):
                _partition(prefix, 40, budget, random.Random(1))
        with pytest.raises(AddressError):
            _partition(prefix, 129, None, None)

    @pytest.mark.parametrize("rng", [None, random.Random(1)], ids=["first", "drawn"])
    def test_negative_budgets_are_value_errors(self, rng):
        announcements = prefixes("2001:db8::/32", "2001:db8:1::/48")
        with pytest.raises(ValueError, match="max_per_prefix"):
            flat(stage2_by_prefix(announcements, max_per_prefix=-1, rng=rng))
        with pytest.raises(ValueError, match="max_per_prefix"):
            flat(stage3_by_prefix(announcements, max_per_prefix=-1, rng=rng))
        for registered in ("2001:db8::/32", "2001:db8:1::/48"):  # both samplers
            with pytest.raises(ValueError, match="per_prefix"):
                route6_by_prefix(
                    prefixes(registered), per_prefix=-1, rng=random.Random(1)
                )

    def test_invalid_hitlist_subnet_length(self):
        with pytest.raises(AddressError):
            list(hitlist_targets([1], subnet_length=129))


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class TestBuildersLeaveTheRngWhereTheyDid:
    """(count, targets digest, ``rng.getstate()`` digest) after each
    RNG-consuming builder, captured at commit 5deb505 — before targets
    became integers.  A ``max_targets`` cut must stop the draws where it
    always did: per prefix for ``random.sample``, per index for the
    rejection sampler of sparse (> 2**24 subnets) route6 registrations."""

    ANNOUNCED = [
        "2001:db8::/32", "2001:db8:4000::/36", "2001:dba:1::/48",
        "2001:dba:2::/48", "2001:dba:2:8000::/52", "2001:dbb:7:8000::/52",
        "2001:dbc::/40", "2001:dba:3::/48",
    ]  # fmt: skip
    REGISTERED = [
        "2001:db8::/32", "2001:dba:1::/48", "2001:dba:2:8000::/52",
        "2001:dbd::/36", "2001:dbe:1:2::/64", "2001:dbe:1:2:3::/80",
        "2001:dbf::/44",
    ]  # fmt: skip
    PINNED = {
        ("bgp-48", None): (76, "918fdbcf22f1ce95", "54320faef54a70a5"),
        ("bgp-48", 30): (30, "d06ad63009620f48", "6250a70daa93a7bb"),
        ("bgp-48", 5): (5, "11f5a064ad88a336", "d46102fb4ebf12ab"),
        ("bgp-64", None): (120, "854bdf64a9284bb8", "12b6066f35a0d33e"),
        ("bgp-64", 30): (30, "3026c59681dc5158", "357685585a65835e"),
        ("bgp-64", 5): (5, "f6a4eb9436a3de17", "357685585a65835e"),
        ("route6-64", None): (61, "4b0594c384a61589", "26b7739e4e47c49d"),
        ("route6-64", 30): (30, "12c43cde92d9ed59", "de5dae93693b9005"),
        ("route6-64", 5): (5, "6ed2fbcbbcba5268", "52772c879e9a5f42"),
        ("route6-64-sparse", None): (20001, "9d5ae8dc0b710a5a", "4d30b8544e350dac"),
        ("route6-64-sparse", 30): (30, "857ccb37f0e50632", "6958fe1d9500f77d"),
        ("route6-64-sparse", 5): (5, "6ed2fbcbbcba5268", "52772c879e9a5f42"),
    }

    @pytest.fixture(scope="class")
    def builders(self):
        bgp = BGPTable()
        for index, text in enumerate(self.ANNOUNCED):
            bgp.add(
                Announcement(
                    prefix=IPv6Prefix.parse(text), origin_asn=64500 + index
                )
            )
        irr = IRRDatabase(
            Route6Object(prefix=IPv6Prefix.parse(text), origin_asn=64500 + index)
            for index, text in enumerate(self.REGISTERED)
        )
        return {
            "bgp-48": lambda rng, cut: bgp_slash48_targets(
                bgp, max_per_prefix=24, max_targets=cut, rng=rng
            ),
            "bgp-64": lambda rng, cut: bgp_slash64_targets(
                bgp, max_per_prefix=40, max_targets=cut, rng=rng
            ),
            "route6-64": lambda rng, cut: route6_slash64_targets(
                irr, per_prefix=12, max_targets=cut, rng=rng
            ),
            "route6-64-sparse": lambda rng, cut: route6_slash64_targets(
                irr, per_prefix=4_000, max_targets=cut, rng=rng
            ),
            "bgp-plain": lambda rng, cut: bgp_plain_targets(bgp, max_targets=cut),
            "hitlist-64": lambda rng, cut: hitlist_slash64_targets(
                [prefix.network | 7 for prefix in bgp.prefixes()], max_targets=cut
            ),
        }

    @pytest.mark.parametrize("case", PINNED, ids=lambda case: f"{case[0]}-{case[1]}")
    def test_targets_and_rng_state_are_pinned(self, builders, case):
        name, cut = case
        rng = random.Random(2024)
        targets = builders[name](rng, cut)
        assert len(set(targets)) == len(targets)
        assert (
            len(targets),
            _digest(targets.targets),
            _digest(rng.getstate()),
        ) == self.PINNED[case]

    @pytest.mark.parametrize(
        "name", ["bgp-plain", "bgp-48", "bgp-64", "route6-64", "hitlist-64"]
    )
    def test_cut_is_a_bound_and_negative_is_refused(self, builders, name):
        untouched = random.Random(3)
        assert len(builders[name](untouched, 0)) == 0  # was 1: cut after append
        assert untouched.getstate() == random.Random(3).getstate()
        assert len(builders[name](random.Random(3), 1)) == 1
        with pytest.raises(ValueError, match="max_targets"):
            builders[name](random.Random(3), -1)

    def test_cut_pulls_no_chunk_and_no_target_past_the_cut(self):
        """``_cut`` takes whole chunks up to the cut, and from a lazy chunk
        only the targets it keeps: nothing past the cut is drawn."""
        pulled = []

        def chunks():
            pulled.append("list")
            yield [1, 2]
            pulled.append("lazy")
            yield (pulled.append(t) or t for t in (3, 4, 5))
            pulled.append("past")
            yield [6]

        assert _cut(chunks(), 4) == [1, 2, 3, 4]
        assert pulled == ["list", "lazy", 3, 4]
        pulled.clear()
        assert _cut(chunks(), 2) == [1, 2]
        assert pulled == ["list"]
        pulled.clear()
        assert _cut(chunks(), 0) == [] and pulled == []
        assert _cut(chunks(), None) == [1, 2, 3, 4, 5, 6]
