"""Unit tests for the int-backed IPv6 address/prefix primitives."""

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addr.ipv6 import (
    MAX_ADDRESS,
    AddressError,
    IPv6Prefix,
    format_address,
    network_of,
    parse_address,
    prefix_mask,
)


class TestParseAddress:
    def test_parses_canonical(self):
        assert parse_address("::1") == 1

    def test_parses_full_form(self):
        value = parse_address("2001:0db8:0000:0000:0000:0000:0000:0001")
        assert value == 0x20010DB8000000000000000000000001

    def test_parses_compressed(self):
        assert parse_address("2001:db8::1") == 0x20010DB8000000000000000000000001

    def test_parses_all_zeros(self):
        assert parse_address("::") == 0

    def test_parses_max(self):
        assert parse_address("ffff" + ":ffff" * 7) == MAX_ADDRESS

    def test_rejects_ipv4(self):
        with pytest.raises(AddressError):
            parse_address("192.0.2.1")

    def test_rejects_garbage(self):
        with pytest.raises(AddressError):
            parse_address("not-an-address")

    def test_rejects_too_many_groups(self):
        with pytest.raises(AddressError):
            parse_address("1:2:3:4:5:6:7:8:9")


class TestFormatAddress:
    def test_compresses(self):
        assert format_address(0x20010DB8000000000000000000000001) == "2001:db8::1"

    def test_zero(self):
        assert format_address(0) == "::"

    def test_roundtrip(self):
        for text in ("2001:db8::", "fe80::1", "::ffff:0:1", "2001:db8:1:2:3:4:5:6"):
            assert format_address(parse_address(text)) == text

    def test_rejects_negative(self):
        with pytest.raises(AddressError):
            format_address(-1)

    def test_rejects_overflow(self):
        with pytest.raises(AddressError):
            format_address(1 << 128)

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.sampled_from([0, 1, 0xFFFF]) | st.integers(0, 0xFFFF),
            min_size=8,
            max_size=8,
        )
    )
    def test_matches_stdlib_group_by_group(self, groups):
        # Groups drawn from {0, 1, 0xffff, random}, so zero runs of every
        # shape and ties between runs come up; the embedded-IPv4 prefixes
        # are pinned by the fixed values of the sweep below.
        value = 0
        for group in groups:
            value = value << 16 | group
        assert format_address(value) == ipaddress.IPv6Address(value).compressed

    def test_matches_stdlib_on_structured_and_random_values(self):
        # libc's inet_ntop does the compression; pin it against the stdlib
        # on values that exercise every zero-run shape plus a
        # pseudo-random sweep.
        import random

        values = [0, 1, MAX_ADDRESS, 0x20010DB8000000000000000000000001]
        # inet_ntop writes ::/96 and ::ffff:0:0/96 with a dotted-quad tail.
        values += [0x0102_0304, 0xFFFF_0000_0000, 0xFFFF_0102_0304, 1 << 112]
        for group in range(8):  # single non-zero group in every position
            values.append(0xBEEF << (16 * group))
        for start in range(8):  # zero runs of every length and position
            for length in range(1, 8 - start + 1):
                address = MAX_ADDRESS
                for group in range(start, start + length):
                    address &= ~(0xFFFF << (16 * group))
                values.append(address)
        rng = random.Random(7)
        values.extend(rng.getrandbits(128) for _ in range(2000))
        values.extend(rng.getrandbits(64) << 64 for _ in range(500))
        for value in values:
            assert format_address(value) == str(ipaddress.IPv6Address(value))


class TestMasks:
    def test_mask_zero(self):
        assert prefix_mask(0) == 0

    def test_mask_full(self):
        assert prefix_mask(128) == MAX_ADDRESS

    def test_mask_32(self):
        assert prefix_mask(32) == 0xFFFFFFFF << 96

    def test_mask_invalid(self):
        with pytest.raises(AddressError):
            prefix_mask(129)
        with pytest.raises(AddressError):
            prefix_mask(-1)

    def test_network_of(self):
        address = parse_address("2001:db8:abcd:1234::42")
        assert network_of(address, 48) == parse_address("2001:db8:abcd::")

    def test_all_129_table_entries(self):
        # prefix_mask and IPv6Prefix.last read a precomputed 129-entry
        # table; verify every entry against the arithmetic definition.
        for length in range(129):
            expected = (MAX_ADDRESS << (128 - length)) & MAX_ADDRESS
            assert prefix_mask(length) == expected
            address = 0x20010DB8FEDCBA9876543210FFFF0001
            last = (address & expected) | (MAX_ADDRESS ^ expected)
            assert IPv6Prefix.of(address, length).last == last


class TestIPv6Prefix:
    def test_parse(self):
        prefix = IPv6Prefix.parse("2001:db8::/32")
        assert prefix.network == parse_address("2001:db8::")
        assert prefix.length == 32

    def test_parse_rejects_host_bits(self):
        with pytest.raises(AddressError):
            IPv6Prefix.parse("2001:db8::1/32")

    def test_parse_requires_slash(self):
        with pytest.raises(AddressError):
            IPv6Prefix.parse("2001:db8::")

    def test_parse_rejects_bad_length(self):
        with pytest.raises(AddressError):
            IPv6Prefix.parse("2001:db8::/xx")
        with pytest.raises(AddressError):
            IPv6Prefix.parse("2001:db8::/129")

    def test_of_masks_host_bits(self):
        prefix = IPv6Prefix.of(parse_address("2001:db8::1234"), 64)
        assert prefix == IPv6Prefix.parse("2001:db8::/64")

    def test_str(self):
        assert str(IPv6Prefix.parse("2001:db8::/48")) == "2001:db8::/48"

    def test_contains(self):
        prefix = IPv6Prefix.parse("2001:db8::/32")
        assert parse_address("2001:db8:ffff::1") in prefix
        assert parse_address("2001:db9::") not in prefix

    def test_first_last(self):
        prefix = IPv6Prefix.parse("2001:db8::/126")
        assert prefix.first == parse_address("2001:db8::")
        assert prefix.last == parse_address("2001:db8::3")

    def test_num_addresses(self):
        assert IPv6Prefix.parse("2001:db8::/127").num_addresses == 2
        assert IPv6Prefix.parse("::/0").num_addresses == 1 << 128

    def test_covers(self):
        outer = IPv6Prefix.parse("2001:db8::/32")
        inner = IPv6Prefix.parse("2001:db8:1::/48")
        assert outer.covers(inner)
        assert outer.covers(outer)
        assert not inner.covers(outer)

    def test_covers_disjoint(self):
        a = IPv6Prefix.parse("2001:db8::/32")
        b = IPv6Prefix.parse("2001:db9::/48")
        assert not a.covers(b)

    def test_supernet(self):
        prefix = IPv6Prefix.parse("2001:db8:1234::/48")
        assert prefix.supernet(32) == IPv6Prefix.parse("2001:db8::/32")

    def test_supernet_rejects_longer(self):
        with pytest.raises(AddressError):
            IPv6Prefix.parse("2001:db8::/32").supernet(48)

    def test_subnets_enumeration(self):
        prefix = IPv6Prefix.parse("2001:db8::/126")
        subnets = list(prefix.subnets(128))
        assert len(subnets) == 4
        assert subnets[0].network == prefix.network
        assert subnets[-1].network == prefix.last

    def test_subnets_same_length(self):
        prefix = IPv6Prefix.parse("2001:db8::/64")
        assert list(prefix.subnets(64)) == [prefix]

    def test_subnets_rejects_shorter(self):
        with pytest.raises(AddressError):
            list(IPv6Prefix.parse("2001:db8::/64").subnets(48))

    def test_ordering_groups_covering_first(self):
        prefixes = [
            IPv6Prefix.parse("2001:db8:1::/48"),
            IPv6Prefix.parse("2001:db8::/32"),
            IPv6Prefix.parse("2001:db8::/48"),
        ]
        ordered = sorted(prefixes)
        assert ordered[0] == IPv6Prefix.parse("2001:db8::/32")
        assert ordered[1] == IPv6Prefix.parse("2001:db8::/48")

    def test_hashable(self):
        assert len({IPv6Prefix.parse("::/0"), IPv6Prefix.parse("::/0")}) == 1
