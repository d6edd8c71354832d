"""Property-based tests (hypothesis) on core data structures and invariants."""

import random
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.addr.ipv6 import (
    IPv6Prefix,
    format_address,
    network_of,
    parse_address,
    prefix_mask,
)
from repro.addr.partition import _sample_range, hitlist_targets, stage2_by_prefix
from repro.addr.permutation import CyclicPermutation, next_prime
from repro.addr.randomgen import random_targets_for_sras
from repro.addr.sra import is_sra_candidate, sra_address, sra_of
from repro.bgp.lpm import LengthIndexedLPM
from repro.netsim.ratelimit import TokenBucket
from repro.netsim.stochastic import stable_unit
from repro.packet.icmpv6 import ICMPv6Message, echo_request
from repro.packet.ipv6hdr import IPv6Header, internet_checksum
from repro.packet.probe import decode_payload, encode_payload
from repro.topology.generator import _randbelow

addresses = st.integers(min_value=0, max_value=(1 << 128) - 1)
lengths = st.integers(min_value=0, max_value=128)
prefix_pairs = st.tuples(addresses, lengths)


def make_prefix(address: int, length: int) -> IPv6Prefix:
    return IPv6Prefix.of(address, length)


class TestAddressProperties:
    @given(addresses)
    def test_format_parse_roundtrip(self, value):
        assert parse_address(format_address(value)) == value

    @given(addresses, lengths)
    def test_network_idempotent(self, address, length):
        network = network_of(address, length)
        assert network_of(network, length) == network

    @given(addresses, lengths)
    def test_prefix_contains_its_addresses(self, address, length):
        prefix = make_prefix(address, length)
        assert address in prefix
        assert prefix.first in prefix
        assert prefix.last in prefix

    @given(addresses, lengths, lengths)
    def test_supernet_covers(self, address, length_a, length_b):
        longer, shorter = max(length_a, length_b), min(length_a, length_b)
        inner = make_prefix(address, longer)
        outer = inner.supernet(shorter)
        assert outer.covers(inner)

    @given(lengths)
    def test_mask_popcount(self, length):
        assert bin(prefix_mask(length)).count("1") == length

    @given(st.lists(addresses, max_size=60))
    def test_hitlist_targets_distinct_and_aligned(self, hosts):
        targets = list(hitlist_targets(hosts))
        assert len(targets) == len(set(targets))
        for target in targets:
            assert target & ((1 << 64) - 1) == 0
        # Every host maps to exactly one of the emitted targets.
        for host in hosts:
            assert network_of(host, 64) in set(targets)


class TestPermutationProperties:
    @given(st.integers(min_value=1, max_value=3000), st.integers())
    @settings(max_examples=30, deadline=None)
    def test_bijection(self, size, seed):
        values = list(CyclicPermutation(size, seed=seed))
        assert sorted(values) == list(range(size))

    @given(st.integers(min_value=2, max_value=10**7))
    @settings(max_examples=50, deadline=None)
    def test_next_prime_is_prime_and_geq(self, n):
        prime = next_prime(n)
        assert prime >= n
        assert all(prime % d for d in range(2, min(prime, 1000)) if d < prime)


class TestLPMProperties:
    @given(
        st.lists(prefix_pairs, min_size=1, max_size=40),
        st.lists(addresses, min_size=1, max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_lpm_matches_naive_reference(self, pairs, queries):
        lpm = LengthIndexedLPM()
        stored = {}
        for address, length in pairs:
            prefix = make_prefix(address, length)
            stored[prefix] = str(prefix)
            lpm.insert(prefix, str(prefix))
        frozen = lpm.frozen()
        for query in queries:
            naive = max(
                (p for p in stored if query in p),
                key=lambda p: p.length,
                default=None,
            )
            got_lpm = lpm.longest_match(query)
            got_frozen = frozen.longest_match(query)
            if naive is None:
                assert got_lpm is None and got_frozen is None
            else:
                assert got_lpm is not None and got_lpm[0] == naive
                assert got_frozen is not None and got_frozen[0] == naive

    @given(st.lists(prefix_pairs, min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_insert_remove_returns_to_empty(self, pairs):
        lpm = LengthIndexedLPM()
        prefixes = {make_prefix(a, length) for a, length in pairs}
        for prefix in prefixes:
            lpm.insert(prefix, 1)
        assert len(lpm) == len(prefixes)
        for prefix in prefixes:
            assert lpm.remove(prefix)
        assert len(lpm) == 0
        for address, _ in pairs:
            assert lpm.longest_match(address) is None


class TestPacketProperties:
    @given(addresses, addresses, st.binary(max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_icmp_encode_decode_roundtrip(self, src, dst, payload):
        message = echo_request(1, 2, payload)
        raw = message.encode(src, dst)
        decoded = ICMPv6Message.decode(raw, src=src, dst=dst)
        assert decoded.body == payload

    @given(st.binary(max_size=128))
    def test_checksum_of_data_plus_checksum_is_zero(self, data):
        checksum = internet_checksum(data)
        if len(data) % 2:
            data += b"\x00"
        combined = data + checksum.to_bytes(2, "big")
        assert internet_checksum(combined) == 0

    @given(addresses, addresses, st.integers(0, 255), st.integers(0, 0xFFFF))
    def test_header_roundtrip(self, src, dst, hop_limit, payload_length):
        header = IPv6Header(
            src=src, dst=dst, payload_length=payload_length, hop_limit=hop_limit
        )
        assert IPv6Header.decode(header.encode()) == header

    @given(addresses, st.integers(0, (1 << 64) - 1), st.binary(min_size=8, max_size=32))
    @settings(max_examples=60, deadline=None)
    def test_payload_roundtrip_any_key(self, target, probe_id, key):
        payload = encode_payload(target, probe_id, key)
        decoded = decode_payload(payload, key)
        assert decoded is not None
        assert decoded.target == target
        assert decoded.probe_id == probe_id


class TestStage2Properties:
    @given(
        st.lists(
            st.tuples(addresses, st.integers(min_value=20, max_value=52)),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=30, deadline=None)
    def test_stage2_targets_are_distinct_slash48_networks(self, pairs, budget):
        announcements = [make_prefix(a, length) for a, length in pairs]
        rng = random.Random(0)
        chunks = stage2_by_prefix(announcements, max_per_prefix=budget, rng=rng)
        targets = list(chain.from_iterable(chunks))
        assert len(targets) == len(set(targets))
        for target in targets:
            assert network_of(target, 48) == target


class TestSRAProperties:
    subnet_lengths = st.integers(min_value=0, max_value=128)

    @given(addresses, subnet_lengths)
    def test_sra_of_is_idempotent(self, address, length):
        sra = sra_of(address, length)
        assert sra_of(sra, length) == sra

    @given(addresses, subnet_lengths)
    def test_sra_of_yields_a_candidate(self, address, length):
        assert is_sra_candidate(sra_of(address, length), length)

    @given(addresses, subnet_lengths)
    def test_candidate_iff_fixed_point(self, address, length):
        # is_sra_candidate is exactly "sra_of leaves the address alone"
        assert is_sra_candidate(address, length) == (
            sra_of(address, length) == address
        )

    @given(addresses)
    def test_nested_subnet_lengths_compose(self, address):
        # The /48 SRA of an address equals the /48 SRA of its /64 SRA:
        # zeroing host bits commutes with widening the subnet.
        assert sra_of(sra_of(address, 64), 48) == sra_of(address, 48)

    @given(addresses, subnet_lengths)
    def test_sra_address_of_prefix_is_its_network(self, address, length):
        prefix = make_prefix(address, length)
        assert sra_address(prefix) == prefix.network
        assert is_sra_candidate(sra_address(prefix), length)

    @given(addresses)
    def test_zero_length_sra_is_all_zeros(self, address):
        assert sra_of(address, 0) == 0

    @given(addresses)
    def test_full_length_sra_is_identity(self, address):
        assert sra_of(address, 128) == address


# Arbitrary bucket workloads: non-decreasing call times built from gaps,
# with mixed costs (0 = pure refill observation).
bucket_rates = st.floats(min_value=0.5, max_value=100, allow_nan=False)
bucket_bursts = st.integers(min_value=1, max_value=50)
bucket_calls = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=10, allow_nan=False),
        st.floats(min_value=0, max_value=5, allow_nan=False),
    ),
    min_size=1,
    max_size=100,
)


class TestRateLimitProperties:
    @given(
        bucket_rates,
        bucket_bursts,
        st.lists(
            st.floats(min_value=0, max_value=10, allow_nan=False),
            min_size=1,
            max_size=100,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_bucket_never_exceeds_theoretical_budget(self, rate, burst, gaps):
        bucket = TokenBucket(rate=rate, burst=burst)
        now = 0.0
        allowed = 0
        for gap in gaps:
            now += gap
            if bucket.allow(now):
                allowed += 1
        # Conservation: can never pass more than burst + rate*elapsed.
        assert allowed <= burst + rate * now + 1e-6

    @given(bucket_rates, bucket_bursts, bucket_calls)
    @settings(max_examples=50, deadline=None)
    def test_tokens_stay_within_bounds(self, rate, burst, calls):
        # Tokens never go negative and never exceed burst, whatever the
        # (time, cost) sequence thrown at the bucket.
        bucket = TokenBucket(rate=rate, burst=burst)
        now = 0.0
        for gap, cost in calls:
            now += gap
            bucket.allow(now, cost=cost)
            assert 0.0 <= bucket.tokens <= bucket.burst

    @given(
        bucket_rates,
        bucket_bursts,
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_refill_is_monotone_in_elapsed_time(self, rate, burst, t1, t2):
        # Observed on fresh drained buckets via zero-cost calls: waiting
        # longer can only leave more (or equal) tokens.
        earlier, later = sorted((t1, t2))

        def tokens_after(wait):
            bucket = TokenBucket(rate=rate, burst=burst, initial=0.0)
            bucket.allow(wait, cost=0.0)
            return bucket.tokens

        assert tokens_after(earlier) <= tokens_after(later) + 1e-12

    @given(bucket_rates, bucket_bursts, bucket_calls)
    @settings(max_examples=50, deadline=None)
    def test_denials_counts_exactly_the_false_returns(
        self, rate, burst, calls
    ):
        bucket = TokenBucket(rate=rate, burst=burst)
        now = 0.0
        denied = 0
        for gap, cost in calls:
            now += gap
            if not bucket.allow(now, cost=cost):
                denied += 1
        assert bucket.denials == denied

    @given(bucket_rates, bucket_bursts, bucket_calls)
    @settings(max_examples=25, deadline=None)
    def test_denials_survive_reset(self, rate, burst, calls):
        # The denial counter is a lifetime observability counter: reset()
        # refills tokens but never rewrites history.
        bucket = TokenBucket(rate=rate, burst=burst)
        now = 0.0
        for gap, cost in calls:
            now += gap
            bucket.allow(now, cost=cost)
        before = bucket.denials
        bucket.reset()
        assert bucket.denials == before
        assert bucket.tokens == bucket.burst


class TestStochasticProperties:
    @given(st.integers(), st.lists(st.integers(), max_size=4))
    def test_stable_unit_is_pure(self, seed, keys):
        a = stable_unit(seed, b"purpose", *keys)
        b = stable_unit(seed, b"purpose", *keys)
        assert a == b
        assert 0.0 <= a < 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.lists(st.integers(min_value=1, max_value=1 << 70), min_size=1, max_size=8),
    )
    def test_randbelow_is_randrange(self, seed, bounds):
        """World generation draws ``randrange``/``choice`` through
        ``_randbelow``; a run of its draws must be ``Random.randrange``'s,
        and leave the generator in the same state (same getrandbits calls).
        If CPython ever changes ``Random._randbelow``, this says so."""
        expected, actual = random.Random(seed), random.Random(seed)
        getrandbits = actual.getrandbits
        assert [_randbelow(getrandbits, n) for n in bounds] == [
            expected.randrange(n) for n in bounds
        ]
        assert actual.random() == expected.random()

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
        n=st.one_of(
            st.integers(min_value=0, max_value=5_000),
            st.integers(min_value=0, max_value=1 << 24),
        ),
        share=st.floats(min_value=0.0, max_value=1.0),
    )
    # Both of CPython's branches at their edges: the pool (n <= setsize)
    # and the set, where setsize is 21 up to k = 5, then 21 + 4**ceil(...).
    @example(seed=1, n=21, share=1.0)
    @example(seed=1, n=22, share=5 / 22)
    @example(seed=1, n=1_045, share=128 / 1_045)
    @example(seed=1, n=1_046, share=128 / 1_046)
    @example(seed=1, n=1 << 24, share=2_000 / (1 << 24))
    def test_sample_range_is_sample(self, seed, n, share):
        """The partition generators draw their per-prefix samples through
        ``_sample_range``: it must be ``Random.sample(range(n), k)``, and
        leave the generator in the same state, on both of its branches.
        If CPython ever changes ``Random.sample``, this says so."""
        k = min(round(n * share), 4_000)
        expected, actual = random.Random(seed), random.Random(seed)
        assert _sample_range(n, k, actual) == expected.sample(range(n), k)
        assert actual.getstate() == expected.getstate()

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
        length=st.sampled_from([48, 64, 127]),
        networks=st.lists(addresses, max_size=40),
    )
    def test_random_targets_are_randrange(self, seed, length, networks):
        """The Fig. 5 baseline draws ``sra + randrange(1, span)`` per SRA,
        with ``randrange``'s getrandbits calls."""
        sras = [network & prefix_mask(length) for network in networks]
        span = 1 << (128 - length)
        expected, actual = random.Random(seed), random.Random(seed)
        assert list(random_targets_for_sras(sras, length, actual)) == [
            sra + expected.randrange(1, span) for sra in sras
        ]
        assert actual.getstate() == expected.getstate()

    def test_random_targets_refuse_a_slash128(self):
        sra = parse_address("2001:db8::1")
        with pytest.raises(ValueError):
            random.Random(1).randrange(1, 1)
        with pytest.raises(ValueError):
            list(random_targets_for_sras([sra], 128, random.Random(1)))


class TestContributionProperties:
    """Accounting invariants of ``contribute_to_hitlist``.

    Pins the fixed tally semantics: every distinct candidate source is
    counted exactly once, and the alias verdict is applied before (and
    identically regardless of) the echo/error-only distinction.
    """

    sources = st.sets(st.integers(min_value=0, max_value=511), max_size=40)

    @staticmethod
    def _scan(echo, error):
        from repro.scanner.records import ScanRecord, ScanResult

        result = ScanResult(
            name="scan", epoch=0, sent=len(echo | error), duration=1.0
        )
        result.records = [
            ScanRecord(target=s, source=s, icmp_type=129, code=0, time=0.0)
            for s in sorted(echo)
        ] + [
            ScanRecord(target=s, source=s, icmp_type=1, code=3, time=0.0)
            for s in sorted(error)
        ]
        return result

    @staticmethod
    def _contribute(echo, error, **kwargs):
        from repro.analysis.hitlist_feedback import contribute_to_hitlist
        from repro.hitlist.hitlist import Hitlist

        scan = TestContributionProperties._scan(echo, error)
        return contribute_to_hitlist(Hitlist(), [scan], **kwargs)

    @staticmethod
    def _aliases():
        from repro.hitlist.aliases import AliasedPrefixList

        # Aliased region = addresses 0..127, a deterministic boundary the
        # strategies straddle.
        return AliasedPrefixList([IPv6Prefix(0, 121)])

    @given(echo=sources, error=sources, include=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_considered_counts_every_candidate(self, echo, error, include):
        report = self._contribute(
            echo,
            error,
            alias_list=self._aliases(),
            include_error_sources=include,
        )
        # considered == |echo ∪ error_only| == |echo ∪ error|: every
        # distinct source lands in exactly one tally bucket.
        assert report.considered == len(echo | error)
        assert report.added == len(report.new_addresses)
        assert report.already_known == 0  # fresh hitlist each run

    @given(echo=sources, error=sources)
    @settings(max_examples=60, deadline=None)
    def test_alias_rejection_ignores_reply_type(self, echo, error):
        """Swapping which replies are echo vs error must not move a
        single address between the aliased tally and any other."""
        forward = self._contribute(echo, error, alias_list=self._aliases())
        swapped = self._contribute(error, echo, alias_list=self._aliases())
        expected = len({s for s in echo | error if s < 128})
        assert forward.rejected_aliased == expected
        assert swapped.rejected_aliased == expected
        assert forward.considered == swapped.considered

    @given(echo=sources, error=sources)
    @settings(max_examples=60, deadline=None)
    def test_tallies_partition_exactly(self, echo, error):
        report = self._contribute(echo, error, alias_list=self._aliases())
        error_only = error - echo
        assert report.rejected_error_only == len(
            {s for s in error_only if s >= 128}
        )
        assert report.added == len({s for s in echo if s >= 128})
        assert sorted(report.new_addresses) == report.new_addresses
