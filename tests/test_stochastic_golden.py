"""Golden-value tests for the stable randomness primitives.

The probe hot path rewrote ``stochastic.py`` around a memoised keyed
hasher (see its module docstring).  These values were captured from the
original straight-line implementation *before* that rewrite; any drift
here silently reshuffles every simulated world, so the exact floats are
pinned — not just statistical properties.
"""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.netsim.stochastic import (
    base_hasher,
    bernoulli_threshold,
    prepared_unit,
    stable_bool,
    stable_unit,
)

# (seed, purpose, keys) -> exact stable_unit output of the pre-rewrite
# implementation.  Chosen to cover every packing branch:
#   * no keys at all,
#   * keys at the 62-bit boundary ((1<<62)-1 packs one word, 1<<62 packs
#     two — bit_length crosses 62),
#   * full 128-bit IPv6 addresses (the high-half second word),
#   * negative keys (two's-complement masking),
#   * seed masking to 64 bits (negative and >= 2**64 seeds),
#   * more than eight packed words (the non-prebuilt struct fallback).
GOLDEN = {
    (0, b"loss", ()): 0.6501517727431476,
    (1, b"loss", (0,)): 0.34678838363114795,
    (7, b"loss", (1, 2, 3)): 0.5611844699518926,
    (7, b"flaky", ((1 << 62) - 1,)): 0.7265942170208153,
    (7, b"flaky", (1 << 62,)): 0.4582170040921983,
    (7, b"flaky", (1 << 63,)): 0.5598742220993775,
    (7, b"host", ((1 << 128) - 1,)): 0.5742440875125319,
    (42, b"direct", (0x20010DB8000000000000000000000001, 9, 4)): 0.07007392971913645,
    (42, b"direct", (-1,)): 0.5775492320707498,
    (42, b"direct", (-(1 << 63),)): 0.13167732392299658,
    (-5, b"bgwin", (3, 4)): 0.8103762329476208,
    (2**64 + 5, b"bgwin", (3, 4)): 0.832840609065574,
    (5, b"bgwin", (3, 4)): 0.832840609065574,
    (11, b"aggroute", (64512, 0x20010DB8 << 24)): 0.6560838383218297,
    # Five 128-bit keys pack ten words — past the eight prebuilt Structs.
    (3, b"loss", tuple((1 << 127) | i for i in range(5))): 0.6420184721647056,
    (3, b"loss", tuple(range(9))): 0.6485117066201472,
}


class TestStableUnitGolden:
    @pytest.mark.parametrize(
        "seed,purpose,keys,expected",
        [(s, p, k, v) for (s, p, k), v in GOLDEN.items()],
        ids=[f"{s}/{p.decode()}/{len(k)}keys" for (s, p, k) in GOLDEN],
    )
    def test_exact_value(self, seed, purpose, keys, expected):
        assert stable_unit(seed, purpose, *keys) == expected

    def test_high_half_branch_changes_digest(self):
        # A 128-bit key must not collide with its own low 63 bits: the
        # packing appends the high half as a second word.
        address = (1 << 127) | 12345
        low_only = address & 0x7FFFFFFFFFFFFFFF
        assert stable_unit(7, b"host", address) != stable_unit(
            7, b"host", low_only
        )

    def test_seed_masked_to_64_bits(self):
        # The keyed hasher's key is seed mod 2**64 — aliasing is pinned.
        assert stable_unit(2**64 + 5, b"bgwin", 3, 4) == stable_unit(
            5, b"bgwin", 3, 4
        )
        assert stable_unit(-5, b"bgwin", 3, 4) != stable_unit(5, b"bgwin", 3, 4)

    def test_repeated_draws_identical(self):
        # The memoised base hasher must never accumulate state: drawing
        # twice (interleaved with other purposes) gives the same float.
        first = stable_unit(7, b"loss", 1, 2, 3)
        stable_unit(7, b"flaky", 99)
        stable_unit(8, b"loss", 1, 2, 3)
        assert stable_unit(7, b"loss", 1, 2, 3) == first


class TestPreparedUnit:
    """The prepared draw is ``stable_unit`` with the set-up hoisted."""

    @pytest.mark.parametrize(
        "seed,purpose,keys,expected",
        [(s, p, k, v) for (s, p, k), v in GOLDEN.items()],
        ids=[f"{s}/{p.decode()}/{len(k)}keys" for (s, p, k) in GOLDEN],
    )
    def test_reproduces_every_golden(self, seed, purpose, keys, expected):
        # Covers the fast path (small non-negative words), the > 62-bit
        # split and negative words (fallback), and the zero- and
        # nine-plus-word counts that have no prebuilt packer.
        assert prepared_unit(seed, purpose, len(keys))(*keys) == expected

    @pytest.mark.parametrize(
        "words",
        [
            (0, 0, 0),
            (5, 3, (1 << 62) - 1),  # the last word that packs as itself
            (5, 3, 1 << 62),
            (1 << 62, 3, 4),
            (5, 1 << 63, 4),
            (5, 3, (1 << 128) - 1),
            (-1, 3, 4),
            (5, 3, -1),
            (5, -(1 << 63), 4),
        ],
    )
    def test_out_of_range_words_fall_back_and_match(self, words):
        unit = prepared_unit(7, b"bgwin", 3)
        assert unit(*words) == stable_unit(7, b"bgwin", *words)

    def test_repeated_draws_identical(self):
        unit = prepared_unit(7, b"bgjit", 2)
        first = unit(12, 3)
        unit(13, 3)
        assert unit(12, 3) == first == stable_unit(7, b"bgjit", 12, 3)


# Every probability the engine draws with, and the edges of the range.
PROBABILITIES = (
    0.0, 5e-324, 0.01, 0.5, 0.55, 0.85, 0.96, 1 - 2**-53, 1.0, 1.5
)  # fmt: skip


def _below(digest: bytes, probability: float) -> bool:
    """The draw ``stable_unit`` callers make on a digest."""
    return int.from_bytes(digest, "big") / 2**64 < probability


class TestBernoulliThreshold:
    """``digest < T(p)`` is ``unit(digest) < p``, for every digest."""

    @staticmethod
    def _check(probability, values):
        threshold = bernoulli_threshold(probability)
        edge = int.from_bytes(threshold, "big")
        for value in (*values, edge - 1, edge, edge + 1, 0, 2**64 - 1):
            digest = min(max(value, 0), 2**64 - 1).to_bytes(8, "big")
            assert (digest < threshold) == _below(digest, probability), (
                probability,
                value,
            )

    @pytest.mark.parametrize("probability", PROBABILITIES)
    def test_engine_probabilities_at_the_edge(self, probability):
        self._check(probability, ())

    @given(
        st.floats(allow_nan=True, allow_infinity=True),
        st.lists(st.integers(0, 2**64 - 1), max_size=8),
    )
    @example(float("nan"), [0])
    @example(float("inf"), [2**64 - 1])
    @example(-0.0, [0])
    @example(2**-64, [0, 1, 2])
    def test_equivalent_for_any_probability(self, probability, values):
        self._check(probability, values)

    @given(st.floats(0.0, 1.0), st.integers(0, 2**64 - 1))
    def test_equivalent_on_the_unit_interval(self, probability, value):
        self._check(probability, (value,))

    def test_degenerate_probabilities(self):
        assert bernoulli_threshold(0.0) == bytes(8)  # nothing is below
        assert bytes([255] * 8) < bernoulli_threshold(1.5)  # everything is
        # 1.0 is not "always": units within 2**-54 of 1 round up to it.
        assert bernoulli_threshold(1.0) == (2**64 - 2**10).to_bytes(8, "big")

    def test_agrees_with_stable_bool_on_a_real_draw(self):
        for probability in PROBABILITIES[2:7]:
            threshold = bernoulli_threshold(probability)
            for key in range(200):
                hasher = base_hasher(7, b"loss").copy()
                hasher.update((key).to_bytes(8, "big"))
                assert (hasher.digest() < threshold) == stable_bool(
                    7, b"loss", probability, key
                )


class TestBaseHasher:
    def test_memoised_per_seed_purpose(self):
        assert base_hasher(7, b"loss") is base_hasher(7, b"loss")
        assert base_hasher(7, b"loss") is not base_hasher(7, b"flaky")
        assert base_hasher(7, b"loss") is not base_hasher(8, b"loss")

    def test_copy_matches_stable_unit(self):
        # The engine's inlined loss draw copies the base hasher and packs
        # the key words itself; the contract is digest equality.
        import struct

        hasher = base_hasher(7, b"loss").copy()
        hasher.update(struct.pack(">3q", 1, 2, 3))
        value = int.from_bytes(hasher.digest(), "big") / float(1 << 64)
        assert value == stable_unit(7, b"loss", 1, 2, 3)


class TestStableBool:
    def test_degenerate_probabilities_skip_hashing(self):
        assert stable_bool(7, b"loss", 0.0, 123) is False
        assert stable_bool(7, b"loss", -1.0, 123) is False
        assert stable_bool(7, b"loss", 1.0, 123) is True
        assert stable_bool(7, b"loss", 2.0, 123) is True

    def test_threshold_agrees_with_stable_unit(self):
        value = stable_unit(7, b"loss", 123, 456, 0)
        assert stable_bool(7, b"loss", value + 1e-9, 123, 456, 0) is True
        assert stable_bool(7, b"loss", value - 1e-9, 123, 456, 0) is False

    def test_golden_draw(self):
        # Pinned from the pre-rewrite implementation.
        assert stable_bool(7, b"loss", 0.3, 123, 456, 0) is True
