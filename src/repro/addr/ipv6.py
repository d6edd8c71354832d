"""Integer-backed IPv6 address and prefix primitives.

The scanner and simulator handle millions of addresses, so the hot-path
representation is a plain ``int`` in ``[0, 2**128)``.  :class:`IPv6Prefix`
is a small immutable value object; free functions operate directly on ints
so tight loops never allocate.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from itertools import repeat
from socket import AF_INET6, inet_ntop
from typing import Iterable, Iterator, Sequence

ADDRESS_BITS = 128
MAX_ADDRESS = (1 << ADDRESS_BITS) - 1

# Precomputed mask tables, one entry per prefix length 0..128.  Mask math
# sits under every LPM probe and prefix normalisation, so the hot path
# indexes these tuples instead of shifting 128-bit ints on every call.
_NETWORK_MASKS: tuple[int, ...] = tuple(
    MAX_ADDRESS ^ ((1 << (ADDRESS_BITS - length)) - 1) if length else 0
    for length in range(ADDRESS_BITS + 1)
)


class AddressError(ValueError):
    """Raised for malformed addresses or prefixes."""


def parse_address(text: str) -> int:
    """Parse an IPv6 address in any RFC 4291 textual form to an int."""
    try:
        return int(ipaddress.IPv6Address(text))
    except (ipaddress.AddressValueError, ValueError) as exc:
        raise AddressError(f"invalid IPv6 address: {text!r}") from exc


def format_address(value: int) -> str:
    """Render an int as compressed IPv6 text (RFC 5952).

    Validation is one range check; libc's ``inet_ntop`` does the zero-run
    compression.  It writes the low 32 bits of ``::/96`` and
    ``::ffff:0:0/96`` as a dotted quad, rewritten here as two hex groups,
    the way ``ipaddress`` and every other address render.
    """
    if not 0 <= value <= MAX_ADDRESS:
        raise AddressError(f"address out of range: {value:#x}")
    text = inet_ntop(AF_INET6, value.to_bytes(16, "big"))
    if "." not in text:
        return text
    head, _, quad = text.rpartition(":")
    a, b, c, d = map(int, quad.split("."))
    return f"{head}:{a << 8 | b:x}:{c << 8 | d:x}"


def prefix_mask(length: int) -> int:
    """Network mask for a prefix of ``length`` bits, as an int."""
    if not 0 <= length <= ADDRESS_BITS:
        raise AddressError(f"invalid prefix length: {length}")
    return _NETWORK_MASKS[length]


# ---------------------------------------------------------------------- #
# int-pair (hi, lo) columns — the one definition of how the columnar probe
# batches and the shared-memory shard transport pack addresses: parallel
# array('Q') hi/lo words instead of arbitrary-precision ints.
# ---------------------------------------------------------------------- #

_WORD_MASK = (1 << 64) - 1


def split_into(values: Sequence[int], hi_out, lo_out) -> None:
    """Append the hi/lo words of ``values`` to two columns, in bulk."""
    hi_out.extend(map(int.__rshift__, values, repeat(64)))
    lo_out.extend(map(int.__and__, values, repeat(_WORD_MASK)))


def join_columns(hi: Iterable[int], lo: Iterable[int]) -> Iterator[int]:
    """The 128-bit ints of hi/lo columns (the inverse of :func:`split_into`)."""
    return map(int.__or__, map(int.__lshift__, hi, repeat(64)), lo)


def network_of(address: int, length: int) -> int:
    """The network (lowest) address of ``address``'s ``/length`` prefix."""
    if not 0 <= length <= ADDRESS_BITS:
        raise AddressError(f"invalid prefix length: {length}")
    return address & _NETWORK_MASKS[length]


def set_slots(self, state: list) -> None:
    """``__setstate__`` of a frozen slots dataclass: its slots from the list
    the dataclass's ``__getstate__`` pickled, minus its ``fields()`` walk."""
    for name, value in zip(self.__slots__, state):
        object.__setattr__(self, name, value)


@dataclass(frozen=True, slots=True, order=True)
class IPv6Prefix:
    """An IPv6 prefix (network, length) with the network bits normalised.

    Ordering is (network, length), which groups covering prefixes before
    their more specifics and keeps sorted prefix lists trie-friendly.
    """

    network: int
    length: int
    __setstate__ = set_slots

    def __post_init__(self) -> None:
        if not 0 <= self.length <= ADDRESS_BITS:
            raise AddressError(f"invalid prefix length: {self.length}")
        if not 0 <= self.network <= MAX_ADDRESS:
            raise AddressError(f"network out of range: {self.network:#x}")
        if self.network & ~prefix_mask(self.length) & MAX_ADDRESS:
            raise AddressError(
                f"host bits set in {format_address(self.network)}/{self.length}"
            )

    @classmethod
    def parse(cls, text: str) -> "IPv6Prefix":
        """Parse ``2001:db8::/32`` notation; host bits must be zero."""
        if "/" not in text:
            raise AddressError(f"missing prefix length: {text!r}")
        addr_text, _, len_text = text.partition("/")
        try:
            length = int(len_text)
        except ValueError as exc:
            raise AddressError(f"invalid prefix length: {len_text!r}") from exc
        return cls(parse_address(addr_text), length)

    @classmethod
    def of(cls, address: int, length: int) -> "IPv6Prefix":
        """Prefix of the given length containing ``address``."""
        return cls(network_of(address, length), length)

    def __str__(self) -> str:
        return f"{format_address(self.network)}/{self.length}"

    def __contains__(self, address: int) -> bool:
        return network_of(address, self.length) == self.network

    @property
    def first(self) -> int:
        """The lowest address in the prefix (== the SRA address)."""
        return self.network

    @property
    def last(self) -> int:
        """The highest address in the prefix."""
        return self.network | (_NETWORK_MASKS[self.length] ^ MAX_ADDRESS)

    @property
    def num_addresses(self) -> int:
        return 1 << (ADDRESS_BITS - self.length)

    def covers(self, other: "IPv6Prefix") -> bool:
        """True if ``other`` is equal to or more specific than this prefix."""
        return (
            other.length >= self.length
            and network_of(other.network, self.length) == self.network
        )

    def supernet(self, length: int) -> "IPv6Prefix":
        """The covering prefix of the given (shorter or equal) length."""
        if length > self.length:
            raise AddressError(
                f"supernet length {length} more specific than /{self.length}"
            )
        return IPv6Prefix.of(self.network, length)

    def subnets(self, new_length: int) -> Iterator["IPv6Prefix"]:
        """Iterate all subnets of ``new_length`` in address order.

        Careful: a /32 has 2**16 /48 subnets and 2**32 /64 subnets; callers
        partitioning to /64 should stream, not materialise.
        """
        if new_length < self.length:
            raise AddressError(
                f"cannot subnet /{self.length} into shorter /{new_length}"
            )
        if new_length > ADDRESS_BITS:
            raise AddressError(f"invalid prefix length: {new_length}")
        step = 1 << (ADDRESS_BITS - new_length)
        for network in range(self.network, self.last + 1, step):
            yield IPv6Prefix(network, new_length)
