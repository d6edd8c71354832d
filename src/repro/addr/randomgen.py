"""Random target-address generation for the random-probing baseline.

The paper's random-probing comparison (Fig. 5) draws, for each /64 subnet,
one random address with non-zero host bits — the straw-man the SRA method is
measured against.  Drawing a *random* interface identifier has an almost-zero
chance of hitting an assigned host, so replies come from routers as ICMPv6
error messages (subject to rate limiting) rather than Echo replies.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

from .ipv6 import ADDRESS_BITS, IPv6Prefix


def random_address_in(prefix: IPv6Prefix, rng: random.Random) -> int:
    """A uniformly random address inside ``prefix`` with host bits != 0."""
    span = prefix.num_addresses
    if span == 1:
        return prefix.network
    return prefix.network + rng.randrange(1, span)


def random_targets(
    subnets: Iterable[IPv6Prefix], rng: random.Random
) -> Iterator[int]:
    """One random in-subnet address per subnet (the Fig. 5 baseline)."""
    for subnet in subnets:
        yield random_address_in(subnet, rng)


def random_targets_for_sras(
    sra_addresses: Iterable[int], subnet_length: int, rng: random.Random
) -> Iterator[int]:
    """Random-probing targets for the same /``subnet_length`` subnets as
    a list of SRA addresses, enabling apples-to-apples SRA vs random runs.

    Each target is ``sra + rng.randrange(1, span)``, drawn with exactly
    that call's ``getrandbits`` calls; a /128 has no host bits to draw
    and raises :class:`ValueError` like ``randrange(1, 1)``.
    """
    width = (1 << (ADDRESS_BITS - subnet_length)) - 1
    if width <= 0:
        raise ValueError(f"a /{subnet_length} subnet has no random address")
    getrandbits = rng.getrandbits
    bits = width.bit_length()
    for sra in sra_addresses:
        offset = getrandbits(bits)
        while offset >= width:
            offset = getrandbits(bits)
        yield sra + 1 + offset
