"""Partitioning the routable address space into SRA probing targets.

Implements the paper's three-stage construction (§3.1, Fig. 2):

* **Stage 1** — probe the SRA address of each announced prefix unchanged.
* **Stage 2** — partition every announcement into /48 subnets (all values of
  the 16-bit block following the announced prefix).  Announcements more
  specific than /48 contribute the SRA of their /48 *supernet*, unless that
  supernet is covered by another announcement.
* **Stage 3** — partition /48 announcements further into /64 subnets.

Plus the two non-BGP constructions:

* **Route(6)** — for each registered route6 prefix, up to ``k`` *random*
  /64 subnets (the paper uses k = 10 000).
* **Hitlist** — the /64 SRA of every host address on a hitlist, deduplicated.

Real-world stage 2/3 yields billions of targets; all generators stream and
accept an optional per-prefix sample budget so scaled-down experiments stay
cheap while preserving the selection semantics.

Targets are plain integers end to end — ``network | (index << shift)`` —
never an :class:`IPv6Prefix` per target: arguments are checked once per
prefix, and every generator emits each target once, through the one
``seen`` set of :func:`_distinct` (the builders in
:mod:`repro.scanner.targets` only cut the stream).  Random draws happen
per prefix, when the consumer reaches it, so a consumer that stops early
leaves the ``rng`` where the last prefix it touched left it.
"""

from __future__ import annotations

import random
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .ipv6 import ADDRESS_BITS, AddressError, IPv6Prefix, prefix_mask

STAGE2_LENGTH = 48
STAGE3_LENGTH = 64


def _distinct(targets: Iterable[int]) -> Iterator[int]:
    """``targets`` in order, first occurrences only."""
    seen: set[int] = set()
    for target in targets:
        if target not in seen:
            seen.add(target)
            yield target


def stage1_targets(announcements: Iterable[IPv6Prefix]) -> Iterator[int]:
    """SRA address of every announced prefix, as announced (Stage 1)."""
    return _distinct(prefix.network for prefix in announcements)


def stage2_targets(
    announcements: Sequence[IPv6Prefix],
    *,
    max_per_prefix: int | None = None,
    rng: random.Random | None = None,
) -> Iterator[int]:
    """SRA addresses of the /48 partition of all announcements (Stage 2).

    Announcements more specific than /48 are lifted to their /48 supernet
    unless another announcement covers that supernet (the paper found ~3 k
    such more-specifics).  With ``max_per_prefix`` set, at most that many
    /48 subnets are drawn per announcement — uniformly at random when an
    ``rng`` is given, else the first ones in address order.
    """
    # "Another" announcement covering a /48 is a strictly shorter one:
    # their networks, by length mask.
    shorter: dict[int, set[int]] = {}
    for prefix in announcements:
        if prefix.length < STAGE2_LENGTH:
            shorter.setdefault(prefix_mask(prefix.length), set()).add(
                prefix.network
            )
    slash48 = prefix_mask(STAGE2_LENGTH)

    def candidates(prefix: IPv6Prefix) -> Iterable[int]:
        if prefix.length <= STAGE2_LENGTH:
            return _partition(prefix, STAGE2_LENGTH, max_per_prefix, rng)
        supernet = prefix.network & slash48
        if any(supernet & mask in shorter[mask] for mask in shorter):
            return ()
        return (supernet,)

    return _distinct(chain.from_iterable(map(candidates, announcements)))


def stage3_targets(
    announcements: Iterable[IPv6Prefix],
    *,
    max_per_prefix: int | None = None,
    rng: random.Random | None = None,
) -> Iterator[int]:
    """SRA addresses of the /64 partition of /48 announcements (Stage 3).

    Per the paper, only announcements of length exactly /48 are expanded
    (expanding everything would explode the target count), and nothing more
    specific than a /64 is generated.
    """
    return _distinct(
        chain.from_iterable(
            _partition(prefix, STAGE3_LENGTH, max_per_prefix, rng)
            for prefix in announcements
            if prefix.length == STAGE2_LENGTH
        )
    )


def _first_subnets(prefix: IPv6Prefix, new_length: int, count: int) -> range:
    """Networks of the first ``count`` /``new_length`` subnets of
    ``prefix``, in address order."""
    step = 1 << (ADDRESS_BITS - new_length)
    return range(prefix.network, prefix.network + count * step, step)


def _partition(
    prefix: IPv6Prefix,
    new_length: int,
    max_per_prefix: int | None,
    rng: random.Random | None,
) -> Iterable[int]:
    """Networks of ``prefix``'s /``new_length`` subnets: all of them in
    address order, or ``max_per_prefix`` of them (drawn with ``rng``, else
    the first ones) when there are more."""
    if not prefix.length <= new_length <= ADDRESS_BITS:
        raise AddressError(
            f"cannot subnet /{prefix.length} into /{new_length}"
        )
    if max_per_prefix is not None and max_per_prefix < 0:
        raise ValueError(f"max_per_prefix must be >= 0, got {max_per_prefix}")
    count = 1 << (new_length - prefix.length)
    if max_per_prefix is None or max_per_prefix >= count:
        return _first_subnets(prefix, new_length, count)
    if rng is None:
        return _first_subnets(prefix, new_length, max_per_prefix)
    base = prefix.network
    shift = ADDRESS_BITS - new_length
    return [
        base | (index << shift)
        for index in rng.sample(range(count), max_per_prefix)
    ]


def route6_targets(
    route6_prefixes: Iterable[IPv6Prefix],
    *,
    per_prefix: int = 10_000,
    rng: random.Random,
) -> Iterator[int]:
    """Up to ``per_prefix`` random /64 SRA addresses per route6 object.

    Mirrors the paper's IRR construction: nearly half the route6 objects are
    /48s, so 10 k random /64s cover only ~15 % of each /48's 65 536 /64s —
    the sampling (not enumeration) is deliberate and load-bearing for the
    error-dominated response mix the paper reports for this input.
    """
    if per_prefix < 0:
        raise ValueError(f"per_prefix must be >= 0, got {per_prefix}")
    slash64 = prefix_mask(STAGE3_LENGTH)
    shift = ADDRESS_BITS - STAGE3_LENGTH

    def candidates(prefix: IPv6Prefix) -> Iterable[int]:
        base = prefix.network
        if prefix.length > STAGE3_LENGTH:
            return (base & slash64,)
        count = 1 << (STAGE3_LENGTH - prefix.length)
        if count <= per_prefix:
            return _first_subnets(prefix, STAGE3_LENGTH, count)
        return (
            base | (index << shift)
            for index in _sample_indices(count, per_prefix, rng)
        )

    return _distinct(chain.from_iterable(map(candidates, route6_prefixes)))


def _sample_indices(count: int, k: int, rng: random.Random) -> Iterator[int]:
    if count <= 1 << 24:
        yield from rng.sample(range(count), k)
        return
    # Address spaces too large for random.sample's population: draw with
    # rejection; collision probability is negligible at these densities.
    chosen: set[int] = set()
    while len(chosen) < k:
        index = rng.randrange(count)
        if index not in chosen:
            chosen.add(index)
            yield index


def hitlist_targets(
    host_addresses: Iterable[int], *, subnet_length: int = STAGE3_LENGTH
) -> Iterator[int]:
    """Distinct /64 SRA addresses cut from hitlist host addresses.

    The paper turns the 2.5 B-address TUM hitlist into 700 M distinct /64
    targets this way; it is the highest-yield input because each /64 was
    observed to contain an active host at some point.
    """
    mask = prefix_mask(subnet_length)
    return _distinct(address & mask for address in host_addresses)
