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
prefix, and every generator emits each target once.  The stage-2, stage-3
and Route(6) generators (``*_by_prefix``) yield one chunk of targets per
prefix; ``itertools.chain.from_iterable`` flattens them.  A
chunk holds the prefix's targets that no earlier chunk held; only
prefixes whose regions overlap are filtered, each group against its own
``seen`` set (:func:`_fresh`).  Random draws happen per prefix, when the
consumer reaches it, so a consumer that stops early leaves the ``rng``
where the last prefix it touched left it; the builders in
:mod:`repro.scanner.targets` cut the chunks.  A per-prefix sample is
``Random.sample``'s draws made directly (:func:`_sample_range`); the one
lazy chunk, the sparse Route(6) sampler's (more than 2**24 subnets),
draws one index per target pulled.
"""

from __future__ import annotations

import random
from math import ceil, log
from typing import Callable, Iterable, Iterator, Sequence

from .ipv6 import ADDRESS_BITS, AddressError, IPv6Prefix, prefix_mask

STAGE2_LENGTH = 48
STAGE3_LENGTH = 64


def _overlap_groups(
    prefixes: Sequence[IPv6Prefix], length: int
) -> list[int | None]:
    """Per prefix, the index of the outermost prefix whose region holds
    its region, or None when no other prefix's region overlaps it.

    A prefix's region is its block cut at /``length`` (a longer prefix's
    /``length`` supernet).  CIDR blocks nest or are disjoint, so in
    (network, length) order a region that starts inside the last
    outermost block lies inside it.
    """
    blocks = []
    for index, prefix in enumerate(prefixes):
        bits = min(prefix.length, length)
        blocks.append((prefix.network & prefix_mask(bits), bits, index))
    blocks.sort()
    groups: list[int | None] = [None] * len(prefixes)
    end = outer = -1
    for network, bits, index in blocks:
        if network > end:
            end = network + (1 << (ADDRESS_BITS - bits)) - 1
            outer = index
        else:
            groups[index] = groups[outer] = outer
    return groups


def _fresh(
    prefixes: Sequence[IPv6Prefix],
    length: int,
    candidates: Callable[[IPv6Prefix], Iterable[int]],
) -> Iterator[Iterable[int]]:
    """Per prefix, the targets of ``candidates(prefix)`` that no earlier
    prefix's held, in order; ``candidates`` is called when the consumer
    reaches the prefix, and emits no target twice and none outside the
    prefix's region (see :func:`_overlap_groups`).

    A prefix whose region overlaps no other's passes its targets through
    untouched.  The others are filtered against one ``seen`` set per
    group: a sized chunk into a list at once, an iterator (the sparse
    Route(6) sampler) lazily, so it is pulled, and draws, only as far as
    its consumer reads.
    """
    seen: dict[int, set[int]] = {}
    for prefix, group in zip(prefixes, _overlap_groups(prefixes, length)):
        chunk = candidates(prefix)
        if group is None:
            yield chunk
            continue
        held = seen.setdefault(group, set())
        if isinstance(chunk, Iterator):
            yield _unseen(chunk, held)
        else:
            fresh = [t for t in chunk if t not in held]
            held.update(fresh)
            yield fresh


def _unseen(targets: Iterator[int], seen: set[int]) -> Iterator[int]:
    add = seen.add
    return (t for t in targets if t not in seen and not add(t))


def stage1_targets(announcements: Iterable[IPv6Prefix]) -> Iterator[int]:
    """SRA address of every announced prefix, as announced (Stage 1)."""
    return iter(dict.fromkeys(prefix.network for prefix in announcements))


def stage2_by_prefix(
    announcements: Sequence[IPv6Prefix],
    *,
    max_per_prefix: int | None = None,
    rng: random.Random | None = None,
) -> Iterator[Iterable[int]]:
    """SRA addresses of the /48 partition of all announcements (Stage 2),
    one chunk per announcement.

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

    return _fresh(announcements, STAGE2_LENGTH, candidates)


def stage3_by_prefix(
    announcements: Iterable[IPv6Prefix],
    *,
    max_per_prefix: int | None = None,
    rng: random.Random | None = None,
) -> Iterator[Iterable[int]]:
    """SRA addresses of the /64 partition of /48 announcements (Stage 3),
    one chunk per /48 announcement.

    Per the paper, only announcements of length exactly /48 are expanded
    (expanding everything would explode the target count), and nothing more
    specific than a /64 is generated.  ``max_per_prefix`` and ``rng`` cut
    each chunk as in :func:`stage2_by_prefix`.
    """
    return _fresh(
        [prefix for prefix in announcements if prefix.length == STAGE2_LENGTH],
        STAGE3_LENGTH,
        lambda prefix: _partition(prefix, STAGE3_LENGTH, max_per_prefix, rng),
    )


def _first_subnets(prefix: IPv6Prefix, new_length: int, count: int) -> range:
    """Networks of the first ``count`` /``new_length`` subnets of
    ``prefix``, in address order."""
    step = 1 << (ADDRESS_BITS - new_length)
    return range(prefix.network, prefix.network + count * step, step)


def _sample_range(n: int, k: int, rng: random.Random) -> list[int]:
    """``rng.sample(range(n), k)`` for ``0 <= k <= n``, making exactly its
    ``getrandbits`` calls, with ``_randbelow`` inlined: CPython's pool
    branch for small ``n``, else its set branch, where a draw out of range
    or already chosen is drawn again."""
    getrandbits = rng.getrandbits
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    if n <= setsize:
        pool = list(range(n))
        result = []
        for left in range(n, n - k, -1):
            bits = left.bit_length()
            j = getrandbits(bits)
            while j >= left:
                j = getrandbits(bits)
            result.append(pool[j])
            pool[j] = pool[left - 1]
        return result
    bits = n.bit_length()
    selected: dict[int, None] = {}
    while len(selected) < k:
        j = getrandbits(bits)
        if j < n:
            selected[j] = None
    return list(selected)


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
        for index in _sample_range(count, max_per_prefix, rng)
    ]


def route6_by_prefix(
    route6_prefixes: Iterable[IPv6Prefix],
    *,
    per_prefix: int = 10_000,
    rng: random.Random,
) -> Iterator[Iterable[int]]:
    """Up to ``per_prefix`` random /64 SRA addresses per route6 object, one
    chunk per object; a lazy one, drawing one index per target pulled, for
    an object of more than 2**24 /64s.

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
        if count <= 1 << 24:
            return [
                base | (index << shift)
                for index in _sample_range(count, per_prefix, rng)
            ]
        return _sparse_subnets(base, shift, count, per_prefix, rng)

    return _fresh(list(route6_prefixes), STAGE3_LENGTH, candidates)


def _sparse_subnets(
    base: int, shift: int, count: int, k: int, rng: random.Random
) -> Iterator[int]:
    """``base | (index << shift)`` for ``k`` distinct indices below
    ``count``, too many for :func:`_sample_range`'s population: drawn with
    rejection, one ``rng.randrange(count)`` (its ``getrandbits`` calls,
    inlined) per subnet pulled; collisions are negligible at these
    densities."""
    getrandbits = rng.getrandbits
    bits = count.bit_length()
    chosen: set[int] = set()
    while len(chosen) < k:
        index = getrandbits(bits)
        if index < count and index not in chosen:
            chosen.add(index)
            yield base | (index << shift)


def hitlist_targets(
    host_addresses: Iterable[int], *, subnet_length: int = STAGE3_LENGTH
) -> Iterator[int]:
    """Distinct /64 SRA addresses cut from hitlist host addresses.

    The paper turns the 2.5 B-address TUM hitlist into 700 M distinct /64
    targets this way; it is the highest-yield input because each /64 was
    observed to contain an active host at some point.
    """
    mask = prefix_mask(subnet_length)
    return iter(dict.fromkeys(map(mask.__and__, host_addresses)))
