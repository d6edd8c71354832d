"""Entropy-clustered target generation ("In the IP of the Beholder").

Beverly et al. observe that allocated IPv6 space is *structured*: within
a covering prefix, the subnet-identifier nybbles of active addresses
concentrate on few values.  Segmenting seen addresses by covering /48
and measuring per-nybble value diversity separates structured
(low-entropy) regions — worth dense expansion — from essentially random
(high-entropy) ones that would soak up the probe budget for nothing.

This strategy implements that generation loop over the 16 subnet-id
bits between /48 and /64:

1. group seed addresses (hitlist hosts, plus every Echo source learned
   via :meth:`observe`) by their /48 network;
2. per group, collect the observed per-nybble value sets of the four
   subnet-id nybbles;
3. expand each group as the sorted cartesian product of its observed
   nybble values — exactly the /64s the group's structure predicts —
   capped at ``per_group``;
4. fill the probe budget walking groups from most to least structured.

Groups are ordered by their *expansion size* (the product of distinct
per-nybble value counts) — the integer-exact stand-in for nybble
entropy: a group whose nybbles take few distinct values has both low
Shannon entropy and a small product.  Ordering on integers rather than
on ``log``-based scores keeps window bytes identical across platforms
and libm builds.  :func:`nybble_entropy` reports the conventional
bits-per-nybble figure for analysis output.
"""

from __future__ import annotations

import math
from itertools import product
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ...addr.ipv6 import network_of
from ...datasets.tum import harvest_hitlist
from .base import TargetStrategy

if TYPE_CHECKING:
    from ...topology.entities import World

__all__ = ["EntropyClusteredStrategy", "nybble_entropy", "subnet_id_of"]

GROUP_LENGTH = 48
SUBNET_LENGTH = 64
# The four subnet-id nybbles between /48 and /64, most significant first.
_NYBBLE_SHIFTS = (12, 8, 4, 0)


def subnet_id_of(address: int) -> int:
    """The 16 subnet-identifier bits (bits 48..63) of an address."""
    return (address >> (128 - SUBNET_LENGTH)) & 0xFFFF


def nybble_entropy(subnet_ids: Sequence[int], shift: int) -> float:
    """Shannon entropy (bits) of one subnet-id nybble across a group."""
    if not subnet_ids:
        return 0.0
    counts: dict[int, int] = {}
    for sid in subnet_ids:
        value = (sid >> shift) & 0xF
        counts[value] = counts.get(value, 0) + 1
    total = len(subnet_ids)
    entropy = 0.0
    for value in sorted(counts):
        p = counts[value] / total
        entropy -= p * math.log2(p)
    return entropy


def _expand_group(values: Sequence[Sequence[int]], cap: int) -> Iterator[int]:
    """Subnet-ids of the sorted nybble-value cartesian product, capped."""
    for count, nybbles in enumerate(product(*values)):
        if count >= cap:
            return
        sid = 0
        for nybble in nybbles:
            sid = (sid << 4) | nybble
        yield sid


class EntropyClusteredStrategy(TargetStrategy):
    """Low-entropy /64 expansion of seen addresses, per Beholder."""

    name = "entropy-clustered"

    def __init__(
        self,
        world: "World",
        *,
        seed: int = 0,
        budget: int = 10_000,
        per_group: int = 64,
    ) -> None:
        super().__init__(world, seed=seed, budget=budget)
        if per_group < 1:
            raise ValueError(f"per_group must be >= 1, got {per_group}")
        self.per_group = per_group
        self._seed_addresses: list[int] | None = None
        # Echo sources learned from scan records: proven-active hosts
        # that sharpen next epoch's segmentation.
        self._learned: set[int] = set()

    # -- feedback -- #

    def observe(self, records) -> None:
        for record in records:
            if record.is_echo:
                self._learned.add(record.source)

    def feedback_state(self) -> tuple:
        return tuple(sorted(self._learned))

    def restore(self, state: tuple) -> None:
        self._learned = set(state)

    # -- window generation -- #

    def _addresses(self) -> list[int]:
        if self._seed_addresses is None:
            self._seed_addresses = sorted(set(harvest_hitlist(self.world)))
        if not self._learned:
            return self._seed_addresses
        return sorted(set(self._seed_addresses) | self._learned)

    def targets_for(self, epoch: int) -> list[int]:
        return self._window_list(self._generate())

    def _generate(self) -> Iterable[int]:
        groups: dict[int, list[int]] = {}
        for address in self._addresses():
            network = network_of(address, GROUP_LENGTH)
            groups.setdefault(network, []).append(subnet_id_of(address))
        ranked: list[tuple[int, int, int, list[list[int]]]] = []
        for network in sorted(groups):
            values = [
                sorted({(sid >> shift) & 0xF for sid in groups[network]})
                for shift in _NYBBLE_SHIFTS
            ]
            expansion = 1
            distinct = 0
            for column in values:
                expansion *= len(column)
                distinct += len(column)
            ranked.append((expansion, distinct, network, values))
        # Most structured first; the network int breaks exact ties, so
        # the ordering is total and platform-independent.
        ranked.sort()
        for _expansion, _distinct, network, values in ranked:
            for sid in _expand_group(values, self.per_group):
                yield network | (sid << (128 - SUBNET_LENGTH))
