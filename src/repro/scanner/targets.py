"""Named target lists: the survey's five input sets, materialised.

The paper's Go address-generation tool streams targets into ZMap; here a
:class:`TargetList` pairs the generated addresses with provenance so that
results can be keyed by input set (Table 2).  Budgets (``max_targets``,
``max_per_prefix``) implement the scale-down: sampling, never truncation
in address order, so selection semantics survive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ..addr.ipv6 import AddressError, parse_address
from ..addr.partition import (
    hitlist_targets,
    route6_by_prefix,
    stage1_targets,
    stage2_by_prefix,
    stage3_by_prefix,
)
from ..bgp.table import BGPTable
from ..hitlist.hitlist import Hitlist
from ..irr.database import IRRDatabase
from .stream import TargetStream


@dataclass(slots=True)
class TargetList(TargetStream):
    """A named, ordered, deduplicated list of probe targets — the stream
    over an already-materialised list."""

    name: str
    targets: list[int] = field(default_factory=list)
    subnet_length: int | None = None  # /64 for stage-3 style lists

    def __len__(self) -> int:
        return len(self.targets)

    def __iter__(self) -> Iterator[int]:
        return iter(self.targets)

    def __getitem__(self, index: "int | slice") -> "int | list[int]":
        if isinstance(index, slice):
            # A non-list backing (a tuple, a range) slices to its own
            # type; the TargetStream slice contract says list.
            selected = self.targets[index]
            return selected if isinstance(selected, list) else list(selected)
        return self.targets[index]

    def gather(self, indexes: Iterable[int]) -> list[int]:
        return list(map(self.targets.__getitem__, indexes))

    def head(self, k: int) -> "TargetList":
        """The first ``k`` targets in list order.

        Discovery strategies use this to cut a probe-budget window out of
        a generated list: the list order *is* the selection priority
        (hitlist order, entropy rank, ...), so unlike the input-set
        budgets — where sampling preserves selection semantics — a head
        window is the intended semantics, not a truncation artefact.
        """
        if k < 0:
            raise ValueError(f"head window must be >= 0, got {k}")
        return TargetList(
            name=self.name,
            targets=self.targets[:k],
            subnet_length=self.subnet_length,
        )

    def sample(self, k: int, rng: random.Random) -> "TargetList":
        """A uniform sub-sample (used to bound benchmark runtimes).

        Always returns a fresh list, even when ``k`` covers every target:
        returning ``self`` there let callers that mutate the sample
        corrupt the original.
        """
        if k >= len(self.targets):
            return TargetList(
                name=self.name,
                targets=list(self.targets),
                subnet_length=self.subnet_length,
            )
        return TargetList(
            name=self.name,
            targets=rng.sample(self.targets, k),
            subnet_length=self.subnet_length,
        )

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        name: str | None = None,
        subnet_length: int | None = None,
    ) -> "TargetList":
        """Read one address per line; blanks and ``#`` comments (whole
        line or trailing) ignored, duplicates dropped (first wins).

        A malformed line raises :class:`AddressError` carrying the file
        path, line number, *and* the offending line text.
        """

        def parsed(handle) -> Iterable[int]:
            for line_number, line in enumerate(handle, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                try:
                    yield parse_address(text)
                except AddressError as exc:
                    raise AddressError(
                        f"{path}:{line_number}: {text!r}: {exc}"
                    ) from exc

        with open(path, "r", encoding="utf-8") as handle:
            targets = _bounded(parsed(handle), None)
        return cls(
            name=name or Path(path).stem,
            targets=targets,
            subnet_length=subnet_length,
        )


def _bounded(targets: Iterable[int], max_targets: int | None) -> list[int]:
    """Order-preserving dedup with an optional size bound.

    The "first occurrence wins, stop at the budget" rule for targets of
    unknown provenance — :meth:`TargetList.load` and the strategies'
    windows — enforcing the class contract that a :class:`TargetList` is
    deduplicated.  The input-set builders use :func:`_cut` instead: the
    partition generators already emit each target once.
    """
    bounded: list[int] = []
    seen: set[int] = set()
    for target in targets:
        if target in seen:
            continue
        seen.add(target)
        bounded.append(target)
        if max_targets is not None and len(bounded) >= max_targets:
            break
    return bounded


def _cut(chunks: Iterable[Iterable[int]], max_targets: int | None) -> list[int]:
    """The first ``max_targets`` targets of a partition generator's
    chunks of distinct targets (one per prefix), pulling no chunk past
    the cut, and a lazy chunk only as far as the cut: no random draw
    happens past it."""
    if max_targets is not None and max_targets < 0:
        raise ValueError(f"max_targets must be >= 0, got {max_targets}")
    targets: list[int] = []
    if max_targets == 0:
        return targets
    for chunk in chunks:
        if max_targets is None:
            targets += chunk
        else:
            targets += islice(chunk, max_targets - len(targets))
            if len(targets) == max_targets:
                break
    return targets


def bgp_plain_targets(bgp: BGPTable, *, max_targets: int | None = None) -> TargetList:
    """Stage 1: the SRA address of every announced prefix."""
    return TargetList(
        name="bgp-plain",
        targets=_cut([stage1_targets(bgp.prefixes())], max_targets),
    )


def bgp_slash48_targets(
    bgp: BGPTable,
    *,
    max_per_prefix: int | None = None,
    max_targets: int | None = None,
    rng: random.Random | None = None,
) -> TargetList:
    """Stage 2: SRA addresses of the /48 partition of all announcements."""
    return TargetList(
        name="bgp-48",
        targets=_cut(
            stage2_by_prefix(
                bgp.prefixes(), max_per_prefix=max_per_prefix, rng=rng
            ),
            max_targets,
        ),
        subnet_length=48,
    )


def bgp_slash64_targets(
    bgp: BGPTable,
    *,
    max_per_prefix: int | None = None,
    max_targets: int | None = None,
    rng: random.Random | None = None,
) -> TargetList:
    """Stage 3: SRA addresses of the /64 partition of /48 announcements."""
    return TargetList(
        name="bgp-64",
        targets=_cut(
            stage3_by_prefix(
                bgp.prefixes(), max_per_prefix=max_per_prefix, rng=rng
            ),
            max_targets,
        ),
        subnet_length=64,
    )


def route6_slash64_targets(
    irr: IRRDatabase,
    *,
    per_prefix: int = 64,
    max_targets: int | None = None,
    rng: random.Random,
) -> TargetList:
    """Random /64 SRA addresses under each registered route6 prefix."""
    return TargetList(
        name="route6-64",
        targets=_cut(
            route6_by_prefix(irr.prefixes(), per_prefix=per_prefix, rng=rng),
            max_targets,
        ),
        subnet_length=64,
    )


def hitlist_slash64_targets(
    hitlist: Hitlist | Sequence[int],
    *,
    max_targets: int | None = None,
) -> TargetList:
    """Distinct /64 SRAs cut from hitlist host addresses."""
    addresses: Iterable[int] = (
        hitlist if not isinstance(hitlist, Hitlist) else iter(hitlist)
    )
    return TargetList(
        name="hitlist-64",
        targets=_cut([hitlist_targets(addresses)], max_targets),
        subnet_length=64,
    )
