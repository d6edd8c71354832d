"""Binds ``reference_engine.py`` to the code under test.

The reference model takes its randomness as an injected ``draw``; here it
is the world's keyed hash, so the model and the kernel see the same coin
flips and must then agree row for row.  Kernel rows are decoded into the
model's :class:`~reference_engine.Outcome`, so a failing comparison
prints both sides in one shape.
"""

from __future__ import annotations

from functools import partial

from reference_engine import Answer, Outcome, Places, ReferenceEngine

from repro.netsim.engine import FLAG_LOOPED, FLAG_LOST, FLAG_REPLY
from repro.netsim.stochastic import stable_unit
from repro.scanner.records import ScanRecord
from repro.scanner.stream import IndexWindow, shard_positions


# id(world) -> (world, its Places); holding the world keeps the id valid.
# A few worlds at a time: the hypothesis harness draws dozens.
_PLACES: dict[int, tuple[object, Places]] = {}
_PLACES_MAX = 8


def reference(world, epoch: int = 0) -> ReferenceEngine:
    """A fresh reference epoch drawing from ``world``'s keyed hash; the
    world's lookup memo is shared across epochs."""
    held = _PLACES.get(id(world))
    if held is None:
        if len(_PLACES) >= _PLACES_MAX:
            _PLACES.clear()
        held = _PLACES[id(world)] = (world, Places(world))
    return ReferenceEngine(
        world, partial(stable_unit, world.seed), epoch=epoch, places=held[1]
    )


def row_of(cols, i: int) -> Outcome:
    """Row ``i`` of a kernel ``ProbeColumns``, read column by column."""
    flags = cols.flags[i]
    if flags & FLAG_LOST:
        return Outcome(lost=True)
    answer = None
    if flags & FLAG_REPLY:
        rid = cols.router_id[i]
        answer = Answer(
            cols.source(i),
            cols.icmp_type[i],
            cols.code[i],
            cols.count[i],
            None if rid < 0 else rid,
        )
    return Outcome(
        looped=bool(flags & FLAG_LOOPED), transit=cols.transit[i], answer=answer
    )


def probe_row(engine, target: int, time: float, *, hop_limit=64, probe_id=0):
    """One probe as a one-row ``probe_columns`` batch, read by
    :func:`row_of`."""
    cols = engine.probe_columns(
        (target,), (time,), hop_limit=hop_limit, probe_ids=(probe_id,)
    )
    return row_of(cols, 0)


def flood(outcome: Outcome) -> int:
    """Replies a looped probe drew (its amplification), 0 for any other
    row or a looped one the limiter silenced."""
    return outcome.answer.count if outcome.looped and outcome.answer else 0


def reference_rows(world, targets, times, *, epoch, hop_limit=64, probe_ids=None):
    """The reference's outcome per row, and its counters."""
    model = reference(world, epoch)
    ids = probe_ids if probe_ids is not None else [0] * len(targets)
    rows = [
        model.probe(target, time, hop_limit=hop_limit, probe_id=probe_id)
        for target, time, probe_id in zip(targets, times, ids)
    ]
    return rows, model.stats


def reference_scan(
    world, targets, *, pps, seed, epoch, hop_limit=64, shard=0, shards=1
):
    """What a scan of ``targets`` must produce, from the reference: the
    scanner's probe order (``shard_positions``), send times and probe ids,
    one ``probe`` each.  Returns (records, lost, loops, counters)."""
    model = reference(world, epoch)
    records, lost, loops = [], 0, 0
    for position, index in shard_positions(
        len(targets), seed=seed, epoch=epoch, window=IndexWindow(shard, shards)
    ):
        target, time = targets[index], position / pps
        outcome = model.probe(
            target, time, hop_limit=hop_limit, probe_id=(epoch << 32) | index
        )
        loops += outcome.looped
        lost += outcome.lost
        if outcome.answer is not None:
            answer = outcome.answer
            records.append(
                ScanRecord(
                    target=target,
                    source=answer.source,
                    icmp_type=answer.icmp_type,
                    code=answer.code,
                    count=answer.count,
                    time=time,
                )
            )
    return records, lost, loops, model.stats
