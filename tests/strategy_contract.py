"""The reusable TargetStream/TargetStrategy contract suite.

Any producer of probe-target windows — a registered discovery strategy,
a survey input set, a computable stream — must honour one contract so
the scan substrate can treat them interchangeably:

* ``__len__``/``__iter__``/``__getitem__`` agree (seeks in any order,
  negative indices, ``IndexError`` past either end),
* slices return a plain ``list`` equal to slicing the realised list
  (the uniform slice semantics of ``TargetStream``),
* the stream pickles to an equal one (what a spawned pool worker
  receives): a computable stream as itself in a few hundred bytes, a
  lazy one as a ``TargetList`` of the targets it realised,
* ``shard_positions`` windows tile the stream: any shard split merged
  by global position IS the serial visit order (hypothesis property),
* scanning the stream through a sharded runner produces byte-identical
  records at 1, 4 and 8 shards.

Import the suite and parametrise it with :class:`StreamCase` rows::

    from strategy_contract import StreamCase, StreamContract, default_cases

    @pytest.fixture(params=default_cases(), ids=lambda c: c.id)
    def case(request):
        return request.param

    class TestContract(StreamContract):
        pass

``default_cases()`` covers every registered strategy (adaptive ones both
cold and with evolved feedback state) plus the pre-existing stream
implementations, so a new strategy registers into the suite for free.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Callable

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro.addr.ipv6 import IPv6Prefix
from repro.scanner.records import records_jsonl
from repro.scanner.sharded import ShardedScanRunner
from repro.scanner.stream import (
    IndexWindow,
    LazyStream,
    SubnetPartitionStream,
    TargetStream,
    shard_positions,
)
from repro.scanner.strategies import STRATEGIES, build_strategy
from repro.scanner.targets import TargetList
from repro.scanner.zmapv6 import ScanConfig

# Small enough that every contract test runs in milliseconds, large
# enough that 8-shard splits all get non-trivial windows.
CASE_BUDGET = 128
CASE_SEED = 5
# Epoch band for contract scans, clear of the campaigns' and the race's.
CASE_EPOCH = 5000


@dataclass(frozen=True)
class StreamCase:
    """One parametrisation of the contract suite."""

    id: str
    build: Callable[[object], TargetStream]  # world -> fresh stream
    # Computable streams (e.g. subnet partitions) point outside the
    # world's routed space; they still scan, just reply-free.
    scan: bool = True


def _strategy_window(world, name: str, epoch: int = 0) -> TargetStream:
    strategy = build_strategy(
        name, world, seed=CASE_SEED, budget=CASE_BUDGET
    )
    if epoch > 0:
        # Evolve real feedback state: observe the records of each prior
        # epoch's window through a serial scan (deterministic, so every
        # rebuild of this case agrees).
        runner = ShardedScanRunner(world, shards=1, executor="serial")
        for prior in range(epoch):
            window = strategy.window(prior)
            result = runner.scan(
                window,
                ScanConfig(pps=10_000.0, seed=CASE_SEED + prior),
                name=f"contract-{name}",
                epoch=CASE_EPOCH + prior,
            )
            strategy.observe(result)
    return strategy.window(epoch)


def default_cases() -> list[StreamCase]:
    """Every registered strategy plus the stock stream implementations."""
    cases = []
    for name in sorted(STRATEGIES):
        cases.append(
            StreamCase(
                id=f"strategy-{name}",
                build=lambda world, name=name: _strategy_window(world, name),
            )
        )
        cases.append(
            StreamCase(
                id=f"strategy-{name}-e1",
                build=lambda world, name=name: _strategy_window(
                    world, name, epoch=1
                ),
            )
        )
    cases += [
        StreamCase(
            id="list-stream",
            build=lambda world: TargetList(
                "list",
                [(0x2001_0DB8 << 96) | (i << 64) for i in range(100)],
                subnet_length=64,
            ),
        ),
        StreamCase(
            # A non-list backing (and a prime length, so shard windows are
            # uneven) honours the same contract as a list.
            id="tuple-target-list",
            build=lambda world: TargetList(
                "tuple",
                tuple((0x2001_0DB8 << 96) | (i << 64) for i in range(97)),
                subnet_length=64,
            ),
        ),
        StreamCase(
            id="lazy-cli-input-set",
            build=lambda world: __import__(
                "repro.scanner.cli", fromlist=["build_targets"]
            ).build_targets(
                world, "bgp-48", max_targets=CASE_BUDGET, seed=CASE_SEED
            ),
        ),
        StreamCase(
            id="subnet-partition",
            build=lambda world: SubnetPartitionStream(
                IPv6Prefix.parse("2001:db8::/40"), 48
            ),
            scan=False,
        ),
    ]
    return cases


class StreamContract:
    """The suite.  Subclass it next to a ``case`` fixture."""

    # -- sequence protocol -- #

    def test_len_positive_and_iteration_matches(self, case, tiny_world):
        stream = case.build(tiny_world)
        realised = list(stream)
        assert len(stream) == len(realised) > 0
        assert list(stream) == realised  # re-iteration is stable

    def test_getitem_agrees_with_iteration(self, case, tiny_world):
        stream = case.build(tiny_world)
        realised = list(stream)
        # Seeks in arbitrary order — backwards, repeated, negative.
        probes = [len(realised) - 1, 0, len(realised) // 2, 0, -1]
        for index in probes:
            assert stream[index] == realised[index], index
        assert [stream[i] for i in range(len(stream))] == realised
        with pytest.raises(IndexError):
            stream[len(realised)]
        with pytest.raises(IndexError):
            stream[-len(realised) - 1]

    def test_slice_semantics_are_uniform(self, case, tiny_world):
        """``stream[i:j:k]`` is a plain list equal to slicing the
        realised list — for every implementation."""
        stream = case.build(tiny_world)
        realised = list(stream)
        half = len(realised) // 2
        for sliced in (
            slice(None),
            slice(2, half),
            slice(half, None),
            slice(None, None, 3),
            slice(half, 2, -1),
            slice(-5, None),
            slice(len(realised) + 10, len(realised) + 20),
        ):
            got = stream[sliced]
            assert type(got) is list, sliced
            assert got == realised[sliced], sliced

    # -- provenance + pickle round-trip -- #

    def test_provenance(self, case, tiny_world):
        stream = case.build(tiny_world)
        assert stream.name
        assert stream.subnet_length is None or 0 < stream.subnet_length <= 128

    def test_pickle_round_trip(self, case, tiny_world):
        """A spawned pool worker receives an equal stream: the data, never
        a recipe it would have to re-run."""
        stream = case.build(tiny_world)
        payload = pickle.dumps(stream)
        clone = pickle.loads(payload)
        assert len(clone) == len(stream)
        assert list(clone) == list(stream)
        assert clone.name == stream.name
        assert clone.subnet_length == stream.subnet_length
        if isinstance(stream, SubnetPartitionStream):
            assert type(clone) is SubnetPartitionStream
            assert len(payload) < 512
        elif isinstance(stream, LazyStream):
            assert type(clone) is TargetList

    # -- shard-window tiling -- #

    @given(shards=st.integers(min_value=1, max_value=8), permute=st.booleans())
    @settings(
        max_examples=16,
        deadline=None,
        # The `case` fixture is an immutable parametrisation row and the
        # stream is rebuilt inside the test body — safe across examples.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_shard_windows_tile_the_stream(
        self, case, tiny_world, shards, permute
    ):
        """Any shard split, merged by global position, visits exactly the
        serial order — the property that makes sharding bit-identical."""
        stream = case.build(tiny_world)
        size = len(stream)
        serial = [
            stream[i]
            for _, i in shard_positions(
                size, seed=CASE_SEED, epoch=0, permute=permute
            )
        ]
        split = []
        for shard in range(shards):
            split.extend(
                shard_positions(
                    size,
                    seed=CASE_SEED,
                    epoch=0,
                    window=IndexWindow(shard, shards),
                    permute=permute,
                )
            )
        split.sort(key=lambda pair: pair[0])
        assert [stream[i] for _, i in split] == serial
        assert sorted(i for _, i in split) == list(range(size))

    # -- scan determinism -- #

    def test_records_byte_identical_at_1_4_8_shards(self, case, tiny_world):
        if not case.scan:
            pytest.skip("stream points outside the world's routed space")
        outputs = []
        for shards in (1, 4, 8):
            stream = case.build(tiny_world)
            runner = ShardedScanRunner(
                tiny_world, shards=shards, executor="serial"
            )
            result = runner.scan(
                stream,
                ScanConfig(pps=10_000.0, seed=CASE_SEED),
                name=f"contract-{case.id}",
                epoch=CASE_EPOCH + 100,
            )
            outputs.append(records_jsonl(result.rows))
        assert outputs[0] == outputs[1] == outputs[2]
