"""The production kernel against the independent reference model.

``reference_engine.py`` is a slow per-probe model written from the RFCs
and the paper; ``SimulationEngine.probe_columns`` is the one kernel every
scan runs.  Hypothesis draws small worlds (fresh ``tiny_config`` seeds,
plus the tiny world loaded from an artifact, so ``FrozenLPM`` answers the
lookups) and probe schedules over every destination class: times out of
order, hop limits at 0, 1 and every transit length ±1, epochs including
2**62 and -1.  The kernel must match the model row for row and in
``EngineStats`` at batch 1 and 1024, and as four deferred shards plus
the merge's rate-limit replay.
"""

from __future__ import annotations

import ast
import random
from collections import Counter
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from reference_engine import ECHO, EXCEEDED
from reference_harness import reference, reference_rows, reference_scan, row_of

from repro.datasets.traceroute import traceroute
from repro.netsim.engine import ProbeColumns, SimulationEngine
from repro.scanner.sharded import ShardedScanRunner
from repro.scanner.zmapv6 import ScanConfig
from repro.topology.artifact import load_world_artifact, save_world
from repro.topology.config import tiny_config
from repro.topology.generator import build_world

REFERENCE = Path(__file__).with_name("reference_engine.py")
FORBIDDEN = ("repro.netsim", "repro.bgp", "repro.scanner")

HARNESS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
EPOCHS = st.one_of(st.sampled_from([0, 2**62, -1]), st.integers(0, 9))


def test_reference_imports_no_engine_code():
    """The oracle must not share code with what it checks."""
    tree = ast.parse(REFERENCE.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in the reference"
            imported.append(node.module or "")
    assert imported
    offending = [
        name
        for name in imported
        if any(name == bad or name.startswith(bad + ".") for bad in FORBIDDEN)
    ]
    assert not offending, offending


@lru_cache(maxsize=8)
def seeded_world(seed: int):
    return build_world(tiny_config(seed=seed))


@pytest.fixture(scope="module")
def artifact_world(tiny_world, tmp_path_factory):
    path = tmp_path_factory.mktemp("reference") / "tiny.sraw"
    return load_world_artifact(save_world(tiny_world, path))


def test_a_prefix_registered_twice_answers_from_the_later_entry():
    """The generator can plant two loop regions on one prefix (world
    seed 6 has two such prefixes); the resolution index keeps the later
    registration, and the model reads its lists the same way."""
    world = seeded_world(6)
    customers = {}
    for region in world.loop_regions:
        customers.setdefault(region.prefix, []).append(region.customer_router_id)
    twice = [prefix for prefix, ids in customers.items() if len(set(ids)) > 1]
    assert twice
    targets = [prefix.last - offset for prefix in twice for offset in (0, 1, 2)]
    times = [0.0] * len(targets)
    expected, stats = reference_rows(world, targets, times, epoch=0)
    engine = SimulationEngine(world, epoch=0)
    cols = engine.probe_columns(targets, times)
    assert [row_of(cols, i) for i in range(cols.n)] == expected
    assert asdict(engine.stats) == stats
    assert {row.answer.router_id for row in expected if row.answer} >= {
        customers[prefix][-1] for prefix in twice
    }


def destination_classes(world) -> list[list[int]]:
    """Addresses of every kind the model tells apart, one list per kind.
    Rare kinds get lists of their own (dying and aliased subnets, space
    whose AS answers for unassigned addresses), and two kinds come from a
    few subnets, so one router sees several errors and its budget runs
    out."""
    rng = random.Random(world.seed)
    subnets = list(world.subnets.values())
    focus = rng.sample(subnets, min(6, len(subnets)))
    announced = [announcement.prefix for announcement in world.bgp]
    answering = [  # announced space whose AS answers for unassigned addresses
        a.prefix
        for a in world.bgp
        if a.origin_asn in world.ases and not world.ases[a.origin_asn].filters_unroutable
    ]
    return [
        [s.sra_address for s in subnets],
        [s.router_interface for s in subnets],
        [host for s in subnets for host in s.hosts[:2]] or [0],
        [s.prefix.first | 0xFFF7 for s in subnets],
        [s.sra_address for s in subnets if s.death_epoch is not None],
        [s.prefix.first | rng.getrandbits(64) for s in subnets if s.aliased],
        [s.prefix.first | rng.getrandbits(32) << 16 for s in focus],
        [s.sra_address for s in focus] + [s.router_interface for s in focus],
        [r.prefix.network | rng.getrandbits(20) for r in world.alias_regions],
        [a for i in world.infra_subnets.values() for a in list(i.interfaces)[:2]],
        [i.prefix.first | 0xFFF7 for i in world.infra_subnets.values()],
        [r.prefix.network | rng.getrandbits(40) for r in world.loop_regions],
        [
            r.prefix.network | rng.getrandbits(40)
            for r in world.loop_regions
            if world.routers[r.customer_router_id].replication_factor > 1.0
        ],
        [p.network | rng.getrandbits(128 - p.length) for p in announced],
        [p.network | rng.getrandbits(128 - p.length) for p in answering],
        [0xFD00 << 112 | rng.getrandbits(64) for _ in range(4)],  # unrouted
    ]


@lru_cache(maxsize=8)
def classes_of_seed(seed: int):
    return destination_classes(seeded_world(seed))


def hop_limits_of(world) -> list[int]:
    """64 first (what shrinking falls back to), then 255, 0, 1 and every
    transit length ±1."""
    transits = {len(path) for path in world.paths.values()}
    around = {hops + delta for hops in transits for delta in (-1, 0, 1)}
    return [64, 255] + sorted({0, 1} | {hops for hops in around if hops >= 0})


@st.composite
def cases(draw, artifact):
    """(world, targets, times, hop limit, probe ids, epoch), the world
    either a seeded one or ``artifact`` — (world, its destination
    classes); the epoch is often one in which some subnet dies."""
    if draw(st.booleans()):
        world, classes = artifact
    else:
        seed = draw(st.integers(0, 40))
        world, classes = seeded_world(seed), classes_of_seed(seed)
    rows = draw(st.integers(1, 160))
    kinds = draw(st.lists(st.integers(0, len(classes) - 1), min_size=rows, max_size=rows))
    picks = draw(st.lists(st.integers(0, 2**16), min_size=rows, max_size=rows))
    targets = [
        classes[kind][pick % len(classes[kind])] if classes[kind] else 0
        for kind, pick in zip(kinds, picks)
    ]
    # Out-of-order times, ties included, inside a few rate-limit windows.
    times = draw(
        st.lists(
            st.one_of(st.floats(0.0, 4.0), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
            min_size=rows,
            max_size=rows,
        )
    )
    hop_limit = draw(st.sampled_from(hop_limits_of(world)))
    if draw(st.booleans()):
        probe_ids = list(range(rows))
    else:
        probe_ids = draw(
            st.lists(st.integers(-(2**63), 2**64), min_size=rows, max_size=rows)
        )
    deaths = sorted({s.death_epoch for s in world.subnets.values()} - {None})
    epoch = draw(st.one_of(EPOCHS, st.sampled_from(deaths))) if deaths else draw(EPOCHS)
    return world, targets, times, hop_limit, probe_ids, epoch


@pytest.fixture(scope="module")
def harness_cases(artifact_world):
    return cases((artifact_world, destination_classes(artifact_world)))


class TestKernelAgainstReference:
    def test_rows_and_stats_match_at_batch_1_and_1024(self, harness_cases):
        @HARNESS
        @given(case=harness_cases)
        def check(case):
            world, targets, times, hop_limit, ids, epoch = case
            expected, stats = reference_rows(
                world, targets, times, epoch=epoch, hop_limit=hop_limit, probe_ids=ids
            )
            batch = SimulationEngine(world, epoch=epoch)
            got = []
            for start in range(0, len(targets), 1024):
                cols = batch.probe_columns(
                    targets[start : start + 1024],
                    times[start : start + 1024],
                    hop_limit=hop_limit,
                    probe_ids=ids[start : start + 1024],
                )
                got += [row_of(cols, i) for i in range(cols.n)]
            assert got == expected
            assert asdict(batch.stats) == stats

            single, out = SimulationEngine(world, epoch=epoch), ProbeColumns()
            for i, want in enumerate(expected):
                cols = single.probe_columns(
                    targets[i : i + 1],
                    times[i : i + 1],
                    hop_limit=hop_limit,
                    probe_ids=ids[i : i + 1],
                    out=out,
                )
                assert row_of(cols, 0) == want, i
            assert asdict(single.stats) == stats

        check()

    def test_four_deferred_shards_plus_replay_match(self, harness_cases):
        @HARNESS
        @given(
            case=harness_cases,
            pps=st.sampled_from([40.0, 400.0, 150_000.0]),
            seed=st.integers(0, 2**16),
        )
        def check(case, pps, seed):
            world, targets, _, hop_limit, _, epoch = case
            hop_limit = max(hop_limit, 1)  # a scan's hop limit is 1-255
            records, lost, loops, stats = reference_scan(
                world, targets, pps=pps, seed=seed, epoch=epoch, hop_limit=hop_limit
            )
            result = ShardedScanRunner(world, shards=4, executor="serial").scan(
                targets,
                ScanConfig(pps=pps, seed=seed, hop_limit=hop_limit),
                name="reference",
                epoch=epoch,
            )
            assert result.records == records
            assert (result.lost, result.loops_observed) == (lost, loops)
            assert asdict(result.engine_stats) == stats

        check()


def reference_trace(model, target, *, time, probe_id_base, probes_per_hop, max_hops=32):
    """Traceroute's stop rules, in its order, over the reference model's
    answers: ``(hops, reached, destination_source, why it stopped)``, each hop ``(ttl, source, icmp_type)``."""
    hops = []
    for ttl in range(1, max_hops + 1):
        for attempt in range(probes_per_hop):
            answer = model.probe(
                target,
                time + ttl * 1e-3,
                hop_limit=ttl,
                probe_id=probe_id_base + ttl * 4 + attempt,
            ).answer
            if answer is not None:
                break
        else:
            hops.append((ttl, None, None))
            if len(hops) >= 3 and all(source is None for _, source, _ in hops[-3:]):
                return hops, False, None, "gap"
            continue
        source = answer.source
        hops.append((ttl, source, answer.icmp_type))
        if answer.icmp_type != EXCEEDED:
            reached = answer.icmp_type == ECHO
            return hops, reached, source, "echo" if reached else "error"
        if len(hops) >= 2 and hops[-2][1] == source:
            return hops, False, None, "repeat"
    return hops, False, None, "max hops"


class TestTracerouteAgainstReference:
    @pytest.mark.parametrize("probes_per_hop", [1, 2])
    def test_traces_match_hop_for_hop(self, tiny_world, probes_per_hop):
        """``traceroute`` over every destination class — looping and
        unrouted space included — on one engine epoch, as the Ark
        campaign runs it, equals its stop rules driven by the model."""
        targets = [
            target for kind in destination_classes(tiny_world) for target in kind[:5]
        ]
        assert len(targets) >= 50
        engine = SimulationEngine(tiny_world, epoch=2000)
        model = reference(tiny_world, epoch=2000)
        endings = Counter()
        for index, target in enumerate(targets):
            time, base = index * 0.05, (1 << 40) + index * 256
            trace = traceroute(
                engine,
                target,
                time=time,
                probe_id_base=base,
                probes_per_hop=probes_per_hop,
            )
            *expected, why = reference_trace(
                model,
                target,
                time=time,
                probe_id_base=base,
                probes_per_hop=probes_per_hop,
            )
            assert [
                [(hop.ttl, hop.source, hop.icmp_type) for hop in trace.hops],
                trace.reached,
                trace.destination_source,
            ] == expected, hex(target)
            endings[why] += 1
        assert asdict(engine.stats) == model.stats
        assert endings.keys() >= {"echo", "error", "repeat", "gap"}, endings
