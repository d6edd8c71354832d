"""Ablation benchmarks for the design choices DESIGN.md calls out.

These quantify *why* the method is built the way it is:

* hop limit 64 bounds loop amplification (§6 mitigation advice),
* the alias filter is load-bearing for router counts,
* scan pacing (per-router probe rate) drives error-message loss — the
  rate-limiting mechanism behind the SRA advantage,
* zmap-style permutation spreads probes and reduces per-router bursts.

They run on the quick-scale world to stay fast.
"""

from __future__ import annotations

import random

import pytest

from repro.core.aliasfilter import filter_aliased
from repro.core.probing import run_sra_vs_random
from repro.netsim.engine import FLAG_LOOPED, FLAG_REPLY, SimulationEngine
from repro.scanner.targets import hitlist_slash64_targets
from repro.scanner.zmapv6 import ScanConfig, ZMapV6Scanner


@pytest.fixture(scope="module")
def quick():
    from repro.experiments.world import get_context

    return get_context("quick")


def test_ablation_hoplimit_bounds_amplification(benchmark, quick):
    """Sweep the probe hop limit over looping space: total reply volume
    (amplification mass) must grow monotonically with the hop limit."""
    world = quick.world
    targets = []
    for region in world.loop_regions:
        for index in range(min(8, region.slash48_count())):
            targets.append(region.prefix.network | (index << 80) | 0x1)

    def sweep():
        mass = {}
        for hop_limit in (8, 16, 32, 64, 128):
            engine = SimulationEngine(world, epoch=50 + hop_limit)
            cols = engine.probe_columns(
                targets,
                [index / 1000.0 for index in range(len(targets))],
                hop_limit=hop_limit,
                probe_ids=range(len(targets)),
            )
            # A looped row's reply count is the probe's amplification.
            mass[hop_limit] = sum(
                cols.count[i]
                for i in range(cols.n)
                if cols.flags[i] == FLAG_LOOPED | FLAG_REPLY
            )
        return mass

    mass = benchmark.pedantic(sweep, rounds=1, iterations=1)
    values = [mass[h] for h in (8, 16, 32, 64, 128)]
    assert values == sorted(values)
    assert mass[128] > mass[8]


def test_ablation_alias_filter(benchmark, quick):
    """Router counts with vs without the alias filter: unfiltered scans
    overcount (aliased networks answer on every address)."""
    world = quick.world
    targets = hitlist_slash64_targets(quick.hitlist, max_targets=12_000)

    def run():
        engine = SimulationEngine(world, epoch=60)
        scanner = ZMapV6Scanner(engine, ScanConfig(pps=2_000, seed=60))
        raw = scanner.scan(targets, name="alias-ablation", epoch=60)
        filtered, stats = filter_aliased(raw, quick.alias_list)
        return raw, filtered, stats

    raw, filtered, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert stats.dropped > 0
    assert len(filtered.sources()) < len(raw.sources())
    # The filter must not touch legitimate router replies: every kept echo
    # source differs from its probed target.
    for record in filtered.records:
        if record.is_echo:
            assert record.source != record.target


def test_ablation_scan_pacing(benchmark, quick):
    """Error-message loss as a function of sweep rate: scanning the same
    targets faster loses more error replies to RFC 4443 rate limiting
    (Echo replies are unaffected — the SRA mechanism)."""
    world = quick.world
    targets = hitlist_slash64_targets(quick.hitlist, max_targets=8_000)
    rng = random.Random(61)
    from repro.addr.randomgen import random_targets_for_sras

    random_probe_targets = list(
        random_targets_for_sras(list(targets), 64, rng)
    )

    def sweep():
        errors_by_duration = {}
        echoes_by_duration = {}
        for duration in (0.05, 0.5, 5.0, 50.0):
            pps = max(100.0, len(random_probe_targets) / duration)
            engine = SimulationEngine(world, epoch=70)
            scanner = ZMapV6Scanner(engine, ScanConfig(pps=pps, seed=70))
            result = scanner.scan(
                random_probe_targets, name=f"pace-{duration}", epoch=70
            )
            errors_by_duration[duration] = sum(
                1 for r in result.records if r.is_error
            )
            sra_engine = SimulationEngine(world, epoch=70)
            sra_scanner = ZMapV6Scanner(sra_engine, ScanConfig(pps=pps, seed=70))
            sra_result = sra_scanner.scan(
                list(targets), name=f"pace-sra-{duration}", epoch=70
            )
            echoes_by_duration[duration] = sum(
                1 for r in sra_result.records if r.is_echo
            )
        return errors_by_duration, echoes_by_duration

    errors, echoes = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # Slower sweeps recover more error replies...
    assert errors[50.0] > errors[0.05]
    # ...while the SRA echo count is rate-independent.
    echo_values = list(echoes.values())
    mean_echo = sum(echo_values) / len(echo_values)
    assert all(abs(v - mean_echo) / mean_echo < 0.05 for v in echo_values)


def test_ablation_probe_order(benchmark, quick):
    """Permuted vs sequential probe order: address-ordered probing bursts
    all of a router's subnets together and loses more errors."""
    world = quick.world
    targets = sorted(hitlist_slash64_targets(quick.hitlist, max_targets=10_000))
    rng = random.Random(62)
    from repro.addr.randomgen import random_targets_for_sras

    random_probe_targets = list(random_targets_for_sras(targets, 64, rng))

    def run():
        counts = {}
        for label, permute in (("permuted", True), ("sequential", False)):
            engine = SimulationEngine(world, epoch=80)
            scanner = ZMapV6Scanner(
                engine,
                ScanConfig(pps=5_000, seed=80, permute=permute),
            )
            result = scanner.scan(
                random_probe_targets, name=f"order-{label}", epoch=80
            )
            counts[label] = sum(1 for r in result.records if r.is_error)
        return counts

    counts = benchmark.pedantic(run, rounds=1, iterations=1)
    assert counts["permuted"] >= counts["sequential"]


def test_ablation_sra_advantage_is_rate_limiting(benchmark, quick):
    """With pacing slow enough that buckets never empty, the SRA vs random
    gap shrinks towards the silent-router floor — demonstrating that rate
    limiting (not magic) is the mechanism."""
    world = quick.world
    targets = hitlist_slash64_targets(quick.hitlist, max_targets=5_000)

    def run():
        fast = run_sra_vs_random(
            world, list(targets), epochs=1, scan_duration=0.05, seed=90
        )
        slow = run_sra_vs_random(
            world, list(targets), epochs=1, scan_duration=60.0, seed=90
        )
        return (
            fast.advantage_per_epoch()[0],
            slow.advantage_per_epoch()[0],
        )

    fast_advantage, slow_advantage = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert fast_advantage > slow_advantage
