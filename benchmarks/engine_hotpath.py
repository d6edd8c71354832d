"""Probe hot-path benchmark: probes/sec per destination behaviour class.

The simulator's wall-clock is dominated by ``SimulationEngine``'s per-probe
cost, so this harness times the four workloads that exercise its distinct
code paths and records a trajectory future PRs must defend:

* **routed-subnet** — SRA addresses of active subnets (the paper's money
  path: BGP LPM + resolution LPM + SRA behaviour draw),
* **unrouted**     — destinations with no BGP route (upstream "no route"
  errors through the vantage's rate limiter),
* **loop**         — destinations inside routing-loop regions (ping-pong
  amplification arithmetic),
* **rate-limited** — unassigned addresses inside active subnets hammered
  fast enough that every reply fights the RFC 4443 token bucket.

Results go to ``benchmarks/results/BENCH_engine.json``.  The rates are
printed and recorded, not gated: the speed gate is ``probes_per_s`` on
``rescan_hot`` in ``benchmarks/e2e``, whose seconds are corrected for
host speed and whose targets leave the block caches (see below).
``--check`` fails on **any byte difference** in the records JSONL / CSV,
Prometheus text, or telemetry JSONL between chunk sizes 1/1024 and
1/4-way sharding, with and without a ``RetryPolicy`` (the resilience
wrapper around the columnar kernel), streamed through the text sinks or
written from the buffered result, on the in-memory world and on its
artifact-backed twin (the CI smoke-perf gate: chunking, sharding, the
wrapper, the sinks and the world's representation — dict FIB or
``FrozenLPM`` — must be invisible in the output).  The ``ProbeBackend``
seam is not timed here — ``benchmarks/e2e`` measures it as the
``scanner.backends.sim.seam_s`` span of ``rescan_hot``.
Every report also carries the shared-memory ring transport counters from
one process-pool scan, uploaded by CI as an artifact.

What this harness cannot see: every pool is a few thousand distinct
targets cycled up to ``--probes`` (1,745 /64 blocks on the routed
workload), so after the first pass each LPM lookup is a block-cache *hit*
— the 8,192-block caches never fill and eviction never runs.  That is how
~255 k probes/s here coexisted with 52 k probes/s on a whole survey, whose
631 k distinct blocks miss on almost every probe.  The miss path — one
for both FIBs: a hash probe of the longest row (``FrozenLPM``'s through a
per-process index), else one bisect in the flattened ranges of the
shorter rows — is measured by ``benchmarks/e2e``
(``survey_serial`` on the dict FIB, ``survey_sharded`` and ``scan_export``
on the frozen one) and pinned by ``tests/test_blockcache.py`` and
``tests/test_frozenfib.py``.

    PYTHONPATH=src python benchmarks/engine_hotpath.py
    PYTHONPATH=src python benchmarks/engine_hotpath.py --probes 5000 --check
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
from pathlib import Path

from repro.addr.ipv6 import IPv6Prefix
from repro.netsim.engine import SimulationEngine
from repro.scanner.zmapv6 import ScanConfig, ZMapV6Scanner
from repro.topology.config import tiny_config
from repro.topology.entities import World
from repro.topology.generator import build_world, build_world_artifact

DEFAULT_RESULTS = Path(__file__).parent / "results" / "BENCH_engine.json"
DEFAULT_PROBES = 60_000

# A ULA block: never announced by the generator, so always unrouted.
_UNROUTED_BASE = IPv6Prefix.parse("fd00::/8").network


def _cycle_to(pool: list[int], count: int) -> list[int]:
    """Repeat ``pool`` until ``count`` targets (probes are stateless per
    target; only the rate limiter carries state across repeats)."""
    if not pool:
        raise SystemExit("workload pool is empty; world too small")
    out: list[int] = []
    while len(out) < count:
        out.extend(pool[: count - len(out)])
    return out


def build_workloads(world: World, probes: int) -> dict[str, tuple[list[int], float]]:
    """Target lists plus the pps each workload is paced at."""
    subnets = list(world.subnets.values())
    routed = [subnet.sra_address for subnet in subnets]

    unrouted = [
        _UNROUTED_BASE | (index << 64) for index in range(min(probes, 200_000))
    ]
    unrouted = [a for a in unrouted if world.bgp.origin_of(a) is None]

    loop = []
    for region in world.loop_regions:
        base = region.prefix.first
        for index in range(64):
            loop.append(base | (index << 16) | 1)

    # Unassigned addresses inside live subnets: every probe draws an
    # Address Unreachable that must pass the emitting router's bucket.
    limited = [subnet.prefix.first | 0xFFF7 for subnet in subnets]

    return {
        "routed": (_cycle_to(routed, probes), 200_000.0),
        "unrouted": (_cycle_to(unrouted, probes), 200_000.0),
        "loop": (_cycle_to(loop, probes), 200_000.0),
        # Paced 25x faster so bucket pressure stays high all scan long.
        "rate_limited": (_cycle_to(limited, probes), 5_000_000.0),
    }


def time_workload(
    world: World, targets: list[int], pps: float, *, repeats: int
) -> dict[str, float]:
    """Best-of-N scan timing on a fresh engine per run (buckets are state).

    The collector is paused around each timed scan: a buffered scan
    allocates one record per reply, and letting generational GC walk
    those mid-run adds double-digit-percent noise on small machines.
    """
    best = float("inf")
    received = 0
    for _ in range(repeats):
        engine = SimulationEngine(world, epoch=0)
        scanner = ZMapV6Scanner(engine, ScanConfig(pps=pps, seed=3))
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            result = scanner.scan(targets, name="bench")
            elapsed = time.perf_counter() - started
        finally:
            if gc_was_enabled:
                gc.enable()
        gc.collect()
        best = min(best, elapsed)
        received = result.received
    return {
        "targets": len(targets),
        "received": received,
        "seconds": round(best, 6),
        "pps": round(len(targets) / best, 1),
    }


def measure_ring(world: World, workloads: dict) -> dict:
    """One process-pool scan through the shared-memory ring.

    The transport counters land in the report so the CI artifact shows,
    per run, how many frames/bytes crossed the shard channel and whether
    anything silently fell back to pickling.
    """
    from repro.scanner.sharded import ShardedScanRunner

    targets = workloads["routed"][0][:4_000]
    runner = ShardedScanRunner(world, shards=2, executor="process")
    runner.scan(
        targets, ScanConfig(pps=200_000.0, seed=3), name="bench-ring"
    )
    return runner.ring_stats.as_dict()


def verify_byte_identity(world: World, workloads: dict) -> list[str]:
    """The chunk-size-invariance gate: every byte of output.

    Runs one mixed workload (routed + loop + rate-limited) through the
    serial scanner at chunk sizes 1 and 1024 and through a 4-way sharded
    runner, comparing the records JSONL and CSV, the telemetry JSONL and
    the Prometheus text.  Chunk size must change nothing; sharding must
    change nothing in records and Prometheus (the telemetry event stream
    legitimately reports its own shard count).  The same three runs are
    made again under a ``RetryPolicy`` (the resilience wrapper around the
    columnar kernel, nothing to recover from), once streamed through
    ``JsonlSink`` + ``CsvSink`` behind a ``TeeSink`` (the files must be
    ``ScanResult.write_jsonl`` / ``write_csv``'s), and on the world's
    artifact-backed twin — every routing lookup a ``FrozenLPM`` one,
    where the in-memory world's are ``LengthIndexedLPM`` ones; the first
    pass over the pool takes either through its miss path — all held to
    the first run's bytes.  Returns human-readable failure strings, empty when
    identical.
    """
    import tempfile

    from repro.scanner.backends import RetryPolicy
    from repro.scanner.sharded import ShardedScanRunner
    from repro.scanner.stream import CsvSink, JsonlSink, TeeSink
    from repro.telemetry import ScanTelemetry

    targets: list[int] = []
    for name in ("routed", "loop", "rate_limited"):
        targets.extend(workloads[name][0][:1_500])

    def serial(world, batch_size, retry_policy=None, sink=None):
        telemetry = ScanTelemetry()
        engine = SimulationEngine(world, epoch=0)
        scanner = ZMapV6Scanner(
            engine,
            ScanConfig(
                pps=200_000.0,
                seed=3,
                batch_size=batch_size,
                progress_every=1_000,
                retry_policy=retry_policy,
            ),
            telemetry=telemetry,
        )
        return scanner.scan(targets, name="bench", sink=sink), telemetry

    def sharded(world, shards, retry_policy=None):
        telemetry = ScanTelemetry()
        runner = ShardedScanRunner(
            world, shards=shards, executor="serial", telemetry=telemetry
        )
        result = runner.scan(
            targets,
            ScanConfig(
                pps=200_000.0,
                seed=3,
                progress_every=1_000,
                retry_policy=retry_policy,
            ),
            name="bench",
        )
        return result, telemetry

    def written_bytes(result):
        with tempfile.TemporaryDirectory() as tmp:
            result.write_jsonl(Path(tmp) / "records.jsonl")
            result.write_csv(Path(tmp) / "records.csv")
            return (
                (Path(tmp) / "records.jsonl").read_bytes(),
                (Path(tmp) / "records.csv").read_bytes(),
            )

    failures = []
    base_result, base_tel = serial(world, 1)
    base_bytes = written_bytes(base_result)

    def prometheus(telemetry, streamed):
        text = telemetry.to_prometheus()
        if streamed:
            # The one gauge that says which mode ran: a streamed scan
            # buffers no records.
            text = text.replace(
                "sra_scan_records_buffered 0\n",
                f"sra_scan_records_buffered {base_result.received}\n",
            )
        return text

    def compare(label, result, telemetry, events=True, streamed=None):
        if (streamed or written_bytes(result)) != base_bytes:
            failures.append(f"records JSONL/CSV differ: {label}")
        if events and telemetry.to_jsonl() != base_tel.to_jsonl():
            failures.append(f"telemetry JSONL differs: {label}")
        if prometheus(telemetry, streamed) != prometheus(base_tel, False):
            failures.append(f"Prometheus text differs: {label}")

    compare("batch 1024 vs 1", *serial(world, 1024))
    compare("4 shards vs serial", *sharded(world, 4), events=False)
    # The resilience wrapper passes the columnar kernel through: a policy
    # with nothing to recover from must be invisible.
    policy = RetryPolicy(max_retries=2)
    compare("retry policy, batch 1", *serial(world, 1, policy))
    compare("retry policy, batch 1024", *serial(world, 1024, policy))
    compare("retry policy, 4 shards", *sharded(world, 4, policy), events=False)
    # Streamed: the sinks' chunked writes are the buffered writers' bytes.
    with tempfile.TemporaryDirectory() as tmp:
        paths = Path(tmp) / "records.jsonl", Path(tmp) / "records.csv"
        with TeeSink((JsonlSink(paths[0]), CsvSink(paths[1]))) as sink:
            streamed = serial(world, 1024, sink=sink)
        compare(
            "streamed through TeeSink",
            *streamed,
            streamed=tuple(path.read_bytes() for path in paths),
        )
    with tempfile.TemporaryDirectory() as tmp:
        twin = build_world_artifact(
            tiny_config(seed=world.seed), Path(tmp) / "world.sraw"
        )
        compare("artifact world, batch 1", *serial(twin, 1))
        compare("artifact world, batch 1024", *serial(twin, 1024))
        compare("artifact world, 4 shards", *sharded(twin, 4), events=False)
    return failures


def run_benchmark(
    probes: int, repeats: int, seed: int
) -> tuple[dict, World, dict]:
    world = build_world(tiny_config(seed=seed))
    workloads = build_workloads(world, probes)
    report: dict = {
        "meta": {
            "probes_per_workload": probes,
            "repeats": repeats,
            "world_seed": seed,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "workloads": {},
    }
    for name, (targets, pps) in workloads.items():
        stats = time_workload(world, targets, pps, repeats=repeats)
        report["workloads"][name] = stats
        print(
            f"{name:<14} {stats['targets']:>8} probes  {stats['seconds']:>8.3f}s"
            f"  {stats['pps']:>12,.0f} probes/s  ({stats['received']} replies)"
        )
    report["ring"] = measure_ring(world, workloads)
    print(
        "ring transport {segments} segments, {bytes} bytes, "
        "{records} records, {checks} checks, {fallbacks} fallbacks".format(
            **report["ring"]
        )
    )
    return report, world, workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probes", type=int, default=DEFAULT_PROBES)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_RESULTS,
        help="where to write BENCH_engine.json",
    )
    parser.add_argument(
        "--no-write", action="store_true", help="measure only, keep the report file"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="run the byte-identity gate (CI smoke-perf); sets the exit code",
    )
    args = parser.parse_args(argv)

    report, world, workloads = run_benchmark(
        args.probes, args.repeats, args.seed
    )
    # Default runs refresh the committed report; --check runs only
    # write when pointed at an explicit --output (the CI artifact).
    write = not args.no_write and (
        not args.check or args.output != DEFAULT_RESULTS
    )
    if write:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")
    if args.check:
        failures = verify_byte_identity(world, workloads)
        for failure in failures:
            print(f"byte-identity FAILED: {failure}")
        if failures:
            return 1
        print(
            "byte-identity ok (batch 1/1024, shards 1/4, retry policy, "
            "streamed sinks, in-memory and artifact world)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
