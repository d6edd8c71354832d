"""``sra-scan``: a command-line scanner against a simulated world.

The operational counterpart of the paper's ZMapv6 + Go generator pipeline::

    sra-scan --seed 7 --input-set bgp-plain --output scan.csv
    sra-scan --seed 7 --input-set hitlist-64 --max-targets 20000 \
             --pcap raw.pcap --summary

Builds the world for ``--seed``, generates the chosen input set, scans it,
applies the alias filter, and writes results as CSV/JSONL (plus optionally
the raw traffic as pcap).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import sys
from contextlib import nullcontext
from dataclasses import replace as dc_replace
from functools import partial
from pathlib import Path

from ..addr.ipv6 import AddressError
from ..core.aliasfilter import filter_aliased
from ..core.survey import INPUT_SET_NAMES as INPUT_SETS, SUBNET_LENGTHS
from ..datasets.tum import harvest_hitlist, published_alias_list
from ..telemetry.scan import ScanTelemetry
from ..topology.config import WorldConfig, tiny_config
from ..topology.generator import build_world
from .backends import (
    BACKENDS,
    BackendPrivilegeError,
    RetryPolicy,
    build_backend,
)
from .checkpoint import CheckpointError
from .pacing import paced_pps
from .records import ScanResult, merge_results
from .sharded import (
    ScanInterrupted,
    ShardedScanRunner,
    ShardFailedError,
    _collector_paused,
    auto_shard_count,
)
from .stream import CountingSink, CsvSink, JsonlSink, LazyStream, RecordSink, TeeSink
from .strategies import STRATEGIES, build_strategy, run_strategy_epochs
from .targets import (
    TargetList,
    bgp_plain_targets,
    bgp_slash48_targets,
    bgp_slash64_targets,
    hitlist_slash64_targets,
    route6_slash64_targets,
)
from .zmapv6 import ScanConfig, ZMapV6Scanner


def _materialise_targets(
    world, input_set: str, *, max_targets: int | None, seed: int
) -> TargetList:
    """Generate one of the survey's input sets for a world, eagerly."""
    rng = random.Random(seed)
    if input_set == "bgp-plain":
        return bgp_plain_targets(world.bgp, max_targets=max_targets)
    if input_set == "bgp-48":
        return bgp_slash48_targets(
            world.bgp, max_per_prefix=192, max_targets=max_targets, rng=rng
        )
    if input_set == "bgp-64":
        return bgp_slash64_targets(
            world.bgp, max_per_prefix=512, max_targets=max_targets, rng=rng
        )
    if input_set == "route6-64":
        return route6_slash64_targets(
            world.irr, per_prefix=96, max_targets=max_targets, rng=rng
        )
    if input_set == "hitlist-64":
        hitlist = harvest_hitlist(world)
        return hitlist_slash64_targets(hitlist, max_targets=max_targets)
    raise ValueError(f"unknown input set {input_set!r}")


def build_targets(
    world, input_set: str, *, max_targets: int | None, seed: int
) -> LazyStream:
    """One of the survey's input sets, as a lazily-realised target stream
    (a sharded process pool receives the realised targets)."""
    return LazyStream(
        lambda: _materialise_targets(
            world, input_set, max_targets=max_targets, seed=seed
        ),
        name=input_set,
        subnet_length=SUBNET_LENGTHS[input_set],
    )


def check_output_paths(paths: "list[tuple[str, str | None]]") -> str | None:
    """Validate output destinations *before* the scan runs.

    Returns an error message when some ``--flag PATH`` points into a
    directory that does not exist (a plain missing file is fine — we
    create those), so a long scan can't end in an unwritable-path
    traceback.
    """
    for flag, value in paths:
        if not value:
            continue
        parent = Path(value).parent
        if not parent.is_dir():
            return f"{flag}: directory {str(parent)!r} does not exist"
    return None


def _scan_config(args, targets: int, seed: int) -> ScanConfig:
    """The :class:`ScanConfig` of one scan, whatever the mode: paced at
    ``--pps``, or to cover ``targets`` in ``--duration`` virtual seconds."""
    config = ScanConfig(
        pps=args.pps or paced_pps(targets, args.duration, math.inf),
        hop_limit=args.hop_limit,
        seed=seed,
        progress_every=args.progress_every,
        backend=args.backend,
        authorized=args.i_am_authorized,
        retry_policy=RetryPolicy.from_knobs(
            args.backend_retries or 0, args.backend_timeout, args.breaker_threshold
        ),
    )
    if args.batch_size is not None:
        config = dc_replace(config, batch_size=args.batch_size)
    return config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="sra-scan", description=__doc__)
    parser.add_argument("--seed", type=int, default=2024, help="world seed")
    parser.add_argument(
        "--world",
        choices=("tiny", "default"),
        default="tiny",
        help="world size (tiny builds in ~1s)",
    )
    parser.add_argument("--input-set", choices=INPUT_SETS, default="bgp-plain")
    parser.add_argument(
        "--strategy",
        choices=sorted(STRATEGIES),
        default=None,
        help="run a multi-epoch discovery strategy instead of a one-shot "
        "--input-set scan; adaptive strategies feed each epoch's records "
        "into the next window. With --checkpoint DIR each epoch journals "
        "there and an interrupted run resumes to identical output",
    )
    parser.add_argument(
        "--strategy-epochs",
        type=int,
        default=None,
        metavar="N",
        help="epochs of the --strategy run (default 3)",
    )
    parser.add_argument(
        "--strategy-budget",
        type=int,
        default=None,
        metavar="N",
        help="probe-target budget per --strategy epoch (default 5000)",
    )
    parser.add_argument("--max-targets", type=int, default=None)
    parser.add_argument("--pps", type=float, default=None, help="probe rate")
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="probes per engine batch (throughput dial; results are "
        "bit-identical for any value)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=6.0,
        help="virtual scan duration used when --pps is not given",
    )
    parser.add_argument(
        "--backend",
        default="sim",
        metavar="NAME",
        help="probe backend: 'sim' (default), 'wire-sim' (byte-accurate "
        "wire round trip over the simulator; output is identical to "
        "sim), or 'raw' (real raw-socket ICMPv6 against --targets-file; "
        "requires --i-am-authorized and CAP_NET_RAW, never implied)",
    )
    parser.add_argument(
        "--i-am-authorized",
        action="store_true",
        help="assert you are authorized to probe the --targets-file "
        "hosts with --backend raw",
    )
    parser.add_argument(
        "--targets-file",
        metavar="PATH",
        help="probe these IPv6 addresses (one per line, '#' comments) "
        "instead of a generated input set; required by and exclusive "
        "to --backend raw",
    )
    parser.add_argument("--hop-limit", type=int, default=64)
    parser.add_argument("--epoch", type=int, default=0, help="scan epoch")
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="split the scan across N parallel shards (0 = one per core); "
        "results are bit-identical at any shard count",
    )
    parser.add_argument(
        "--parallel",
        choices=("auto", "process", "serial"),
        default="auto",
        help="executor for sharded scans: worker processes, or the shards "
        "one after another in this process (auto: process for large scans "
        "on a multi-core host)",
    )
    parser.add_argument("--no-alias-filter", action="store_true")
    parser.add_argument("--output", help="write records as CSV")
    parser.add_argument("--jsonl", help="write records as JSONL")
    parser.add_argument(
        "--stream-records",
        action="store_true",
        help="constant-memory mode: write records to --output/--jsonl as "
        "they are matched instead of buffering them; output bytes are "
        "identical to the buffered path. Requires --no-alias-filter "
        "(the alias filter needs the full record set)",
    )
    parser.add_argument(
        "--max-rss-check",
        type=float,
        default=None,
        metavar="MB",
        help="exit 3 if the process's peak RSS exceeded MB mebibytes "
        "(a guard rail for constant-memory scans)",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="journal completed shards to PATH after each shard; with "
        "--resume a prior journal is loaded and only missing shards "
        "re-run (merged output is byte-identical to an uninterrupted "
        "scan). SIGINT/SIGTERM flush a final checkpoint and exit 5",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint if it exists (fresh start otherwise)",
    )
    parser.add_argument(
        "--max-shard-retries",
        type=int,
        default=0,
        metavar="N",
        help="retry a crashed shard up to N times on a fresh pool "
        "(bounded exponential backoff) before giving up",
    )
    parser.add_argument(
        "--backend-retries",
        type=int,
        default=None,
        metavar="N",
        help="retry each failed backend batch up to N times (exponential "
        "backoff) before splitting/quarantining it; any "
        "resilience flag wraps the backend in the resilient transport "
        "layer (default: no wrapper)",
    )
    parser.add_argument(
        "--backend-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-batch watchdog deadline; a hung backend batch is "
        "recovered and retried (default: no deadline)",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=float,
        default=None,
        metavar="RATE",
        help="circuit-breaker open threshold as a batch failure rate in "
        "(0, 1]; an open breaker quarantines batches without probing "
        "until its cooldown expires (default: no breaker)",
    )
    parser.add_argument(
        "--world-artifact",
        metavar="PATH",
        help="stream the world into (or load it from) a binary artifact "
        "at PATH instead of holding it in memory: generation runs in a "
        "flat RSS, shard workers bootstrap from the mmap'd file (O(KB) "
        "payload) and share its pages. An existing artifact is reused if "
        "its config fingerprint matches, rebuilt in place otherwise; "
        "scan output is byte-identical either way",
    )
    parser.add_argument("--pcap", help="also write raw traffic as pcap")
    parser.add_argument(
        "--telemetry-out", help="write the scan's JSONL event stream here"
    )
    parser.add_argument(
        "--metrics-out", help="write Prometheus-text metrics here"
    )
    parser.add_argument(
        "--ring-stats-out",
        metavar="PATH",
        help="write the runner's shared-memory transport counters "
        "(segments/bytes/records/checks/fallbacks) as JSON here",
    )
    parser.add_argument(
        "--progress-every",
        type=int,
        default=1000,
        help="emit a telemetry progress event every N probes (0 = none)",
    )
    parser.add_argument("--summary", action="store_true", help="print totals")
    args = parser.parse_args(argv)
    # One-line stderr + exit 2 for bad numeric knobs, so what ScanConfig
    # or RetryPolicy would raise on (NaN and infinities included) never
    # reaches them as a traceback, and a negative --max-targets never
    # slices from the *end* of the set.
    pps, retries = args.pps, args.backend_retries
    timeout, threshold = args.backend_timeout, args.breaker_threshold
    for problem, bad in (
        ("--pps must be positive", pps is not None and pps <= 0),
        ("--pps must be finite", pps is not None and not math.isfinite(pps)),
        (
            "--batch-size must be >= 1",
            args.batch_size is not None and args.batch_size < 1,
        ),
        ("--backend-retries must be >= 0", retries is not None and retries < 0),
        (
            "--backend-timeout must be finite and positive",
            timeout is not None and not 0 < timeout < math.inf,  # and not NaN
        ),
        (
            "--breaker-threshold must be in (0, 1]",
            threshold is not None and not 0 < threshold <= 1,  # and not NaN
        ),
        (
            "--duration must be finite and positive",
            not 0 < args.duration < math.inf,  # NaN fails this comparison too
        ),
        ("--hop-limit must be in [1, 255]", not 1 <= args.hop_limit <= 255),
        (
            "--max-targets must be >= 0",
            args.max_targets is not None and args.max_targets < 0,
        ),
        ("--max-shard-retries must be >= 0", args.max_shard_retries < 0),
    ):
        if bad:
            print(f"sra-scan: {problem}", file=sys.stderr)
            return 2
    if args.backend not in BACKENDS:
        print(
            f"sra-scan: unknown backend {args.backend!r} "
            f"(choose from {', '.join(sorted(BACKENDS))})",
            file=sys.stderr,
        )
        return 2
    if args.backend == "raw":
        for problem in (
            "--backend raw probes real networks; pass --i-am-authorized "
            "only for targets you are permitted to scan"
            if not args.i_am_authorized
            else None,
            "--backend raw needs --targets-file (generated input sets "
            "are simulator addresses)"
            if not args.targets_file
            else None,
            "--backend raw runs unsharded (--shards 1)"
            if args.shards != 1
            else None,
            "--backend raw does not support --strategy"
            if args.strategy
            else None,
            "--backend raw does not support --checkpoint"
            if args.checkpoint
            else None,
            "--backend raw does not support --pcap" if args.pcap else None,
            "--backend raw does not support --stream-records"
            if args.stream_records
            else None,
        ):
            if problem is not None:
                print(f"sra-scan: {problem}", file=sys.stderr)
                return 2
    elif args.targets_file:
        print(
            "sra-scan: --targets-file is only meaningful with --backend "
            "raw (simulated backends scan generated input sets)",
            file=sys.stderr,
        )
        return 2
    if args.shards < 0:
        parser.error("--shards must be >= 1 (or 0 for one per core)")
    if args.progress_every < 0:
        parser.error("--progress-every must be >= 0")
    if args.resume and not args.checkpoint:
        parser.error("--resume requires --checkpoint")
    if args.strategy is None:
        for flag, value in (
            ("--strategy-epochs", args.strategy_epochs),
            ("--strategy-budget", args.strategy_budget),
        ):
            if value is not None:
                parser.error(f"{flag} requires --strategy")
    else:
        if args.stream_records:
            parser.error(
                "--stream-records is incompatible with --strategy: "
                "adaptive strategies re-read each epoch's record set"
            )
        if args.pcap:
            parser.error("--pcap is not supported in --strategy mode")
        if args.strategy_epochs is not None and args.strategy_epochs < 1:
            parser.error("--strategy-epochs must be >= 1")
        if args.strategy_budget is not None and args.strategy_budget < 1:
            parser.error("--strategy-budget must be >= 1")
    if args.stream_records:
        if not (args.output or args.jsonl):
            parser.error("--stream-records needs --output and/or --jsonl")
        if not args.no_alias_filter:
            parser.error(
                "--stream-records requires --no-alias-filter: the alias "
                "filter re-reads the full record set, which streaming "
                "never buffers"
            )
    problem = check_output_paths(
        [
            ("--output", args.output),
            ("--jsonl", args.jsonl),
            ("--pcap", args.pcap),
            ("--telemetry-out", args.telemetry_out),
            ("--metrics-out", args.metrics_out),
            ("--ring-stats-out", args.ring_stats_out),
            ("--checkpoint", args.checkpoint),
            ("--world-artifact", args.world_artifact),
        ]
    )
    if problem is not None:
        print(f"sra-scan: {problem}", file=sys.stderr)
        return 2

    telemetry = (
        ScanTelemetry() if (args.telemetry_out or args.metrics_out) else None
    )
    runner: ShardedScanRunner | None = None
    # Every mode's rows go through one sink, which also counts them for
    # the summary.  A mode returns an exit code, or the rows it buffered
    # (None when its sink took them) and a callable that renders the
    # summary lines from the counts.
    counts = CountingSink() if args.summary or not (args.output or args.jsonl) else None
    open_sink = partial(_record_sink, args, counts)
    try:
        if args.backend == "raw":
            # No simulated world at all: raw scans probe the operator's
            # own targets file, directly through an unsharded scanner.
            outcome = _raw_scan(args, telemetry)
        else:
            with _collector_paused():
                config = (
                    tiny_config(args.seed)
                    if args.world == "tiny"
                    else WorldConfig(seed=args.seed)
                )
                if args.world_artifact:
                    world = _artifact_world(config, args.world_artifact)
                else:
                    world = build_world(config)
                runner = ShardedScanRunner(
                    world,
                    shards=auto_shard_count() if args.shards == 0 else args.shards,
                    executor=args.parallel,
                    telemetry=telemetry,
                    max_shard_retries=args.max_shard_retries,
                    # A strategy journals one file per epoch; --input-set
                    # names its single journal per scan.
                    checkpoint_dir=args.checkpoint if args.strategy else None,
                )
                if args.strategy:
                    outcome = _strategy_scan(world, args, runner)
                else:
                    outcome = _input_set_scan(world, args, runner, open_sink)
                if not gc.get_freeze_count():  # nothing a caller froze
                    # What the job keeps has no cycles: move it to the oldest
                    # generation unwalked, not by a collection that frees nothing.
                    gc.freeze()
                    gc.unfreeze()
    except CheckpointError as error:
        # Corrupt / truncated / mismatched journal: a clear one-liner, no
        # traceback — the operator decides whether to delete and restart.
        print(f"sra-scan: {error}", file=sys.stderr)
        return 4
    except ScanInterrupted as interrupted:
        print(f"sra-scan: {interrupted}", file=sys.stderr)
        if args.checkpoint:
            hint = (
                f"re-run the same command to resume from {args.checkpoint}"
                if args.strategy
                else f"resume with --checkpoint {args.checkpoint} --resume"
            )
            print(f"sra-scan: {hint}", file=sys.stderr)
        return 5
    except ShardFailedError as failure:
        print(f"sra-scan: {failure}", file=sys.stderr)
        return 1
    if isinstance(outcome, int):
        return outcome
    rows, summary = outcome

    if telemetry is not None:
        if args.telemetry_out:
            telemetry.write_jsonl(args.telemetry_out)
        if args.metrics_out:
            telemetry.write_prometheus(args.metrics_out)
    if args.ring_stats_out and runner is not None:
        Path(args.ring_stats_out).write_text(
            json.dumps(runner.ring_stats.as_dict(), indent=2) + "\n"
        )
    if rows is not None:
        with open_sink() as sink:
            sink.drain(rows)
    if counts is not None:
        print("\n".join(summary(counts)))
    if args.max_rss_check is not None:
        peak = peak_rss_mib()
        if peak > args.max_rss_check:
            print(
                f"sra-scan: peak RSS {peak:.1f} MiB exceeded "
                f"--max-rss-check {args.max_rss_check:.1f} MiB",
                file=sys.stderr,
            )
            return 3
    return 0


def _record_sink(args, counts: CountingSink | None) -> RecordSink:
    """Where a scan's rows go: the ``--output`` CSV, the ``--jsonl`` file
    and the summary's ``counts``, as one tee (its text sinks share the
    rendered addresses)."""
    sinks: list[RecordSink] = [] if counts is None else [counts]
    if args.output:
        sinks.append(CsvSink(args.output))
    if args.jsonl:
        sinks.append(JsonlSink(args.jsonl))
    return sinks[0] if len(sinks) == 1 else TeeSink(tuple(sinks))


def _input_set_scan(world, args, runner, open_sink):
    """The default mode: one scan of one generated ``--input-set``."""
    targets = build_targets(
        world, args.input_set, max_targets=args.max_targets, seed=args.seed
    )
    if not len(targets):
        print("no targets generated", file=sys.stderr)
        return 1
    scan_config = _scan_config(args, len(targets), args.seed)
    sink = open_sink() if args.stream_records else None
    # As a context manager a sink closes on success and aborts — staged
    # output left unpromoted — when the scan raises.
    with sink if sink is not None else nullcontext():
        result = runner.scan(
            targets,
            scan_config,
            name=args.input_set,
            epoch=args.epoch,
            sink=sink,
            checkpoint=args.checkpoint,
            resume=args.resume,
        )
    if not args.no_alias_filter:
        result, _ = filter_aliased(result, published_alias_list(world))
    if args.pcap:
        from ..netsim.pcap import capture_scan

        capture_scan(
            world,
            list(targets),
            args.pcap,
            epoch=args.epoch + 1_000_000,  # fresh buckets for the capture run
            pps=scan_config.pps,
            hop_limit=args.hop_limit,
        )
    count = len(targets)

    def summary(counts: CountingSink) -> list[str]:
        classes = counts.classify_sources()
        responsive = len(counts.responsive_targets)
        reply_rate = responsive / result.sent if result.sent else 0.0
        return [
            f"input set  : {args.input_set} ({count} targets)",
            f"probe rate : {scan_config.pps:.0f} pps (virtual)",
            f"shards     : {runner.shards} ({args.parallel})",
            f"replies    : {counts.emitted} ({reply_rate:.1%} of targets)",
            f"router IPs : {len(counts.sources)}",
            "classes    : "
            f"echo={len(classes['echo'])} error={len(classes['error'])} "
            f"both={len(classes['both'])}",
            f"loops hit  : {result.loops_observed}",
        ]

    return None if sink else result.rows, summary


def _raw_scan(args, telemetry):
    """``--backend raw``: probe a targets file over a real raw socket.

    Deliberately the narrowest path in this CLI: no world, no sharding,
    no checkpoints — one scanner, one backend, the operator's own target
    list.  Privilege failures surface as the same one-line exit-2 errors
    the validation layer uses (the socket is the validator here).
    """
    try:
        targets = TargetList.load(args.targets_file, name="raw")
    except OSError as error:
        print(f"sra-scan: cannot read --targets-file: {error}", file=sys.stderr)
        return 2
    except AddressError as error:
        print(f"sra-scan: {error}", file=sys.stderr)
        return 2
    if not targets:
        print("sra-scan: --targets-file has no targets", file=sys.stderr)
        return 1

    scan_config = _scan_config(args, len(targets), args.seed)
    backend = build_backend(scan_config)
    scanner = ZMapV6Scanner(backend, scan_config, telemetry=telemetry)
    try:
        result = scanner.scan(targets, name="raw", epoch=args.epoch)
    except BackendPrivilegeError as error:
        print(f"sra-scan: {error}", file=sys.stderr)
        return 2
    finally:
        backend.close()
        # The raw receiver thread can fail to join (a blocked recv):
        # surface it rather than leak silently.
        for warning in backend.pop_warnings():
            print(f"sra-scan: warning: {warning}", file=sys.stderr)
    return result.rows, lambda counts: [
        f"targets    : {len(targets)} (raw backend)",
        f"probe rate : {scan_config.pps:.0f} pps (ceiling)",
        f"replies    : {counts.emitted}",
        f"router IPs : {len(counts.sources)}",
        f"unmatched  : {result.unmatched_replies}",
    ]


def _strategy_scan(world, args, runner):
    """``sra-scan --strategy``: the multi-epoch adaptive scan loop.

    The epochs run through :func:`run_strategy_epochs`.  With
    ``--checkpoint DIR`` the runner journals every epoch's shards there
    and auto-resumes: re-running the same command after an interrupt
    reconstructs earlier epochs' records byte-identically, so adaptive
    feedback — and therefore every later window — is unchanged.
    """
    epochs = args.strategy_epochs if args.strategy_epochs is not None else 3
    budget = (
        args.strategy_budget if args.strategy_budget is not None else 5_000
    )
    results: list[ScanResult] = []
    epoch_lines: list[str] = []
    for row, result in run_strategy_epochs(
        build_strategy(args.strategy, world, seed=args.seed, budget=budget),
        runner,
        epochs,
        scan_name=lambda index: args.strategy,
        scan_config=lambda index, size: _scan_config(
            args, size, args.seed + index
        ),
        epoch_base=args.epoch,
        telemetry=runner.telemetry,
    ):
        results.append(result)
        epoch_lines.append(
            f"epoch {row.epoch}  : {row.targets} targets, "
            f"+{row.new_router_ips} router IPs "
            f"({row.cumulative_router_ips} total), "
            f"{row.dark_probes} dark, {row.suppressed_errors} suppressed"
        )
    merged = merge_results(args.strategy, results)
    if not args.no_alias_filter:
        merged, _ = filter_aliased(merged, published_alias_list(world))
    return merged.rows, lambda counts: [
        f"strategy   : {args.strategy} ({epochs} epochs x {budget} budget)",
        f"shards     : {runner.shards} ({args.parallel})",
        *epoch_lines,
        f"replies    : {counts.emitted}",
        f"router IPs : {len(counts.sources)}",
    ]


def _artifact_world(config, path: str):
    """Load (or build) the artifact-backed world for ``--world-artifact``.

    Reuses an existing artifact only when its fingerprint matches the
    requested config — a stale file from another seed/world silently
    producing different scans would be worse than the rebuild.
    """
    from ..topology.artifact import build_fingerprint, load_world_artifact
    from ..topology.generator import build_world_artifact

    wanted = build_fingerprint(config)
    if Path(path).exists():
        world = load_world_artifact(path)
        if world.artifact_fingerprint == wanted:
            return world
        print(
            f"sra-scan: {path}: artifact is for a different world config; "
            "rebuilding",
            file=sys.stderr,
        )
    return build_world_artifact(config, path)


def peak_rss_mib() -> float:
    """This process's lifetime peak resident set size, in MiB."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    if sys.platform == "darwin":
        return peak / (1024 * 1024)
    return peak / 1024


if __name__ == "__main__":
    sys.exit(main())
