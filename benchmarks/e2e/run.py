#!/usr/bin/env python3
"""End-to-end benchmark of the SRA scanner: whole campaigns, timed from outside.

One run (the form ``BENCHMARK.json``'s command takes)::

    python3 benchmarks/e2e/run.py --workload survey_serial --seed 2024 \
        --seconds 8 --trace 0

sets the workload up, runs its campaign to completion — again and again
until ``--seconds`` of campaign time have been measured, so at least once
— checks every operation's output digest, and prints one JSON object as
its last line: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

A set of runs (the default when no ``--workload`` is given)::

    python3 benchmarks/e2e/run.py [--seed N] [--repeats R] \
        [--workloads W ...] [--out FILE] [--history]

starts each run as a fresh child process, one at a time, round-robin
over the workloads, then one traced run per workload; prints medians and
quartiles of every metric and writes everything to ``--out``.
``--compare A.json B.json`` judges two such files by the paired-run rule.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, sleep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
# Counts that must repeat exactly for a seed; pinned in expected.json.
EXACT_COUNTS = [
    name
    for name, metric in PER_LAYER.items()
    if (name.startswith("netsim.engine.") and metric["unit"] == "count")
    or name
    in (
        "scanner.records.emitted",
        "scanner.shmring.bytes",
        "scanner.shmring.segments",
        "scanner.shmring.fallbacks",
    )
]


# --------------------------------------------------------------------- #
# one run
# --------------------------------------------------------------------- #


def _peak_rss_mib() -> float:
    return (
        max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024
    )


def _cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(
            resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        )
    )


def _load_expected(path: Path, scale: str, seed: int, workload: str) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text()).get(scale, {}).get(str(seed), {}).get(workload, {})


def _judge(checked_list, expected: dict, workload, notes: list[str]):
    """(attempted, failed) over every campaign of the run.

    With pinned digests an operation fails when its digest differs; for
    other seeds the campaigns of the run must agree with each other, and
    the sharded survey must equal a serial scan of its two cheap sets.
    """
    attempted = failed = 0
    wanted = expected.get("digests")
    for checked in checked_list:
        reference = wanted if wanted is not None else checked_list[0].digests
        for name, digest in checked.digests.items():
            weight = checked.weights[name]
            attempted += weight
            if name in checked.failed:
                failed += weight
                notes.append(f"{name}: operation reported a failure")
            elif reference.get(name) != digest:
                failed += weight
                notes.append(f"{name}: output digest mismatch")
    if wanted is None and hasattr(workload, "serial_digests"):
        for name, digest in workload.serial_digests().items():
            attempted += 1
            if checked_list[0].digests[name] != digest:
                failed += 1
                notes.append(f"{name}: sharded records differ from a serial scan")
    return attempted, failed


def _result(spec: dict, values: dict, attempted: int, failed: int, notes) -> dict:
    """The contract's result object over the metrics ``spec`` names."""
    for note in notes:
        print(f"FAILED {note}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": spec[name]["unit"]} for name in spec
        },
    }


def _reference_wall(args, workload_name: str) -> float:
    """``wall_s`` of one untraced campaign in a fresh child process."""
    result = _spawn(
        workload_name, args.seed, 0, 0, args.scale, args.expected, setups=1
    )
    return result["metrics"]["wall_s"]["value"]


PR_SET_CHILD_SUBREAPER = 36


def _adopt_orphans() -> None:
    """Make this process the parent of every descendant that outlives its
    own parent (``prctl``), so ``_reap_descendants`` can wait for them:
    pool workers start ``multiprocessing`` resource trackers that are
    orphaned when the pool shuts down."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _children() -> list[int]:
    pids = []
    for task in Path("/proc/self/task").iterdir():
        pids += map(int, (task / "children").read_text().split())
    return pids


def _reap_descendants(grace_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The resource tracker of this process ends when its pipe closes (it
    ignores SIGTERM); the trackers of dead pool workers end on their own.
    Whatever is still alive after ``grace_s`` is killed.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:  # a private name; without it the kill below does it
        stop()
    deadline = perf_counter() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if perf_counter() > deadline:
            for child in _children():
                os.kill(child, signal.SIGKILL)
            deadline = float("inf")
        sleep(0.01)


def run_once(args) -> dict:
    """One run of one workload; returns the contract's result object."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"{ROOT / 'src' / 'repro'}: the program under test is missing")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    _adopt_orphans()
    try:
        return _run_once(args)
    finally:
        _reap_descendants()


def _run_once(args) -> dict:
    import hostspeed
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    host = hostspeed.HostSpeed()
    host.start()
    try:
        scale = workloads.SCALES[args.scale]()
        workload = workloads.WORKLOADS[args.workload](scale, args.seed, workdir)
        expected = _load_expected(
            Path(args.expected), args.scale, args.seed, workload.name
        )
        if args.trace:
            return _traced_run(args, workload, expected, host)
        return _timed_run(args, workload, expected, host)
    finally:
        host.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def _timed_run(args, workload, expected, host) -> dict:
    """Every time below is in seconds at the reference host speed (see
    hostspeed.py); the measured seconds go to stderr."""

    def timed_setup() -> float:
        start = perf_counter()
        workload.setup()
        return host.reference_seconds(start, perf_counter())

    setups = [timed_setup()]
    walls, cpus, rates, checks, measured = [], [], [], [], []
    peak_rss = 0.0
    while True:
        cpu0, start = _cpu_seconds(), perf_counter()
        raw = workload.campaign()
        end = perf_counter()
        cpu = _cpu_seconds() - cpu0
        # Peak RSS of a fresh process that ran one campaign: later
        # campaigns and set-ups of this run must not inflate it.
        peak_rss = peak_rss or _peak_rss_mib()
        checked = workload.check(raw)
        del raw
        walls.append(host.reference_seconds(start, end))
        cpus.append(host.reference_seconds(start, end, cpu))
        rates.append(checked.probes / walls[-1])
        checks.append(checked)
        measured.append(end - start)
        if sum(measured) >= args.seconds:
            break

    notes: list[str] = []
    attempted, failed = _judge(checks, expected, workload, notes)
    # The extra set-ups come last so that the campaign above ran in the
    # process state a user's would: one set-up, then the campaign.
    for _ in range(args.setups - 1):
        gc.collect()
        setups.append(timed_setup())

    values = {
        "wall_s": statistics.median(walls),
        "probes_per_s": statistics.median(rates),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mib": peak_rss,
        "setup_s": statistics.median(setups),
    }
    print(
        f"{workload.name} seed {args.seed}: campaign took "
        f"{statistics.median(measured):.3f} s measured, "
        f"{values['wall_s']:.3f} s at reference host speed",
        file=sys.stderr,
    )
    return _result(END_TO_END, values, attempted, failed, notes)


def _at_reference_speed(host, metrics: dict, start: float, end: float) -> dict:
    """``metrics`` measured between two clock readings, with every value
    in seconds rescaled to the reference host speed of that window."""
    scale = host.reference_seconds(start, end) / (end - start)
    return {
        name: value * scale if PER_LAYER[name]["unit"] == "s" else value
        for name, value in metrics.items()
    }


def _traced_run(args, workload, expected, host) -> dict:
    import trace as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    setup_start = perf_counter()
    workload.setup()
    first = len(tracer.spans)
    start = perf_counter()
    raw = workload.campaign()
    end = perf_counter()
    last = len(tracer.spans)
    counts = dict(tracer.counts)
    scans = list(tracer.scans)
    checked = workload.check(raw)

    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(counts)
    values.update(
        _at_reference_speed(host, tracer.self_times(0, first), setup_start, start)
    )
    campaign = _at_reference_speed(host, tracer.self_times(first, last), start, end)
    for name, seconds in campaign.items():
        values[name] += seconds
    traced_wall = host.reference_seconds(start, end)
    values["trace.wall_s"] = traced_wall
    values["trace.coverage"] = sum(campaign.values()) / traced_wall
    values["bgp.lpm.working_set_blocks"] = tracing.working_set_blocks(tracer)

    replay_start = perf_counter()
    replayed = tracing.replay_permutation(scans)
    values.update(_at_reference_speed(host, replayed, replay_start, perf_counter()))

    world = getattr(workload, "world", None)
    artifact = workload.workdir / "world.bin"
    if artifact.exists():
        values["topology.artifact.bytes"] = artifact.stat().st_size
    if world is not None and world.artifact_path is not None:
        values["topology.artifact.worldref_bytes"] = tracing.worldref_bytes(world)
    values["scanner.stream.sink_bytes"] = sum(
        (workload.workdir / name).stat().st_size
        for name in ("records.jsonl", "records.csv")
        if (workload.workdir / name).exists()
    )
    if workload.name == "survey_sharded":
        ring = raw[0].runner.ring_stats
        values["scanner.shmring.bytes"] = ring.bytes
        values["scanner.shmring.segments"] = ring.segments
        values["scanner.shmring.fallbacks"] = ring.fallbacks
        replay_start = perf_counter()
        replayed = tracing.replay_shards(world, tracer.runner_calls, workload.shards)
        values.update(
            _at_reference_speed(host, replayed, replay_start, perf_counter())
        )
        runner_wall = sum(
            stop - begin
            for name, begin, stop, _ in tracer.spans[first:last]
            if name == "scanner.sharded.runner_self_s"
        )
        values["scanner.sharded.pool_wait_s"] = (
            runner_wall * traced_wall / (end - start)
            - values["scanner.sharded.shard_scan_s_max"]
            - values["scanner.sharded.merge_s"]
        )

    # The bursts of this process must not compete with the runs below.
    host.stop()
    reference = _reference_wall(args, workload.name)
    values["trace.overhead_s"] = traced_wall - reference
    if workload.name == "survey_sharded":
        values["scanner.sharded.parallel_efficiency"] = _reference_wall(
            args, "survey_serial"
        ) / (workload.shards * reference)
    if workload.name == "scan_export":
        values["telemetry.scan.overhead_s"] = reference - _reference_wall(
            args, "scan_export_quiet"
        )

    unknown = sorted(set(values) - set(PER_LAYER))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    notes: list[str] = []
    attempted, failed = _judge([checked], expected, workload, notes)
    pinned = expected.get("counts")
    if pinned is not None:
        attempted += 1
        wrong = {k: values[k] for k in pinned if values[k] != pinned[k]}
        if wrong:
            failed += 1
            notes.append(f"exact counts differ from expected.json: {wrong}")
    (OUT / f"trace_{workload.name}.json").write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "digests": checked.digests,
                "counts": {name: values[name] for name in EXACT_COUNTS},
                "campaign_spans": [first, last],
                "spans": tracer.spans[:last],
            }
        )
    )
    return _result(PER_LAYER, values, attempted, failed, notes)


# --------------------------------------------------------------------- #
# a set of runs
# --------------------------------------------------------------------- #


def _spawn(workload, seed, seconds, trace, scale, expected, setups=None) -> dict:
    """Run one workload in a fresh child process; parse its last line."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scale", scale, "--expected", str(expected),
    ]  # fmt: skip
    if setups is not None:
        command += ["--setups", str(setups)]
    # PYTHONHASHSEED=0 here spares the child re-executing itself for it.
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload}: run exited {done.returncode} with no result")
    return json.loads(lines[-1])


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_set(args) -> int:
    nproc = os.cpu_count() or 1
    meta = {
        "git_rev": _git_rev(),
        "date": datetime.date.today().isoformat(),
        "seed": args.seed,
        "scale": args.scale,
        "repeats": args.repeats,
        "run_seconds": args.seconds,
        "nproc": nproc,
        "python": platform.python_version(),
    }
    runs = []
    plan = [(r, w, 0) for r in range(args.repeats) for w in args.workloads]
    plan += [(0, w, 1) for w in args.workloads]
    for order, (repeat, workload, trace) in enumerate(plan):
        load1 = os.getloadavg()[0]
        result = _spawn(
            workload, args.seed, args.seconds, trace, args.scale, args.expected
        )
        runs.append(
            {
                "workload": workload,
                "trace": trace,
                "repeat": repeat,
                "order": order,
                "load1": load1,
                # More runnable processes than cores when the run began.
                "noisy": load1 > nproc,
                **result,
            }
        )
        print(
            f"[{order + 1}/{len(plan)}] {workload} trace={trace} "
            f"load1={load1:.2f} failed={result['failed']}/{result['attempted']}",
            file=sys.stderr,
        )

    summary: dict[str, dict] = {}
    layers: dict[str, dict] = {}
    for workload in args.workloads:
        mine = [r for r in runs if r["workload"] == workload]
        timed = [r for r in mine if not r["trace"]]
        summary[workload] = {}
        for name, spec in END_TO_END.items():
            q1, median, q3 = quartiles([r["metrics"][name]["value"] for r in timed])
            summary[workload][name] = {
                "median": median, "q1": q1, "q3": q3,
                "n": len(timed), "unit": spec["unit"],
            }  # fmt: skip
        attempted = sum(r["attempted"] for r in mine)
        summary[workload]["fail_share"] = {
            "median": sum(r["failed"] for r in mine) / attempted,
            "n": len(mine), "unit": "ratio",
        }  # fmt: skip
        traced = [r for r in mine if r["trace"]]
        layers[workload] = {
            name: metric["value"] for name, metric in traced[0]["metrics"].items()
        }
    document = {"meta": meta, "runs": runs, "summary": summary, "layers": layers}
    _print_set(document)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    if args.history:
        with open(HERE / "history.jsonl", "a") as history:
            history.write(json.dumps(_history_row(document)) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


def _print_set(document: dict) -> None:
    meta = document["meta"]
    noisy = sum(r["noisy"] for r in document["runs"])
    print(
        f"e2e benchmark  rev={meta['git_rev']} seed={meta['seed']} "
        f"scale={meta['scale']} repeats={meta['repeats']} nproc={meta['nproc']} "
        f"python={meta['python']} noisy_runs={noisy}/{len(document['runs'])}"
    )
    for workload, metrics in document["summary"].items():
        print(f"\n{workload}: end to end (median [q1, q3] over n runs)")
        for name, m in metrics.items():
            spread = f"[{m['q1']:.6g}, {m['q3']:.6g}]" if "q1" in m else ""
            print(f"  {name:<14} {m['median']:>14.6g} {m['unit']:<9} {spread} n={m['n']}")
        print(f"{workload}: per layer (one traced run)")
        for name, value in document["layers"][workload].items():
            unit = PER_LAYER[name]["unit"]
            shown = f"{value:.0f}" if unit in ("count", "bytes") else f"{value:.6g}"
            print(f"  {name:<42} {shown:>16} {unit}")


def _history_row(document: dict) -> dict:
    """One line of history.jsonl: medians, and every layer's seconds as
    a share of the traced campaign's wall."""
    row = dict(document["meta"])
    row["medians"] = {
        workload: {name: m["median"] for name, m in metrics.items()}
        for workload, metrics in document["summary"].items()
    }
    row["layer_shares"] = {
        workload: {
            name: round(value / values["trace.wall_s"], 4)
            for name, value in values.items()
            if PER_LAYER[name]["unit"] == "s" and value and not name.startswith("trace.")
        }
        for workload, values in document["layers"].items()
    }
    return row


# --------------------------------------------------------------------- #
# comparing two sets of runs
# --------------------------------------------------------------------- #


def verdict(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """The paired-run rule (choosing-metrics guide, sections 6 and 8).

    ``improved``: the change wins at least nine tenths of the pairs and
    the medians differ by more than the base's own quartile distance.
    ``regressed``: the change's median is worse by more than ``bound``.
    ``unresolved``: the base's quartile distance is wider than the bound,
    unless every run of the change beats every run of the base.
    """
    sign = 1.0 if better == "lower" else -1.0
    q1, base_median, q3 = quartiles(base)
    change_median = statistics.median(change)
    spread = q3 - q1
    gain = sign * (base_median - change_median)  # > 0: the change is better
    pairs = list(zip(base, change))
    wins = sum(sign * (b - c) > 0 for b, c in pairs)
    ratio = change_median / base_median
    if wins >= 0.9 * len(pairs) and gain > spread:
        word = "improved"
    elif -gain > bound * base_median:
        word = "regressed"
    elif spread > bound * base_median and not all(
        sign * (b - c) > 0 for b in base for c in change
    ):
        word = "unresolved"
    else:
        word = "unchanged"
    return {
        "verdict": word, "base": base_median, "change": change_median,
        "ratio": ratio, "spread": spread / base_median, "wins": wins,
        "pairs": len(pairs),
    }  # fmt: skip


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    print(
        f"base   {path_a} rev={a['meta']['git_rev']}\n"
        f"change {path_b} rev={b['meta']['git_rev']}"
    )
    moved = 0
    for name, spec in END_TO_END.items():
        print(f"\n{name} ({spec['unit']}, {spec['better']} is better, bound {spec['bound']:.0%})")
        for workload in a["summary"]:
            series = [
                [
                    r["metrics"][name]["value"]
                    for r in doc["runs"]
                    if r["workload"] == workload and not r["trace"]
                ]
                for doc in (a, b)
            ]
            v = verdict(*series, spec["better"], spec["bound"])
            moved += v["verdict"] in ("improved", "regressed")
            print(
                f"  {workload:<15} {v['verdict']:<10} change/base = "
                f"{v['change']:.6g}/{v['base']:.6g} = {v['ratio']:.4f}  "
                f"base spread {v['spread']:.1%}  wins {v['wins']}/{v['pairs']}"
            )
    print("\nexact counts (traced runs)")
    for workload in a["layers"]:
        differ = [
            name
            for name in EXACT_COUNTS
            if a["layers"][workload][name] != b["layers"].get(workload, {}).get(name)
        ]
        print(f"  {workload:<15} {'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}")
        moved += bool(differ)
    for doc, path in ((a, path_a), (b, path_b)):
        failed = sum(r["failed"] for r in doc["runs"])
        print(f"failed operations in {path}: {failed}")
    return 0 if not moved else 1


# --------------------------------------------------------------------- #
# pinning expected outputs
# --------------------------------------------------------------------- #


def write_expected(args) -> int:
    """Pin digests and exact counts from one traced run per workload and
    seed.  ``survey_sharded`` gets ``survey_serial``'s digests, so it is
    checked against the serial bytes, not against itself."""
    path = Path(args.expected)
    document = json.loads(path.read_text()) if path.exists() else {}
    for seed in args.write_expected:
        pinned = document.setdefault(args.scale, {}).setdefault(str(seed), {})
        for workload in WORKLOAD_NAMES:
            # Unpin first: the run must not be judged by what it replaces.
            pinned.pop(workload, None)
            path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
            result = _spawn(workload, seed, 0, 1, args.scale, path)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: run failed its own checks")
            traced = json.loads((OUT / f"trace_{workload}.json").read_text())
            pinned[workload] = {"digests": traced["digests"], "counts": traced["counts"]}
        if pinned["survey_sharded"]["digests"] != pinned["survey_serial"]["digests"]:
            raise SystemExit(f"seed {seed}: sharded survey differs from serial")
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOAD_NAMES, "scan_export_quiet"])
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--expected", default=str(HERE / "expected.json"))
    parser.add_argument("--setups", type=int, default=3, help="set-ups timed per run")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOAD_NAMES, default=WORKLOAD_NAMES)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", help="write the set of runs to this JSON file")
    parser.add_argument("--history", action="store_true", help="append a row to history.jsonl")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--write-expected", nargs="+", type=int, metavar="SEED")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.write_expected:
        return write_expected(args)
    if args.workload is None:
        return run_set(args)
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # Same str-hash layout in every run (and in its pool workers).
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    result = run_once(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
