"""Records are a view: no scan, sink or writer path builds a ``ScanRecord``.

A scan's rows travel as ``RecordColumns`` from the kernel to the text on
disk; ``ScanResult.records`` is built only when a user or a test reads
it.  These tests count ``ScanRecord.__init__`` calls on every path that
writes or feeds back rows, and hold ``sra-scan``'s streamed mode to its
buffered mode byte for byte — summary included, which the streamed mode
once reported as zeros for everything it never buffered.
"""

from __future__ import annotations

import contextlib
import io
import random
import re

import pytest

from helpers import counting_records
from repro.netsim.engine import SimulationEngine
from repro.scanner import cli
from repro.scanner.records import RecordColumns, ScanRecord, ScanResult
from repro.scanner.sharded import ShardedScanRunner
from repro.scanner.stream import CountingSink, CsvSink, JsonlSink, MemorySink, TeeSink
from repro.scanner.strategies import build_strategy, run_strategy_epochs
from repro.scanner.targets import bgp_slash48_targets
from repro.scanner.zmapv6 import ScanConfig, ZMapV6Scanner

CONFIG = ScanConfig(pps=50_000.0, seed=5)
# What streamed and buffered runs write byte for byte alike.
IDENTICAL = ("records.csv", "records.jsonl", "telemetry.jsonl")


@pytest.fixture(scope="module")
def targets(tiny_world):
    return list(
        bgp_slash48_targets(
            tiny_world.bgp, max_per_prefix=12, max_targets=1_500, rng=random.Random(3)
        )
    )


def _tee(directory) -> TeeSink:
    """Every kind of sink at once."""
    return TeeSink(
        (
            JsonlSink(directory / "records.jsonl"),
            CsvSink(directory / "records.csv"),
            CountingSink(),
            MemorySink(),
        )
    )


# ---------------------------------------------------------------------- #
# sra-scan, streamed vs buffered
# ---------------------------------------------------------------------- #

LAYOUTS = {
    "shards-1": ["--shards", "1"],
    "shards-4-serial": ["--shards", "4", "--parallel", "serial"],
}


@pytest.fixture(scope="module", params=sorted(LAYOUTS))
def sra_scan_runs(request, tmp_path_factory):
    """``sra-scan`` on the tiny world with a checkpoint journal, buffered
    and streamed: per mode, its exit code, stdout, output directory and
    the ``ScanRecord``\\ s it built."""
    runs = {}
    for mode in ("buffered", "streamed"):
        out = tmp_path_factory.mktemp(f"{request.param}-{mode}")
        argv = [
            "--world", "tiny",
            "--seed", "7",
            "--input-set", "hitlist-64",
            "--no-alias-filter",
            *LAYOUTS[request.param],
            "--checkpoint", str(out / "scan.ckpt"),
            "--output", str(out / "records.csv"),
            "--jsonl", str(out / "records.jsonl"),
            "--telemetry-out", str(out / "telemetry.jsonl"),
            "--metrics-out", str(out / "metrics.prom"),
            "--summary",
        ]  # fmt: skip
        if mode == "streamed":
            argv.append("--stream-records")
        stdout = io.StringIO()
        with counting_records() as built, contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        runs[mode] = (code, stdout.getvalue(), out, len(built))
    return runs


class TestSraScanStreamedEqualsBuffered:
    def test_both_modes_succeed_and_build_no_record(self, sra_scan_runs):
        for code, _, _, built in sra_scan_runs.values():
            assert (code, built) == (0, 0)

    def test_summaries_are_identical(self, sra_scan_runs):
        buffered, streamed = (sra_scan_runs[mode][1] for mode in ("buffered", "streamed"))
        assert streamed == buffered
        replies = int(re.search(r"replies +: (\d+)", streamed).group(1))
        router_ips = int(re.search(r"router IPs : (\d+)", streamed).group(1))
        assert replies > 0 and router_ips > 0
        assert "(0.0% of targets)" not in streamed

    def test_outputs_are_identical(self, sra_scan_runs):
        buffered = sra_scan_runs["buffered"][2]
        streamed = sra_scan_runs["streamed"][2]
        for name in IDENTICAL:
            assert (streamed / name).read_bytes() == (buffered / name).read_bytes(), name
        replies = int(re.search(r"replies +: (\d+)", sra_scan_runs["buffered"][1]).group(1))
        assert (buffered / "records.jsonl").read_bytes().count(b"\n") == replies

    def test_metrics_differ_only_in_the_buffered_gauge(self, sra_scan_runs):
        """Streaming's one telemetry delta: the rows the result holds."""
        text = {
            mode: (run[2] / "metrics.prom").read_text().splitlines()
            for mode, run in sra_scan_runs.items()
        }
        gauge = "sra_scan_records_buffered"
        assert [line for line in text["streamed"] if not line.startswith(gauge)] == [
            line for line in text["buffered"] if not line.startswith(gauge)
        ]
        assert f"{gauge} 0" in text["streamed"]


# ---------------------------------------------------------------------- #
# zero ScanRecords on every row path
# ---------------------------------------------------------------------- #


class TestNoScanRecordIsBuilt:
    def test_streamed_scan_in_place(self, tiny_world, targets, tmp_path):
        scanner = ZMapV6Scanner(SimulationEngine(tiny_world, epoch=0), CONFIG)
        with counting_records() as built, _tee(tmp_path) as sink:
            result = scanner.scan(targets, name="s", sink=sink)
        assert built == [] and result.records_streamed > 0

    def test_streamed_sharded_merge(self, tiny_world, targets, tmp_path):
        runner = ShardedScanRunner(tiny_world, shards=4, executor="serial")
        with counting_records() as built, _tee(tmp_path) as sink:
            result = runner.scan(targets, CONFIG, name="s", epoch=0, sink=sink)
        assert built == [] and result.records_streamed > 0

    def test_scan_result_writers(self, tiny_world, targets, tmp_path):
        scanner = ZMapV6Scanner(SimulationEngine(tiny_world, epoch=0), CONFIG)
        result = scanner.scan(targets, name="s")
        with counting_records() as built:
            result.write_csv(tmp_path / "w.csv")
            result.write_jsonl(tmp_path / "w.jsonl")
        assert built == [] and result.received > 0
        assert (tmp_path / "w.jsonl").read_text().count("\n") == result.received

    @pytest.mark.parametrize("name", ["hitlist-feedback", "entropy-clustered"])
    def test_strategy_epochs(self, tiny_world, name):
        strategy = build_strategy(name, tiny_world, seed=5, budget=200)
        runner = ShardedScanRunner(tiny_world, shards=2, executor="serial")
        with counting_records() as built:
            rows = list(
                run_strategy_epochs(
                    strategy,
                    runner,
                    2,
                    scan_name=lambda index: name,
                    scan_config=lambda index, size: CONFIG,
                )
            )
        assert built == []
        assert strategy.feedback_state()  # the epochs did feed back
        assert sum(result.received for _, result in rows) > 0

    def test_records_are_built_on_each_read(self):
        result = ScanResult(name="s", records=[ScanRecord(1, 2, 129, 0)])
        assert type(result.rows) is RecordColumns
        with counting_records() as built:
            first, second = result.records, result.records
        assert first == second == [ScanRecord(1, 2, 129, 0)]
        assert first is not second and len(built) == 2
