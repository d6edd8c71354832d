"""A ScanResult that holds its rows as RecordColumns.

A pool worker ships a whole scan home as packed columns, and the parent
keeps them: ``records`` is a view built from them on each read, and the
views read them directly.  These tests hold the two to each other.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.probing import run_sra_vs_random, run_stability
from repro.scanner.records import (
    RecordColumns,
    ScanRecord,
    ScanResult,
    merge_results,
)
from repro.scanner.sharded import ShardedScanRunner

# A few fixed addresses so targets and sources repeat (and a source can
# equal its target), plus the edges of both 64-bit halves.
_ADDRESSES = [0, 1, 2**64 - 1, 2**64, 2**127, 2**128 - 1, 0x2001_0DB8 << 96]

addresses = st.one_of(
    st.sampled_from(_ADDRESSES), st.integers(min_value=0, max_value=2**128 - 1)
)
rows = st.builds(
    ScanRecord,
    target=addresses,
    source=addresses,
    icmp_type=st.sampled_from([1, 3, 4, 128, 129]),
    code=st.integers(min_value=0, max_value=255),
    count=st.integers(min_value=1, max_value=2**16),
    time=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


def views(result: ScanResult) -> dict:
    """Every record-derived view of ``result``, dict order included."""
    return {
        "received": result.received,
        "flood_packets": result.flood_packets,
        "responsive_targets": result.responsive_targets,
        "reply_rate": result.reply_rate,
        "sources": result.sources(),
        "echo_sources": result.echo_sources(),
        "error_sources": result.error_sources(),
        "direct_echo_sources": result.direct_echo_sources(),
        "classify_sources": result.classify_sources(),
        "target_to_source": list(result.target_to_source().items()),
    }


def reference_views(records: list[ScanRecord], sent: int, records_streamed: int) -> dict:
    """:func:`views` written out over the record list, row by row."""
    echo = {r.source for r in records if r.icmp_type == 129}
    error = {r.source for r in records if r.icmp_type < 128}
    first_echo: dict[int, int] = {}
    for r in records:
        if r.icmp_type == 129 and r.target not in first_echo:
            first_echo[r.target] = r.source
    responsive = len({r.target for r in records})
    return {
        "received": len(records) + records_streamed,
        "flood_packets": sum(r.count - 1 for r in records),
        "responsive_targets": responsive,
        "reply_rate": responsive / sent if sent else 0.0,
        "sources": {r.source for r in records},
        "echo_sources": echo,
        "error_sources": error,
        "direct_echo_sources": {
            r.source for r in records if r.icmp_type == 129 and r.source == r.target
        },
        "classify_sources": {
            "echo": echo - error, "error": error - echo, "both": echo & error
        },
        "target_to_source": list(first_echo.items()),
    }


def held(columns: RecordColumns, **counters) -> ScanResult:
    return ScanResult(name="scan", records=columns, **counters)


@settings(max_examples=200, deadline=None)
@given(st.lists(rows, max_size=40), st.integers(min_value=0, max_value=5))
def test_views_of_held_columns_equal_the_records_views(records, streamed):
    columns = RecordColumns.from_records(records)
    counters = dict(sent=len(records) + 1, records_streamed=streamed)
    expected = ScanResult(name="scan", records=columns.to_records(), **counters)
    result = held(columns, **counters)
    assert views(result) == views(expected)
    assert views(result) == reference_views(records, **counters)
    # Read, exactly to_records(); the views still agree.
    assert result.records == columns.to_records() == records
    assert views(result) == views(expected)


@pytest.fixture
def columns() -> RecordColumns:
    return RecordColumns.from_records(
        [
            ScanRecord(5, 7, 129, 0, 3, 0.25),
            ScanRecord(5, 9, 129, 0, 1, 0.25),
            ScanRecord(6, 6, 129, 0, 1, 0.5),
            ScanRecord(8, 7, 3, 0, 1, 0.75),
            ScanRecord(2**100, 2**70 + 1, 1, 3, 1, 1.0),
        ]
    )


# The fixture's views, worked out by hand: target 5 answers twice (the
# first echo source wins), source 7 sends both an echo and an error, and
# the first row's count of 3 adds two flood packets.
WORKED = {
    "received": 5,
    "flood_packets": 2,
    "responsive_targets": 4,
    "reply_rate": 4 / 9,
    "sources": {7, 9, 6, 2**70 + 1},
    "echo_sources": {7, 9, 6},
    "error_sources": {7, 2**70 + 1},
    "direct_echo_sources": {6},
    "classify_sources": {"echo": {9, 6}, "error": {2**70 + 1}, "both": {7}},
    "target_to_source": [(5, 7), (6, 6)],
}


@pytest.mark.parametrize("view", sorted(WORKED))
def test_worked_example(columns, view):
    for result in (
        held(columns, sent=9),
        ScanResult(name="scan", sent=9, records=columns.to_records()),
    ):
        assert views(result)[view] == WORKED[view]


@pytest.mark.parametrize(
    ("name", "expected"),
    [("target", [5, 5, 6, 8, 2**100]), ("source", [7, 9, 6, 7, 2**70 + 1])],
)
def test_addresses_join_both_halves(columns, name, expected):
    assert list(columns.addresses(name)) == expected


def test_held_columns_survive_pickle(columns):
    result = held(columns, sent=9, epoch=4)
    thawed = pickle.loads(pickle.dumps(result))
    assert views(thawed) == views(held(columns, sent=9, epoch=4))
    assert thawed.records == columns.to_records()
    assert thawed == result


def test_held_columns_survive_replace(columns):
    result = held(columns, sent=9)
    renamed = replace(result, name="other")
    assert renamed.name == "other"
    assert renamed.records == columns.to_records()
    assert views(renamed) == views(held(columns, sent=9))
    # What ShardOutcome.__reduce__ does: the rows travel separately.
    assert replace(held(columns), records=[]).records == []


def test_held_columns_survive_merge_results(columns):
    other = [ScanRecord(1, 1, 129, 0, 1, 2.0)]
    merged = merge_results("m", [held(columns, sent=9), ScanResult("b", records=other)])
    expected = merge_results(
        "m",
        [
            ScanResult("a", sent=9, records=columns.to_records()),
            ScanResult("b", records=list(other)),
        ],
    )
    assert merged.records == expected.records
    assert views(merged) == views(expected)


def test_assigning_records_replaces_held_columns(columns):
    result = held(columns)
    result.records = [ScanRecord(1, 2, 129, 0, 1, 0.0)]
    assert result.sources() == {2}
    assert result.received == 1


class TestPooledCampaignParent:
    """A pooled Fig. 5 + Fig. 6b campaign keeps every scan as columns."""

    def test_builds_no_record_and_equals_a_serial_runner(
        self, tiny_world, tiny_hitlist, monkeypatch
    ):
        targets = tiny_hitlist.unique_slash64s()[:600]

        def campaign(executor):
            runner = ShardedScanRunner(tiny_world, shards=1, executor=executor)
            series = run_sra_vs_random(tiny_world, targets, epochs=2, runner=runner)
            stability = run_stability(tiny_world, targets, epochs=2, runner=runner)
            return series, stability

        serial_series, serial_stability = campaign("serial")
        built = []
        init = ScanRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        # Pool workers fork with this in place too, but their counts stay
        # in their own memory: only the parent's land in ``built``.
        monkeypatch.setattr(ScanRecord, "__init__", counting_init)
        series, stability = campaign("process")
        scans = [scan.result for scan in (*series.sra, *series.random)]
        serial_scans = [
            scan.result for scan in (*serial_series.sra, *serial_series.random)
        ]
        assert [views(scan) for scan in scans] == [
            views(scan) for scan in serial_scans
        ]
        assert stability == serial_stability
        assert series.advantage_per_epoch() == serial_series.advantage_per_epoch()
        assert built == []
        monkeypatch.undo()
        assert sum(scan.received for scan in scans) > 0
        assert [scan.records for scan in scans] == [
            scan.records for scan in serial_scans
        ]
