"""The columnar paths of a scan, each held to a record-level reference.

A buffered scan keeps its rows as ``RecordColumns`` from the kernel to
whoever reads ``result.records``: the scanner packs them, deferred shards
ship them, the merge drops the replay's doomed rows and interleaves the
shards in one gather per column, and the alias filter selects from them.
Each test here writes the record-by-record rule out and compares.  (A
``raw`` scan's rows, with extra replies, are held to today's records in
``tests/test_raw_backend.py``, beside its fake socket.)
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import pytest
from helpers import counting_records
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scanner.sharded as sharded
from repro.addr.ipv6 import IPv6Prefix
from repro.core.aliasfilter import AliasFilterStats, filter_aliased, is_self_reply
from repro.core.probing import run_stability
from repro.core.survey import SRASurvey, SurveyConfig
from repro.hitlist.aliases import AliasedPrefixList
from repro.netsim.engine import EngineStats
from repro.scanner.backends import ResilienceStats
from repro.scanner.records import RecordColumns, ScanRecord, ScanResult
from repro.scanner.sharded import ShardedScanRunner, ShardOutcome, merge_shard_outcomes
from repro.scanner.stream import MemorySink
from repro.scanner.zmapv6 import ScanConfig, ZMapV6Scanner
from repro.telemetry.scan import ScanTelemetry

ECHO = 129
TYPES = [1, 3, 4, 128, ECHO]


@pytest.fixture
def count_records():
    """Every ``ScanRecord`` this process builds from here on, counted."""
    with counting_records() as built:
        yield built


# ---------------------------------------------------------------------- #
# the merge
# ---------------------------------------------------------------------- #

# Addresses from a small pool, so rows repeat targets and sources.
_POOL = [0, 1, 2**64, 2**64 + 1, 2**127, 2**128 - 1]
rows_of_a_probe = st.lists(
    st.tuples(
        st.sampled_from(_POOL),
        st.sampled_from(TYPES),
        st.integers(0, 3),
        st.integers(1, 4),
    ),
    min_size=0,
    max_size=3,
)


@st.composite
def deferred_shards(draw):
    """Shards of one scan as ``(records, checks, as_columns)`` each — a
    time-ordered run of probes (some with several rows, some with none),
    a check for each probe with an error row, and whether the rows are
    held as columns — plus the set of check times the replay rejects."""
    shards = draw(st.integers(1, 4))
    # Distinct probe times, dealt out to the shards: times tie only
    # within a probe, as in a scan.
    times = draw(
        st.lists(
            st.floats(0.0, 1e3, allow_nan=False), unique=True, max_size=24
        ).map(sorted)
    )
    owners = draw(
        st.lists(
            st.integers(0, shards - 1), min_size=len(times), max_size=len(times)
        )
    )
    data = [([], [], draw(st.booleans())) for _ in range(shards)]
    rejected = set()
    for index, (time, shard) in enumerate(zip(times, owners)):
        records, checks, _ = data[shard]
        replies = draw(rows_of_a_probe)
        target = _POOL[index % len(_POOL)]
        for source, icmp_type, code, count in replies:
            records.append(ScanRecord(target, source, icmp_type, code, count, time))
        if any(icmp_type < 128 for _, icmp_type, _, _ in replies):
            checks.append((time, index))
            if draw(st.booleans()):
                rejected.add(time)
    return data, rejected


def outcomes_of(data) -> list[ShardOutcome]:
    """Fresh outcomes for the drawn shards."""
    return [
        ShardOutcome(
            shard=shard,
            result=ScanResult(
                name="scan",
                epoch=2,
                sent=len(records),
                records=RecordColumns.from_records(records) if as_columns else list(records),
            ),
            stats=EngineStats(
                probes=len(records),
                error_replies=sum(record.icmp_type < 128 for record in records),
            ),
            checks=list(checks),
            shards=len(data),
        )
        for shard, (records, checks, as_columns) in enumerate(data)
    ]


class _Replay:
    """A replay engine whose verdicts the test draws: a check is allowed
    unless its time was drawn as rejected."""

    rejected: set[float] = set()

    def __init__(self, world, epoch):
        pass

    def error_allowed(self, router_id, time):
        return time not in self.rejected


def reference_merge(data, rejected) -> list[ScanRecord]:
    """The record-level merge: drop each rejected check's error rows from
    its shard, concatenate the shards in order, stable-sort on time."""
    rows = []
    for records, checks, _ in data:
        doomed = {time for time, _ in checks if time in rejected}
        rows += [
            record
            for record in records
            if not (record.icmp_type < 128 and record.time in doomed)
        ]
    return sorted(rows, key=lambda record: record.time)


def merged_with(outcomes, rejected, **kwargs) -> ScanResult:
    with mock.patch.object(sharded, "SimulationEngine", _Replay), mock.patch.object(
        _Replay, "rejected", rejected
    ):
        return merge_shard_outcomes(None, outcomes, name="scan", epoch=2, **kwargs)


@settings(max_examples=200, deadline=None)
@given(deferred_shards())
def test_columnar_merge_equals_the_record_merge(drawn):
    data, rejected = drawn
    outcomes = outcomes_of(data)
    merged = merged_with(outcomes, rejected)
    expected = reference_merge(data, rejected)
    assert merged.records == expected
    assert merged.received == len(expected)
    disallowed = sum(time in rejected for _, checks, _ in data for time, _ in checks)
    errors = sum(outcome.stats.error_replies for outcome in outcomes)
    assert merged.engine_stats.suppressed_errors == disallowed
    assert merged.engine_stats.error_replies == errors - disallowed
    # Each shard is left holding the rows the merge kept of it.
    assert sum(outcome.result.received for outcome in outcomes) == len(expected)


@settings(max_examples=50, deadline=None)
@given(deferred_shards())
def test_a_sink_takes_the_merged_records(drawn):
    data, rejected = drawn
    sink = MemorySink()
    merged = merged_with(outcomes_of(data), rejected, sink=sink)
    assert list(sink.rows) == reference_merge(data, rejected)
    assert merged.records == []
    assert merged.records_streamed == len(sink.rows)


def test_ties_keep_shard_order_and_row_order():
    """A rejected check drops only its shard's error rows at its time;
    rows of one probe keep their order; and a time two shards share (no
    scan makes one, but the merge is still a stable sort) goes to the
    lower shard first."""
    first = [ScanRecord(1, 5, 3, 0, 1, 0.5), ScanRecord(1, 6, 129, 0, 2, 0.5)]
    second = [ScanRecord(2, 7, 1, 0, 1, 0.25), ScanRecord(2, 8, 3, 0, 1, 0.5)]
    outcomes = [
        ShardOutcome(
            shard=shard,
            result=ScanResult(name="scan", records=RecordColumns.from_records(rows)),
            stats=EngineStats(),
            checks=[(rows[0].time, shard)],
            shards=2,
        )
        for shard, rows in enumerate([first, second])
    ]
    merged = merged_with(outcomes, {0.25, 0.5})
    assert merged.records == [first[1], second[1]]
    assert merged.engine_stats.suppressed_errors == 2


# ---------------------------------------------------------------------- #
# the alias filter
# ---------------------------------------------------------------------- #

_HOSTS = [0x2001_0DB8 << 96 | i for i in range(4)] + [
    0x2001_0DB9 << 96 | i << 64 for i in range(4)
]
alias_rows = st.lists(
    st.builds(
        ScanRecord,
        target=st.sampled_from(_HOSTS),
        source=st.sampled_from(_HOSTS),
        icmp_type=st.sampled_from(TYPES),
        code=st.integers(0, 3),
        count=st.integers(1, 3),
        time=st.floats(0.0, 10.0, allow_nan=False),
    ),
    max_size=40,
)
prefixes = st.lists(
    st.sampled_from(
        [
            IPv6Prefix(0x2001_0DB8 << 96, 32),
            IPv6Prefix(0x2001_0DB8 << 96, 126),
            IPv6Prefix(0x2001_0DB9 << 96 | 1 << 64, 64),
            IPv6Prefix(0x2001_0DB9 << 96 | 2 << 64, 64),
        ]
    ),
    max_size=3,
)


def reference_filter(records, alias_list):
    """Today's rules, record by record: a target that echoed from itself
    loses every row; then a source inside the alias list loses its row."""
    aliased = {record.target for record in records if is_self_reply(record)}
    kept, self_reply, listed = [], 0, 0
    for record in records:
        if record.target in aliased:
            self_reply += 1
        elif alias_list is not None and alias_list.contains_address(record.source):
            listed += 1
        else:
            kept.append(record)
    return kept, AliasFilterStats(
        kept=len(kept), dropped_self_reply=self_reply, dropped_alias_list=listed
    )


@settings(max_examples=200, deadline=None)
@given(alias_rows, st.none() | prefixes, st.booleans())
def test_columnar_alias_filter_equals_the_record_filter(records, listed, as_columns):
    alias_list = None if listed is None else AliasedPrefixList(listed)
    held = RecordColumns.from_records(records) if as_columns else list(records)
    result = ScanResult(name="scan", epoch=3, sent=50, lost=2, records=held)
    filtered, stats = filter_aliased(result, alias_list)
    kept, expected_stats = reference_filter(records, alias_list)
    assert stats == expected_stats
    assert filtered.records == kept
    assert (filtered.name, filtered.epoch, filtered.sent, filtered.lost) == (
        "scan", 3, 50, 2
    )


def test_alias_filter_keeps_the_scan_counters():
    """The filter drops rows, not what the scan counted: every field but
    the rows comes through, the resilience delta included."""
    resilience = ResilienceStats(retries=1, quarantined_batches=1, faulted_probes=4)
    result = ScanResult(
        name="scan", epoch=3, sent=50, lost=2, loops_observed=5, duration=1.5,
        engine_stats=EngineStats(probes=50), records_streamed=7,
        unmatched_replies=2, resilience=resilience,
        records=[ScanRecord(1, 1, ECHO, 0), ScanRecord(2, 9, ECHO, 0)],
    )
    filtered, stats = filter_aliased(result)
    assert stats.kept == 1
    assert (filtered.faulted_probes, filtered.unmatched_replies) == (4, 2)
    assert replace(filtered, records=[]) == replace(result, records=[])


# ---------------------------------------------------------------------- #
# what the parent of a pool builds
# ---------------------------------------------------------------------- #


def test_pooled_stability_with_telemetry_builds_no_record(
    tiny_world, tiny_hitlist, count_records
):
    """Telemetry folds a pooled scan's registry from its time and count
    columns: the parent builds no record, and exports the serial bytes."""
    targets = tiny_hitlist.unique_slash64s()[:600]

    def campaign(executor):
        telemetry = ScanTelemetry()
        runner = ShardedScanRunner(tiny_world, shards=1, executor=executor)
        report = run_stability(
            tiny_world, targets, epochs=2, runner=runner, telemetry=telemetry
        )
        return report, telemetry.to_jsonl(), telemetry.to_prometheus()

    pooled = campaign("process")
    assert count_records == []
    serial = campaign("serial")
    assert pooled == serial
    assert "sra_scan_records_total" in pooled[2]


def test_sharded_process_survey_builds_no_record_until_read(
    tiny_world, tiny_hitlist, tiny_alias_list, count_records
):
    def survey(shards, parallel):
        config = SurveyConfig(
            seed=11,
            max_bgp_48=2_000,
            max_bgp_64=2_000,
            max_route6=2_000,
            max_hitlist=2_000,
            shards=shards,
            parallel=parallel,
        )
        return SRASurvey(
            tiny_world, tiny_hitlist, alias_list=tiny_alias_list, config=config
        ).run()

    pooled = survey(2, "process")
    rows = pooled.table2_rows()
    assert count_records == []
    serial = survey(1, "serial")
    assert rows == serial.table2_rows()
    for name, input_set in serial.input_sets.items():
        assert pooled.input_sets[name].result.records == input_set.result.records
    assert sum(len(input_set.result.records) for input_set in serial.input_sets.values())


def test_a_scan_in_place_holds_columns(tiny_world, tiny_hitlist, count_records):
    scanner = ZMapV6Scanner(
        sharded.SimulationEngine(tiny_world, epoch=0), ScanConfig(seed=3)
    )
    result = scanner.scan(tiny_hitlist.unique_slash64s()[:300], name="s")
    assert count_records == [] and result.received > 0
    assert replace(result, name="t").records == result.records
