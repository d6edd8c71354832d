"""Streaming pipeline tests: target streams, windows, and sinks.

The load-bearing invariants:

* concatenating any shard-window split of the permuted visit order
  reproduces the serial order exactly (hypothesis property — this is
  what makes sharded streaming bit-identical to serial scans),
* lazy streams realise shared-RNG predecessors in build order, and
  cross a process boundary as the targets they realised,
* save → load → stream round-trips through RFC 5952 formatting,
* sinks see exactly the records a buffered scan would keep.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addr.ipv6 import IPv6Prefix, format_address, parse_address
from repro.addr.permutation import CyclicPermutation
from repro.core.survey import SRASurvey, SurveyConfig
from repro.scanner.records import RecordColumns, ScanRecord, ScanResult
from repro.scanner.stream import (
    CountingSink,
    CsvSink,
    IndexWindow,
    JsonlSink,
    LazyStream,
    MemorySink,
    RecordSink,
    SubnetPartitionStream,
    TargetStream,
    TeeSink,
    gather_targets,
    scannable,
    shard_positions,
    shard_window,
    stream_buffered,
)
from repro.scanner.targets import TargetList, hitlist_slash64_targets

sizes = st.integers(min_value=1, max_value=300)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
shard_counts = st.integers(min_value=1, max_value=8)


class TestShardWindows:
    @given(sizes, seeds, shard_counts, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_windows_concatenate_to_serial_order(
        self, size, seed, shards, permute
    ):
        """Any shard-window split, merged by global position, IS the
        serial visit order — no index lost, duplicated, or reordered."""
        serial = list(
            shard_positions(size, seed=seed, epoch=0, permute=permute)
        )
        split = []
        for shard in range(shards):
            split.extend(
                shard_positions(
                    size,
                    seed=seed,
                    epoch=0,
                    window=IndexWindow(shard, shards),
                    permute=permute,
                )
            )
        split.sort(key=lambda pair: pair[0])
        assert split == serial
        assert sorted(index for _, index in split) == list(range(size))

    @given(sizes, seeds)
    @settings(max_examples=30, deadline=None)
    def test_epoch_changes_order_not_membership(self, size, seed):
        first = [i for _, i in shard_positions(size, seed=seed, epoch=0)]
        second = [i for _, i in shard_positions(size, seed=seed, epoch=7)]
        assert sorted(first) == sorted(second) == list(range(size))

    @given(sizes, seeds, shard_counts, st.integers(min_value=0, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_permuted_windows_step_through_the_cyclic_walk(
        self, size, seed, shards, epoch
    ):
        """Serial slot ``p`` visits step ``p`` of the epoch's cyclic walk,
        so shard ``s`` of ``n`` takes every ``n``-th step from ``s`` — read
        in walk order, never by seeking into the permutation."""
        walk = list(CyclicPermutation(size, seed=seed ^ epoch))
        for shard in range(shards):
            positions, indexes = shard_window(
                size, seed=seed, epoch=epoch, window=IndexWindow(shard, shards)
            )
            assert positions == range(shard, size, shards)
            assert list(indexes) == walk[shard::shards]

    def test_window_validation(self):
        with pytest.raises(ValueError):
            list(shard_positions(10, seed=1, window=IndexWindow(3, 3)))

    def test_empty_stream_yields_nothing(self):
        assert list(shard_positions(0, seed=1)) == []


class TestRoundTrip:
    @given(
        addresses=st.lists(
            st.integers(min_value=0, max_value=(1 << 128) - 1),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_save_load_stream_round_trip(self, tmp_path_factory, addresses):
        """save → load → stream survives RFC 5952 canonicalisation."""
        path = tmp_path_factory.mktemp("targets") / "t.txt"
        original = TargetList(name="rt", targets=list(dict.fromkeys(addresses)))
        path.write_text("".join(f"{format_address(t)}\n" for t in original))
        stream = TargetList.load(path)
        assert list(stream) == original.targets
        assert [parse_address(format_address(t)) for t in stream] == list(stream)

    def test_stream_of_loaded_list_keeps_provenance(self, tiny_hitlist, tmp_path):
        targets = hitlist_slash64_targets(tiny_hitlist, max_targets=64)
        path = tmp_path / "h.txt"
        path.write_text("".join(f"{format_address(t)}\n" for t in targets))
        stream = TargetList.load(path, subnet_length=64)
        assert stream.name == "h"
        assert stream.subnet_length == 64
        assert list(stream) == targets.targets


class TestLazyStream:
    def test_realises_once(self):
        calls = []

        def factory():
            calls.append(1)
            return [3, 1, 2]

        stream = LazyStream(factory, name="lazy")
        assert not stream.realised
        assert stream.buffered == 0
        assert len(stream) == 3
        assert stream[1] == 1
        assert list(stream) == [3, 1, 2]
        assert calls == [1]
        assert stream.buffered == 3

    def test_after_chain_realises_predecessors_first(self):
        order = []
        first = LazyStream(lambda: order.append("a") or [1], name="a")
        second = LazyStream(
            lambda: order.append("b") or [2], name="b", after=first
        )
        third = LazyStream(
            lambda: order.append("c") or [3], name="c", after=second
        )
        # Touch the LAST stream first: the chain must still realise in
        # build order, preserving shared-RNG draw order.
        assert list(third) == [3]
        assert order == ["a", "b", "c"]

    def test_release_drops_buffer_and_blocks_reaccess(self):
        stream = LazyStream(lambda: [1, 2], name="once")
        assert len(stream) == 2
        stream.release()
        assert stream.buffered == 0
        with pytest.raises(RuntimeError):
            len(stream)

    def test_released_predecessor_does_not_rerun(self):
        order = []
        first = LazyStream(lambda: order.append("a") or [1], name="a")
        second = LazyStream(
            lambda: order.append("b") or [2], name="b", after=first
        )
        list(first)
        first.release()
        # Realising the successor must NOT re-run the released
        # predecessor's factory (its RNG draws are already spent).
        assert list(second) == [2]
        assert order == ["a", "b"]

    @pytest.mark.parametrize("touch_first", [True, False])
    def test_pickles_as_its_data(self, touch_first):
        """The factory is a closure and cannot cross a process boundary
        (spawn/forkserver pickle a pool's initargs); the targets can, as a
        ``TargetList`` with everything a worker reads off the stream."""
        stream = LazyStream(lambda: [3, 1, 2], name="lazy", subnet_length=48)
        if touch_first:
            assert len(stream) == 3
        clone = pickle.loads(pickle.dumps(stream))
        assert isinstance(clone, TargetList)
        assert list(clone) == [3, 1, 2]
        assert len(clone) == clone.buffered == 3
        assert clone.name == "lazy"
        assert clone.subnet_length == 48
        assert stream.realised  # pickling realises; it never re-runs

    def test_released_stream_refuses_to_pickle(self):
        stream = LazyStream(lambda: [1, 2], name="once")
        assert len(stream) == 2
        stream.release()
        with pytest.raises(RuntimeError, match="released"):
            pickle.dumps(stream)

    def test_survey_input_sets_pickle_as_the_targets_they_realise(
        self, tiny_world, tiny_hitlist
    ):
        """A pool worker receives exactly the targets the parent's lazy
        chain realises — pickled last set first, the RNG-sharing sets still
        draw in build order."""
        config = SurveyConfig(
            seed=13,
            slash48_per_prefix=4,
            max_bgp_48=400,
            slash64_per_prefix=4,
            max_bgp_64=300,
            route6_per_prefix=2,
            max_route6=300,
        )
        expected = {
            name: list(stream)
            for name, stream in SRASurvey(tiny_world, tiny_hitlist, config=config)
            .build_input_sets()
            .items()
        }
        streams = SRASurvey(
            tiny_world, tiny_hitlist, config=config
        ).build_input_sets()
        assert list(streams) == list(expected)
        for name in reversed(list(streams)):
            clone = pickle.loads(pickle.dumps(streams[name]))
            assert type(clone) is TargetList, name
            assert clone.name == name
            assert clone.subnet_length == streams[name].subnet_length, name
            assert list(clone) == expected[name], name


class TestComputableStreams:
    def test_subnet_partition_matches_eager_enumeration(self):
        prefix = IPv6Prefix.parse("2001:db8::/44")
        stream = SubnetPartitionStream(prefix, 48)
        eager = [subnet.network for subnet in prefix.subnets(48)]
        assert len(stream) == len(eager) == 16
        assert list(stream) == eager
        assert [stream[i] for i in range(len(stream))] == eager
        assert stream[-1] == eager[-1]
        assert stream[2:5] == eager[2:5]
        assert stream.buffered == 0

    def test_bounds(self):
        stream = SubnetPartitionStream(IPv6Prefix.parse("2001:db8::/44"), 48)
        with pytest.raises(IndexError):
            stream[16]
        with pytest.raises(ValueError):
            SubnetPartitionStream(IPv6Prefix.parse("2001:db8::/64"), 48)

    def test_pickles_as_itself_in_constant_size(self):
        """What a process pool is sent for a computable stream: the object,
        a few hundred bytes at any target count."""
        stream = SubnetPartitionStream(IPv6Prefix.parse("2001:db8::/32"), 64)
        payload = pickle.dumps(stream)
        assert len(stream) == 1 << 32 and len(payload) < 512
        clone = pickle.loads(payload)
        assert type(clone) is SubnetPartitionStream and clone.buffered == 0
        assert clone.name == stream.name
        assert len(clone) == len(stream) and clone[-1] == stream[-1]


class TestTargetList:
    """The one list-backed stream: no wrapper or coercion in between."""

    def test_is_a_stream_that_scans_in_place(self):
        targets = TargetList("t", [5, 6, 7, 8], subnet_length=64)
        assert isinstance(targets, TargetStream)
        assert scannable(targets) is targets
        assert targets.gather([3, 0, 0, 2]) == [8, 5, 5, 7]
        assert gather_targets(targets, range(2)) == [5, 6]
        assert targets.buffered == stream_buffered(targets) == 4

    def test_no_stream_carries_a_recipe(self):
        """``spec()`` lives on the base class alone and answers None for
        every stream, so the end-to-end tracer replays a shard from the
        stream's data."""

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        for cls in subclasses(TargetStream):
            assert "spec" not in vars(cls), cls
        for stream in (
            TargetList("t", [1]),
            LazyStream(lambda: [1], name="l"),
            SubnetPartitionStream(IPv6Prefix.parse("2001:db8::/44"), 48),
        ):
            assert stream.spec() is None, stream


class TestUniformSliceSemantics:
    """Regression: every TargetStream slices like a plain list.

    ``stream[i:j:k]`` must return a ``list`` equal to
    ``list(stream)[i:j:k]`` for every implementation — the list-backed
    stream used to leak its backing container type (a tuple-backed list
    sliced to a tuple).
    """

    def _streams(self):
        source = list(range(100, 140))
        lazy = LazyStream(lambda: list(source), name="lazy")
        return [
            TargetList("list", list(source)),
            TargetList("tuple-backed", tuple(source)),
            lazy,
            SubnetPartitionStream(IPv6Prefix.parse("2001:db8::/42"), 48),
        ]

    @pytest.mark.parametrize(
        "window",
        [
            slice(None),
            slice(3, 17),
            slice(17, 3, -1),
            slice(None, None, 5),
            slice(None, None, -1),
            slice(-7, None),
            slice(1000, 2000),
        ],
        ids=str,
    )
    def test_slice_matches_realised_list(self, window):
        for stream in self._streams():
            realised = list(stream)
            got = stream[window]
            assert type(got) is list, stream.name
            assert got == realised[window], stream.name

    def test_int_indexing_unchanged(self):
        for stream in self._streams():
            realised = list(stream)
            assert stream[0] == realised[0]
            assert stream[-1] == realised[-1]


class TestGauges:
    def test_stream_buffered(self):
        assert stream_buffered([1, 2, 3]) == 3
        assert stream_buffered(SubnetPartitionStream(
            IPv6Prefix.parse("2001:db8::/44"), 48
        )) == 0
        lazy = LazyStream(lambda: [1], name="l")
        assert stream_buffered(lazy) == 0
        len(lazy)
        assert stream_buffered(lazy) == 1
        assert stream_buffered(iter(())) == 0


def _rows() -> RecordColumns:
    return RecordColumns.from_records(_records())


def _records():
    return [
        ScanRecord(target=1, source=10, icmp_type=129, code=0, count=1, time=0.1),
        ScanRecord(target=2, source=11, icmp_type=1, code=0, count=3, time=0.2),
        ScanRecord(target=3, source=10, icmp_type=1, code=0, count=1, time=0.3),
        ScanRecord(target=4, source=12, icmp_type=129, code=0, count=1, time=0.4),
        ScanRecord(target=4, source=12, icmp_type=129, code=0, count=1, time=0.5),
    ]


class TestSinks:
    def test_memory_sink_preserves_records(self):
        sink = MemorySink()
        sink.drain(_rows())
        sink.drain(_rows()[:2])
        assert list(sink.rows) == _records() + _records()[:2]
        assert sink.emitted == 7

    def test_counting_sink_matches_result_aggregates(self):
        result = ScanResult(name="s", records=_records())
        sink = CountingSink()
        for start in range(5):  # row by row: the fold adds up
            sink.drain(_rows()[start : start + 1])
        assert sink.emitted == len(result.records)
        assert sink.flood_packets == result.flood_packets
        assert len(sink.responsive_targets) == result.responsive_targets
        assert sink.sources == result.sources()
        assert sink.echo_sources == result.echo_sources()
        assert sink.error_sources == result.error_sources()
        assert sink.classify_sources() == result.classify_sources()
        assert (sink.echo, sink.errors) == (3, 2)

    def test_jsonl_sink_to_handle_matches_writer(self, tmp_path):
        import io

        result = ScanResult(name="s", records=_records())
        path = tmp_path / "w.jsonl"
        result.write_jsonl(path)
        handle = io.StringIO()
        sink = JsonlSink(handle)
        sink.drain(_rows())
        sink.close()  # caller-owned handle stays open
        assert handle.getvalue() == path.read_text()
        assert sink.emitted == 5

    def test_tee_fans_out(self):
        first, second = MemorySink(), MemorySink()
        tee = TeeSink((first, second))
        tee.drain(_rows())
        assert list(first.rows) == list(second.rows) == _records()
        assert tee.emitted == 5

    def test_sink_context_manager_closes_owned_file(self, tmp_path):
        path = tmp_path / "ctx.jsonl"
        with JsonlSink(path) as sink:
            sink.drain(_rows()[:1])
        assert path.read_text().startswith("{")


# One address per zero-run shape RFC 5952 distinguishes, as 16-bit groups.
_SHAPES = [
    (0, 0, 0, 0, 0, 0, 0, 0),  # ::
    (0, 0, 0, 0, 0, 0, 0, 1),  # ::1
    (0, 0, 1, 2, 3, 4, 5, 6),  # leading run
    (1, 2, 3, 4, 5, 6, 0, 0),  # trailing run
    (0x2001, 0xDB8, 0, 0, 0, 0, 0, 1),  # middle run
    (1, 0, 0, 2, 0, 0, 3, 4),  # tied runs: the first is compressed
    (1, 0, 0, 2, 0, 0, 0, 3),  # the longer run wins, wherever it is
    (1, 0, 2, 3, 4, 5, 6, 7),  # a lone zero group is not a run
    (1, 2, 3, 4, 5, 6, 7, 8),  # no run
    (0xFFFF,) * 8,
]
_ADDRESSES = [
    sum(group << (112 - 16 * index) for index, group in enumerate(groups))
    for groups in _SHAPES
]


def _shape_records(n: int) -> list[ScanRecord]:
    """``n`` records cycling every address shape (as target and, out of
    step, as source), count extremes and awkward times."""
    counts = [1, 2, 2**22, 4_194_303]
    times = [0.0, 1e-07, 5.999999, 0.1 + 0.2, 12345.678901234]
    return [
        ScanRecord(
            target=_ADDRESSES[i % len(_ADDRESSES)],
            source=_ADDRESSES[(i * 7 + 3) % len(_ADDRESSES)],
            icmp_type=(129, 1, 3)[i % 3],
            code=(0, 3, 0)[i % 3],
            count=counts[i % len(counts)],
            time=times[i % len(times)] + (i // len(times)),
        )
        for i in range(n)
    ]


def _reference_text(records) -> tuple[str, str]:
    """JSONL and CSV of ``records`` from the standard library alone:
    ``ipaddress`` for RFC 5952, ``json.dumps`` and ``csv.writer`` (the
    pre-batch sinks' own writers) for the formats."""
    import csv
    import io
    import json
    from ipaddress import IPv6Address

    jsonl = io.StringIO()
    table = io.StringIO()
    writer = csv.writer(table)
    writer.writerow(["target", "source", "icmp_type", "code", "count", "time"])
    for record in records:
        target = str(IPv6Address(record.target))
        source = str(IPv6Address(record.source))
        jsonl.write(
            json.dumps(
                {
                    "target": target,
                    "source": source,
                    "icmp_type": record.icmp_type,
                    "code": record.code,
                    "count": record.count,
                    "time": record.time,
                }
            )
            + "\n"
        )
        writer.writerow(
            [
                target,
                source,
                record.icmp_type,
                record.code,
                record.count,
                f"{record.time:.6f}",
            ]
        )
    return jsonl.getvalue(), table.getvalue()


def _feed_at_once(sink, rows):
    sink.drain(rows)


def _feed_in_pieces(sink, rows):
    # Uneven pieces, an empty one among them, one longer than a chunk.
    cuts = [0, 1, 1, 8, 1500, len(rows)]
    for start, stop in zip(cuts, cuts[1:]):
        sink.drain(rows[start:stop])


def _feed_one_by_one(sink, rows):
    for start in range(len(rows)):
        sink.drain(rows[start : start + 1])


class TestTextSinksAgainstReference:
    """The batch-rendered sinks write the bytes ``json.dumps`` and
    ``csv.writer`` would, however the records are fed."""

    RECORDS = _shape_records(2600)  # > 2 drain chunks

    @pytest.mark.parametrize(
        "feed", [_feed_at_once, _feed_in_pieces, _feed_one_by_one]
    )
    @pytest.mark.parametrize("tee", [False, True])
    def test_bytes_and_offsets(self, tmp_path, feed, tee):
        records = self.RECORDS
        expected_jsonl, expected_csv = _reference_text(records)
        jsonl = JsonlSink(tmp_path / "r.jsonl")
        table = CsvSink(tmp_path / "r.csv")
        memory, counts = MemorySink(), CountingSink()
        if tee:  # the counter shares the tee's int columns (--summary)
            sinks = [TeeSink((jsonl, memory, counts, table))]
        else:
            sinks = [jsonl, table]
        for sink in sinks:
            feed(sink, RecordColumns.from_records(records))
        # Staged, not yet promoted.
        assert (tmp_path / "r.jsonl.partial").exists()
        assert not (tmp_path / "r.jsonl").exists()
        for sink in sinks:
            sink.close()
        assert not (tmp_path / "r.csv.partial").exists()
        assert (tmp_path / "r.jsonl").read_bytes() == expected_jsonl.encode()
        assert (tmp_path / "r.csv").read_bytes() == expected_csv.encode()
        assert jsonl.byte_offset() == (tmp_path / "r.jsonl").stat().st_size
        assert table.byte_offset() == (tmp_path / "r.csv").stat().st_size
        assert jsonl.emitted == table.emitted == len(records)
        if tee:
            assert list(memory.rows) == records
            assert sinks[0].emitted == len(records)
            alone = CountingSink()
            feed(alone, RecordColumns.from_records(records))
            assert [getattr(counts, name) for name in CountingSink.__slots__] == [
                getattr(alone, name) for name in CountingSink.__slots__
            ]
            assert sinks[0].byte_offset() == len(expected_jsonl) + len(expected_csv)

    def test_scan_result_writers_share_the_bytes(self, tmp_path):
        records = self.RECORDS[:300]
        expected_jsonl, expected_csv = _reference_text(records)
        result = ScanResult(name="s", records=records)
        result.write_jsonl(tmp_path / "w.jsonl")
        result.write_csv(tmp_path / "w.csv")
        assert (tmp_path / "w.jsonl").read_bytes() == expected_jsonl.encode()
        assert (tmp_path / "w.csv").read_bytes() == expected_csv.encode()

    def test_empty_stream_is_a_header_only_csv(self, tmp_path):
        with TeeSink((JsonlSink(tmp_path / "e.jsonl"), CsvSink(tmp_path / "e.csv"))) as tee:
            tee.drain(RecordColumns.empty())
        assert (tmp_path / "e.jsonl").read_bytes() == b""
        assert (tmp_path / "e.csv").read_bytes() == _reference_text([])[1].encode()
        assert tee.byte_offset() == (tmp_path / "e.csv").stat().st_size

    @pytest.mark.parametrize("kind", [JsonlSink, CsvSink])
    def test_abort_keeps_the_partial_and_never_promotes(self, tmp_path, kind):
        dest = tmp_path / "out.txt"
        with pytest.raises(RuntimeError, match="scan died"):
            with kind(dest) as sink:
                sink.drain(RecordColumns.from_records(self.RECORDS[:10]))
                raise RuntimeError("scan died")
        assert not dest.exists()
        partial = tmp_path / "out.txt.partial"
        assert partial.stat().st_size == sink.byte_offset()
        sink.abort()  # idempotent
        sink.close()  # a closed handle is never promoted afterwards
        assert not dest.exists()

    @pytest.mark.parametrize("write", ["jsonl-sink", "csv-sink", "write_csv", "write_jsonl"])
    def test_promotion_fsyncs_the_data_before_the_rename(self, tmp_path, monkeypatch, write):
        """A clean close makes the staged file durable, then final: the
        data's fsync comes before ``os.replace`` (and the directory's
        after), as in ``atomic_write_bytes``."""
        import os

        dest = tmp_path / "out.txt"
        staged = tmp_path / "out.txt.partial"
        calls = []
        fsync, replace = os.fsync, os.replace

        def spy_fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def spy_replace(src, dst):
            calls.append(("replace", os.stat(src).st_ino))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        rows = RecordColumns.from_records(self.RECORDS[:10])
        if write.endswith("sink"):
            with (JsonlSink if write == "jsonl-sink" else CsvSink)(dest) as sink:
                sink.drain(rows)
        else:
            getattr(ScanResult(name="s", records=rows), write)(dest)
        data = dest.stat().st_ino
        assert not staged.exists()
        assert calls[:2] == [("fsync", data), ("replace", data)]
        assert calls[2:] == [("fsync", tmp_path.stat().st_ino)]

    def test_drain_is_the_base_class_write_path(self):
        # The benchmark's tracer spans RecordSink.drain itself: a subclass
        # overriding it would drop out of the sink_emit_s span unnoticed.
        for cls in (MemorySink, CountingSink, JsonlSink, CsvSink, TeeSink):
            assert cls.drain is RecordSink.drain, cls
