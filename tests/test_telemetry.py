"""Telemetry subsystem tests: metrics, events, facade, wiring, CLIs.

The golden-file regression suite lives in ``test_telemetry_golden.py``
and the batch/shard invariance suite in ``test_hotpath_determinism.py``;
this file covers the unit semantics and the CLI surface.
"""

import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.survey import SRASurvey, SurveyConfig
from repro.netsim.engine import SimulationEngine
from repro.scanner.cli import main as scan_main
from repro.scanner.sharded import ShardedScanRunner
from repro.scanner.zmapv6 import ScanConfig, ZMapV6Scanner
from repro.telemetry import (
    EVENT_TYPES,
    SCHEMA_VERSION,
    Counter,
    Histogram,
    MetricsRegistry,
    ScanTelemetry,
    make_event,
)
from repro.telemetry.metrics import format_number
from repro.telemetry.scan import ENGINE_STAT_COUNTERS


class TestFormatNumber:
    def test_integral_floats_print_as_ints(self):
        assert format_number(5.0) == "5"
        assert format_number(0.0) == "0"
        assert format_number(-3.0) == "-3"

    def test_non_integral_floats_use_repr(self):
        assert format_number(0.25) == "0.25"

    def test_ints_pass_through(self):
        assert format_number(7) == "7"

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            format_number(float("nan"))

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            format_number(True)


class TestCounter:
    def test_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestHistogram:
    def test_le_bucket_semantics(self):
        hist = Histogram("h", edges=(1.0, 2.0))
        hist.observe(1.0)  # le="1" bucket (inclusive upper bound)
        hist.observe(1.5)
        hist.observe(99.0)  # +Inf bucket
        assert hist.counts == [1, 1, 1]
        assert hist.cumulative() == [1, 2, 3]
        assert hist.total == 3

    def test_edges_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", edges=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", edges=())

    def test_sum_is_order_invariant(self):
        # The whole point of the exact accumulator: a streamed scan adds
        # its observations in a different grouping than a buffered one.
        values = [0.1, 0.2, 0.3, 1e-9, 7.7] * 20
        forward = Histogram("h", edges=(1.0,))
        backward = Histogram("h", edges=(1.0,))
        for value in values:
            forward.observe(value)
        for value in reversed(values):
            backward.observe(value)
        assert forward.sum == backward.sum

    # The accumulator against an independent exact reference: rationals.
    # Magnitudes are capped at 1e290 so 2**12 observations of them cannot
    # overflow the (float) sum; the subnormal end is unrestricted.
    OBSERVATIONS = st.lists(
        st.tuples(
            st.one_of(
                st.floats(min_value=-1e290, max_value=1e290),
                st.sampled_from(
                    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-07]
                ),
            ),
            st.integers(min_value=0, max_value=8),  # times observed
        ),
        max_size=64,
    )

    @staticmethod
    def _observe(hist, observations):
        for value, count in observations:
            for _ in range(count):
                hist.observe(value)
        return hist

    @classmethod
    def _observed(cls, observations):
        return cls._observe(Histogram("h", edges=(0.0, 1.0)), observations)

    @settings(max_examples=300, deadline=None)
    @given(observations=OBSERVATIONS, data=st.data())
    def test_sum_equals_the_rational_sum(self, observations, data):
        expected = float(
            sum((Fraction(value) * count for value, count in observations), Fraction(0))
        )
        hist = self._observed(observations)
        assert hist.sum == expected
        assert hist.total == sum(count for _, count in observations)
        # ... whatever the order,
        shuffled = data.draw(st.permutations(observations))
        assert self._observed(shuffled).sum == expected
        # ... however the observations are split over merged registries,
        shards = data.draw(st.integers(min_value=1, max_value=4))
        merged = MetricsRegistry()
        for shard in range(shards):
            part = MetricsRegistry()
            self._observe(
                part.histogram("h", (0.0, 1.0)), observations[shard::shards]
            )
            merged.merge(part)
        if observations:
            assert merged.get("h").sum == expected
            assert merged.get("h").counts == hist.counts
        # ... and across the pickle round trip a checkpoint journal makes.
        restored = pickle.loads(pickle.dumps(hist))
        assert (restored.sum, restored.counts, restored.total) == (
            expected,
            hist.counts,
            hist.total,
        )
        self._observe(restored, [(0.5, 3)])
        self._observe(hist, [(0.5, 3)])
        assert restored.sum == hist.sum

    def test_extreme_magnitudes_stay_exact(self):
        hist = Histogram("h", edges=(1.0,))
        for _ in range(3):
            hist.observe(5e-324)
        assert hist.sum == 1.5e-323
        hist.observe(1.7976931348623157e308)
        hist.observe(-1.7976931348623157e308)
        assert hist.sum == 1.5e-323

    @pytest.mark.parametrize(
        "value, error",
        [
            (float("nan"), ValueError),
            (float("inf"), OverflowError),
            (float("-inf"), OverflowError),
        ],
    )
    def test_non_finite_observations_raise_and_count_nothing(self, value, error):
        hist = Histogram("h", edges=(1.0,))
        hist.observe(0.25)
        with pytest.raises(error):
            hist.observe(value)
        assert (hist.counts, hist.total, hist.sum) == ([1, 0], 1, 0.25)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")
        with pytest.raises(TypeError):
            registry.histogram("a", (1.0,))

    def test_histogram_edge_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", (1.0, 3.0))

    def test_merge_semantics(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("c").inc(2)
        right.counter("c").inc(3)
        left.gauge("g").set(5.0)
        right.gauge("g").set(2.0)
        left.histogram("h", (1.0,)).observe(0.5)
        right.histogram("h", (1.0,)).observe(2.5)
        right.counter("only_right").inc(9)
        left.merge(right)
        assert left.counter("c").value == 5
        assert left.gauge("g").value == 5.0  # max wins
        assert left.get("h").counts == [1, 1]
        assert left.counter("only_right").value == 9

    def test_prometheus_export_is_sorted_and_stable(self):
        registry = MetricsRegistry()
        registry.counter("zzz", "last").inc(1)
        registry.gauge("aaa", "first").set(2.5)
        registry.histogram("mmm", (1.0,), "mid").observe(0.5)
        text = registry.to_prometheus()
        assert text == registry.to_prometheus()
        names = [
            line.split()[2]
            for line in text.splitlines()
            if line.startswith("# TYPE")
        ]
        assert names == sorted(names)
        assert 'mmm_bucket{le="1"} 1' in text
        assert 'mmm_bucket{le="+Inf"} 1' in text
        assert "mmm_sum 0.5" in text
        assert "mmm_count 1" in text

    def test_empty_registry_exports_empty(self):
        assert MetricsRegistry().to_prometheus() == ""


class TestEvents:
    def test_unknown_event_type_rejected(self):
        with pytest.raises(ValueError):
            make_event("bogus", scan="s", epoch=0, vtime=0.0)

    def test_schema_version_stamped(self):
        event = make_event("progress", scan="s", epoch=0, vtime=1.0, shard=0)
        assert event["schema"] == SCHEMA_VERSION
        assert event["event"] in EVENT_TYPES

    def test_facade_assigns_sequential_seq(self):
        telemetry = ScanTelemetry()
        for vtime in (3.0, 1.0):
            telemetry.emit(
                make_event("progress", scan="s", epoch=0, vtime=vtime, shard=0)
            )
        assert [event["seq"] for event in telemetry.events] == [0, 1]

    def test_emit_sorted_orders_by_virtual_time(self):
        telemetry = ScanTelemetry()
        body = [
            make_event("progress", scan="s", epoch=0, vtime=2.0, shard=1),
            make_event("loop_detected", scan="s", epoch=0, vtime=0.5, router=9),
            make_event("progress", scan="s", epoch=0, vtime=2.0, shard=0),
        ]
        telemetry.emit_sorted(body)
        assert [event["vtime"] for event in telemetry.events] == [0.5, 2.0, 2.0]
        # ties break on (event kind, shard) so the order is total
        assert [event.get("shard") for event in telemetry.events] == [None, 0, 1]

    def test_jsonl_lines_have_sorted_keys(self):
        telemetry = ScanTelemetry()
        telemetry.emit(
            make_event("progress", scan="s", epoch=0, vtime=1.0, shard=0)
        )
        line = telemetry.to_jsonl().rstrip("\n")
        parsed = json.loads(line)
        assert list(parsed) == sorted(parsed)
        assert telemetry.to_jsonl().endswith("\n")


class TestScanTelemetryFacade:
    def _scan(self, world, targets, telemetry, **overrides):
        config = ScanConfig(
            pps=2_000.0, seed=5, progress_every=100, **overrides
        )
        engine = SimulationEngine(world, epoch=1)
        scanner = ZMapV6Scanner(engine, config, telemetry=telemetry)
        return scanner.scan(targets, name="facade", epoch=1)

    @pytest.fixture(scope="class")
    def run(self, tiny_world, tiny_hitlist):
        telemetry = ScanTelemetry()
        targets = list(tiny_hitlist)[:400]
        result = self._scan(tiny_world, targets, telemetry)
        return telemetry, result

    def test_stream_brackets_the_scan(self, run):
        telemetry, _ = run
        assert telemetry.events[0]["event"] == "scan_started"
        assert telemetry.events[-1]["event"] == "scan_finished"

    def test_scan_finished_mirrors_result(self, run):
        telemetry, result = run
        finished = telemetry.events[-1]
        assert finished["sent"] == result.sent
        assert finished["records"] == len(result.records)
        assert finished["stats"]["probes"] == result.engine_stats.probes

    def test_registry_mirrors_engine_stats(self, run):
        telemetry, result = run
        for field_name, (metric_name, _) in ENGINE_STAT_COUNTERS.items():
            assert telemetry.registry.counter(metric_name).value == getattr(
                result.engine_stats, field_name
            ), metric_name
        assert telemetry.registry.counter("sra_scans_total").value == 1
        assert (
            telemetry.registry.gauge("sra_scan_last_duration_seconds").value
            == result.duration
        )

    def test_progress_cadence(self, run):
        telemetry, result = run
        progress = [e for e in telemetry.events if e["event"] == "progress"]
        assert len(progress) == result.sent // 100
        assert [e["sent"] for e in progress] == [
            100 * (i + 1) for i in range(len(progress))
        ]

    def test_telemetry_off_leaves_no_trace(self, tiny_world, tiny_hitlist):
        targets = list(tiny_hitlist)[:100]
        engine = SimulationEngine(tiny_world, epoch=1)
        scanner = ZMapV6Scanner(engine, ScanConfig(pps=2_000.0, seed=5))
        scanner.scan(targets, name="quiet", epoch=1)
        assert scanner.last_capture is None
        assert engine.telemetry is None

    def test_shared_facade_accumulates_across_scans(
        self, tiny_world, tiny_hitlist
    ):
        telemetry = ScanTelemetry()
        targets = list(tiny_hitlist)[:150]
        self._scan(tiny_world, targets, telemetry)
        self._scan(tiny_world, targets, telemetry)
        assert telemetry.registry.counter("sra_scans_total").value == 2
        starts = [
            e for e in telemetry.events if e["event"] == "scan_started"
        ]
        assert len(starts) == 2
        assert [e["seq"] for e in telemetry.events] == list(
            range(len(telemetry.events))
        )


class TestShardedTelemetry:
    def test_sharded_runner_emits_shard_finished(
        self, tiny_world, tiny_hitlist
    ):
        telemetry = ScanTelemetry()
        runner = ShardedScanRunner(
            tiny_world, shards=3, executor="serial", telemetry=telemetry
        )
        targets = list(tiny_hitlist)[:300]
        result = runner.scan(
            targets, ScanConfig(pps=2_000.0, seed=5), name="scan", epoch=0
        )
        finished = [
            e for e in telemetry.events if e["event"] == "shard_finished"
        ]
        assert [e["shard"] for e in finished] == [0, 1, 2]
        assert sum(e["sent"] for e in finished) == result.sent
        assert sum(e["records"] for e in finished) == len(result.records)
        assert telemetry.registry.counter("sra_scans_total").value == 1

    def test_per_call_telemetry_overrides_runner_default(
        self, tiny_world, tiny_hitlist
    ):
        default = ScanTelemetry()
        override = ScanTelemetry()
        runner = ShardedScanRunner(
            tiny_world, shards=2, executor="serial", telemetry=default
        )
        targets = list(tiny_hitlist)[:100]
        runner.scan(
            targets,
            ScanConfig(pps=2_000.0, seed=5),
            name="scan",
            epoch=0,
            telemetry=override,
        )
        assert not default.events
        assert override.events


class TestSurveyTelemetry:
    def test_survey_telemetry_covers_all_input_sets(
        self, tiny_world, tiny_hitlist, tiny_alias_list
    ):
        config = SurveyConfig(
            seed=13,
            slash48_per_prefix=4,
            max_bgp_48=400,
            slash64_per_prefix=4,
            max_bgp_64=400,
            route6_per_prefix=2,
            max_route6=400,
            max_hitlist=400,
            shards=1,
            parallel="serial",
        )
        survey = SRASurvey(
            tiny_world,
            tiny_hitlist,
            alias_list=tiny_alias_list,
            config=config,
            telemetry=ScanTelemetry(),
        )
        survey.run()
        scans = {
            e["scan"]
            for e in survey.telemetry.events
            if e["event"] == "scan_started"
        }
        assert scans == {
            "bgp-plain",
            "bgp-48",
            "bgp-64",
            "route6-64",
            "hitlist-64",
        }
        assert survey.telemetry.registry.counter("sra_scans_total").value == 5


class TestScanCLI:
    ARGS = ["--seed", "7", "--input-set", "bgp-plain", "--max-targets", "200"]

    def test_telemetry_flags_write_sinks(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        metrics_path = tmp_path / "metrics.prom"
        code = scan_main(
            self.ARGS
            + [
                "--telemetry-out",
                str(events_path),
                "--metrics-out",
                str(metrics_path),
                "--progress-every",
                "50",
            ]
        )
        assert code == 0
        lines = events_path.read_text().splitlines()
        assert json.loads(lines[0])["event"] == "scan_started"
        assert json.loads(lines[-1])["event"] == "scan_finished"
        assert "sra_scans_total 1" in metrics_path.read_text()

    def test_missing_output_directory_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "does-not-exist" / "out.csv"
        code = scan_main(self.ARGS + ["--output", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "does not exist" in err
        assert "--output" in err

    def test_missing_telemetry_directory_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "nope" / "events.jsonl"
        code = scan_main(self.ARGS + ["--telemetry-out", str(bad)])
        assert code == 2
        assert "--telemetry-out" in capsys.readouterr().err


class TestReproCLI:
    def test_missing_telemetry_directory_exits_2(self, tmp_path, capsys):
        from repro.experiments.runner import main as repro_main

        bad = tmp_path / "nope" / "events.jsonl"
        code = repro_main(["table2", "--telemetry-out", str(bad)])
        assert code == 2
        assert "--telemetry-out" in capsys.readouterr().err

    def test_telemetry_flags_write_sinks(
        self, tmp_path, monkeypatch, tiny_world, tiny_hitlist
    ):
        from repro.experiments import runner as runner_mod
        from repro.experiments.world import ExperimentContext, quick_scale

        targets = list(tiny_hitlist)[:120]

        def fake_experiment(context):
            scans = ShardedScanRunner(
                tiny_world,
                shards=2,
                executor="serial",
                telemetry=context.telemetry,
            )
            scans.scan(
                targets,
                ScanConfig(pps=1_000.0, seed=3, progress_every=40),
                name="fake",
                epoch=0,
            )
            return "fake-report"

        monkeypatch.setattr(
            runner_mod,
            "get_context",
            lambda *args, **kwargs: ExperimentContext(scale=quick_scale()),
        )
        monkeypatch.setitem(runner_mod.EXPERIMENTS, "table2", fake_experiment)
        events_path = tmp_path / "events.jsonl"
        metrics_path = tmp_path / "metrics.prom"
        code = runner_mod.main(
            [
                "table2",
                "--telemetry-out",
                str(events_path),
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert code == 0
        lines = events_path.read_text().splitlines()
        kinds = [json.loads(line)["event"] for line in lines]
        assert kinds[0] == "scan_started"
        assert "shard_finished" in kinds
        assert kinds[-1] == "scan_finished"
        assert "sra_scans_total 1" in metrics_path.read_text()
