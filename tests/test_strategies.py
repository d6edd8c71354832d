"""Discovery strategies and the strategy race.

Pins the comparative claims and the determinism contract:

* the race table is identical serial vs 1/4/8-shard execution,
* SRA anycast probing out-discovers the field on the same budget (the
  paper's core comparison, at test scale),
* adaptive feedback is a pure, order-independent function of the record
  set and round-trips through ``feedback_state``/``restore``,
* the telescope classifies routed vs dark probes against the BGP table,
* ``sra-scan --strategy`` and ``sra-repro strategy-race`` drive the same
  machinery end to end.
"""

import json

import pytest

from repro.scanner.sharded import ShardedScanRunner
from repro.scanner.strategies import (
    STRATEGIES,
    Telescope,
    TelescopeReport,
    build_strategy,
)
from repro.scanner.strategies.entropy import nybble_entropy, subnet_id_of
from repro.scanner.zmapv6 import ScanConfig
from repro.experiments.strategy_race import (
    RaceResult,
    format_race_table,
    run_strategy_race,
)

RACE_KW = dict(epochs=2, budget=200, seed=5)


@pytest.fixture(scope="module")
def serial_race(tiny_world):
    return run_strategy_race(tiny_world, **RACE_KW)


class TestRegistry:
    def test_builtin_strategies_registered(self):
        assert sorted(STRATEGIES) == [
            "entropy-clustered",
            "hitlist-feedback",
            "random-baseline",
            "sra-anycast",
        ]
        assert all(cls.name == name for name, cls in STRATEGIES.items())

    def test_unknown_strategy_raises(self, tiny_world):
        with pytest.raises(ValueError, match="unknown strategy"):
            build_strategy("dfs", tiny_world)

    def test_bad_budget_raises(self, tiny_world):
        with pytest.raises(ValueError, match="budget"):
            build_strategy("sra-anycast", tiny_world, budget=0)

    def test_static_strategy_rejects_foreign_state(self, tiny_world):
        strategy = build_strategy("sra-anycast", tiny_world, budget=10)
        strategy.restore(())  # empty state is fine
        with pytest.raises(ValueError, match="no feedback state"):
            strategy.restore((1, 2))


class TestWindows:
    def test_windows_respect_budget_and_dedup(self, tiny_world):
        for name in sorted(STRATEGIES):
            strategy = build_strategy(name, tiny_world, seed=5, budget=150)
            for epoch in (0, 1):
                window = list(strategy.window(epoch))
                assert 0 < len(window) <= 150, (name, epoch)
                assert len(set(window)) == len(window), (name, epoch)

    def test_windows_are_deterministic_per_instance(self, tiny_world):
        for name in sorted(STRATEGIES):
            first = build_strategy(name, tiny_world, seed=5, budget=100)
            second = build_strategy(name, tiny_world, seed=5, budget=100)
            assert list(first.window(0)) == list(second.window(0)), name
            assert list(first.window(1)) == list(second.window(1)), name

    def test_seed_changes_randomised_windows(self, tiny_world):
        a = build_strategy("random-baseline", tiny_world, seed=1, budget=100)
        b = build_strategy("random-baseline", tiny_world, seed=2, budget=100)
        assert list(a.window(0)) != list(b.window(0))


class TestAdaptiveFeedback:
    @pytest.mark.parametrize(
        "name", ["hitlist-feedback", "entropy-clustered"]
    )
    def test_observe_is_order_independent(self, tiny_world, name):
        runner = ShardedScanRunner(tiny_world, shards=1, executor="serial")
        strategy = build_strategy(name, tiny_world, seed=5, budget=200)
        result = runner.scan(
            strategy.window(0),
            ScanConfig(pps=10_000.0, seed=5),
            name=f"feedback-{name}",
            epoch=4000,
        )
        forward = build_strategy(name, tiny_world, seed=5, budget=200)
        forward.observe(result.records)
        reversed_ = build_strategy(name, tiny_world, seed=5, budget=200)
        reversed_.observe(list(reversed(result.records)))
        assert forward.feedback_state() == reversed_.feedback_state()
        assert forward.feedback_state()  # the scan must actually teach it
        assert list(forward.window(1)) == list(reversed_.window(1))

    @pytest.mark.parametrize(
        "name", ["hitlist-feedback", "entropy-clustered"]
    )
    def test_state_round_trips_through_restore(self, tiny_world, name):
        runner = ShardedScanRunner(tiny_world, shards=1, executor="serial")
        taught = build_strategy(name, tiny_world, seed=5, budget=200)
        result = runner.scan(
            taught.window(0),
            ScanConfig(pps=10_000.0, seed=5),
            name=f"restore-{name}",
            epoch=4100,
        )
        taught.observe(result.records)
        cold = build_strategy(name, tiny_world, seed=5, budget=200)
        cold.restore(taught.feedback_state())
        assert cold.feedback_state() == taught.feedback_state()
        assert list(cold.window(1)) == list(taught.window(1))

    def test_evolved_window_ships_as_data(self, tiny_world):
        """What a pool worker receives for an evolved window is the window
        itself — a ``TargetList`` that pickles to the same targets — and a
        fresh strategy restored from the feedback state rebuilds it."""
        import pickle

        from repro.scanner.targets import TargetList

        runner = ShardedScanRunner(tiny_world, shards=1, executor="serial")
        strategy = build_strategy(
            "hitlist-feedback", tiny_world, seed=5, budget=200
        )
        result = runner.scan(
            strategy.window(0),
            ScanConfig(pps=10_000.0, seed=5),
            name="window-feedback",
            epoch=4200,
        )
        strategy.observe(result.records)
        window = strategy.window(1)
        assert type(window) is TargetList
        clone = pickle.loads(pickle.dumps(window))
        assert clone == window
        fresh = build_strategy(
            "hitlist-feedback", tiny_world, seed=5, budget=200
        )
        fresh.restore(strategy.feedback_state())
        assert fresh.window(1) == window


class TestEntropyUnits:
    def test_nybble_entropy_bounds(self):
        uniform = list(range(16))  # one of each nybble value
        assert nybble_entropy([sid << 12 for sid in uniform], 12) == 4.0
        assert nybble_entropy([7, 7, 7], 0) == 0.0
        assert nybble_entropy([], 0) == 0.0

    def test_subnet_id_of(self):
        address = (0x2001_0DB8 << 96) | (0xBEEF << 64)
        assert subnet_id_of(address) == 0xBEEF


class TestTelescope:
    def test_classifies_routed_vs_dark(self, tiny_world):
        routed = [
            prefix.network
            for prefix in list(tiny_world.bgp.prefixes())[:5]
        ]
        dark = [(0x3FFF << 112) | (i << 64) for i in range(7)]
        telescope = Telescope(tiny_world)
        report = telescope.observe_window(
            routed + dark, strategy="probe", epoch=0
        )
        assert report.probes == len(routed) + len(dark)
        assert report.routed == len(routed)
        assert report.dark == len(dark)
        assert report.dark_share == pytest.approx(7 / 12)

    def test_empty_window(self, tiny_world):
        report = Telescope(tiny_world).observe_window(
            [], strategy="probe", epoch=0
        )
        assert report == TelescopeReport(strategy="probe", epoch=0)
        assert report.dark_share == 0.0


class TestRace:
    def test_serial_and_sharded_races_are_identical(
        self, tiny_world, serial_race
    ):
        """The acceptance criterion: one table, any shard count."""
        tables = {None: serial_race.to_table_jsonl()}
        for shards in (1, 4, 8):
            runner = ShardedScanRunner(
                tiny_world, shards=shards, executor="serial"
            )
            race = run_strategy_race(tiny_world, runner=runner, **RACE_KW)
            tables[shards] = race.to_table_jsonl()
        assert len(set(tables.values())) == 1

    def test_every_strategy_raced_every_epoch(self, serial_race):
        seen = {(row.strategy, row.epoch) for row in serial_race.rows}
        assert seen == {
            (name, epoch)
            for name in sorted(STRATEGIES)
            for epoch in range(RACE_KW["epochs"])
        }
        assert {s.strategy for s in serial_race.summaries} == set(STRATEGIES)

    def test_sra_wins_the_race(self, serial_race):
        """The paper's claim, at test scale: SRA probing discovers at
        least as many router IPs as every alternative on the same
        budget, and far more than the random control."""
        summaries = {s.strategy: s for s in serial_race.summaries}
        sra = summaries["sra-anycast"]
        for summary in serial_race.summaries:
            assert sra.router_ips >= summary.router_ips, summary.strategy
        random_ = summaries["random-baseline"]
        assert sra.router_ips > random_.router_ips
        assert sra.mean_overlap > random_.mean_overlap

    def test_budgets_are_enforced(self, serial_race):
        for row in serial_race.rows:
            assert row.targets <= RACE_KW["budget"]
        for summary in serial_race.summaries:
            assert summary.probes <= RACE_KW["budget"] * RACE_KW["epochs"]

    def test_table_jsonl_shape(self, serial_race):
        lines = serial_race.to_table_jsonl().splitlines()
        rows = [json.loads(line) for line in lines]
        kinds = [row["kind"] for row in rows]
        expected_epochs = len(STRATEGIES) * RACE_KW["epochs"]
        assert kinds == ["epoch"] * expected_epochs + ["summary"] * len(STRATEGIES)
        assert format_race_table(serial_race).count("\n") >= len(lines)

    def test_bad_epochs_raises(self, tiny_world):
        with pytest.raises(ValueError, match="at least one epoch"):
            run_strategy_race(tiny_world, epochs=0)

    def test_telemetry_counters_match_table(self, tiny_world):
        from repro.telemetry.scan import ScanTelemetry

        telemetry = ScanTelemetry()
        race = run_strategy_race(
            tiny_world, telemetry=telemetry, **RACE_KW
        )
        prometheus = telemetry.to_prometheus()
        for summary in race.summaries:
            slug = summary.strategy.replace("-", "_")
            assert (
                f"sra_strategy_{slug}_windows_total {race.epochs}"
                in prometheus
            )
            assert (
                f"sra_strategy_{slug}_probes_total {summary.probes}"
                in prometheus
            )
            assert (
                f"sra_strategy_{slug}_discoveries_total "
                f"{summary.router_ips}" in prometheus
            )
        events = [
            event
            for event in telemetry.events
            if event["event"] == "strategy_window"
        ]
        assert len(events) == len(race.rows)
        for event, row in zip(events, race.rows):
            assert event["scan"] == row.strategy
            assert event["targets"] == row.targets
            assert event["new_router_ips"] == row.new_router_ips


class TestRaceExperiment:
    def test_report_shape(self, quick_context):
        from repro.experiments.runner import run_experiment

        report = run_experiment("strategy-race", quick_context)
        assert report.experiment_id == "strategy-race"
        assert isinstance(quick_context.strategy_race, RaceResult)
        assert report.data["table_jsonl"]
        assert "sra-anycast" in report.text
        rows = report.data["rows"]
        assert len(rows) == len(STRATEGIES) * quick_context.scale.race_epochs

    def test_report_artifacts_written(self, quick_context, tmp_path):
        from repro.experiments.runner import (
            run_experiment,
            write_report_artifacts,
        )

        report = run_experiment("strategy-race", quick_context)
        written = write_report_artifacts(report, tmp_path / "reports")
        names = {path.name for path in written}
        assert names == {"strategy-race.txt", "strategy-race.jsonl"}
        table = (tmp_path / "reports" / "strategy-race.jsonl").read_text()
        assert table == report.data["table_jsonl"]


class TestStrategyCLI:
    def test_strategy_scan_end_to_end(self, tmp_path, capsys):
        from repro.scanner.cli import main

        jsonl = tmp_path / "out.jsonl"
        code = main(
            [
                "--strategy", "hitlist-feedback",
                "--strategy-epochs", "2",
                "--strategy-budget", "150",
                "--seed", "7",
                "--shards", "2",
                "--parallel", "serial",
                "--jsonl", str(jsonl),
                "--summary",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "strategy   : hitlist-feedback (2 epochs x 150 budget)" in out
        assert "epoch 1" in out
        assert jsonl.read_text().startswith("{")

    def test_strategy_flags_require_strategy(self, capsys):
        from repro.scanner.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--strategy-budget", "10"])
        assert excinfo.value.code == 2
        assert "requires --strategy" in capsys.readouterr().err

    def test_strategy_rejects_streaming_and_pcap(self, capsys):
        from repro.scanner.cli import main

        with pytest.raises(SystemExit):
            main(
                [
                    "--strategy", "sra-anycast",
                    "--stream-records",
                    "--no-alias-filter",
                    "--jsonl", "x.jsonl",
                ]
            )
        assert "incompatible" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["--strategy", "sra-anycast", "--pcap", "x.pcap"])
        assert "--pcap" in capsys.readouterr().err
