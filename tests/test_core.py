"""Tests for the core contribution: alias filter, survey, method comparisons."""

from functools import partial

import pytest

from repro.core.aliasfilter import filter_aliased, is_self_reply
from repro.core.probing import (
    ComparisonSeries,
    MethodScan,
    StabilityReport,
    VisibilityReport,
    run_direct_discovery,
    run_sra_vs_random,
    run_stability,
    run_visibility,
)
from repro.core.survey import INPUT_SET_NAMES, SRASurvey, SurveyConfig
from repro.hitlist.aliases import AliasedPrefixList
from repro.addr.ipv6 import IPv6Prefix
from repro.packet.icmpv6 import ICMPv6Type
from repro.experiments.strategy_race import RaceResult, run_strategy_race
from repro.scanner.records import ScanRecord, ScanResult
from repro.scanner.sharded import ShardedScanRunner
from repro.telemetry.scan import ScanTelemetry

ECHO = int(ICMPv6Type.ECHO_REPLY)
UNREACH = int(ICMPv6Type.DESTINATION_UNREACHABLE)


def _record(target, source, icmp_type=ECHO):
    return ScanRecord(target=target, source=source, icmp_type=icmp_type, code=0)


class TestAliasFilter:
    def test_is_self_reply(self):
        assert is_self_reply(_record(5, 5))
        assert not is_self_reply(_record(5, 6))
        assert not is_self_reply(_record(5, 5, UNREACH))

    def test_drops_self_replies_and_their_targets(self):
        result = ScanResult(name="x", sent=3)
        result.records = [
            _record(5, 5),          # aliased tell-tale
            _record(5, 77),         # same target: also dropped
            _record(6, 88),         # unrelated: kept
        ]
        filtered, stats = filter_aliased(result)
        assert [r.source for r in filtered.records] == [88]
        assert stats.dropped_self_reply == 2
        assert stats.kept == 1

    def test_drops_alias_list_sources(self):
        aliased_prefix = IPv6Prefix.parse("2001:db8::/48")
        alias_list = AliasedPrefixList([aliased_prefix])
        inside = aliased_prefix.network + 9
        result = ScanResult(name="x", sent=2)
        result.records = [_record(1, inside), _record(2, 0x3000 << 100)]
        filtered, stats = filter_aliased(result, alias_list)
        assert stats.dropped_alias_list == 1
        assert len(filtered.records) == 1

    def test_preserves_metadata(self):
        result = ScanResult(name="x", epoch=4, sent=10, lost=2, loops_observed=3)
        filtered, _ = filter_aliased(result)
        assert (filtered.name, filtered.epoch, filtered.sent) == ("x", 4, 10)
        assert (filtered.lost, filtered.loops_observed) == (2, 3)

    def test_no_alias_list_is_fine(self):
        result = ScanResult(name="x", sent=1)
        result.records = [_record(1, 2)]
        filtered, stats = filter_aliased(result, None)
        assert stats.dropped == 0
        assert len(filtered.records) == 1


class TestSurvey:
    @pytest.fixture(scope="class")
    def survey_result(self, tiny_world, tiny_hitlist, tiny_alias_list):
        config = SurveyConfig(
            seed=3,
            slash48_per_prefix=32,
            max_bgp_48=6000,
            slash64_per_prefix=64,
            max_bgp_64=4000,
            route6_per_prefix=16,
            max_route6=6000,
            max_hitlist=4000,
        )
        survey = SRASurvey(
            tiny_world, tiny_hitlist, alias_list=tiny_alias_list, config=config
        )
        return survey.run()

    def test_all_input_sets_present(self, survey_result):
        assert set(survey_result.input_sets) == set(INPUT_SET_NAMES)

    def test_budgets_respected(self, survey_result):
        assert survey_result.input_sets["bgp-48"].targets <= 6000
        assert survey_result.input_sets["hitlist-64"].targets <= 4000

    def test_hitlist_discovers_most_routers(self, survey_result):
        """The paper's headline Table 2 property."""
        rates = {
            name: result.discovery_rate
            for name, result in survey_result.input_sets.items()
        }
        assert rates["hitlist-64"] == max(
            rates[name] for name in ("hitlist-64", "bgp-48", "bgp-64", "route6-64")
        )

    def test_hitlist_has_highest_echo_share_of_slash64_scans(self, survey_result):
        shares = {
            name: result.response_type_shares()["echo"]
            for name, result in survey_result.input_sets.items()
        }
        assert shares["hitlist-64"] > shares["bgp-64"]
        assert shares["hitlist-64"] > shares["route6-64"]

    def test_artificial_partitions_error_dominated(self, survey_result):
        for name in ("bgp-64", "route6-64"):
            shares = survey_result.input_sets[name].response_type_shares()
            assert shares["error"] > 0.8

    def test_table2_rows_shape(self, survey_result):
        rows = survey_result.table2_rows()
        assert rows[-1]["source"] == "total"
        assert rows[-1]["router_ips"] == len(survey_result.all_router_ips())
        for row in rows[:-1]:
            assert 0.0 <= row["reply_rate"] <= 1.0

    def test_alias_filter_applied(self, survey_result):
        hitlist_result = survey_result.input_sets["hitlist-64"]
        assert hitlist_result.alias_stats is not None
        # No surviving echo record may be a self-reply.
        for record in hitlist_result.result.records:
            assert not is_self_reply(record)

    def test_total_router_ips_union(self, survey_result):
        union = set()
        for result in survey_result.input_sets.values():
            union |= result.router_ips
        assert survey_result.all_router_ips() == union


class TestComparisonSeries:
    def _series(self):
        series = ComparisonSeries()
        for epoch, (sra_ips, random_ips) in enumerate(
            [({1, 2, 3}, {1, 2}), ({1, 2, 4}, {2, 3})]
        ):
            sra_result = ScanResult(name="s", epoch=epoch, sent=3)
            sra_result.records = [_record(i, ip) for i, ip in enumerate(sra_ips)]
            random_result = ScanResult(name="r", epoch=epoch, sent=3)
            random_result.records = [
                _record(i, ip, UNREACH) for i, ip in enumerate(random_ips)
            ]
            series.sra.append(MethodScan(epoch=epoch, result=sra_result))
            series.random.append(MethodScan(epoch=epoch, result=random_result))
        return series

    def test_advantage(self):
        advantages = self._series().advantage_per_epoch()
        assert advantages == [0.5, 0.5]

    def test_sra_exclusive(self):
        assert self._series().sra_exclusive() == {4}

    def test_consecutive_overlap(self):
        overlaps = self._series().consecutive_overlap("sra")
        assert overlaps == [pytest.approx(2 / 4)]


class TestMethodCampaigns:
    @pytest.fixture(scope="class")
    def sra_targets(self, tiny_hitlist):
        return tiny_hitlist.unique_slash64s()[:1500]

    def test_sra_vs_random(self, tiny_world, sra_targets):
        series = run_sra_vs_random(tiny_world, sra_targets, epochs=2)
        assert len(series.sra) == len(series.random) == 2
        # SRA should find at least as many router IPs as random probing
        # (the paper's Fig. 5 advantage).
        for sra_scan, random_scan in zip(series.sra, series.random):
            assert len(sra_scan.router_ips) >= len(random_scan.router_ips)

    def test_sra_echo_population_stable(self, tiny_world, sra_targets):
        series = run_sra_vs_random(tiny_world, sra_targets, epochs=3)
        echo_counts = [len(scan.echo_router_ips) for scan in series.sra]
        mean = sum(echo_counts) / len(echo_counts)
        assert all(abs(count - mean) / mean < 0.25 for count in echo_counts)

    def test_stability_report(self, tiny_world, sra_targets):
        report = run_stability(tiny_world, sra_targets, epochs=3)
        assert len(report.epochs) == 3
        first = report.epochs[0]
        assert first["same"] == pytest.approx(1.0)
        for epoch in report.epochs:
            total = epoch["same"] + epoch["changed"] + epoch["no_response"]
            assert total == pytest.approx(1.0)
        # Same-router share decreases (churn) but stays majority.
        assert report.epochs[-1]["same"] > 0.5

    def test_stability_empty_baseline(self):
        report = StabilityReport()
        report.add_epoch({})
        assert report.epochs[0]["same"] == 0.0

    def test_visibility_partitions(self, tiny_world, sra_targets):
        # Use router interfaces from the world as "discovered" router IPs.
        router_ips = {
            subnet.router_interface
            for subnet in list(tiny_world.subnets.values())[:400]
        }
        report = run_visibility(tiny_world, router_ips, days=3)
        shares = report.shares()
        assert shares["always"] + shares["sometimes"] + shares["never"] == (
            pytest.approx(1.0)
        )
        assert report.always | report.sometimes | report.never == report.probed
        # Most routers do not answer direct probes (paper: >70 %).
        assert shares["never"] > 0.5

    def test_visibility_empty(self):
        report = VisibilityReport()
        assert report.shares() == {
            "always": 0.0, "sometimes": 0.0, "never": 0.0
        }

    def test_direct_discovery_fewer_than_sra(self, tiny_world, sra_targets):
        """Direct probing of router addresses finds far fewer (paper: SRA
        finds 80 % more than direct targeting)."""
        series = run_sra_vs_random(tiny_world, sra_targets, epochs=1)
        sra_found = series.sra[0].router_ips
        direct_found = run_direct_discovery(tiny_world, sra_found)
        assert len(direct_found) < len(sra_found) * 0.7


def _campaign_value(value):
    """A campaign's return value as plain comparable data."""
    if isinstance(value, ComparisonSeries):
        return [
            (scan.epoch, scan.result.records, scan.result.engine_stats)
            for scan in value.sra + value.random
        ]
    if isinstance(value, VisibilityReport):
        return value.daily_responsive, value.probed
    if isinstance(value, StabilityReport):
        return value.baseline, value.epochs
    if isinstance(value, RaceResult):
        return value.to_table_jsonl()
    return value


def _split_invariant(events):
    """An event stream minus what describes how each scan was split."""
    out = []
    for event in events:
        if event["event"] == "shard_finished":
            continue
        event = {k: v for k, v in event.items() if k != "seq"}
        if event["event"] == "scan_started":
            del event["shards"]
        out.append(event)
    return out


class TestCampaignsEnterThroughTheRunner:
    """Every campaign scan goes through ``ShardedScanRunner.scan``: with
    no runner a campaign builds a one-shard one, so the ways to run a
    scan — in place, as serial deferred shards, and prefetched whole on a
    pool — agree."""

    CAMPAIGNS = {
        "sra-vs-random": lambda world, targets, ips, **kw: run_sra_vs_random(
            world, targets, epochs=2, **kw
        ),
        "stability": lambda world, targets, ips, **kw: run_stability(
            world, targets, epochs=2, **kw
        ),
        "visibility": lambda world, targets, ips, **kw: run_visibility(
            world, ips, days=2, **kw
        ),
        "direct": lambda world, targets, ips, **kw: run_direct_discovery(
            world, ips, **kw
        ),
        "strategy-race": lambda world, targets, ips, **kw: run_strategy_race(
            world, epochs=2, budget=200, seed=5, **kw
        ),
    }

    @pytest.fixture
    def run(self, tiny_world, tiny_hitlist):
        """``run(campaign, runner)``: the campaign's value and telemetry."""
        targets = tiny_hitlist.unique_slash64s()[:600]
        ips = {
            subnet.router_interface
            for subnet in list(tiny_world.subnets.values())[:300]
        }

        def run(campaign, runner):
            telemetry = ScanTelemetry()
            value = self.CAMPAIGNS[campaign](
                tiny_world, targets, ips, runner=runner, telemetry=telemetry
            )
            return _campaign_value(value), telemetry

        return run

    @pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
    def test_no_runner_one_shard_and_four_serial_shards_agree(
        self, tiny_world, run, campaign
    ):
        run = partial(run, campaign)
        bare, bare_telemetry = run(None)
        one, one_telemetry = run(ShardedScanRunner(tiny_world, shards=1))
        four, four_telemetry = run(
            ShardedScanRunner(tiny_world, shards=4, executor="serial")
        )
        assert bare_telemetry.events
        assert one == bare and four == bare
        assert one_telemetry.to_jsonl() == bare_telemetry.to_jsonl()
        assert one_telemetry.to_prometheus() == bare_telemetry.to_prometheus()
        assert four_telemetry.to_prometheus() == bare_telemetry.to_prometheus()
        assert _split_invariant(four_telemetry.events) == _split_invariant(
            bare_telemetry.events
        )

    @pytest.mark.parametrize("campaign", ["sra-vs-random", "stability", "visibility"])
    def test_scans_fanned_out_to_a_pool_agree(
        self, tiny_world, run, campaign, monkeypatch
    ):
        """A one-shard process runner prefetches these campaigns' whole
        scans on a pool and hands them out through ``runner.scan``: the
        values and both telemetry exports are the in-place run's bytes."""
        from repro.scanner import sharded

        run = partial(run, campaign)
        bare, bare_telemetry = run(None)
        pools = []

        class CountingPool(sharded.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(sharded, "ProcessPoolExecutor", CountingPool)
        fanned, fanned_telemetry = run(
            ShardedScanRunner(tiny_world, shards=1, executor="process")
        )
        assert len(pools) == 1
        assert fanned == bare
        assert fanned_telemetry.to_jsonl() == bare_telemetry.to_jsonl()
        assert fanned_telemetry.to_prometheus() == bare_telemetry.to_prometheus()
        assert fanned_telemetry.to_ops_jsonl() == bare_telemetry.to_ops_jsonl()

    @pytest.mark.parametrize(
        "campaign",
        [
            run_sra_vs_random,
            run_stability,
            run_visibility,
            run_direct_discovery,
            pytest.param(
                lambda world, _targets, **knobs: run_strategy_race(world, **knobs),
                id="run_strategy_race",
            ),
        ],
    )
    @pytest.mark.parametrize(
        "knob", ["max_shard_retries", "checkpoint_dir", "batch_size"]
    )
    def test_recovery_is_configured_on_the_runner(
        self, tiny_world, campaign, knob
    ):
        """Recovery is the runner's; the batch size, which no output byte
        depends on, is no campaign's (scans run ScanConfig's default)."""
        with pytest.raises(TypeError, match=knob):
            campaign(tiny_world, [], **{knob: 1})


class TestRepeatedSurveys:
    def test_run_repeated_and_overlap(self, tiny_world, tiny_hitlist):
        from repro.core.survey import survey_repetition_overlap

        config = SurveyConfig(
            seed=4,
            slash48_per_prefix=8,
            max_bgp_48=1500,
            slash64_per_prefix=8,
            max_bgp_64=1000,
            route6_per_prefix=4,
            max_route6=1500,
            max_hitlist=1500,
        )
        survey = SRASurvey(tiny_world, tiny_hitlist, config=config)
        results = survey.run_repeated(times=2)
        assert len(results) == 2
        overlaps = survey_repetition_overlap(results)
        assert set(overlaps) == set(INPUT_SET_NAMES)
        # The hitlist scan's (echo-based) router set is largely stable
        # between repetitions; error-based scans fluctuate more.
        assert overlaps["hitlist-64"] > 0.5

    def test_run_repeated_validates(self, tiny_world, tiny_hitlist):
        survey = SRASurvey(tiny_world, tiny_hitlist)
        with pytest.raises(ValueError):
            survey.run_repeated(times=0)

    def test_overlap_empty(self):
        from repro.core.survey import survey_repetition_overlap

        assert survey_repetition_overlap([]) == {}
