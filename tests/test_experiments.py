"""Smoke + shape tests for every table/figure experiment (quick scale).

These assert the *paper-shape* properties each experiment is supposed to
reproduce, not absolute numbers.
"""

import pytest

from repro.core.survey import SurveyConfig
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.experiments.world import full_scale, get_context, quick_scale


@pytest.fixture(scope="module")
def reports(quick_context):
    return {
        experiment_id: run_experiment(experiment_id, quick_context)
        for experiment_id in EXPERIMENTS
    }


class TestRunnerPlumbing:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "table3", "table4",
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig10",
            "strategy-race",
        }

    def test_unknown_experiment_raises(self, quick_context):
        with pytest.raises(ValueError):
            run_experiment("fig99", quick_context)

    def test_unknown_scale_raises(self):
        with pytest.raises(ValueError):
            get_context("giant")

    def test_context_memoised(self):
        assert get_context("quick") is get_context("quick")
        assert get_context("quick", shards=None, pps=None) is get_context("quick")

    def test_scales_scan_on_one_shard_whatever_the_environment(
        self, monkeypatch
    ):
        """The reproduction has no shard knob: no environment variable
        moves a scale off one shard."""
        monkeypatch.setenv("SRA_MAX_SHARDS", "3")
        assert quick_scale().survey_config.shards == 1
        assert full_scale().survey_config.shards == 1

    def test_context_overrides_are_survey_config_fields(self):
        context = get_context("quick", pps=900.0, shards=3)
        assert context is get_context("quick", shards=3, pps=900.0)
        assert context is not get_context("quick")
        config = context.scale.survey_config
        assert (config.pps, config.shards) == (900.0, 3)
        assert config.max_hitlist == quick_scale().survey_config.max_hitlist
        with pytest.raises(TypeError, match="warp_factor"):
            get_context("quick", warp_factor=9)

    @pytest.mark.parametrize(
        "name",
        [
            "batch_size", "backend", "backend_retries", "backend_timeout",
            "breaker_threshold", "max_shard_retries", "telemetry",
        ],
    )
    def test_removed_dial_is_not_a_survey_field(self, name):
        """Execution dials no output byte depends on are not survey
        fields: neither the config nor a context override takes them."""
        with pytest.raises(TypeError, match=name):
            SurveyConfig(**{name: 1})
        with pytest.raises(TypeError, match=name):
            get_context("quick", **{name: 1})

    @pytest.mark.parametrize(
        "override",
        [
            {"pps": 0.0},
            {"pps": -5.0},
            {"pps": float("nan")},
            {"shards": 0},
            {"parallel": "thread"},
        ],
    )
    def test_bad_override_fails_at_construction(self, override):
        with pytest.raises(ValueError):
            get_context("quick", **override)
        with pytest.raises(ValueError):
            SurveyConfig(**override)

    def test_reports_have_text_and_data(self, reports):
        for experiment_id, report in reports.items():
            assert report.experiment_id == experiment_id
            assert report.text
            assert report.data
            assert experiment_id in str(report)


class TestTable2Shape:
    def test_hitlist_best_discovery(self, reports):
        rows = {row["source"]: row for row in reports["table2"].data["rows"]}
        slash64_sources = ("hitlist-64", "bgp-64", "route6-64", "bgp-48")
        best = max(slash64_sources, key=lambda s: rows[s]["discovery_rate"])
        assert best == "hitlist-64"

    def test_artificial_partitions_low_discovery(self, reports):
        rows = {row["source"]: row for row in reports["table2"].data["rows"]}
        for source in ("bgp-48", "bgp-64", "route6-64"):
            assert rows[source]["discovery_rate"] < 0.08

    def test_total_row_aggregates(self, reports):
        rows = reports["table2"].data["rows"]
        total = rows[-1]
        assert total["source"] == "total"
        assert total["addresses"] == sum(r["addresses"] for r in rows[:-1])


class TestFig4Shape:
    def test_hitlist_highest_echo_share(self, reports):
        shares = reports["fig4"].data["shares"]
        assert shares["hitlist-64"]["echo"] == max(
            s["echo"] for s in shares.values()
        )

    def test_artificial_scans_error_dominated(self, reports):
        shares = reports["fig4"].data["shares"]
        for name in ("bgp-48", "bgp-64", "route6-64"):
            assert shares[name]["error"] > 0.75

    def test_shares_sum_to_one(self, reports):
        for name, share in reports["fig4"].data["shares"].items():
            total = share["echo"] + share["error"] + share["both"]
            assert total == pytest.approx(1.0) or total == 0.0


class TestFig5Shape:
    def test_sra_advantage_positive(self, reports):
        advantages = reports["fig5"].data["advantages"]
        assert advantages
        mean_advantage = sum(advantages) / len(advantages)
        assert 0.0 < mean_advantage < 0.6

    def test_sra_exclusive_routers_exist(self, reports):
        assert reports["fig5"].data["sra_exclusive"] > 0

    def test_echo_population_stable(self, reports):
        echo_counts = [
            row["sra_echo_routers"] for row in reports["fig5"].data["per_epoch"]
        ]
        mean = sum(echo_counts) / len(echo_counts)
        assert all(abs(c - mean) / mean < 0.3 for c in echo_counts)


class TestFig6Shape:
    def test_majority_never_answers_directly(self, reports):
        visibility = reports["fig6"].data["visibility"]
        assert visibility["never"] > 0.5

    def test_stability_majority_same(self, reports):
        stability = reports["fig6"].data["stability"]
        assert stability[-1]["same"] >= 0.55
        assert stability[-1]["changed"] <= 0.10

    def test_no_response_grows(self, reports):
        stability = reports["fig6"].data["stability"]
        assert stability[-1]["no_response"] >= stability[1]["no_response"] - 0.05


class TestFig7Shape:
    def test_sra_as_coverage_high(self, reports):
        """>99 % of SRA ASes appear in other sources (paper); allow a
        margin at quick scale."""
        assert reports["fig7"].data["sra_as_coverage"] > 0.9

    def test_upset_counts_partition(self, reports):
        sizes = reports["fig7"].data["as_set_sizes"]
        upset = reports["fig7"].data["upset"]
        assert sum(upset.values()) >= max(sizes.values())


class TestFig8Shape:
    def test_loops_observed(self, reports):
        assert reports["fig8"].data["looping_slash48s"] > 0
        assert reports["fig8"].data["looping_routers"] > 0

    def test_ccdf_monotone(self, reports):
        for key in ("amplification_ccdf", "loops_per_router_ccdf"):
            points = reports["fig8"].data[key]
            values = [v for v, _ in points]
            shares = [s for _, s in points]
            assert values == sorted(values)
            assert shares == sorted(shares, reverse=True)

    def test_most_routers_loop_few_subnets(self, reports):
        share = reports["fig8"].data["single_subnet_share"]
        assert 0.0 <= share <= 1.0


class TestTable3Shape:
    def test_sra_mostly_exclusive_at_ip_level(self, reports):
        exclusives = reports["table3"].data["exclusive_fractions"]
        assert exclusives["sra"] > 0.9

    def test_top5_per_source(self, reports):
        table = reports["table3"].data["table3"]
        for name, rows in table.items():
            assert len(rows) <= 5
            shares = [share for _, share in rows]
            assert shares == sorted(shares, reverse=True)

    def test_ixp_concentrated(self, reports):
        """IXP traffic concentrates on few ASes (paper: top AS 43 %)."""
        table = reports["table3"].data["table3"]
        sra_top = table["sra"][0][1]
        ixp_top = table["ixp-flows"][0][1]
        assert ixp_top > sra_top


class TestTable4Shape:
    def test_loop_tables_present(self, reports):
        assert reports["table4"].data["loops"]
        for row in reports["table4"].data["loops"]:
            assert row["looping_48s"] >= 1
            assert row["router_ips"] >= 1


class TestFig3Fig10Shape:
    def test_fig3_shares_descending(self, reports):
        shares = reports["fig3"].data["shares"]
        values = [share for _, share in shares]
        assert values == sorted(values, reverse=True)
        assert sum(values) == pytest.approx(1.0)

    def test_fig10_isp_dominates_sra(self, reports):
        per_source = reports["fig10"].data["per_source_type_shares"]
        assert per_source["sra"]["isp"] > 0.5


class TestRunnerMain:
    def test_main_runs_selected_experiments(self, quick_context, capsys):
        """The CLI entry point runs and prints reports (context cached)."""
        from repro.experiments.runner import main

        assert main(["--scale", "quick", "table2", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "fig4 regenerated" in out

    def test_main_rejects_unknown(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["--scale", "quick", "fig99"])
