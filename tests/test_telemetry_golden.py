"""Golden-file regression tests for the telemetry sinks.

A fixed-seed Table 2 mini-survey must emit byte-identical JSONL events
and Prometheus text, forever.  The goldens under ``tests/goldens/`` pin
the schema *and* the simulation: any change to event fields, metric
names, number formatting, or scan behaviour shows up as a diff here.

Regenerate deliberately (after verifying the change is intended) with::

    PYTHONPATH=src python tests/test_telemetry_golden.py --regenerate
"""

from pathlib import Path

from repro.core.survey import SRASurvey, SurveyConfig
from repro.telemetry.scan import ScanTelemetry

GOLDEN_DIR = Path(__file__).parent / "goldens"
EVENTS_GOLDEN = GOLDEN_DIR / "table2_mini.events.jsonl"
METRICS_GOLDEN = GOLDEN_DIR / "table2_mini.metrics.prom"

# Small enough to run in ~a second, large enough that every input set
# scans, the rate limiter engages, and the progress cadence fires.
MINI_BUDGETS = dict(
    seed=13,
    slash48_per_prefix=4,
    max_bgp_48=600,
    slash64_per_prefix=4,
    max_bgp_64=500,
    route6_per_prefix=2,
    max_route6=600,
    max_hitlist=600,
    progress_every=200,
    shards=1,
    parallel="serial",
)


def run_mini_survey(world, hitlist, alias_list):
    """The exact survey the goldens were generated from."""
    survey = SRASurvey(
        world,
        hitlist,
        alias_list=alias_list,
        config=SurveyConfig(**MINI_BUDGETS),
        telemetry=ScanTelemetry(),
    )
    survey.run()
    return survey.telemetry


class TestTelemetryGoldens:
    def test_jsonl_events_match_golden(
        self, tiny_world, tiny_hitlist, tiny_alias_list
    ):
        telemetry = run_mini_survey(tiny_world, tiny_hitlist, tiny_alias_list)
        assert telemetry.to_jsonl() == EVENTS_GOLDEN.read_text()

    def test_prometheus_matches_golden(
        self, tiny_world, tiny_hitlist, tiny_alias_list
    ):
        telemetry = run_mini_survey(tiny_world, tiny_hitlist, tiny_alias_list)
        assert telemetry.to_prometheus() == METRICS_GOLDEN.read_text()

    def test_goldens_exercise_the_interesting_paths(self):
        """The pinned stream must actually cover the event vocabulary —
        a golden of nothing would regress silently."""
        text = EVENTS_GOLDEN.read_text()
        for kind in ("scan_started", "progress", "loop_detected",
                     "rate_limit_engaged", "scan_finished"):
            assert f'"event":"{kind}"' in text, kind
        assert "sra_scans_total 5" in METRICS_GOLDEN.read_text()


def _regenerate() -> None:
    from repro.datasets.tum import harvest_hitlist, published_alias_list
    from repro.topology.config import tiny_config
    from repro.topology.generator import build_world

    world = build_world(tiny_config(seed=7))
    hitlist = harvest_hitlist(world, seed=97)
    alias_list = published_alias_list(world, seed=101)
    telemetry = run_mini_survey(world, hitlist, alias_list)
    GOLDEN_DIR.mkdir(exist_ok=True)
    EVENTS_GOLDEN.write_text(telemetry.to_jsonl())
    METRICS_GOLDEN.write_text(telemetry.to_prometheus())
    print(f"wrote {EVENTS_GOLDEN} ({len(telemetry.events)} events)")
    print(f"wrote {METRICS_GOLDEN} ({len(telemetry.registry)} metrics)")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
