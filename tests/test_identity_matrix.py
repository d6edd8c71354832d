"""The identity matrix: how a scan runs never changes what it produces.

Shard count, batch size, backend (every deterministic one in
``BACKENDS``), shard executor, list or streamed targets and buffered or
sink-drained rows are execution choices.  Every cell below must give the reference cell's
records JSONL byte for byte, and the same telemetry:

- Prometheus text equal to the reference's — a sink cell's equal to the
  one-shard sink cell's, since ``sra_scan_records_buffered`` is the one
  gauge a sink changes (pinned in ``test_a_sink_changes_only_the_buffered_gauge``);
- telemetry JSONL equal to its shard count's baseline's (the same
  shards, buffered, batch 1024, serial, ``sim``, list), and across shard
  counts equal in every event but the per-shard ``progress`` and
  ``shard_finished`` ones, ``seq`` and ``scan_started.shards``.

``run_cell`` in ``helpers.py`` runs one cell.  The cells are the full
product of the axes but for batch 1 on a process pool.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest
from helpers import Cell, run_cell

from repro.core.survey import INPUT_SET_NAMES, SRASurvey, SurveyConfig
from repro.scanner.backends import BACKENDS
from repro.scanner.targets import bgp_slash48_targets

REFERENCE = Cell()
# Every deterministic backend: a backend added to BACKENDS joins the
# matrix for free.
DETERMINISTIC_BACKENDS = sorted(
    name for name, backend in BACKENDS.items() if backend.deterministic
)

# The full product but for batch 1 on a process pool: a pool cell costs
# a pool per run, and batch size changes nothing a worker does that an
# in-place shard does not, so those cells would add a third to the
# module's time and no check.
CELLS = [
    cell
    for cell in (
        Cell(shards, batch, backend, executor, stream, sink)
        for shards, batch, backend, executor, stream, sink in itertools.product(
            (1, 4, 8), (1, 1024), DETERMINISTIC_BACKENDS, ("serial", "process"),
            (False, True), (False, True),
        )
    )
    if cell != REFERENCE and not (cell.batch == 1 and cell.executor == "process")
]


@pytest.fixture(scope="module")
def stress_targets(tiny_world):
    """Routed subnets (SRA replies, RFC 4443 rate limiting), unassigned
    space and amplifying loop regions."""
    targets = list(
        bgp_slash48_targets(
            tiny_world.bgp,
            max_per_prefix=12,
            max_targets=2_000,
            rng=random.Random(3),
        )
    )
    for region in tiny_world.loop_regions[:2]:
        targets.extend(region.prefix.network | offset for offset in range(1, 30))
    return targets


@pytest.fixture(scope="module")
def outputs(tiny_world, stress_targets):
    """Each cell's output, run once per module."""
    memo: dict[Cell, object] = {}

    def output(cell: Cell):
        if cell not in memo:
            memo[cell] = run_cell(tiny_world, stress_targets, cell)
        return memo[cell]

    return output


def invariant_events(telemetry: str) -> list[dict]:
    """The events every shard count emits alike."""
    events = [json.loads(line) for line in telemetry.splitlines()]
    return [
        {
            key: value
            for key, value in event.items()
            if key != "seq" and not (event["event"] == "scan_started" and key == "shards")
        }
        for event in events
        if event["event"] not in ("progress", "shard_finished")
    ]


def test_the_reference_exercises_every_stateful_path(outputs):
    """Loops, the rate limiter and progress all show, or the matrix
    proves nothing."""
    events = [json.loads(line) for line in outputs(REFERENCE).telemetry.splitlines()]
    kinds = {event["event"] for event in events}
    assert {"loop_detected", "rate_limit_engaged", "progress"} <= kinds
    finished = events[-1]
    assert finished["event"] == "scan_finished"
    assert finished["stats"]["suppressed_errors"] > 0
    assert finished["loops"] > 0


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.id)
def test_cell_equals_the_reference(outputs, cell):
    got = outputs(cell)
    want = outputs(REFERENCE)
    assert got.records == want.records
    assert got.prometheus == outputs(Cell(sink=cell.sink)).prometheus
    baseline = outputs(Cell(shards=cell.shards)).telemetry
    assert got.telemetry == baseline
    if cell.shards > 1:
        assert invariant_events(got.telemetry) == invariant_events(want.telemetry)


def test_a_sink_changes_only_the_buffered_gauge(outputs):
    buffered = outputs(REFERENCE).prometheus
    streamed = outputs(Cell(sink=True)).prometheus

    def without_gauge(text):
        return [line for line in text.splitlines() if "sra_scan_records_buffered" not in line]

    assert streamed != buffered
    assert without_gauge(streamed) == without_gauge(buffered)


@pytest.mark.parametrize("shards", [4, 8])
def test_sharded_survey_equals_the_serial_survey(
    tiny_world, tiny_hitlist, tiny_alias_list, shards
):
    """The Table 2 survey: every input set's router IPs and records."""
    budgets = dict(
        seed=13,
        slash48_per_prefix=8,
        max_bgp_48=1_500,
        slash64_per_prefix=8,
        max_bgp_64=1_200,
        route6_per_prefix=4,
        max_route6=1_500,
        max_hitlist=1_500,
    )

    def run(**overrides):
        config = SurveyConfig(**budgets, **overrides)
        return SRASurvey(tiny_world, tiny_hitlist, alias_list=tiny_alias_list, config=config).run()

    serial = run()
    sharded = run(shards=shards, parallel="serial")
    assert set(sharded.input_sets) == set(INPUT_SET_NAMES)
    assert sharded.table2_rows() == serial.table2_rows()
    for name, expected in serial.input_sets.items():
        got = sharded.input_sets[name]
        assert got.router_ips == expected.router_ips, name
        assert got.result.rows == expected.result.rows, name
        assert got.result.engine_stats == expected.result.engine_stats, name
        assert (got.result.sent, got.result.lost, got.result.duration) == (
            expected.result.sent, expected.result.lost, expected.result.duration
        ), name
    assert sharded.all_router_ips() == serial.all_router_ips()
