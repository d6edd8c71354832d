"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Not part of tier-1's ``testpaths``: it starts a dozen short child
processes.  Everything runs at ``--scale smoke`` (a ``tiny_config``
world, campaigns of a few thousand probes).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(HERE / "run.py"), "--scale", "smoke", "--seconds", "0"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_set_of_runs_prints_every_metric_of_the_contract(tmp_path):
    out = tmp_path / "set.json"
    start = time.monotonic()
    done = subprocess.run(
        [*RUN, "--repeats", "1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stderr
    assert elapsed < 15, f"smoke set took {elapsed:.1f} s"

    workloads = [w["name"] for w in SPEC["workloads"]]
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    printed: dict[str, list[str]] = {}
    for line in done.stdout.splitlines():
        header = re.fullmatch(r"(\S+): (end to end|per layer) .*", line)
        if header:
            section = printed.setdefault(header.group(1), [])
        elif line.startswith("  "):
            section.append(line.split()[0])
    assert list(printed) == workloads
    for names in printed.values():
        # fail_share is printed with the end-to-end metrics but is not one
        # of BENCHMARK.json's: it is always 0 on a passing run, which the
        # contract excludes; it is the result line's failed / attempted.
        assert names == [*end_to_end, "fail_share", *per_layer]
    for name in (*workloads, *end_to_end, *per_layer):
        assert NAME.fullmatch(name), name

    document = json.loads(out.read_text())
    for workload in workloads:
        assert document["layers"][workload]["trace.coverage"] >= 0.95
        assert document["summary"][workload]["fail_share"]["median"] == 0
        for metric in end_to_end:
            assert document["summary"][workload][metric]["median"] > 0


def test_wrong_expected_digest_fails_the_operation(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    digests = expected["smoke"]["2024"]["survey_serial"]["digests"]
    digests["bgp-64"] = "0" * 64
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps(expected))
    done = subprocess.run(
        [*RUN, "--workload", "survey_serial", "--seed", "2024", "--trace", "0",
         "--expected", str(wrong)],
        capture_output=True,
        text=True,
    )  # fmt: skip
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert done.returncode != 0
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] == 1 / 5  # fail_share
