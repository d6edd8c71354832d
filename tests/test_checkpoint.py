"""The scan checkpoint journal: round-trips, integrity, and exit codes.

The journal's contract has three parts, each pinned here:

* a saved checkpoint loads back to an equal checkpoint (including
  hypothesis-generated identity fields and real shard outcomes);
* any damage — truncation, bit-flips, foreign files, schema skew, or a
  journal from a different scan — raises a typed ``CheckpointError``
  at load/validate time, never a partially-valid checkpoint;
* the CLIs surface those errors as exit code 4 with a one-line stderr
  message and no traceback.
"""

import pickle
import random
import struct
import zlib
from dataclasses import astuple, fields, replace
from functools import wraps

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import truncate_tail

from repro.scanner.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointSchemaError,
    ScanCheckpoint,
    config_key,
    load_checkpoint,
    restore_telemetry,
    save_checkpoint,
    snapshot_telemetry,
    target_fingerprint,
)
from repro.scanner.records import RecordColumns, records_csv
from repro.scanner.sharded import scan_shard
from repro.scanner.targets import bgp_plain_targets
from repro.scanner.zmapv6 import ScanConfig
from repro.telemetry.scan import ScanTelemetry


def make_checkpoint(**overrides) -> ScanCheckpoint:
    fields = dict(
        name="survey",
        epoch=3,
        shards=4,
        scan_key=config_key(ScanConfig(pps=50_000.0, seed=9)),
        target_count=1_000,
        fingerprint=0xDEADBEEF,
    )
    fields.update(overrides)
    return ScanCheckpoint(**fields)


def real_outcome(world):
    """Shard 1 of 2 of a real scan, with telemetry, records and checks."""
    targets = bgp_plain_targets(world.bgp, max_targets=2_000)
    config = ScanConfig(pps=200_000.0, seed=4)
    outcome = scan_shard(
        world,
        config,
        targets,
        name="rt",
        epoch=1,
        shard=1,
        shards=2,
        collect_telemetry=True,
    )
    assert outcome.result.records and outcome.checks
    return targets, config, outcome


class TestRoundTrip:
    def test_simple_round_trip(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        checkpoint = make_checkpoint()
        save_checkpoint(checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded == checkpoint

    def test_round_trip_with_real_outcomes(self, tiny_world, tmp_path):
        targets, config, outcome = real_outcome(tiny_world)
        telemetry = ScanTelemetry()
        telemetry.scan_started(
            scan="rt", epoch=1, targets=len(targets), shards=2, pps=config.pps
        )
        checkpoint = make_checkpoint(
            name="rt",
            epoch=1,
            shards=2,
            scan_key=config_key(config),
            target_count=len(targets),
            fingerprint=target_fingerprint(targets),
            outcomes={1: outcome},
            telemetry=snapshot_telemetry(telemetry),
        )
        path = tmp_path / "rt.ckpt"
        save_checkpoint(checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded.completed_shards == [1]
        got = loaded.outcomes[1]
        # Field for field: the columns hand back plain ints and floats.
        assert [astuple(r) for r in got.result.records] == [
            astuple(r) for r in outcome.result.records
        ]
        assert got.checks == outcome.checks
        assert replace(got.result, records=[]) == replace(
            outcome.result, records=[]
        )
        assert (got.shard, got.shards, got.stats) == (1, 2, outcome.stats)
        assert got.telemetry == outcome.telemetry
        restored = ScanTelemetry()
        restore_telemetry(restored, loaded.telemetry)
        assert restored.to_jsonl() == telemetry.to_jsonl()
        assert restored.to_prometheus() == telemetry.to_prometheus()

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.text(min_size=1, max_size=30),
        epoch=st.integers(min_value=0, max_value=10_000),
        shards=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        pps=st.floats(
            min_value=1.0, max_value=1e7, allow_nan=False, allow_infinity=False
        ),
        target_count=st.integers(min_value=0, max_value=2**40),
        fingerprint=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_identity_fields_round_trip(
        self,
        tmp_path_factory,
        name,
        epoch,
        shards,
        seed,
        pps,
        target_count,
        fingerprint,
    ):
        path = tmp_path_factory.mktemp("hyp") / "x.ckpt"
        checkpoint = ScanCheckpoint(
            name=name,
            epoch=epoch,
            shards=shards,
            scan_key=config_key(ScanConfig(pps=pps, seed=seed)),
            target_count=target_count,
            fingerprint=fingerprint,
        )
        save_checkpoint(checkpoint, path)
        assert load_checkpoint(path) == checkpoint

    def test_save_is_atomic_no_temp_left_behind(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        save_checkpoint(make_checkpoint(), path)
        save_checkpoint(make_checkpoint(epoch=4), path)
        assert [p.name for p in tmp_path.iterdir()] == ["scan.ckpt"]
        assert load_checkpoint(path).epoch == 4


class TestColumnarOutcomes:
    """Schema v5: an outcome that leaves the process (journal, pool
    future, ring fallback) is pickled as the ring frame's columns."""

    def test_payload_is_columns_and_smaller_than_v4(self, tiny_world, tmp_path):
        _, _, outcome = real_outcome(tiny_world)
        checkpoint = make_checkpoint(shards=2, outcomes={1: outcome})
        path = tmp_path / "v5.ckpt"
        save_checkpoint(checkpoint, path)
        payload = path.read_bytes()[len(b"SRACKPT\n") + struct.calcsize(">IQI") :]
        assert b"ScanRecord" not in payload
        # v4 pickled the outcome's fields as they were: one ScanRecord
        # (its result held a record list) and one check tuple per row.
        held_as_records = (
            replace(outcome.result, rows=RecordColumns.empty()),
            outcome.result.records,
        )
        v4_style = pickle.dumps(
            replace(
                checkpoint,
                outcomes={
                    1: {
                        **{f.name: getattr(outcome, f.name) for f in fields(outcome)},
                        "result": held_as_records,
                    }
                },
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        assert b"ScanRecord" in v4_style
        assert len(payload) < len(v4_style)

    def test_ring_fallback_crosses_the_pool_as_columns(
        self, tiny_world, monkeypatch
    ):
        """With no shared memory every shard outcome takes the pickled
        future; it arrives as columns and merges to the ring's bytes."""
        from repro.scanner import sharded, shmring

        targets = list(bgp_plain_targets(tiny_world.bgp))[:300]
        config = ScanConfig(pps=50_000.0, seed=5)

        def run():
            runner = sharded.ShardedScanRunner(
                tiny_world, shards=2, executor="process"
            )
            result = runner.scan(targets, config, name="scan", epoch=1)
            return records_csv(result.rows), runner.ring_stats

        ring_bytes, ring_stats = run()
        assert (ring_stats.segments, ring_stats.fallbacks) == (2, 0)

        restored = []
        restore = sharded._restore_outcome

        @wraps(restore)  # pickled by reference, as the patched name
        def counting_restore(state, *columns):
            restored.append(type(columns[0]).__name__)
            return restore(state, *columns)

        # Forked workers inherit the missing shared memory; the parent
        # unpickles each future's outcome through the patched restorer.
        monkeypatch.setattr(shmring, "shared_memory", None)
        monkeypatch.setattr(sharded, "_restore_outcome", counting_restore)
        fallback_bytes, fallback_stats = run()
        assert (fallback_stats.segments, fallback_stats.fallbacks) == (0, 2)
        assert restored == ["RecordColumns", "RecordColumns"]
        assert fallback_bytes == ring_bytes


class TestTelemetrySnapshot:
    def test_snapshot_restore_round_trip(self):
        telemetry = ScanTelemetry()
        telemetry.scan_started(
            scan="s", epoch=0, targets=10, shards=2, pps=100.0
        )
        snapshot = snapshot_telemetry(telemetry)
        restored = ScanTelemetry()
        restore_telemetry(restored, snapshot)
        assert restored.to_jsonl() == telemetry.to_jsonl()
        assert restored.to_prometheus() == telemetry.to_prometheus()
        # Emission continues at the exact next sequence number.
        restored.scan_started(
            scan="t", epoch=1, targets=5, shards=1, pps=50.0
        )
        telemetry.scan_started(
            scan="t", epoch=1, targets=5, shards=1, pps=50.0
        )
        assert restored.to_jsonl() == telemetry.to_jsonl()


class TestCorruptionDetection:
    def _saved(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        save_checkpoint(make_checkpoint(), path)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"definitely not a checkpoint journal")
        with pytest.raises(CheckpointCorruptError, match="not a scan checkpoint"):
            load_checkpoint(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_bytes(b"")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_truncated_tail(self, tmp_path):
        path = self._saved(tmp_path)
        truncate_tail(path, 7)
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            load_checkpoint(path)

    def test_bit_flip_fails_crc(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError, match="CRC-32"):
            load_checkpoint(path)

    # v1 journals pickled histogram sums as Fractions; today's scaled-int
    # accumulator must never be added to one, so they are refused too.  v2
    # journals pickled a metrics registry into every shard's telemetry, v3
    # ones the target stream's rebuild recipe, v4 ones one ScanRecord per
    # row, v5 ones a BackendSpec in the config key, v6 ones an ops stream in
    # the telemetry snapshot, v7 ones a sink offset.
    @pytest.mark.parametrize(
        "schema", [1, 2, 3, 4, 5, 6, 7, CHECKPOINT_SCHEMA_VERSION + 1]
    )
    def test_schema_skew(self, tmp_path, schema):
        assert schema != CHECKPOINT_SCHEMA_VERSION
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into(">I", raw, 8, schema)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointSchemaError, match=f"schema v{schema}"):
            load_checkpoint(path)

    def test_wrong_payload_type(self, tmp_path):
        payload = pickle.dumps({"not": "a checkpoint"})
        header = b"SRACKPT\n" + struct.pack(
            ">IQI",
            CHECKPOINT_SCHEMA_VERSION,
            len(payload),
            zlib.crc32(payload),
        )
        path = tmp_path / "wrong.ckpt"
        path.write_bytes(header + payload)
        with pytest.raises(CheckpointCorruptError, match="not a ScanCheckpoint"):
            load_checkpoint(path)


class TestResumeValidation:
    @pytest.mark.parametrize(
        "override, label",
        [
            (dict(name="other"), "scan name"),
            (dict(epoch=99), "epoch"),
            (dict(shards=8), "shard count"),
            (dict(scan_key=config_key(ScanConfig(seed=1))), "scan config"),
            (dict(target_count=7), "target count"),
            (dict(fingerprint=1), "target fingerprint"),
        ],
    )
    def test_mismatch_raises(self, override, label):
        checkpoint = make_checkpoint()
        current = dict(
            name=checkpoint.name,
            epoch=checkpoint.epoch,
            shards=checkpoint.shards,
            scan_key=checkpoint.scan_key,
            target_count=checkpoint.target_count,
            fingerprint=checkpoint.fingerprint,
        )
        current.update(override)
        with pytest.raises(CheckpointMismatchError, match=label):
            checkpoint.validate_resume(**current)

    def test_matching_scan_passes(self):
        checkpoint = make_checkpoint()
        checkpoint.validate_resume(
            name=checkpoint.name,
            epoch=checkpoint.epoch,
            shards=checkpoint.shards,
            scan_key=checkpoint.scan_key,
            target_count=checkpoint.target_count,
            fingerprint=checkpoint.fingerprint,
        )

    def test_out_of_range_shard_is_corrupt(self):
        checkpoint = make_checkpoint(outcomes={9: object()})
        with pytest.raises(CheckpointCorruptError, match="outside"):
            checkpoint.validate_resume(
                name=checkpoint.name,
                epoch=checkpoint.epoch,
                shards=checkpoint.shards,
                scan_key=checkpoint.scan_key,
                target_count=checkpoint.target_count,
                fingerprint=checkpoint.fingerprint,
            )


class TestFingerprint:
    def test_detects_different_targets(self):
        targets = list(range(100))
        assert target_fingerprint(targets) == target_fingerprint(list(targets))
        assert target_fingerprint(targets) != target_fingerprint(targets[:-1])
        shuffled = list(targets)
        random.Random(0).shuffle(shuffled)
        assert target_fingerprint(targets) != target_fingerprint(shuffled)

    def test_empty_targets(self):
        assert target_fingerprint([]) == target_fingerprint([])


class TestCLIExitCodes:
    """Corrupt/foreign journals must exit 4 with one clear line."""

    def _scan_args(self, checkpoint):
        return [
            "--seed",
            "7",
            "--input-set",
            "bgp-plain",
            "--max-targets",
            "60",
            "--checkpoint",
            str(checkpoint),
            "--resume",
            "--no-alias-filter",
        ]

    def test_corrupt_checkpoint_exits_4(self, tmp_path, capsys):
        from repro.scanner.cli import main

        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"SRACKPT\n" + b"\x00" * 4)
        code = main(self._scan_args(path))
        captured = capsys.readouterr()
        assert code == 4
        assert "sra-scan:" in captured.err
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1

    def test_truncated_checkpoint_exits_4(self, tmp_path, capsys):
        from repro.scanner.cli import main

        path = tmp_path / "torn.ckpt"
        save_checkpoint(make_checkpoint(), path)
        truncate_tail(path, 5)
        code = main(self._scan_args(path))
        captured = capsys.readouterr()
        assert code == 4
        assert "truncated" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("schema", [2, 3, 4, 5, 6, 7])
    def test_stale_schema_checkpoint_exits_4(self, tmp_path, capsys, schema):
        from repro.scanner.cli import main

        path = tmp_path / f"v{schema}.ckpt"
        save_checkpoint(make_checkpoint(), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into(">I", raw, 8, schema)
        path.write_bytes(bytes(raw))
        code = main(self._scan_args(path))
        captured = capsys.readouterr()
        assert code == 4
        assert (
            f"uses checkpoint schema v{schema}; this build speaks v8"
            in captured.err
        )
        assert captured.err.count("\n") == 1

    def test_mismatched_checkpoint_exits_4(self, tmp_path, capsys):
        from repro.scanner.cli import main

        path = tmp_path / "foreign.ckpt"
        save_checkpoint(make_checkpoint(name="someone-elses-scan"), path)
        code = main(self._scan_args(path))
        captured = capsys.readouterr()
        assert code == 4
        assert "mismatch" in captured.err
        assert "Traceback" not in captured.err

    def test_resume_requires_checkpoint(self, capsys):
        from repro.scanner.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--resume"])
        assert excinfo.value.code == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_missing_checkpoint_starts_fresh(self, tmp_path):
        """--resume with no journal on disk is a fresh start, not an error."""
        from repro.scanner.cli import main

        path = tmp_path / "never-written.ckpt"
        code = main(self._scan_args(path))
        assert code == 0
        # The journal is deleted after a successful merge.
        assert not path.exists()
