"""Unit tests for the probe-backend seam.

The cross-backend contract lives in ``backend_contract.py``; this module
covers the seam's specifics: the unmatched-reply accounting (the
previously *silent* drop), checkpoint keys carrying the backend name and
probe key, the sharded runner refusing non-deterministic backends, the CLI
validation one-liners, and — when the environment grants raw sockets — a
live ``raw`` loopback scan.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest
from reference_harness import row_of

from repro.netsim.engine import FLAG_REPLY, SimulationEngine
from repro.packet.icmpv6 import ICMPv6Type
from repro.packet.ipv6hdr import IPv6Header
from repro.scanner.backends import (
    BACKENDS,
    BackendAuthorizationError,
    BackendPrivilegeError,
    RawSocketBackend,
    SimBackend,
    WireSimBackend,
    build_backend,
)
from repro.scanner.checkpoint import config_key
from repro.scanner.cli import main as scan_main
from repro.scanner.records import ScanResult
from repro.scanner.sharded import ShardedScanRunner
from repro.scanner.zmapv6 import ScanConfig, ZMapV6Scanner
from repro.telemetry.scan import ScanTelemetry

class TestWireSimHopLimit:
    """wire-sim probes the simulator with the hop limit decoded off the
    wire, so the contract covers that header byte."""

    @staticmethod
    def _send(backend, targets):
        """Every row as an ``Outcome``, then the extra replies."""
        times = [i * 1e-3 for i in range(len(targets))]
        cols = backend.probe_columns(
            targets, times, hop_limit=2, probe_ids=range(len(targets))
        )
        return [row_of(cols, i) for i in range(cols.n)], list(cols.extra)

    def test_wire_sim_probes_with_the_decoded_hop_limit(
        self, tiny_world, monkeypatch
    ):
        targets = list(range_targets(tiny_world, 64))

        def wire_sim():
            return WireSimBackend(SimBackend(SimulationEngine(tiny_world, epoch=3)))

        sim = self._send(SimBackend(SimulationEngine(tiny_world, epoch=3)), targets)
        assert any(
            row.answer is not None
            and row.answer.icmp_type == ICMPv6Type.TIME_EXCEEDED
            for row in sim[0]
        )
        assert self._send(wire_sim(), targets) == sim

        # A decoder that misreads the hop-limit byte shows in the outcome,
        # and one that misreads it inconsistently within a batch raises.
        def decoder(misread):
            return SimpleNamespace(
                decode=lambda wire: replace(
                    IPv6Header.decode(wire), hop_limit=misread(wire)
                )
            )

        wiresim = "repro.scanner.backends.wiresim.IPv6Header"
        monkeypatch.setattr(wiresim, decoder(lambda wire: 64))
        assert self._send(wire_sim(), targets) != sim
        monkeypatch.setattr(wiresim, decoder(lambda wire: 2 + wire[-1] % 2))
        with pytest.raises(ValueError):
            self._send(wire_sim(), targets)


class TestUnmatchedReplyAccounting:
    """The silent wire-reply drop is now counted end to end."""

    def test_wire_sim_counts_failed_extraction(self, tiny_world, monkeypatch):
        # Forge the receive path failing to authenticate any reply: every
        # matched record disappears AND the loss becomes visible.
        monkeypatch.setattr(
            "repro.scanner.backends.wiresim.extract_probe",
            lambda message, key: None,
        )
        config = ScanConfig(pps=5_000.0, seed=3, backend="wire-sim")
        scanner = ZMapV6Scanner(SimulationEngine(tiny_world, epoch=0), config)
        targets = list(range_targets(tiny_world, 64))
        result = scanner.scan(targets, name="unmatched", epoch=9000)
        assert result.received == 0
        assert result.unmatched_replies > 0
        assert (
            scanner.backend.unmatched_replies == result.unmatched_replies
        )

    def test_an_unmatched_loop_reply_keeps_the_loop(self, tiny_world, monkeypatch):
        """A dropped reply clears only its row's reply: the probe still
        looped, as the ``sim`` scan of the same targets counts it."""
        targets = [
            region.prefix.network | offset
            for region in tiny_world.loop_regions[:2]
            for offset in range(1, 12)
        ]

        def scan(backend):
            config = ScanConfig(pps=5_000.0, seed=3, backend=backend)
            scanner = ZMapV6Scanner(SimulationEngine(tiny_world, epoch=0), config)
            return scanner.scan(targets, name="loops", epoch=9003)

        sim = scan("sim")
        assert sim.loops_observed > 0 and sim.received > 0
        monkeypatch.setattr(
            "repro.scanner.backends.wiresim.extract_probe",
            lambda message, key: None,
        )
        wire = scan("wire-sim")
        assert (wire.loops_observed, wire.lost) == (sim.loops_observed, sim.lost)
        assert wire.received == 0
        assert wire.unmatched_replies == sim.received

    def test_unmatched_total_rides_the_result_alone(self, tiny_world, monkeypatch):
        """The unmatched count lives on the result; the backend's name and
        the count never reach the telemetry export."""
        monkeypatch.setattr(
            "repro.scanner.backends.wiresim.extract_probe",
            lambda message, key: None,
        )
        telemetry = ScanTelemetry()
        config = ScanConfig(pps=5_000.0, seed=3, backend="wire-sim")
        scanner = ZMapV6Scanner(
            SimulationEngine(tiny_world, epoch=0), config, telemetry=telemetry
        )
        result = scanner.scan(
            range_targets(tiny_world, 64), name="unmatched", epoch=9001
        )
        assert result.unmatched_replies > 0
        exported = telemetry.to_jsonl() + telemetry.to_prometheus()
        assert "wire-sim" not in exported and "unmatched_replies" not in exported

    def test_healthy_scan_reports_nothing_unmatched_or_retried(self, tiny_world):
        result = ZMapV6Scanner(
            SimulationEngine(tiny_world, epoch=0), ScanConfig(pps=5_000.0, seed=3)
        ).scan(range_targets(tiny_world, 64), name="healthy", epoch=9002)
        assert result.unmatched_replies == 0
        assert result.resilience is None and result.faulted_probes == 0


class TestBackendSpecPlumbing:
    def test_config_key_carries_backend_spec(self):
        sim = config_key(ScanConfig())
        wire = config_key(ScanConfig(backend="wire-sim"))
        assert sim != wire
        other_key = config_key(ScanConfig(backend="wire-sim", key=b"k" * 32))
        assert other_key != wire  # a different probe key is a mismatch

    def test_sim_backend_follows_engine_epoch(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=4)
        backend = SimBackend(engine)
        assert backend.engine is engine
        assert backend.epoch == 4
        backend.new_epoch(7)
        assert engine.epoch == 7 and backend.epoch == 7

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend 'nope'"):
            ScanConfig(backend="nope")

    def test_simulated_backend_needs_an_engine(self):
        with pytest.raises(ValueError, match="needs an engine"):
            build_backend(ScanConfig(backend="wire-sim"))

    def test_scanner_accepts_backend_directly(self, tiny_world):
        backend = SimBackend(SimulationEngine(tiny_world, epoch=0))
        scanner = ZMapV6Scanner(backend, ScanConfig(pps=5_000.0, seed=3))
        assert scanner.backend is backend

    def test_wire_sim_wraps_engine_from_config(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        scanner = ZMapV6Scanner(
            engine, ScanConfig(pps=5_000.0, seed=3, backend="wire-sim")
        )
        assert isinstance(scanner.backend, WireSimBackend)
        assert scanner.backend.key == scanner.config.key
        assert scanner.backend.engine is engine

    def test_sharded_runner_refuses_nondeterministic_backends(
        self, tiny_world
    ):
        runner = ShardedScanRunner(tiny_world, shards=2, executor="serial")
        with pytest.raises(ValueError, match="not deterministic"):
            runner.scan(
                range_targets(tiny_world, 8),
                ScanConfig(pps=5_000.0, backend="raw", authorized=True),
                name="refused",
            )


class TestRawBackendValidation:
    """Everything here runs without privileges — and without sockets."""

    def test_requires_explicit_authorization(self):
        with pytest.raises(BackendAuthorizationError):
            RawSocketBackend()
        with pytest.raises(BackendAuthorizationError):
            build_backend(ScanConfig(backend="raw"))
        backend = build_backend(
            ScanConfig(backend="raw", authorized=True, pps=500.0)
        )
        assert isinstance(backend, RawSocketBackend)
        assert backend.pps == 500.0

    def test_capability_flags(self):
        assert not BACKENDS["raw"].deterministic

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="pps"):
            RawSocketBackend(authorized=True, pps=0.0)
        with pytest.raises(ValueError, match="linger"):
            RawSocketBackend(authorized=True, linger=-1.0)


class TestCliValidation:
    """One-line stderr + exit 2, the repo's CLI validation idiom."""

    def _check(self, argv, capsys, fragment):
        assert scan_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("sra-scan: ")
        assert fragment in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_backend(self, capsys):
        self._check(["--backend", "nope"], capsys, "unknown backend")

    def test_raw_without_authorization(self, capsys):
        self._check(["--backend", "raw"], capsys, "--i-am-authorized")

    def test_raw_without_targets_file(self, capsys):
        self._check(
            ["--backend", "raw", "--i-am-authorized"],
            capsys,
            "--targets-file",
        )

    def test_raw_refuses_shards(self, capsys, tmp_path):
        targets = tmp_path / "targets.txt"
        targets.write_text("::1\n")
        self._check(
            [
                "--backend",
                "raw",
                "--i-am-authorized",
                "--targets-file",
                str(targets),
                "--shards",
                "4",
            ],
            capsys,
            "unsharded",
        )

    # The three --targets-file failures of a raw scan all exit before any
    # socket opens, so they run wherever raw sockets do not.
    RAW = ["--backend", "raw", "--i-am-authorized", "--targets-file"]

    def test_unreadable_targets_file(self, capsys, tmp_path):
        self._check(
            [*self.RAW, str(tmp_path / "missing.txt")],
            capsys,
            "cannot read --targets-file",
        )

    def test_bad_targets_file_line_names_path_and_line(self, capsys, tmp_path):
        targets = tmp_path / "targets.txt"
        targets.write_text("::1  # loopback\n\nnot-an-address\n")
        self._check(
            [*self.RAW, str(targets)], capsys, f"{targets}:3: 'not-an-address'"
        )

    def test_empty_targets_file_exits_1(self, capsys, tmp_path):
        targets = tmp_path / "targets.txt"
        targets.write_text("# nothing to probe\n\n")
        assert scan_main([*self.RAW, str(targets)]) == 1
        err = capsys.readouterr().err
        assert err == "sra-scan: --targets-file has no targets\n"

    def test_duplicate_targets_are_probed_once(
        self, capsys, tmp_path, monkeypatch
    ):
        """The file reads through ``TargetList.load``: a duplicate drops
        (first wins) before the scanner sees it, and the summary counts
        distinct targets.  The scanner is stubbed: no socket opens."""
        scanned = []

        class RecordingScanner:
            def __init__(self, backend, config, telemetry=None):
                pass

            def scan(self, targets, *, name, epoch):
                scanned.extend(targets)
                return ScanResult(name=name, epoch=epoch, sent=len(targets))

        monkeypatch.setattr(
            "repro.scanner.cli.ZMapV6Scanner", RecordingScanner
        )
        targets = tmp_path / "targets.txt"
        targets.write_text("::2\n::1  # loopback\n::0:2\n")
        assert scan_main([*self.RAW, str(targets)]) == 0
        assert scanned == [2, 1]
        assert "targets    : 2 (raw backend)" in capsys.readouterr().out

    def test_targets_file_requires_raw(self, capsys, tmp_path):
        targets = tmp_path / "targets.txt"
        targets.write_text("::1\n")
        self._check(
            ["--targets-file", str(targets)], capsys, "--backend raw"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["--backend", "raw"],
            ["--backend", "nope"],
            ["--backend", "wire-sim"],
            ["--batch-size", "64"],
            ["--backend-retries", "1"],
            ["--backend-timeout", "5"],
            ["--breaker-threshold", "0.5"],
            ["--shards", "2"],
        ],
    )
    def test_repro_has_no_backend_or_batch_flag(self, argv, capsys):
        """Experiments reproduce the paper on the simulator's default
        backend, batch size and retry policy, one shard per scan:
        ``sra-repro`` takes none of those flags."""
        from repro.experiments.runner import main as repro_main

        with pytest.raises(SystemExit) as exited:
            repro_main([*argv, "--list"])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _raw_socket_available() -> bool:
    probe = RawSocketBackend(authorized=True, pps=1_000.0, linger=0.2)
    try:
        probe.open()
    except BackendPrivilegeError:
        return False
    finally:
        probe.close()
    return True


class TestRawLoopback:
    """Live raw-socket tests; skipped wherever CAP_NET_RAW is absent."""

    @pytest.fixture(autouse=True)
    def _require_raw_sockets(self):
        if not _raw_socket_available():
            pytest.skip("raw ICMPv6 sockets unavailable (no CAP_NET_RAW)")

    def test_loopback_echo_matches_probe_ids(self):
        backend = RawSocketBackend(authorized=True, pps=1_000.0, linger=0.3)
        try:
            backend.new_epoch(1)
            loopback = 1  # ::1
            cols = backend.probe_columns(
                [loopback, loopback],
                [0.0, 0.001],
                probe_ids=[(1 << 32) | 0, (1 << 32) | 1],
            )
            assert cols.n == 2
            for row in range(2):
                assert cols.flags[row] & FLAG_REPLY
                replies = [(cols.source(row), cols.icmp_type[row])] + [
                    (source, icmp_type)
                    for i, source, icmp_type, *_ in cols.extra
                    if i == row
                ]
                assert (loopback, ICMPv6Type.ECHO_REPLY) in replies
                assert all(source == loopback for source, _ in replies)
            assert backend.stats.probes == 2
            assert backend.stats.echo_replies >= 2
        finally:
            backend.close()

    def test_cli_raw_loopback_scan(self, tmp_path, capsys):
        targets = tmp_path / "targets.txt"
        targets.write_text("::1\n# a comment\n")
        jsonl = tmp_path / "records.jsonl"
        code = scan_main(
            [
                "--backend",
                "raw",
                "--i-am-authorized",
                "--targets-file",
                str(targets),
                "--pps",
                "200",
                "--jsonl",
                str(jsonl),
                "--summary",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "raw backend" in out
        assert jsonl.exists()
        assert '"source": "::1"' in jsonl.read_text()


def range_targets(world, count: int):
    """``count`` subnet-router anycast targets that actually reply."""
    from repro.scanner.cli import build_targets

    return build_targets(world, "bgp-plain", max_targets=count, seed=5)
