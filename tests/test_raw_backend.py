"""The ``raw`` backend's reply discipline, through a fake socket.

``socket`` in :mod:`repro.scanner.backends.raw` is replaced by a namespace
whose ``socket`` builds a :class:`FakeSocket`, so every case here runs
without ``CAP_NET_RAW`` and without touching a network.  The backend's
receiver thread runs for real; the fake socket answers each probe through
a scripted ``respond`` function, and the backend's wall-clock sleeps
(pacing and the receive linger) become "wait until the receiver has taken
every queued reply", which makes each case deterministic.

The checklist is zmap's and SNIPPETS.md #1's: a reply is matched to its
probe by identifier (probe id) *and* probed target, every distinct reply
is kept, duplicates fold into a count, and everything else is counted in
``unmatched_replies`` — or, our own looped-back Echo Request, skipped.
"""

from __future__ import annotations

import json
import queue
import socket
import time
from types import SimpleNamespace

import pytest
from faults import FaultPlan, FaultyBackend

import repro.scanner.backends.raw as raw
from repro.netsim.engine import FLAG_LOST, FLAG_REPLY, ProbeColumns
from repro.packet.icmpv6 import (
    ICMPv6Message,
    ICMPv6Type,
    echo_reply_for,
    echo_request,
    error_message,
)
from repro.packet.ipv6hdr import IPv6Header
from repro.packet.probe import encode_payload
from repro.scanner.backends import (
    DEFAULT_PROBE_KEY,
    RawSocketBackend,
    ResilientBackend,
    RetryPolicy,
)
from repro.scanner.records import RecordColumns, ScanRecord
from repro.scanner.zmapv6 import ScanConfig, ZMapV6Scanner
from repro.telemetry.scan import ScanTelemetry

VANTAGE = 0x2001_0DB8_FFFF_0000_0000_0000_0000_0001
TARGETS = [0x2001_0DB8_0000_0000_0000_0000_0000_0000 + (i << 64) for i in range(4)]
TIMES = [i / 1000.0 for i in range(len(TARGETS))]
ROUTER_A = 0x2001_0DB8_AAAA_0000_0000_0000_0000_0001
ROUTER_B = 0x2001_0DB8_BBBB_0000_0000_0000_0000_0001
EPOCH = 3
IDS = [(EPOCH << 32) | i for i in range(len(TARGETS))]


def _text(address: int) -> str:
    return socket.inet_ntop(socket.AF_INET6, address.to_bytes(16, "big"))


def _int(text: str) -> int:
    return int.from_bytes(socket.inet_pton(socket.AF_INET6, text), "big")


class FakeSocket:
    """The raw ICMPv6 socket surface the backend uses.  ``sendto`` queues
    the network's scripted replies; the receiver thread's ``recvfrom``
    takes them in order.  A reply counts as handled once the receiver
    comes back for the next one, which is what :meth:`settle` waits for."""

    def __init__(self, network: "FakeNetwork") -> None:
        self.network = network
        self.inbox: queue.Queue = queue.Queue()
        self.timeout = None
        self._taken = False

    def settimeout(self, timeout: float) -> None:
        self.timeout = timeout

    def setsockopt(self, *_args) -> None:
        pass

    def sendto(self, data: bytes, address: tuple) -> None:
        target = _int(address[0])
        request = ICMPv6Message.decode(data, src=0, dst=target, verify=False)
        probe = SimpleNamespace(target=target, data=bytes(data), request=request)
        for reply, source in self.network.respond(probe):
            self.deliver(reply, source)

    def deliver(self, reply: bytes, source: int) -> None:
        self.inbox.put((reply, (_text(source), 0, 0, 0)))

    def recvfrom(self, _size: int):
        if self._taken:
            self._taken = False
            self.inbox.task_done()
        try:
            item = self.inbox.get(timeout=self.timeout)
        except queue.Empty:
            raise socket.timeout from None
        self._taken = True
        return item

    def settle(self) -> None:
        self.inbox.join()

    def close(self) -> None:
        pass


class FakeNetwork:
    """Builds fake sockets and scripts what the network answers."""

    def __init__(self) -> None:
        self.sockets: list[FakeSocket] = []
        self.respond = lambda probe: []

    def socket(self, *_args) -> FakeSocket:
        self.sockets.append(FakeSocket(self))
        return self.sockets[-1]

    def settle(self, _delay: float = 0.0) -> None:
        for sock in self.sockets:
            sock.settle()


@pytest.fixture()
def network(monkeypatch):
    net = FakeNetwork()
    monkeypatch.setattr(
        raw, "socket", SimpleNamespace(**{**vars(socket), "socket": net.socket})
    )
    clock = SimpleNamespace(monotonic=time.monotonic, sleep=net.settle)
    monkeypatch.setattr(raw, "wallclock", clock)
    return net


@pytest.fixture()
def backend(network):
    built = RawSocketBackend(
        authorized=True, pps=1e6, linger=1.0, recv_timeout=0.01
    )
    built.new_epoch(EPOCH)
    yield built
    built.close()


def _echo(probe) -> tuple[bytes, int]:
    reply = echo_reply_for(probe.request).encode(probe.target, VANTAGE)
    return reply, probe.target


def _error(probe, router: int, *, quote: int | None = None) -> tuple[bytes, int]:
    invoking = (
        IPv6Header(
            src=VANTAGE,
            dst=probe.target,
            payload_length=len(probe.data),
            hop_limit=1,
        ).encode()
        + probe.data
    )
    if quote is not None:
        invoking = invoking[:quote]
    message = error_message(ICMPv6Type.TIME_EXCEEDED, 0, invoking)
    return message.encode(router, VANTAGE), router


def _probe(backend):
    return backend.probe_columns(TARGETS, TIMES, probe_ids=IDS)


def _replies(cols):
    """Per row: None when lost, else [(source, type, code, count), ...]."""
    rows = []
    for row in range(cols.n):
        if cols.flags[row] & FLAG_LOST:
            rows.append(None)
            continue
        replies = []
        if cols.flags[row] & FLAG_REPLY:
            replies.append((
                cols.source(row), cols.icmp_type[row], cols.code[row], cols.count[row]
            ))
        replies += [tuple(extra[1:]) for extra in cols.extra if extra[0] == row]
        rows.append(replies)
    return rows


ECHO = int(ICMPv6Type.ECHO_REPLY)
TIME_EXCEEDED = int(ICMPv6Type.TIME_EXCEEDED)


def test_duplicate_replies_fold_into_one_row(network, backend):
    network.respond = lambda probe: [_echo(probe), _echo(probe)]
    cols = _probe(backend)
    assert cols.n == len(TARGETS)
    assert cols.targets is TARGETS and cols.times is TIMES
    assert _replies(cols) == [[(target, ECHO, 0, 2)] for target in TARGETS]
    assert cols.extra == []
    assert list(cols.router_id[: cols.n]) == [-1] * len(TARGETS)
    assert list(cols.transit[: cols.n]) == [0] * len(TARGETS)
    assert backend.stats.probes == len(TARGETS)
    assert backend.stats.echo_replies == 2 * len(TARGETS)
    assert backend.unmatched_replies == 0


def _multi_reply(probe):
    """The second target draws three distinct replies and one duplicate;
    the others answer once or not at all."""
    if probe.target == TARGETS[1]:
        return [
            _error(probe, ROUTER_A),
            _echo(probe),
            _error(probe, ROUTER_B),
            _error(probe, ROUTER_A),
        ]
    if probe.target == TARGETS[2]:
        return [_echo(probe)]
    return []


def test_distinct_sources_are_kept_in_arrival_order(network, backend):
    network.respond = _multi_reply
    cols = _probe(backend)
    assert _replies(cols) == [
        None,
        [
            (ROUTER_A, TIME_EXCEEDED, 0, 2),
            (TARGETS[1], ECHO, 0, 1),
            (ROUTER_B, TIME_EXCEEDED, 0, 1),
        ],
        [(TARGETS[2], ECHO, 0, 1)],
        None,
    ]
    assert backend.stats.lost == 2
    assert (backend.stats.echo_replies, backend.stats.error_replies) == (2, 3)


def test_a_scan_records_every_distinct_reply(network, backend):
    """Through the scanner: one record per distinct reply, a probe's
    records in arrival order, and progress events that count them all."""
    network.respond = _multi_reply
    telemetry = ScanTelemetry()
    scanner = ZMapV6Scanner(
        backend,
        ScanConfig(pps=1_000.0, seed=5, batch_size=2, progress_every=1),
        telemetry=telemetry,
    )
    result = scanner.scan(TARGETS, name="raw", epoch=EPOCH)
    assert result.sent == len(TARGETS)
    assert result.lost == 2
    assert [
        (record.source, record.count)
        for record in result.records
        if record.target == TARGETS[1]
    ] == [(ROUTER_A, 2), (TARGETS[1], 1), (ROUTER_B, 1)]
    assert result.received == 4
    progress = [
        event
        for event in map(json.loads, telemetry.to_jsonl().splitlines())
        if event["event"] == "progress"
    ]
    assert [event["sent"] for event in progress] == [1, 2, 3, 4]
    assert progress[-1]["records"] == 4


@pytest.mark.parametrize("batch_size", [1, 2, 4])
def test_raw_scan_packs_its_replies_in_arrival_order(network, backend, batch_size):
    """Duplicates fold into one row, and a probe's distinct replies come
    in arrival order, its column reply first: today's records."""
    config = ScanConfig(pps=1_000.0, seed=5, batch_size=batch_size)
    network.respond = lambda probe: [_echo(probe)]
    visits = ZMapV6Scanner(backend, config).scan(TARGETS, name="raw", epoch=EPOCH)
    network.respond = _multi_reply
    result = ZMapV6Scanner(backend, config).scan(TARGETS, name="raw", epoch=EPOCH)
    replies = {
        TARGETS[1]: [
            (ROUTER_A, TIME_EXCEEDED, 2),
            (TARGETS[1], ECHO, 1),
            (ROUTER_B, TIME_EXCEEDED, 1),
        ],
        TARGETS[2]: [(TARGETS[2], ECHO, 1)],
    }
    assert result.records == [
        ScanRecord(visit.target, source, icmp_type, 0, count, visit.time)
        for visit in visits.records
        for source, icmp_type, count in replies.get(visit.target, [])
    ]


def test_a_bisected_batch_keeps_its_extra_replies(network, backend):
    """A batch that never goes through whole is bisected by the resilient
    wrapper; the halves' extra replies are spliced back at their rows."""
    network.respond = _multi_reply
    clean = _replies(_probe(backend))
    faulty = FaultyBackend(
        backend, FaultPlan(backend_error_batch=0, backend_error_attempts=None)
    )
    resilient = ResilientBackend(
        faulty, RetryPolicy(max_retries=0, backoff=0.0, max_split_depth=1)
    )
    cols = resilient.probe_columns(TARGETS, TIMES, probe_ids=IDS)
    assert _replies(cols) == clean
    assert resilient.resilience.faulted_probes == 0
    assert backend.stats.probes == 2 * len(TARGETS), "the halves were sent"
    assert cols.extra == [
        (1, TARGETS[1], ECHO, 0, 1), (1, ROUTER_B, TIME_EXCEEDED, 0, 1)
    ]


def test_a_blackhole_eats_extra_echo_replies(network, backend):
    network.respond = _multi_reply
    faulty = FaultyBackend(backend, FaultPlan(backend_blackhole=True))
    cols = faulty.probe_columns(TARGETS, TIMES, probe_ids=IDS)
    assert _replies(cols) == [
        None,
        [(ROUTER_A, TIME_EXCEEDED, 0, 2), (ROUTER_B, TIME_EXCEEDED, 0, 1)],
        [],
        None,
    ]
    assert (backend.stats.echo_replies, backend.stats.error_replies) == (0, 3)


def test_extra_replies_splice_and_pack_after_their_row():
    """Bisection splices extras with their rows; packing puts each row's
    column reply first, then its extras in arrival order."""
    half = ProbeColumns()
    half.blank([1, 2], [0.0, 0.1])
    half.flags[1] = FLAG_REPLY
    half.source_hi[1], half.source_lo[1] = ROUTER_B >> 64, ROUTER_B & (2**64 - 1)
    half.icmp_type[1], half.code[1], half.count[1] = TIME_EXCEEDED, 0, 2
    half.extra.append((1, ROUTER_A, TIME_EXCEEDED, 0, 1))
    whole = ProbeColumns()
    whole.blank([0, 0, 1, 2], [0.0] * 4)
    whole.splice(2, half)
    assert whole.extra == [(3, ROUTER_A, TIME_EXCEEDED, 0, 1)]
    packed = RecordColumns.empty()
    packed.pack_rows([1], [1, 2], [0.0, 0.1], half)
    assert packed.to_records() == [
        ScanRecord(2, ROUTER_B, TIME_EXCEEDED, 0, 2, 0.1),
        ScanRecord(2, ROUTER_A, TIME_EXCEEDED, 0, 1, 0.1),
    ]
    whole.blank([5], [0.0])
    assert whole.extra == []


def test_reply_after_its_batch_was_collected_is_counted(network, backend):
    cols = _probe(backend)
    assert _replies(cols) == [None] * len(TARGETS)
    # The reply to probe 0 arrives once its batch is gone.
    payload = encode_payload(TARGETS[0], IDS[0], DEFAULT_PROBE_KEY)
    probe = SimpleNamespace(
        target=TARGETS[0], request=echo_request(IDS[0], IDS[0] >> 16, payload)
    )
    (sock,) = network.sockets
    sock.deliver(*_echo(probe))
    sock.settle()
    assert backend.unmatched_replies == 1


def _forged_echo(probe, payload: bytes):
    request = echo_request(probe.request.identifier, probe.request.sequence, payload)
    return _echo(SimpleNamespace(target=probe.target, request=request))


def _probe_id(probe) -> int:
    return IDS[TARGETS.index(probe.target)]


def test_foreign_replies_are_counted(network, backend):
    """A payload under another scan's key, and one with no magic at all."""

    def foreign(probe):
        keyed = encode_payload(probe.target, _probe_id(probe), b"k" * 32)
        return [
            _forged_echo(probe, keyed),
            _forged_echo(probe, b"not one of ours, no magic here..."),
        ]

    network.respond = foreign
    cols = _probe(backend)
    assert _replies(cols) == [None] * len(TARGETS)
    assert backend.unmatched_replies == 2 * len(TARGETS)
    assert backend.stats.echo_replies == 0


def test_truncated_replies_are_counted(network, backend):
    """Undecodable bytes, and an error whose quote stops short of the
    quoted header plus the echo header (40 + 8 bytes)."""
    network.respond = lambda probe: [
        (b"\x81\x00", probe.target),
        _error(probe, ROUTER_A, quote=40 + 4),
        _error(probe, ROUTER_B, quote=20),
    ]
    cols = _probe(backend)
    assert _replies(cols) == [None] * len(TARGETS)
    assert backend.unmatched_replies == 3 * len(TARGETS)


def test_our_own_looped_back_request_is_skipped_uncounted(network, backend):
    network.respond = lambda probe: [(probe.data, probe.target)]
    cols = _probe(backend)
    assert _replies(cols) == [None] * len(TARGETS)
    assert backend.unmatched_replies == 0


def test_reply_naming_another_target_is_counted_not_matched(network, backend):
    """Two raw scans on one host share the default key and, at epoch 0
    for both, every probe id: the other scan's MAC-valid reply to its
    probe ``i`` carries our probe ``i``'s id but its own target, and must
    not be recorded against ours."""
    elsewhere = 0x2001_0DB8_EEEE_0000_0000_0000_0000_0000

    def other_scan(probe):
        other = elsewhere + TARGETS.index(probe.target)
        payload = encode_payload(other, _probe_id(probe), DEFAULT_PROBE_KEY)
        reply, _ = _forged_echo(probe, payload)
        return [(reply, other)]

    network.respond = other_scan
    assert _replies(_probe(backend)) == [None] * len(TARGETS)
    assert backend.unmatched_replies == len(TARGETS)
