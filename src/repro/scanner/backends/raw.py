"""``raw``: opt-in raw-socket ICMPv6 echo probing of real networks.

The only backend that leaves the process.  It is **never** a default:
construction requires ``authorized=True`` (the CLIs map this to an
explicit ``--i-am-authorized`` flag), and :meth:`open` converts a
raw-socket permission failure into a typed
:class:`~repro.scanner.backends.base.BackendPrivilegeError` — unprivileged
environments (CI, tests) can import, construct, and reason about this
backend without ever opening a socket.

Send path: probes are encoded with the same byte-accurate
:mod:`repro.packet` codecs the ``wire-sim`` backend proves out (the
kernel prepends the IPv6 header and fixes the ICMPv6 checksum on
``IPPROTO_ICMPV6`` raw sockets, so only the ICMPv6 bytes are written).
Pacing follows :func:`repro.scanner.pacing.paced_pps` — the shared rate
policy of the whole reproduction — realised on the wall clock.

Receive path: an asynchronous thread decodes every inbound ICMPv6
message and recovers the probed target via
:func:`repro.packet.probe.extract_probe`; only replies that authenticate
against this scan's key and match an outstanding probe id *and* that
probe's target are kept (zmap's validation discipline: a second scan on
the same host with the same key reuses our probe ids, never our
targets).  Everything else — other hosts' traffic, scans by third
parties, replies to a batch already collected, undecodable bytes; our
own looped-back Echo Requests excepted — counts into
``unmatched_replies``, the same visible-loss accounting the wire-sim
backend introduced.  Once a batch's linger is over, its replies become
:class:`~repro.netsim.engine.ProbeColumns` rows: duplicates of one
(source, type, code) fold into ``count``, and a probe's second and later
distinct replies go to the columns' ``extra`` list in arrival order.

Operational discipline follows the scanning-etiquette literature the
issue cites: a hard rate ceiling, probe-order target permutation
upstream (the scanner spreads probes across networks), and a scan key
that makes our probes attributable and filterable.
"""

from __future__ import annotations

import socket
import struct
from collections import Counter
import threading
import time as wallclock
from typing import Sequence

from ...netsim.engine import FLAG_LOST, FLAG_REPLY, EngineStats, ProbeColumns
from ...packet.icmpv6 import ICMPv6Message, ICMPv6Type, echo_request
from ...packet.ipv6hdr import PacketError
from ...packet.probe import DEFAULT_PROBE_KEY, encode_payload, extract_probe
from ..pacing import paced_pps
from .base import (
    BackendAuthorizationError,
    BackendPrivilegeError,
    ProbeBackend,
)


def _address_text(address: int) -> str:
    return socket.inet_ntop(
        socket.AF_INET6, address.to_bytes(16, "big")
    )


def _address_int(text: str) -> int:
    return int.from_bytes(socket.inet_pton(socket.AF_INET6, text), "big")


class RawSocketBackend(ProbeBackend):
    """ICMPv6 Echo probing through a raw socket; explicit opt-in only."""

    name = "raw"
    deterministic = False

    def __init__(
        self,
        *,
        key: bytes = DEFAULT_PROBE_KEY,
        authorized: bool = False,
        pps: float = 1_000.0,
        linger: float = 1.0,
        recv_timeout: float = 0.2,
    ) -> None:
        if not authorized:
            raise BackendAuthorizationError(
                "the raw backend probes real networks; pass "
                "authorized=True (--i-am-authorized) only for targets "
                "you are permitted to scan"
            )
        if pps <= 0:
            raise ValueError(f"pps ceiling must be positive, got {pps}")
        if linger < 0:
            raise ValueError(f"linger must be >= 0, got {linger}")
        if recv_timeout <= 0:
            raise ValueError(f"recv_timeout must be positive, got {recv_timeout}")
        self.key = key
        self.pps = pps
        self.linger = linger
        # Socket receive timeout: the receiver thread's shutdown-check
        # cadence.  A constructor argument (not a constant) so a caller
        # can trade shutdown latency against wakeup rate.
        self.recv_timeout = recv_timeout
        self.unmatched_replies = 0
        self._warnings: list[str] = []
        self._epoch = 0
        self._stats = EngineStats()
        self._sock: socket.socket | None = None
        self._receiver: threading.Thread | None = None
        self._running = False
        self._lock = threading.Lock()
        # probe_id -> (probed target, [(source, icmp_type, code), ...] in
        # arrival order), for the probes of the batch in flight
        self._matched: dict[int, tuple[int, list[tuple[int, int, int]]]] = {}

    # ---------------- lifecycle ---------------- #

    def open(self) -> None:
        if self._sock is not None:
            return
        try:
            sock = socket.socket(
                socket.AF_INET6, socket.SOCK_RAW, socket.IPPROTO_ICMPV6
            )
        except PermissionError as error:
            raise BackendPrivilegeError(
                "opening a raw ICMPv6 socket requires CAP_NET_RAW "
                "(run privileged, or grant the capability)"
            ) from error
        except OSError as error:
            raise BackendPrivilegeError(
                f"raw ICMPv6 socket unavailable: {error}"
            ) from error
        sock.settimeout(self.recv_timeout)
        self._sock = sock
        self._running = True
        self._receiver = threading.Thread(
            target=self._receive_loop, name="raw-backend-recv", daemon=True
        )
        self._receiver.start()

    def close(self) -> None:
        self._running = False
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
        if self._receiver is not None:
            # The receiver wakes at most every recv_timeout to check
            # _running, so two cycles (plus reply-drain slack) is an
            # honest join budget; derived from the constructor arguments
            # instead of a hardcoded constant.
            join_timeout = self.linger + 2.0 * self.recv_timeout
            self._receiver.join(timeout=join_timeout)
            if self._receiver.is_alive():
                # Don't leak a thread silently: queue a warning, which
                # sra-scan prints to stderr after closing the backend.
                self._warnings.append(
                    "receiver thread failed to join within "
                    f"{join_timeout:.1f}s; daemon thread leaked"
                )
            self._receiver = None

    def pop_warnings(self) -> list[str]:
        warnings, self._warnings = self._warnings, []
        return warnings

    # ---------------- epoch + observability ---------------- #

    @property
    def epoch(self) -> int:
        return self._epoch

    def new_epoch(self, epoch: int) -> None:
        self._epoch = epoch
        self._stats = EngineStats()
        with self._lock:
            self._matched.clear()

    @property
    def stats(self) -> EngineStats:
        return self._stats

    # ---------------- receive path ---------------- #

    def _receive_loop(self) -> None:
        """Match inbound ICMPv6 against outstanding probes, by probe id
        and probed target.

        The kernel strips the IPv6 header on raw ICMPv6 receive, so the
        checksum cannot be re-verified here (it needs the pseudo-header);
        the authenticated payload MAC is the integrity check that
        matters.  Our own outbound Echo Requests loop back on ``::1``
        probes and are skipped silently — they are not "unmatched
        traffic", they are ours.
        """
        while self._running:
            sock = self._sock
            if sock is None:
                return
            try:
                data, address = sock.recvfrom(65535)
            except socket.timeout:
                continue
            except OSError:
                return  # socket closed underneath us: shutdown
            try:
                message = ICMPv6Message.decode(
                    data, src=0, dst=0, verify=False
                )
            except PacketError:
                with self._lock:
                    self.unmatched_replies += 1
                continue
            if message.type is ICMPv6Type.ECHO_REQUEST:
                continue
            # Link-local sources arrive as "fe80::1%ifname"; the scope
            # suffix is not part of the address proper.
            source = _address_int(address[0].split("%", 1)[0])
            extraction = extract_probe(message, self.key)
            with self._lock:
                pending = extraction and self._matched.get(extraction[0].probe_id)
                if not pending or pending[0] != extraction[1]:
                    self.unmatched_replies += 1
                    continue
                pending[1].append((source, int(message.type), message.code))

    # ---------------- send path ---------------- #

    def probe_columns(
        self,
        targets: Sequence[int],
        times: Sequence[float],
        *,
        hop_limit: int = 64,
        probe_ids: Sequence[int] | None = None,
        out: ProbeColumns | None = None,
    ) -> ProbeColumns:
        self.open()
        sock = self._sock
        assert sock is not None
        if probe_ids is None:
            probe_ids = [(self._epoch << 32) | index for index in range(len(targets))]
        sock.setsockopt(
            socket.IPPROTO_IPV6,
            socket.IPV6_UNICAST_HOPS,
            struct.pack("i", hop_limit),
        )
        # The scanner's virtual probe times already encode its pps; the
        # wall-clock realisation re-derives the rate through the shared
        # paced_pps policy so the backend's own ceiling caps it.
        duration = max(0.0, float(times[-1]) - float(times[0])) if times else 0.0
        rate = paced_pps(len(targets), duration, self.pps)
        interval = 1.0 / rate
        with self._lock:
            for target, probe_id in zip(targets, probe_ids):
                self._matched[probe_id] = (target, [])
        started = wallclock.monotonic()
        for index, (target, probe_id) in enumerate(zip(targets, probe_ids)):
            due = started + index * interval
            delay = due - wallclock.monotonic()
            if delay > 0:
                wallclock.sleep(delay)
            payload = encode_payload(target, probe_id, self.key)
            message = echo_request(
                probe_id & 0xFFFF, (probe_id >> 16) & 0xFFFF, payload
            )
            # Checksum uses a zero source; the kernel recomputes it for
            # IPPROTO_ICMPV6 raw sockets once the real source is known.
            wire = message.encode(0, target)
            sock.sendto(wire, (_address_text(target), 0, 0, 0))
            self._stats.probes += 1
        if self.linger:
            wallclock.sleep(self.linger)
        return self._collect(
            targets, times, probe_ids, ProbeColumns() if out is None else out
        )

    def _collect(
        self,
        targets: Sequence[int],
        times: Sequence[float],
        probe_ids: Sequence[int],
        cols: ProbeColumns,
    ) -> ProbeColumns:
        """The batch's matched replies as ``cols``: a probe's first
        distinct reply in its row, the rest in ``extra``."""
        cols.blank(targets, times)
        stats = self._stats
        with self._lock:
            for row, probe_id in enumerate(probe_ids):
                cols.router_id[row] = -1
                cols.transit[row] = 0
                _, arrived = self._matched.pop(probe_id, (0, []))
                if not arrived:
                    cols.flags[row] = FLAG_LOST
                    stats.lost += 1
                # Aggregate duplicates (loop floods, dup delivery) into
                # per-(source, type, code) reply counts, like the engine.
                replies = Counter(arrived).items()
                for k, ((source, icmp_type, code), count) in enumerate(replies):
                    if icmp_type == ICMPv6Type.ECHO_REPLY:
                        stats.echo_replies += count
                    else:
                        stats.error_replies += count
                    if k:
                        cols.extra.append((row, source, icmp_type, code, count))
                        continue
                    cols.flags[row] = FLAG_REPLY
                    cols.source_hi[row] = source >> 64
                    cols.source_lo[row] = source & 0xFFFF_FFFF_FFFF_FFFF
                    cols.icmp_type[row] = icmp_type
                    cols.code[row] = code
                    cols.count[row] = count
        return cols

