"""Raw packet captures in pcap format.

The paper observes that loop-amplified Time Exceeded floods are invisible
to scan tools and "only visible in raw packet captures" (§7).  This module
provides that raw view: a classic-pcap writer (LINKTYPE_RAW — packets
start at the IPv6 header) and :func:`capture_scan`, which runs a scan in
wire format and records every probe and every reply — including amplified
duplicates, up to a configurable cap — with virtual timestamps.

The produced files open in wireshark/tcpdump.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Sequence

from ..packet.icmpv6 import ICMPv6Type, echo_reply_for, error_message
from ..packet.ipv6hdr import HEADER_LENGTH, IPv6Header
from ..packet.probe import DEFAULT_PROBE_KEY, build_probe_packet
from ..packet.icmpv6 import ICMPv6Message
from ..topology.entities import World
from .engine import FLAG_REPLY, ProbeColumns, SimulationEngine

PCAP_MAGIC = 0xA1B2C3D4
PCAP_VERSION = (2, 4)
LINKTYPE_RAW = 101  # packets begin with the IP header
DEFAULT_SNAPLEN = 65_535

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")
_CHUNK = 1024  # probes per kernel call in capture_scan


class PcapWriter:
    """Streams packets into a classic-pcap file.

    Use as a context manager::

        with PcapWriter.open("scan.pcap") as pcap:
            pcap.write(0.5, packet_bytes)
    """

    def __init__(self, stream: BinaryIO, *, snaplen: int = DEFAULT_SNAPLEN) -> None:
        self._stream = stream
        self.snaplen = snaplen
        self.packets_written = 0
        stream.write(
            _GLOBAL_HEADER.pack(
                PCAP_MAGIC,
                PCAP_VERSION[0],
                PCAP_VERSION[1],
                0,  # timezone offset
                0,  # timestamp accuracy
                snaplen,
                LINKTYPE_RAW,
            )
        )

    @classmethod
    def open(cls, path: str | Path, **kwargs) -> "PcapWriter":
        writer = cls(open(path, "wb"), **kwargs)
        writer._owns_stream = True  # type: ignore[attr-defined]
        return writer

    def write(self, timestamp: float, packet: bytes) -> None:
        """Append one packet with a (virtual) timestamp in seconds."""
        seconds = int(timestamp)
        microseconds = int((timestamp - seconds) * 1_000_000)
        captured = packet[: self.snaplen]
        self._stream.write(
            _RECORD_HEADER.pack(seconds, microseconds, len(captured), len(packet))
        )
        self._stream.write(captured)
        self.packets_written += 1

    def close(self) -> None:
        if getattr(self, "_owns_stream", False):
            self._stream.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_pcap(path: str | Path) -> list[tuple[float, bytes]]:
    """Read a classic-pcap file back into (timestamp, packet) pairs."""
    data = Path(path).read_bytes()
    if len(data) < _GLOBAL_HEADER.size:
        raise ValueError("truncated pcap file")
    magic, *_rest = _GLOBAL_HEADER.unpack_from(data)
    if magic != PCAP_MAGIC:
        raise ValueError(f"not a (little-endian classic) pcap file: {magic:#x}")
    packets: list[tuple[float, bytes]] = []
    offset = _GLOBAL_HEADER.size
    while offset < len(data):
        seconds, micros, captured, _original = _RECORD_HEADER.unpack_from(
            data, offset
        )
        offset += _RECORD_HEADER.size
        packets.append((seconds + micros / 1e6, data[offset : offset + captured]))
        offset += captured
    return packets


def capture_scan(
    world: World,
    targets: Sequence[int],
    path: str | Path,
    *,
    epoch: int = 0,
    pps: float = 1_000.0,
    hop_limit: int = 64,
    max_duplicates: int = 1_000,
) -> dict[str, int]:
    """Run a scan and write the raw traffic — probes, replies, and the
    amplified flood duplicates that scan tools never report.

    Returns counters: probes, replies, flood_packets (duplicates written,
    capped at ``max_duplicates`` per reply), flood_truncated (duplicates
    that exceeded the cap and were *not* written).
    """
    engine = SimulationEngine(world, epoch=epoch)
    assert world.vantage is not None
    vantage = world.vantage.address
    counters = {"probes": 0, "replies": 0, "flood_packets": 0, "flood_truncated": 0}
    cols = ProbeColumns()
    with PcapWriter.open(path) as pcap:
        for index, target in enumerate(targets):
            time = index / pps
            row = index % _CHUNK
            if row == 0:  # no probe depends on an earlier reply: batch them
                ids = range(index, min(index + _CHUNK, len(targets)))
                engine.probe_columns(
                    targets[index : ids.stop],
                    [i / pps for i in ids],
                    hop_limit=hop_limit,
                    probe_ids=ids,
                    out=cols,
                )
            wire = build_probe_packet(
                src=vantage,
                target=target,
                probe_id=index,
                key=DEFAULT_PROBE_KEY,
                hop_limit=hop_limit,
                identifier=index & 0xFFFF,
                sequence=(index >> 16) & 0xFFFF,
            )
            pcap.write(time, wire)
            counters["probes"] += 1
            request = ICMPv6Message.decode(
                wire[HEADER_LENGTH:], src=vantage, dst=target
            )
            if not cols.flags[row] & FLAG_REPLY:
                continue
            # The engine's one reply per row; a flood is its ``count``.
            icmp_type = ICMPv6Type(cols.icmp_type[row])
            if icmp_type is ICMPv6Type.ECHO_REPLY:
                message = echo_reply_for(request)
            else:
                message = error_message(icmp_type, cols.code[row], wire)
            source, count = cols.source(row), cols.count[row]
            raw = message.encode(source, vantage)
            header = IPv6Header(
                src=source, dst=vantage, payload_length=len(raw), hop_limit=64
            )
            packet = header.encode() + raw
            duplicates = min(count, max_duplicates)
            for duplicate in range(duplicates):
                pcap.write(time + 0.001 + duplicate * 1e-6, packet)
            counters["replies"] += 1
            counters["flood_packets"] += duplicates - 1
            counters["flood_truncated"] += count - duplicates
    return counters
