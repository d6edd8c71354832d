"""Probe payload codec: recover the probed target from any reply.

A stateless scanner cannot keep a table of outstanding probes.  Following
the paper (§3.1 "Capturing replies") the probed SRA target is encoded in the
ICMPv6 Echo payload; replies carry it back in two ways:

* an **Echo Reply** echoes the payload verbatim,
* an **error message** quotes the invoking packet — IPv6 header included —
  so the original destination address (and our payload) can be extracted.

The payload is ``magic || target(16B) || probe_id(8B) || mac(4B)`` where the
MAC is a keyed hash binding the fields to this scan, rejecting unrelated or
forged traffic (the zmap "validation" trick).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .icmpv6 import ICMPv6Message, ICMPv6Type
from .ipv6hdr import HEADER_LENGTH, IPv6Header, PacketError

PAYLOAD_MAGIC = b"SRA6"
PAYLOAD_LENGTH = len(PAYLOAD_MAGIC) + 16 + 8 + 4
# The scanner's probe-authentication key unless a scan names its own
# (``ScanConfig.key``); ``capture_scan`` always writes with it.
DEFAULT_PROBE_KEY = b"sra-probing-key-0123456789abcdef"


@dataclass(frozen=True, slots=True)
class ProbePayload:
    """The decoded content of a probe payload."""

    target: int
    probe_id: int


def _mac(key: bytes, target: int, probe_id: int) -> bytes:
    digest = hashlib.blake2s(
        target.to_bytes(16, "big") + probe_id.to_bytes(8, "big"),
        key=key[:32],
        digest_size=4,
    )
    return digest.digest()


def encode_payload(target: int, probe_id: int, key: bytes) -> bytes:
    """Build the probe payload for a target address."""
    return (
        PAYLOAD_MAGIC
        + target.to_bytes(16, "big")
        + (probe_id & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
        + _mac(key, target, probe_id)
    )


def decode_payload(payload: bytes, key: bytes) -> ProbePayload | None:
    """Parse and authenticate a probe payload; None if not ours."""
    if len(payload) < PAYLOAD_LENGTH or not payload.startswith(PAYLOAD_MAGIC):
        return None
    offset = len(PAYLOAD_MAGIC)
    target = int.from_bytes(payload[offset : offset + 16], "big")
    probe_id = int.from_bytes(payload[offset + 16 : offset + 24], "big")
    mac = payload[offset + 24 : offset + 28]
    if mac != _mac(key, target, probe_id):
        return None
    return ProbePayload(target=target, probe_id=probe_id)


def extract_probe(
    message: ICMPv6Message, key: bytes
) -> tuple[ProbePayload, int] | None:
    """Recover (payload, original destination) from any reply message.

    For Echo replies the original destination *is* the encoded target.  For
    error messages we decode the quoted invoking packet: its IPv6 header
    yields the original destination, and the quoted ICMPv6 echo carries our
    payload (if the quote was long enough to include it).
    """
    if message.type is ICMPv6Type.ECHO_REPLY:
        payload = decode_payload(message.body, key)
        if payload is None:
            return None
        return payload, payload.target
    if not message.is_error:
        return None
    quoted = message.body
    if len(quoted) < HEADER_LENGTH:
        return None
    try:
        inner_header = IPv6Header.decode(quoted)
    except PacketError:
        return None
    inner_icmp = quoted[HEADER_LENGTH:]
    # Quoted echo request: 8-byte ICMPv6 header then our payload.
    if len(inner_icmp) < 8:
        return None
    payload = decode_payload(inner_icmp[8:], key)
    if payload is None:
        return None
    if payload.target != inner_header.dst:
        # A forwarding middlebox rewrote the destination; distrust it.
        return None
    return payload, inner_header.dst


def build_probe_packet(
    src: int,
    target: int,
    probe_id: int,
    key: bytes,
    *,
    hop_limit: int,
    identifier: int,
    sequence: int,
) -> bytes:
    """Encode a complete on-the-wire Echo Request probe for ``target``."""
    from .icmpv6 import echo_request  # local import avoids cycle at module load

    message = echo_request(identifier, sequence, encode_payload(target, probe_id, key))
    icmp_bytes = message.encode(src, target)
    header = IPv6Header(
        src=src, dst=target, payload_length=len(icmp_bytes), hop_limit=hop_limit
    )
    return header.encode() + icmp_bytes
