"""ICMPv6 message encoding and decoding (RFC 4443).

Implements the message types the measurement uses:

* Echo Request / Echo Reply (types 128/129) for probing,
* Destination Unreachable (type 1) with the codes routers emit for missing
  routes and unassigned addresses,
* Time Exceeded (type 3) — what looping packets degenerate into,
* Packet Too Big (type 2) for completeness.

Error messages quote as much of the invoking packet as fits (RFC 4443 §2.4),
which is what lets the scanner recover the probed target from errors.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from .ipv6hdr import (
    NEXT_HEADER_ICMPV6,
    PacketError,
    internet_checksum,
    pseudo_header,
)

ICMPV6_HEADER_LENGTH = 8
# RFC 4443 §2.4(c): error messages must not exceed the IPv6 minimum MTU.
MAX_ERROR_QUOTE = 1280 - 40 - ICMPV6_HEADER_LENGTH


class ICMPv6Type(enum.IntEnum):
    DESTINATION_UNREACHABLE = 1
    PACKET_TOO_BIG = 2
    TIME_EXCEEDED = 3
    PARAMETER_PROBLEM = 4
    ECHO_REQUEST = 128
    ECHO_REPLY = 129

    @property
    def is_error(self) -> bool:
        """Per RFC 4443, types < 128 are error messages."""
        return self.value < 128


class UnreachableCode(enum.IntEnum):
    NO_ROUTE = 0
    ADMIN_PROHIBITED = 1
    BEYOND_SCOPE = 2
    ADDRESS_UNREACHABLE = 3
    PORT_UNREACHABLE = 4


class TimeExceededCode(enum.IntEnum):
    HOP_LIMIT_EXCEEDED = 0
    FRAGMENT_REASSEMBLY = 1


@dataclass(frozen=True, slots=True)
class ICMPv6Message:
    """A decoded ICMPv6 message.

    For echo messages ``identifier``/``sequence`` are meaningful and ``body``
    is the echo payload.  For error messages they are zero and ``body`` is
    the quoted invoking packet (starting at its IPv6 header).
    """

    type: ICMPv6Type
    code: int
    identifier: int = 0
    sequence: int = 0
    body: bytes = b""

    @property
    def is_error(self) -> bool:
        return self.type.is_error

    def encode(self, src: int, dst: int) -> bytes:
        """Serialise with a valid checksum over the IPv6 pseudo-header."""
        if self.type in (ICMPv6Type.ECHO_REQUEST, ICMPv6Type.ECHO_REPLY):
            rest = struct.pack("!HH", self.identifier, self.sequence)
        else:
            rest = struct.pack("!I", 0)
        without_checksum = (
            struct.pack("!BBH", self.type, self.code, 0) + rest + self.body
        )
        checksum = internet_checksum(
            pseudo_header(src, dst, len(without_checksum), NEXT_HEADER_ICMPV6)
            + without_checksum
        )
        return (
            struct.pack("!BBH", self.type, self.code, checksum) + rest + self.body
        )

    @classmethod
    def decode(cls, data: bytes, *, src: int, dst: int, verify: bool = True) -> "ICMPv6Message":
        if len(data) < ICMPV6_HEADER_LENGTH:
            raise PacketError(f"truncated ICMPv6 message: {len(data)} bytes")
        type_value, code, checksum = struct.unpack("!BBH", data[:4])
        try:
            msg_type = ICMPv6Type(type_value)
        except ValueError as exc:
            raise PacketError(f"unknown ICMPv6 type {type_value}") from exc
        if verify:
            zeroed = data[:2] + b"\x00\x00" + data[4:]
            expected = internet_checksum(
                pseudo_header(src, dst, len(data), NEXT_HEADER_ICMPV6) + zeroed
            )
            if expected != checksum:
                raise PacketError(
                    f"bad ICMPv6 checksum: got {checksum:#06x}, want {expected:#06x}"
                )
        if msg_type in (ICMPv6Type.ECHO_REQUEST, ICMPv6Type.ECHO_REPLY):
            identifier, sequence = struct.unpack("!HH", data[4:8])
            return cls(msg_type, code, identifier, sequence, bytes(data[8:]))
        return cls(msg_type, code, body=bytes(data[8:]))


def echo_request(identifier: int, sequence: int, payload: bytes) -> ICMPv6Message:
    return ICMPv6Message(
        ICMPv6Type.ECHO_REQUEST, 0, identifier & 0xFFFF, sequence & 0xFFFF, payload
    )


def echo_reply_for(request: ICMPv6Message) -> ICMPv6Message:
    """The Echo Reply a conforming node sends: same id/seq/payload."""
    if request.type is not ICMPv6Type.ECHO_REQUEST:
        raise PacketError("echo_reply_for requires an Echo Request")
    return ICMPv6Message(
        ICMPv6Type.ECHO_REPLY,
        0,
        request.identifier,
        request.sequence,
        request.body,
    )


def error_message(
    msg_type: ICMPv6Type, code: int, invoking_packet: bytes
) -> ICMPv6Message:
    """An error message quoting the invoking packet, MTU-truncated."""
    if not msg_type.is_error:
        raise PacketError(f"{msg_type.name} is not an error type")
    return ICMPv6Message(msg_type, code, body=invoking_packet[:MAX_ERROR_QUOTE])
