"""``wire-sim``: the byte-accurate wire round trip over the simulator.

Every probe is encoded into its full on-the-wire IPv6+ICMPv6 bytes,
decoded back, sent through the wrapped :class:`~repro.scanner.backends.\
sim.SimBackend` in one kernel call per batch, and every reply row of the
kernel's columns is synthesised as wire bytes, re-decoded, and matched
via the authenticated payload — exactly the receive path a real scanner
runs; a reply that fails the match leaves its row with no reply.  Slower
than ``sim``, byte-identical in output (the round trip proves the codecs;
it never changes an outcome), which is what lets the raw backend reuse
this matching logic with confidence.

This used to be an inline branch in ``zmapv6.py``; it is now a backend
like any other, and the branch is gone.  One behavioural fix rode along:
replies that fail payload extraction/validation were silently dropped
before — they now count into
:attr:`~repro.scanner.backends.base.ProbeBackend.unmatched_replies`, so
the raw backend (where unmatched traffic is the norm, not a codec bug)
inherits visible loss accounting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ...netsim.engine import FLAG_REPLY
from ...packet.icmpv6 import (
    ICMPv6Message,
    ICMPv6Type,
    echo_reply_for,
    error_message,
)
from ...packet.ipv6hdr import HEADER_LENGTH, IPv6Header
from ...packet.probe import DEFAULT_PROBE_KEY, build_probe_packet, extract_probe
from .base import WrappingBackend
from .sim import SimBackend

if TYPE_CHECKING:
    from ...netsim.engine import ProbeColumns


class WireSimBackend(WrappingBackend):
    """Wire-format encode/decode round trip wrapping the ``sim`` backend.

    Everything but its name, its probe-id need (payloads always carry
    the id) and its own unmatched-reply count is the wrapped backend's.
    """

    name = "wire-sim"
    needs_probe_ids = True
    # Its own drop count, not the wrapped simulator's (which has none).
    unmatched_replies = 0

    def __init__(self, inner: SimBackend, *, key: bytes = DEFAULT_PROBE_KEY) -> None:
        super().__init__(inner)
        self.name = WireSimBackend.name  # not the wrapped "sim"
        self.key = key

    def probe_columns(
        self,
        targets: Sequence[int],
        times: Sequence[float],
        *,
        hop_limit: int = 64,
        probe_ids: Sequence[int] | None = None,
        out: "ProbeColumns | None" = None,
    ) -> "ProbeColumns":
        """Full wire-format round trip: encode each probe and decode it,
        probe the simulator with one kernel call for the batch's decoded
        destinations, then synthesise each reply row's bytes and re-match
        it via the payload."""
        vantage = self.engine.world.vantage
        assert vantage is not None
        if probe_ids is None:
            probe_ids = [0] * len(targets)
        sent = []  # (decoded header, wire bytes, decoded request)
        for target, probe_id in zip(targets, probe_ids):
            wire = build_probe_packet(
                src=vantage.address,
                target=target,
                probe_id=probe_id,
                key=self.key,
                hop_limit=hop_limit,
                identifier=probe_id & 0xFFFF,
                sequence=(probe_id >> 16) & 0xFFFF,
            )
            header = IPv6Header.decode(wire)
            request = ICMPv6Message.decode(
                wire[HEADER_LENGTH:], src=header.src, dst=header.dst
            )
            sent.append((header, wire, request))
        # The simulator sees the destinations and the hop limit (one per
        # batch; a decoder that disagrees with itself raises) off the wire.
        (wire_hop_limit,) = {h.hop_limit for h, _, _ in sent} or {hop_limit}
        cols = self.inner.probe_columns(
            [header.dst for header, _, _ in sent],
            times,
            hop_limit=wire_hop_limit,
            probe_ids=probe_ids,
            out=out,
        )
        cols.targets = targets
        flags = cols.flags
        for i, (target, probe_id, (_, wire, request)) in enumerate(
            zip(targets, probe_ids, sent)
        ):
            if not flags[i] & FLAG_REPLY:
                continue
            # Receive path: the reply as bytes, decoded, and matched back
            # to the probed target via the authenticated payload.
            source = cols.source(i)
            icmp_type = ICMPv6Type(cols.icmp_type[i])
            if icmp_type is ICMPv6Type.ECHO_REPLY:
                message = echo_reply_for(request)
            else:
                message = error_message(icmp_type, cols.code[i], wire)
            raw = message.encode(source, vantage.address)
            decoded = ICMPv6Message.decode(raw, src=source, dst=vantage.address)
            extraction = extract_probe(decoded, self.key)
            if extraction is None or (
                extraction[0].probe_id != probe_id or extraction[1] != target
            ):
                flags[i] ^= FLAG_REPLY  # unmatched traffic; zmap drops it
                self.unmatched_replies += 1
        return cols

