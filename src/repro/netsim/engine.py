"""Packet-level behaviour of the simulated Internet.

:class:`SimulationEngine` answers one question: *given a probe sent from
the vantage point to destination D at virtual time t in scan epoch e, which
ICMPv6 packets come back?*  It walks the probe hop by hop:

1. BGP longest-prefix match.  Unrouted destinations draw a (rate-limited)
   "no route" error from the vantage's upstream router.
2. Transit traversal.  Each AS on the vantage→origin path costs one hop;
   a hop limit that expires in transit yields a Time Exceeded from that
   transit router — this is also how the traceroute datasets are built.
3. Destination resolution via the world's longest-prefix index:
   an active subnet (SRA semantics, hosts, router interfaces, unassigned
   addresses), an aliased region, an infrastructure subnet, a routing-loop
   region (with the amplification firmware bug), or — default — unassigned
   announced space answered by the internal router that aggregates the
   destination's /56.

ICMPv6 *error* messages pass through the emitting router's RFC 4443 token
bucket plus an "on-off" background-load gate (Ravaioli et al. observed
routers alternating between answering and silence under cross traffic);
Echo replies are never rate limited, which is exactly the asymmetry SRA
probing exploits.

All of this is one kernel, :meth:`SimulationEngine.probe_columns`;
:meth:`SimulationEngine.probe` is that kernel on a one-row batch.  Its
oracle is ``tests/reference_engine.py``, a slow per-probe model written
from the RFCs and the paper rather than from this file.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

from ..packet.icmpv6 import ICMPv6Type, UnreachableCode
from ..topology.entities import EntryKind, Router, World
from ..topology.profiles import SRABehavior
from .ratelimit import TokenBucket
from .stochastic import (
    _MASK63,
    _MASK64,
    _WORD_LIMIT,
    base_hasher,
    bernoulli_threshold,
    prepared_unit,
    stable_bool,
)

# Cap on materialised reply counts for amplified loops; counts above this
# are reported truthfully in `Reply.count` but the engine never enumerates.
AMPLIFICATION_CAP = 1 << 22  # ~4.2M replies per probe

_PURPOSE_LOSS = b"loss"
# Packed-word layouts for the inlined draws (see probe_columns): the loss
# keys are (target, probe_id, epoch) and the behaviour draws are keyed
# (key, epoch); a key over 62 bits contributes two words, exactly as
# stable_unit would pack it.
_PACK_2 = struct.Struct(">2q")
_PACK_3 = struct.Struct(">3q")
_PACK_LOSS_4 = struct.Struct(">4q")


class _Draw(NamedTuple):
    """One of the per-epoch behaviour draws: a Bernoulli keyed
    ``(key, epoch)``; ``threshold`` is what the kernel compares digest
    bytes with."""

    purpose: bytes
    probability: float
    threshold: bytes


_DRAW_FLAKY, _DRAW_HOST, _DRAW_DIRECT, _DRAW_FLIP = (
    _Draw(purpose, probability, bernoulli_threshold(probability))
    for purpose, probability in (
        (b"flaky", 0.55), (b"host", 0.85), (b"direct", 0.96), (b"flip", 0.5)
    )
)
_PURPOSE_BG_WINDOW = b"bgwin"
_PURPOSE_BG_JITTER = b"bgjit"


@dataclass(slots=True)
class Reply:
    """One (possibly replicated) ICMPv6 reply arriving at the vantage.

    Treated as immutable by convention; not ``frozen=True`` because the
    frozen ``__init__`` funnels every field through ``object.__setattr__``,
    which costs ~3x on this allocation-heavy hot path.
    """

    source: int
    icmp_type: ICMPv6Type
    code: int
    count: int = 1
    router_id: int | None = None

    @property
    def is_echo(self) -> bool:
        return self.icmp_type is ICMPv6Type.ECHO_REPLY

    @property
    def is_error(self) -> bool:
        return self.icmp_type.is_error


@dataclass(slots=True)
class ProbeResult:
    """Everything a probe produced.

    Immutable by convention (see :class:`Reply` for why not ``frozen``).
    """

    target: int
    time: float
    epoch: int
    replies: tuple[Reply, ...] = ()
    lost: bool = False
    looped: bool = False
    amplification: int = 0
    transit_hops: int = 0

    @property
    def replied(self) -> bool:
        return bool(self.replies)


@dataclass(slots=True)
class EngineStats:
    """Aggregate counters over an engine's lifetime (scan epoch)."""

    probes: int = 0
    lost: int = 0
    echo_replies: int = 0
    error_replies: int = 0
    suppressed_errors: int = 0
    loops_hit: int = 0
    amplified_replies: int = 0


# ProbeColumns.flags bits.  Exactly one of LOST / (LOOPED|REPLY in any
# combination) describes a row; a zero byte means "probed, no reply".
FLAG_LOST = 1
FLAG_LOOPED = 2
FLAG_REPLY = 4

# Column prefill patterns (see ProbeColumns.reserve): the kernel only
# writes the minority values — count on amplified loops, icmp_type/code
# on error replies whose code is non-zero.
_ECHO_BYTE = bytes([int(ICMPv6Type.ECHO_REPLY)])
_ONE_Q = array("Q", [1]).tobytes()


_RESULT_COLUMNS = (
    "flags",
    "source_hi",
    "source_lo",
    "icmp_type",
    "code",
    "count",
    "router_id",
    "transit",
)


class ProbeColumns:
    """One probe batch as packed parallel columns (structure-of-arrays).

    The columnar kernel (:meth:`SimulationEngine.probe_columns`) fills one
    of these per batch instead of allocating a ``ProbeResult``/``Reply``
    pair per probe.  Input columns (``targets``, ``times``) are borrowed
    references to the caller's sequences; result columns are compact
    ``array`` buffers reused across batches via ``out=``.

    Column validity contract, per row ``i``:

    * ``flags[i]`` is always valid (``FLAG_LOST`` / ``FLAG_LOOPED`` /
      ``FLAG_REPLY`` bits).
    * ``transit[i]`` is valid whenever ``FLAG_LOST`` is clear.
    * ``source_hi/source_lo`` (the reply source as 64-bit halves),
      ``icmp_type``, ``code``, ``count`` and ``router_id`` (``-1`` encodes
      "unknown router") are valid only when ``FLAG_REPLY`` is set.

    A row carries one reply.  The second and later distinct replies to
    one probe (only a real network sends those: the ``raw`` backend) go
    to ``extra``, as ``(row, source, icmp_type, code, count)`` tuples in
    row order, then arrival order.  It is empty for every other backend.

    Reused buffers never leak stale rows because every kernel path writes
    the flags byte for every probe of the batch (via :meth:`blank`, which
    also empties ``extra``).
    """

    __slots__ = (
        "n",
        "epoch",
        "targets",
        "times",
        *_RESULT_COLUMNS,
        "extra",
        "_zero_fill",
        "_echo_fill",
        "_ones_fill",
    )

    def __init__(self) -> None:
        self.n = 0
        self.epoch = 0
        self.targets: Sequence[int] = ()
        self.times: Sequence[float] = ()
        self.flags = array("B")
        self.source_hi = array("Q")
        self.source_lo = array("Q")
        self.icmp_type = array("B")
        self.code = array("B")
        self.count = array("Q")
        self.router_id = array("q")
        self.transit = array("H")
        self.extra: list[tuple[int, int, int, int, int]] = []
        self._zero_fill = b""
        self._echo_fill = b""
        self._ones_fill = b""

    def reserve(self, n: int) -> None:
        """Size the result columns for ``n`` rows and prefill the
        constant-majority values: ``count=1``, ``code=0``,
        ``icmp_type=ECHO_REPLY``.  The kernel then writes only the
        minority values (amplified counts, error types/codes), which is
        most of what makes an echo row four column writes instead of
        seven.  Other columns are left undefined until written."""
        self.n = n
        have = len(self.flags)
        if have < n:
            grow = n - have
            self.flags.frombytes(bytes(grow))
            self.icmp_type.frombytes(bytes(grow))
            self.code.frombytes(bytes(grow))
            self.source_hi.frombytes(bytes(8 * grow))
            self.source_lo.frombytes(bytes(8 * grow))
            self.count.frombytes(bytes(8 * grow))
            self.router_id.frombytes(bytes(8 * grow))
            self.transit.frombytes(bytes(2 * grow))
            cap = len(self.flags)
            self._zero_fill = bytes(cap)
            self._echo_fill = _ECHO_BYTE * cap
            self._ones_fill = _ONE_Q * cap
        memoryview(self.icmp_type)[:n] = self._echo_fill[:n]
        memoryview(self.code)[:n] = self._zero_fill[:n]
        memoryview(self.count).cast("B")[: 8 * n] = self._ones_fill[: 8 * n]

    def blank(self, targets: Sequence[int], times: Sequence[float]) -> None:
        """Become the batch ``(targets, times)`` with every row "probed,
        no reply" — what the kernel starts from, and what a quarantined
        batch stays."""
        n = len(targets)
        self.reserve(n)
        self.targets = targets
        self.times = times
        memoryview(self.flags)[:n] = self._zero_fill[:n]
        self.extra.clear()

    def splice(self, offset: int, rows: "ProbeColumns") -> None:
        """Copy the result columns and extra replies of ``rows`` in at
        row ``offset``."""
        end = offset + rows.n
        for name in _RESULT_COLUMNS:
            getattr(self, name)[offset:end] = getattr(rows, name)[: rows.n]
        self.extra += [(row + offset, *reply) for row, *reply in rows.extra]

    def source(self, i: int) -> int:
        """The reply source address of row ``i`` as a 128-bit int."""
        return (self.source_hi[i] << 64) | self.source_lo[i]

    def result(self, i: int) -> ProbeResult:
        """Row ``i`` as the per-probe dataclasses, its extra replies after
        the column one.  ``amplification`` is the reply count of a looped
        row that got a reply (1 when the flood was not amplified), else 0."""
        flags = self.flags[i]
        if flags & FLAG_LOST:
            return ProbeResult(self.targets[i], self.times[i], self.epoch, lost=True)
        looped = bool(flags & FLAG_LOOPED)
        replies: tuple[Reply, ...] = ()
        amplification = 0
        if flags & FLAG_REPLY:
            count = self.count[i]
            router_id = self.router_id[i]
            replies = (
                Reply(
                    self.source(i),
                    ICMPv6Type(self.icmp_type[i]),
                    self.code[i],
                    count,
                    None if router_id < 0 else router_id,
                ),
            )
            if looped:
                amplification = count
        if self.extra:
            replies += tuple(
                Reply(source, ICMPv6Type(icmp_type), code, count)
                for row, source, icmp_type, code, count in self.extra
                if row == i
            )
        return ProbeResult(
            self.targets[i],
            self.times[i],
            self.epoch,
            replies,
            looped=looped,
            amplification=amplification,
            transit_hops=self.transit[i],
        )


class SimulationEngine:
    """Stateful per-epoch simulation: owns rate-limiter buckets.

    Create one engine per scan (or call :meth:`new_epoch` between scans);
    token-bucket state deliberately persists *within* an epoch so that
    scan pacing interacts with rate limiting the way it does on real
    routers.
    """

    def __init__(
        self,
        world: World,
        *,
        epoch: int = 0,
        background_window: float = 1.0,
        defer_rate_limit: bool = False,
    ) -> None:
        if world.vantage is None:
            raise ValueError("world has no vantage point")
        self.world = world
        self.epoch = epoch
        self.background_window = background_window
        self.stats = EngineStats()
        # Deferred mode: `_error_allowed` records (time, router_id) and lets
        # every error through.  A sharded scan runs each shard deferred, then
        # replays the recorded checks in global time order on a fresh engine —
        # the rate limiter is the engine's only cross-probe mutable state, so
        # the replay reproduces the serial outcome exactly (scanner/sharded).
        self.defer_rate_limit = defer_rate_limit
        self.pending_checks: list[tuple[float, int]] = []
        # The RFC 4443 gate's only state, one record per router that has
        # originated an error this epoch (new_epoch drops them all):
        # [background load, token bucket or None until the window gate
        # first opens, last window checked, that window's draw].  The
        # window draw is a pure keyed hash of (router, epoch, window), so
        # the last two slots are a memo, not state: a check in any other
        # window recomputes it, whichever direction time moved.
        self._limiters: dict[int, list] = {}
        seed = world.seed
        self._jitter_unit = prepared_unit(seed, _PURPOSE_BG_JITTER, 2)
        self._burst_unit = prepared_unit(seed, _PURPOSE_BG_JITTER, 3)
        self._window_unit = prepared_unit(seed, _PURPOSE_BG_WINDOW, 3)
        self._aggroute_unit = prepared_unit(seed, b"aggroute", 2)
        # Optional hot-path observability hook (duck-typed: anything with
        # on_loop(router_id, time) / on_suppressed(router_id, time), e.g.
        # repro.telemetry.HotPathCollector).  Scanners attach one for the
        # duration of an instrumented scan.  Both call sites sit on rare
        # branches (loop entry, error suppression), so a disabled engine
        # pays a single `is not None` check there and nothing on the
        # per-probe fast path.
        self.telemetry = None
        self._row = ProbeColumns()  # probe()'s one-row batch

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def new_epoch(self, epoch: int) -> None:
        """Start a new scan epoch: drop every limiter record, reset counters."""
        self.epoch = epoch
        self.stats = EngineStats()
        self.pending_checks.clear()
        self._limiters.clear()

    # ------------------------------------------------------------------ #
    # the probe path
    # ------------------------------------------------------------------ #

    def probe(
        self,
        target: int,
        time: float,
        *,
        hop_limit: int = 64,
        probe_id: int = 0,
    ) -> ProbeResult:
        """Send one ICMPv6 Echo Request from the vantage to ``target``: the
        kernel on a one-row batch, decoded.  For callers whose next probe
        depends on the last reply (traceroute); anything that can batch
        should call :meth:`probe_columns`."""
        return self.probe_columns(
            (target,),
            (time,),
            hop_limit=hop_limit,
            probe_ids=(probe_id,),
            out=self._row,
        ).result(0)

    def probe_columns(
        self,
        targets: Sequence[int],
        times: Sequence[float],
        *,
        hop_limit: int = 64,
        probe_ids: Sequence[int] | None = None,
        out: ProbeColumns | None = None,
    ) -> ProbeColumns:
        """Send one Echo Request per target, filling packed result columns.

        This is the engine's only kernel: the scanner's hot path, and
        (one row at a time) :meth:`probe`.  Instead of one
        ``ProbeResult``/``Reply`` allocation per probe it writes parallel
        ``array`` columns, in three phases, all in probe order, so a batch
        answers exactly what the same probes sent one per call would —
        and what ``tests/reference_engine.py``, the independent per-probe
        model it is checked against, answers:

        A. *Loss draws* — pure keyed-hash draws with the hasher primed
           once per batch and copied per probe; digest bytes are compared
           with the loss probability's precomputed threshold.
        B. *Routing lookups* — live rows run through the vectorised LPMs
           (``longest_match_batch``): BGP, then resolution for the rows
           whose hop limit survives transit.  Rows are not sorted by block
           first: one target per /64 in permuted order leaves nothing to
           share (on the benchmark campaigns a sorted batch had a
           same-block neighbour on 0 of 2.56 M resolution and 2.4–3.3 % of
           BGP lookups), so the sort cost more than the probes it saved.
        C. *Effects dispatch* — one straight-line pass per row, in
           probe order, everything stateful (token
           buckets, the background-load gate, stats, telemetry) included;
           each draw and error source is computed on the branch that uses
           it.  Nothing is memoised per subnet: in those campaigns no
           batch held two rows of one subnet.
        """
        world = self.world
        seed = world.seed
        loss = world.packet_loss
        epoch = self.epoch
        n = len(targets)
        cols = out if out is not None else ProbeColumns()
        cols.blank(targets, times)
        cols.epoch = epoch
        flags = cols.flags

        # -------- phase A: loss draws --------------------------------- #
        # Same digest stream as stable_bool(seed, b"loss", loss, target,
        # probe_id, epoch) for targets over 62 bits (every real IPv6
        # address), which contribute a second packed word, exactly as
        # stable_unit packs them.  A batch with any odd-shaped target,
        # probe id or epoch takes the generic draw throughout.
        simple_epoch = 0 <= epoch < _WORD_LIMIT
        lost_count = 0
        if loss > 0.0 and n:
            ids = probe_ids if probe_ids is not None else repeat(0, n)
            if (
                simple_epoch
                and min(targets) >= _WORD_LIMIT
                and (probe_ids is None or 0 <= min(ids) <= max(ids) < _WORD_LIMIT)
            ):
                copy = base_hasher(seed, _PURPOSE_LOSS).copy
                pack = _PACK_LOSS_4.pack
                threshold = bernoulli_threshold(loss)
                for i, (target, probe_id) in enumerate(zip(targets, ids)):
                    hasher = copy()
                    hasher.update(
                        pack(
                            target & _MASK63,
                            (target >> 62) & _MASK63,
                            probe_id,
                            epoch,
                        )
                    )
                    if hasher.digest() < threshold:
                        flags[i] = FLAG_LOST
                        lost_count += 1
            else:
                for i, (target, probe_id) in enumerate(zip(targets, ids)):
                    if stable_bool(
                        seed, _PURPOSE_LOSS, loss, target, probe_id, epoch
                    ):
                        flags[i] = FLAG_LOST
                        lost_count += 1
        self.stats.probes += n
        self.stats.lost += lost_count

        # -------- phase B: vectorised lookups ------------------------- #
        if lost_count:
            live = [i for i in range(n) if not flags[i]]
        else:
            live = range(n)
        paths_get = world.paths.get
        transit_col = cols.transit
        matches: list = [None] * n
        world.bgp.lpm.longest_match_batch(targets, live, matches)
        resolve_rows: list[int] = []
        if hop_limit >= 1:
            rappend = resolve_rows.append
            for i in live:
                match = matches[i]
                if match is not None:
                    transit = len(paths_get(match[1], ()))
                    transit_col[i] = transit
                    if hop_limit > transit:
                        rappend(i)
        else:
            # A hop limit spent before the first hop reports no transit;
            # unrouted rows are overwritten in C.
            for i in live:
                transit_col[i] = 0
        entries: list = [None] * n
        world.resolution.longest_match_batch(targets, resolve_rows, entries)

        # -------- phase C: effects dispatch --------------------------- #
        routers = world.routers
        ases_get = world.ases.get
        upstream = routers[world.vantage.upstream_router_id]  # type: ignore[union-attr]
        upstream_source = self._router_error_source(upstream)
        subnet_kind = EntryKind.SUBNET
        alias_kind = EntryKind.ALIAS
        infra_kind = EntryKind.INFRA
        sra_drop = SRABehavior.DROP
        sra_error = SRABehavior.ERROR
        stats = self.stats
        telemetry = self.telemetry
        error_allowed = self._error_reply_allowed
        error_source = self._router_error_source
        source_hi = cols.source_hi
        source_lo = cols.source_lo
        icmp_col = cols.icmp_type
        code_col = cols.code
        count_col = cols.count
        rid_col = cols.router_id
        # NO_ROUTE and HOP_LIMIT_EXCEEDED are both 0, ECHO_REPLY is the
        # prefill — only ADDRESS_UNREACHABLE rows write a code value.
        icmp_unreach = int(ICMPv6Type.DESTINATION_UNREACHABLE)
        icmp_exceeded = int(ICMPv6Type.TIME_EXCEEDED)
        code_addr_unreach = int(UnreachableCode.ADDRESS_UNREACHABLE)
        mask63 = _MASK63
        mask64 = _MASK64
        pack2 = _PACK_2.pack
        pack3 = _PACK_3.pack
        flaky, host, direct, flip = [
            (base_hasher(seed, kind.purpose).copy, kind)
            for kind in (_DRAW_FLAKY, _DRAW_HOST, _DRAW_DIRECT, _DRAW_FLIP)
        ]

        def draw(prepared, key):
            # self._draw(kind, key): identical digest stream, minus the
            # generic packing loop and the float.  Odd-shaped keys and
            # epochs take the generic path.
            copy, kind = prepared
            if simple_epoch and key >= 0:
                hasher = copy()
                if key < _WORD_LIMIT:
                    hasher.update(pack2(key, epoch))
                else:
                    hasher.update(pack3(key & mask63, (key >> 62) & mask63, epoch))
                return hasher.digest() < kind.threshold
            return self._draw(kind, key)

        echo_replies = 0
        for i, match, entry_match in zip(range(n), matches, entries):
            if entry_match is None:
                # No resolution entry, the common row: announced but
                # unassigned space, or a row that never reached
                # resolution — lost, unrouted, hop limit spent in transit.
                if match is None:
                    if flags[i]:  # only FLAG_LOST is set at this point
                        continue
                    # The vantage's upstream has no route: No Route from
                    # it, before any hop is spent (even at hop limit 0).
                    transit_col[i] = 0
                    if error_allowed(upstream, times[i], True):
                        flags[i] = FLAG_REPLY
                        source_hi[i] = upstream_source >> 64
                        source_lo[i] = upstream_source & mask64
                        icmp_col[i] = icmp_unreach
                        # code stays 0 (NO_ROUTE), count stays 1 (prefilled)
                        rid_col[i] = upstream.router_id
                    continue
                asn = match[1]
                if hop_limit <= transit_col[i]:
                    if hop_limit < 1:
                        continue
                    hop = paths_get(asn, ())[hop_limit - 1]
                    router = routers[hop.router_id]
                    if error_allowed(router, times[i], False):
                        flags[i] = FLAG_REPLY
                        source = hop.interface
                        source_hi[i] = source >> 64
                        source_lo[i] = source & mask64
                        icmp_col[i] = icmp_exceeded
                        # code stays 0 (HOP_LIMIT_EXCEEDED), count stays 1
                        rid_col[i] = router.router_id
                    continue
                # Announced but unassigned: the internal router holding
                # the covering aggregate answers No Route, unless the AS
                # filters unreachables for unrouted internal space.
                info = ases_get(asn)
                if info is not None and info.filters_unroutable:
                    continue
                target = targets[i]
                responsible = self._responsible_router(asn, target)
                if responsible is None:
                    continue
                if error_allowed(responsible, times[i], True):
                    if responsible.errors_from_primary and responsible.loopback:
                        source = responsible.loopback
                    else:
                        # The aggregation router's customer-facing
                        # sub-interface: a distinct address per /56
                        # (point-to-point/VLAN links carry addresses from
                        # the delegated space).  This is why the /48 and
                        # /64 partition scans see so many error sources,
                        # most of which never answer a direct probe.
                        source = ((target >> 72) << 72) | 0xFFFE
                    flags[i] = FLAG_REPLY
                    source_hi[i] = source >> 64
                    source_lo[i] = source & mask64
                    icmp_col[i] = icmp_unreach
                    # code stays 0 (NO_ROUTE), count stays 1 (prefilled)
                    rid_col[i] = responsible.router_id
                continue

            target = targets[i]
            entry = entry_match[1]
            kind = entry.kind
            if kind is subnet_kind:
                subnet = entry.payload
                router = routers[subnet.router_id]
                death = subnet.death_epoch
                if (death is not None and epoch >= death) or (
                    subnet.flaky and not draw(flaky, subnet.prefix.network)
                ):
                    # Dead (or flaky-off): the interface is down but the
                    # route lingers in the IGP, so the last-hop router
                    # answers Address Unreachable from the subnet-facing
                    # interface, whatever its error-source policy — a
                    # distinct source per dead subnet, which is what makes
                    # the hitlist scan's error-IP population so large
                    # (Fig. 4).
                    source = subnet.router_interface
                elif subnet.aliased:
                    # Every address echoes back, the SRA included — the
                    # alias filter's tell-tale.
                    echo_replies += 1
                    flags[i] = FLAG_REPLY
                    source_hi[i] = target >> 64
                    source_lo[i] = target & mask64
                    rid_col[i] = -1
                    continue
                elif target == subnet.sra_address:
                    behavior = router.vendor.sra_behavior
                    if behavior is sra_drop:
                        continue
                    if behavior is not sra_error:
                        # RFC 4291 says "its own" address; which one
                        # differs between implementations (and leaked
                        # peering-LAN addresses make AS attribution of
                        # SRA replies error-prone).
                        if (
                            router.replies_from_peering
                            and router.peering_lan_address is not None
                        ):
                            source = router.peering_lan_address
                        elif router.sra_from_primary or (
                            router.unstable_reply_source
                            and draw(flip, router.router_id)
                        ):
                            source = router.loopback
                        else:
                            source = subnet.router_interface
                        echo_replies += 1
                        flags[i] = FLAG_REPLY
                        source_hi[i] = source >> 64
                        source_lo[i] = source & mask64
                        rid_col[i] = router.router_id
                        continue
                    source = error_source(router, subnet.router_interface)
                elif target == subnet.router_interface:
                    if router.answers_direct_ping and draw(
                        direct, router.router_id
                    ):
                        echo_replies += 1
                        flags[i] = FLAG_REPLY
                        source_hi[i] = target >> 64
                        source_lo[i] = target & mask64
                        rid_col[i] = router.router_id
                    continue
                elif target in subnet.hosts:
                    if draw(host, target):
                        echo_replies += 1
                        flags[i] = FLAG_REPLY
                        source_hi[i] = target >> 64
                        source_lo[i] = target & mask64
                        rid_col[i] = -1
                    continue
                else:  # unassigned address inside an active subnet
                    source = error_source(router, subnet.router_interface)
                if error_allowed(router, times[i], True):
                    flags[i] = FLAG_REPLY
                    source_hi[i] = source >> 64
                    source_lo[i] = source & mask64
                    icmp_col[i] = icmp_unreach
                    code_col[i] = code_addr_unreach
                    rid_col[i] = router.router_id
                continue
            if kind is alias_kind:
                echo_replies += 1
                flags[i] = FLAG_REPLY
                source_hi[i] = target >> 64
                source_lo[i] = target & mask64
                rid_col[i] = -1
                continue
            if kind is infra_kind:
                infra = entry.payload
                router_id = infra.interfaces.get(target)
                if router_id is not None:
                    router = routers[router_id]
                    if router.answers_direct_ping and draw(
                        direct, router.router_id
                    ):
                        echo_replies += 1
                        flags[i] = FLAG_REPLY
                        source_hi[i] = target >> 64
                        source_lo[i] = target & mask64
                        rid_col[i] = router.router_id
                    continue
                border = self._border_router(infra.asn)
                if border is None:
                    continue
                if error_allowed(border, times[i], True):
                    flags[i] = FLAG_REPLY
                    source = error_source(border)
                    source_hi[i] = source >> 64
                    source_lo[i] = source & mask64
                    icmp_col[i] = icmp_unreach
                    code_col[i] = code_addr_unreach
                    rid_col[i] = border.router_id
                continue
            # Routing-loop region: the packet ping-pongs customer <->
            # provider until its hop limit expires, and the Time Exceeded
            # comes from the misconfigured customer edge — the paper sees
            # floods "from the same router".
            region = entry.payload
            stats.loops_hit += 1
            time = times[i]
            if telemetry is not None:
                telemetry.on_loop(region.customer_router_id, time)
            customer = routers[region.customer_router_id]
            source = error_source(customer)
            amplification = self._loop_amplification(
                customer, hop_limit - transit_col[i]
            )
            if amplification > 1:
                # Buggy firmware replicates the packet in the fast path:
                # the flood bypasses the control-plane rate limiter, which
                # is what makes it dangerous.
                count = min(amplification, AMPLIFICATION_CAP)
                stats.error_replies += count
                stats.amplified_replies += count - 1
                flags[i] = FLAG_LOOPED | FLAG_REPLY
                source_hi[i] = source >> 64
                source_lo[i] = source & mask64
                icmp_col[i] = icmp_exceeded
                # code stays 0 (HOP_LIMIT_EXCEEDED)
                count_col[i] = count
                rid_col[i] = customer.router_id
            elif error_allowed(customer, time, False):
                flags[i] = FLAG_LOOPED | FLAG_REPLY
                source_hi[i] = source >> 64
                source_lo[i] = source & mask64
                icmp_col[i] = icmp_exceeded
                # code stays 0 (HOP_LIMIT_EXCEEDED), count stays 1
                rid_col[i] = customer.router_id
            else:
                flags[i] = FLAG_LOOPED

        stats.echo_replies += echo_replies
        return cols

    # ------------------------------------------------------------------ #
    # building blocks
    # ------------------------------------------------------------------ #

    def _loop_amplification(self, customer: Router, remaining: int) -> int:
        factor = customer.replication_factor
        if factor <= 1.0:
            return 1
        cycles = remaining / 2.0
        try:
            amplification = factor**cycles
        except OverflowError:
            return AMPLIFICATION_CAP
        if amplification >= AMPLIFICATION_CAP:
            return AMPLIFICATION_CAP
        return max(1, round(amplification))

    def _responsible_router(self, asn: int, target: int) -> Router | None:
        """The internal router whose aggregate covers the target's /56.

        ISP internals aggregate below the /48 level (per-PoP, per-BNG),
        so errors for the /64s of one /48 spread over several routers —
        which is why the paper's /64 partition scan discovers the most
        router IPs of all BGP-derived inputs (45 M, Table 2).
        """
        info = self.world.ases.get(asn)
        if info is None:
            return None
        if not info.router_ids:
            return self._border_router(asn)
        slash56 = target >> 72
        index = int(self._aggroute_unit(asn, slash56) * len(info.router_ids))
        return self.world.routers[info.router_ids[index]]

    def _border_router(self, asn: int) -> Router | None:
        info = self.world.ases.get(asn)
        if info is None or info.border_router_id is None:
            return None
        return self.world.routers[info.border_router_id]

    def _router_error_source(self, router: Router, hint: int | None = None) -> int:
        """Where a router sources its ICMP errors: the subnet-facing
        interface (``hint``) or, for primary-source policies, its loopback."""
        if router.errors_from_primary and router.loopback:
            return router.loopback
        if hint is not None:
            return hint
        if router.interface_addresses:
            return router.interface_addresses[0]
        return router.loopback

    def _draw(self, kind: _Draw, key: int) -> bool:
        """This epoch's draw of ``kind`` for ``key``."""
        return stable_bool(
            self.world.seed, kind.purpose, kind.probability, key, self.epoch
        )

    def _error_reply_allowed(
        self, router: Router, time: float, unreachable: bool
    ) -> bool:
        """The kernel's error-emission gate: the unreachable-filtering
        policy ("no ip unreachables"), the RFC 4443 rate-limit/background
        gate, and the stats accounting.  True means the error goes out and
        the kernel writes its row."""
        if unreachable and not router.emits_unreachables:
            return False
        if not self._error_allowed(router, time):
            self.stats.suppressed_errors += 1
            return False
        self.stats.error_replies += 1
        return True

    def error_allowed(self, router_id: int, time: float) -> bool:
        """Evaluate one rate-limit check by router id — the replay hook used
        when merging deferred-mode shards.  Calls for one router must arrive
        with non-decreasing timestamps, as during a live scan."""
        return self._error_allowed(self.world.routers[router_id], time)

    def _error_allowed(self, router: Router, time: float) -> bool:
        if self.defer_rate_limit:
            self.pending_checks.append((time, router.router_id))
            return True
        router_id = router.router_id
        state = self._limiters.get(router_id)
        if state is None:
            jitter = 0.5 + self._jitter_unit(router_id, self.epoch)
            load = min(0.95, router.background_error_load * jitter)
            state = self._limiters[router_id] = [load, None, None, False]
        load = state[0]
        if load > 0.0:
            window = int(time / self.background_window)
            if window != state[2]:
                state[2] = window
                state[3] = (
                    self._window_unit(router_id, self.epoch, window) < load
                )
            if state[3]:
                telemetry = self.telemetry
                if telemetry is not None:
                    telemetry.on_suppressed(router_id, time)
                return False
        bucket = state[1]
        if bucket is None:
            vendor = router.vendor
            initial = vendor.error_burst * (
                1.0 - self._burst_unit(router_id, self.epoch, 1) * load
            )
            bucket = state[1] = TokenBucket(
                vendor.error_rate * (1.0 - load),
                vendor.error_burst,
                initial=initial,
            )
        allowed = bucket.allow(time)
        if not allowed:
            telemetry = self.telemetry
            if telemetry is not None:
                telemetry.on_suppressed(router_id, time)
        return allowed

