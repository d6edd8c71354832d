"""Binary world artifacts: disk-bounded worlds, mmap'd and lazily loaded.

The object graph a :class:`~repro.topology.entities.World` materialises —
one ``Router`` per router, one ``Subnet`` per /64, a resolution index of
dict tables — caps world size at available RAM twice over: once while the
generator builds it and once more per shard worker when the sharded
runner pickles the world into every process.  This module removes both
walls:

* :class:`WorldArtifactWriter` packs routers, subnets, hosts and the
  resolution index into flat little-endian sections of one versioned
  file.  The generator streams periphery entities into it *as they are
  finished* (see ``build_world_artifact``), so generation peak RSS is
  bounded by the per-AS working set, not the world size.
* :func:`load_world_artifact` memory-maps the file and returns a
  ``World`` whose ``routers``/``subnets`` are read-only dicts that decode
  a row on first touch (``__missing__``) and keep it, and whose
  ``resolution`` is a :class:`~repro.bgp.frozenfib.FrozenLPM` whose key
  columns are zero-copy ``memoryview`` casts straight into the mmap —
  every shard worker shares the same physical pages.  A row is decoded
  once, from slots (only a subnet row's network words are re-checked),
  and kept once: a resolution entry in its row's match memo.
* :class:`WorldRef` is the O(KB) worker bootstrap: the sharded runner
  ships ``(path, fingerprint)`` instead of the pickled world and each
  worker resolves it to the world already loaded from that path — the
  parent's own under fork — or maps the file (:func:`resolve_world_ref`).

File layout (all little-endian, sections 8-byte aligned)::

    header:   magic "SRAWRLD1" | version u16 | section count u16
              | seed i64 | config fingerprint (sha256, 32 bytes)
    table:    per section: name (16s) | offset u64 | length u64
    sections: meta (JSON) | small (pickle of the O(#ASes) parts)
              | routers | router_var | router_index
              | subnets | subnet_hosts | subnet_index | resolution

"Small" parts — ASes, transit paths, infra subnets, loop/alias regions,
the BGP table and the IRR — are O(#ASes) and travel as one pickle
section; the O(#routers) parts are fixed-stride packed records plus u64
word columns.  128-bit addresses are stored as (hi, lo) u64 pairs, the
same packing as the columnar probe path.

Determinism contract: ``load_world_artifact(save_world(w)).`` scans
byte-identically to ``w`` — entity field values round-trip exactly
(ints and IEEE doubles, no text formats), map iteration orders are
preserved, and the frozen resolution index is pinned bit-identical to
the mutable one.  tests/test_artifact.py holds the pins.
"""

from __future__ import annotations

import hashlib
import io
import json
import mmap
import os
import pickle
import shutil
import struct
import sys
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter
from pathlib import Path
from typing import Iterator

from ..addr.ipv6 import IPv6Prefix
from ..bgp.frozenfib import FrozenLPM, FrozenRow
from .entities import EntryKind, ResolutionEntry, Router, Subnet, World
from .profiles import VendorProfile, vendor_by_name

__all__ = [
    "ArtifactError", "WorldArtifactWriter", "WorldRef", "build_fingerprint",
    "load_world_artifact", "resolve_world_ref", "save_world",
]  # fmt: skip

_MAGIC = b"SRAWRLD1"
_VERSION = 1
_HEADER = struct.Struct("<8sHHq32s")
_SECTION = struct.Struct("<16sQQ")
_LO = (1 << 64) - 1

# The artifact stores raw u64 columns read back through memoryview casts,
# which use native byte order; the packed structs are explicitly
# little-endian.  Both agree only on little-endian hosts (every platform
# this project targets); refuse early elsewhere rather than mis-read.
if sys.byteorder != "little":  # pragma: no cover - LE-only project
    raise ImportError("world artifacts require a little-endian platform")

_SECTION_NAMES = (
    "meta", "small", "routers", "router_var", "router_index",
    "subnets", "subnet_hosts", "subnet_index", "resolution",
)  # fmt: skip

# Router fixed record: id, asn, country idx, vendor idx, flags,
# loopback (hi, lo), peering LAN address (hi, lo), replication factor,
# background error load, interface var (word offset, count), subnet
# interface var (word offset, count).
_ROUTER = struct.Struct("<qqHHHQQQQddQIQI")
# Router flag bits: the boolean fields in bit order (which is their order
# in ``Router``, so a decode passes them positionally), then "has a
# peering LAN address".
_ROUTER_FLAGS = (
    "replies_from_peering",
    "answers_direct_ping",
    "unstable_reply_source",
    "is_border",
    "errors_from_primary",
    "sra_from_primary",
    "emits_unreachables",
)
_RF_BITS = tuple(1 << bit for bit in range(len(_ROUTER_FLAGS)))
_RF_HAS_PEERING = 1 << len(_ROUTER_FLAGS)
_router_flags = attrgetter(*_ROUTER_FLAGS)

# Subnet fixed record: network (hi, lo), asn, router id, router interface
# (hi, lo), flags, death epoch, host (count, word offset).
_SUBNET = struct.Struct("<QQqqQQBqIQ")
_SF_ALIASED = 1 << 0
_SF_FLAKY = 1 << 1
_SF_HAS_DEATH = 1 << 2

# Resolution per-length block header: length u32, pad u32, entry count u64
# — followed by hi words, lo words, refs (i64), kind bytes (padded to 8).
_RES_BLOCK = struct.Struct("<IIQ")
_CODE_KINDS = (EntryKind.SUBNET, EntryKind.ALIAS, EntryKind.LOOP, EntryKind.INFRA)
_KIND_CODES = {kind: code for code, kind in enumerate(_CODE_KINDS)}

# A decode builds its frozen values by setting their slots: the writer
# packed valid ones, so neither ``__init__`` nor ``__post_init__`` runs.
_new = object.__new__
_set_network, _set_length = IPv6Prefix.network.__set__, IPv6Prefix.length.__set__
_set_kind, _set_payload = ResolutionEntry.kind.__set__, ResolutionEntry.payload.__set__


class ArtifactError(RuntimeError):
    """A world artifact is missing, malformed, or mismatched."""


def build_fingerprint(config) -> bytes:
    """Digest binding an artifact to the exact generator configuration.

    ``repr`` of the (slots) config dataclass covers every knob including
    the prior tables; two configs with equal reprs generate identical
    worlds, which is precisely the guarantee a resuming loader needs.
    """
    return hashlib.sha256(repr(config).encode("utf-8")).digest()


def _pad8(n: int) -> int:
    return (8 - n % 8) % 8


def _keep_last(hi: array, lo: array) -> list[int]:
    """Indices of the (hi, lo) keys in key order, a repeated key at its
    last registration: a later one overwrites an earlier one, exactly like
    dict insert in the mutable maps."""
    kept: list[int] = []
    for i in sorted(range(len(hi)), key=lambda i: (hi[i], lo[i], i)):
        if kept and hi[kept[-1]] == hi[i] and lo[kept[-1]] == lo[i]:
            kept[-1] = i
        else:
            kept.append(i)
    return kept


# --------------------------------------------------------------------- #
# writer
# --------------------------------------------------------------------- #


class WorldArtifactWriter:
    """Incremental packer for one world artifact.

    ``add_router`` / ``add_subnet`` append to spill files immediately —
    callers drop the objects afterwards, which is what keeps generation
    RSS flat.  ``add_resolution`` accumulates compact per-length key
    columns (sorted and de-duplicated keep-last at finalize, replicating
    dict-insert override semantics).  ``finalize`` assembles the final
    file atomically (temp + rename).
    """

    def __init__(self, path: str | Path, *, seed: int, fingerprint: bytes) -> None:
        if len(fingerprint) != 32:
            raise ValueError("fingerprint must be a 32-byte digest")
        self.path = Path(path)
        self.seed = seed
        self.fingerprint = fingerprint
        self.path.parent.mkdir(parents=True, exist_ok=True)
        stamp = f".tmp-{os.getpid()}"
        self._spill_paths = {
            name: self.path.with_name(self.path.name + f"{stamp}-{name}")
            for name in ("routers", "router_var", "subnets", "subnet_hosts")
        }
        self._spill = {
            name: io.BufferedWriter(open(p, "wb", buffering=0))
            for name, p in self._spill_paths.items()
        }
        self._final_tmp = self.path.with_name(self.path.name + f"{stamp}-final")
        self._router_rows = 0
        self._router_index = array("q")
        self._var_words = 0
        self._subnet_rows = 0
        self._host_words = 0
        self._subnet_hi = array("Q")
        self._subnet_lo = array("Q")
        # length -> (hi, lo, kinds, refs) appended in registration order
        self._res: dict[int, tuple[array, array, bytearray, array]] = {}
        self._strings: dict[str, dict[str, int]] = {
            "countries": {},
            "vendors": {},
        }
        self._finalized = False

    # ---------------- interning ---------------- #

    def _intern(self, table: str, name: str) -> int:
        strings = self._strings[table]
        idx = strings.get(name)
        if idx is None:
            idx = len(strings)
            if idx > 0xFFFF:
                raise ArtifactError(f"too many distinct {table}")
            strings[name] = idx
        return idx

    # ---------------- entity packing ---------------- #

    def add_router(self, router: Router) -> int:
        """Pack one finished router; returns its row ordinal."""
        var = array("Q")
        iface_off = self._var_words
        for address in router.interface_addresses:
            var.append(address >> 64)
            var.append(address & _LO)
        subif_off = iface_off + len(var)
        for network, iface in router.subnet_interfaces.items():
            var.append(network >> 64)
            var.append(network & _LO)
            var.append(iface >> 64)
            var.append(iface & _LO)
        flags = sum(compress(_RF_BITS, _router_flags(router)))
        peering = router.peering_lan_address
        if peering is not None:
            flags |= _RF_HAS_PEERING
        else:
            peering = 0
        record = _ROUTER.pack(
            router.router_id,
            router.asn,
            self._intern("countries", router.country),
            self._intern("vendors", router.vendor.name),
            flags,
            router.loopback >> 64,
            router.loopback & _LO,
            peering >> 64,
            peering & _LO,
            router.replication_factor,
            router.background_error_load,
            iface_off,
            len(router.interface_addresses),
            subif_off,
            len(router.subnet_interfaces),
        )
        self._spill["routers"].write(record)
        self._spill["router_var"].write(var.tobytes())
        self._var_words += len(var)
        index = self._router_index
        slot = router.router_id - 1
        if slot < 0:
            raise ArtifactError(f"router id {router.router_id} out of range")
        while len(index) <= slot:
            index.append(-1)
        index[slot] = self._router_rows
        row = self._router_rows
        self._router_rows += 1
        return row

    def add_subnet(self, subnet: Subnet) -> int:
        """Pack one subnet (row order == registration/iteration order)."""
        hosts = array("Q")
        host_off = self._host_words
        for host in subnet.hosts:
            hosts.append(host >> 64)
            hosts.append(host & _LO)
        flags = 0
        if subnet.aliased:
            flags |= _SF_ALIASED
        if subnet.flaky:
            flags |= _SF_FLAKY
        death = subnet.death_epoch
        if death is not None:
            flags |= _SF_HAS_DEATH
        else:
            death = 0
        network = subnet.prefix.network
        record = _SUBNET.pack(
            network >> 64,
            network & _LO,
            subnet.asn,
            subnet.router_id,
            subnet.router_interface >> 64,
            subnet.router_interface & _LO,
            flags,
            death,
            len(subnet.hosts),
            host_off,
        )
        self._spill["subnets"].write(record)
        self._spill["subnet_hosts"].write(hosts.tobytes())
        self._host_words += len(hosts)
        self._subnet_hi.append(network >> 64)
        self._subnet_lo.append(network & _LO)
        row = self._subnet_rows
        self._subnet_rows += 1
        return row

    def add_resolution(self, prefix: IPv6Prefix, kind: EntryKind, ref: int) -> None:
        """Record one resolution entry, in registration order.

        ``ref`` points into the payload's home collection: subnet row for
        SUBNET, list index for LOOP/ALIAS, ignored (-1) for INFRA, whose
        payload is keyed by the prefix network itself.
        """
        block = self._res.get(prefix.length)
        if block is None:
            block = (array("Q"), array("Q"), bytearray(), array("q"))
            self._res[prefix.length] = block
        hi, lo, kinds, refs = block
        hi.append(prefix.network >> 64)
        lo.append(prefix.network & _LO)
        kinds.append(_KIND_CODES[kind])
        refs.append(ref)

    # ---------------- finalize ---------------- #

    def _resolution_bytes(self) -> bytes:
        out = bytearray()
        out += struct.pack("<I", len(self._res))
        out += b"\0" * 4  # keep following blocks 8-aligned
        for length in sorted(self._res, reverse=True):
            hi, lo, kinds, refs = self._res[length]
            kept = _keep_last(hi, lo)
            out += _RES_BLOCK.pack(length, 0, len(kept))
            out += array("Q", (hi[i] for i in kept)).tobytes()
            out += array("Q", (lo[i] for i in kept)).tobytes()
            out += array("q", (refs[i] for i in kept)).tobytes()
            kind_bytes = bytes(kinds[i] for i in kept)
            out += kind_bytes
            out += b"\0" * _pad8(len(kind_bytes))
        return bytes(out)

    def _subnet_index_bytes(self) -> bytes:
        hi, lo = self._subnet_hi, self._subnet_lo
        kept = _keep_last(hi, lo)
        out = bytearray()
        out += struct.pack("<Q", len(kept))
        out += array("Q", (hi[i] for i in kept)).tobytes()
        out += array("Q", (lo[i] for i in kept)).tobytes()
        out += array("q", kept).tobytes()
        return bytes(out)

    def finalize(self, world: World) -> Path:
        """Write the final artifact from the spilled sections plus the
        world's remaining (small) parts; atomic temp + rename."""
        if self._finalized:
            raise ArtifactError("writer already finalized")
        self._finalized = True
        for handle in self._spill.values():
            handle.flush()
            handle.close()
        # ``_intern`` numbers names in insertion order.
        countries = list(self._strings["countries"])
        vendors = list(self._strings["vendors"])
        meta = {
            "seed": self.seed,
            "packet_loss": world.packet_loss,
            "router_rows": self._router_rows,
            "router_id_span": len(self._router_index),
            "subnet_rows": self._subnet_rows,
            "countries": countries,
            "vendors": vendors,
        }
        small = {
            "ases": world.ases,
            "paths": world.paths,
            "infra_subnets": world.infra_subnets,
            "loop_regions": world.loop_regions,
            "alias_regions": world.alias_regions,
            "bgp": world.bgp,
            "irr": world.irr,
            "vantage": world.vantage,
        }
        payloads: dict[str, bytes | Path] = {
            "meta": json.dumps(meta, separators=(",", ":")).encode("utf-8"),
            "small": pickle.dumps(small, protocol=pickle.HIGHEST_PROTOCOL),
            "routers": self._spill_paths["routers"],
            "router_var": self._spill_paths["router_var"],
            "router_index": self._router_index.tobytes(),
            "subnets": self._spill_paths["subnets"],
            "subnet_hosts": self._spill_paths["subnet_hosts"],
            "subnet_index": self._subnet_index_bytes(),
            "resolution": self._resolution_bytes(),
        }
        table: list[tuple[str, int, int]] = []
        header_size = _HEADER.size + len(_SECTION_NAMES) * _SECTION.size
        try:
            with open(self._final_tmp, "wb") as out:
                out.write(b"\0" * (header_size + _pad8(header_size)))
                for name in _SECTION_NAMES:
                    payload = payloads[name]
                    offset = out.tell()
                    if isinstance(payload, Path):
                        with open(payload, "rb") as spill:
                            shutil.copyfileobj(spill, out, 1 << 20)
                    else:
                        out.write(payload)
                    length = out.tell() - offset
                    table.append((name, offset, length))
                    out.write(b"\0" * _pad8(length))
                out.seek(0)
                out.write(
                    _HEADER.pack(
                        _MAGIC,
                        _VERSION,
                        len(table),
                        self.seed,
                        self.fingerprint,
                    )
                )
                for name, offset, length in table:
                    out.write(
                        _SECTION.pack(name.encode("ascii"), offset, length)
                    )
                out.flush()
                os.fsync(out.fileno())
            os.replace(self._final_tmp, self.path)
        finally:
            self._cleanup()
        return self.path

    def abort(self) -> None:
        """Close and remove every temp file (generation failed)."""
        if not self._finalized:
            self._finalized = True
            for handle in self._spill.values():
                try:
                    handle.close()
                except OSError:
                    pass
        self._cleanup()

    def _cleanup(self) -> None:
        for spill in self._spill_paths.values():
            try:
                os.unlink(spill)
            except OSError:
                pass
        try:
            os.unlink(self._final_tmp)
        except OSError:
            pass


def save_world(
    world: World, path: str | Path, *, fingerprint: bytes | None = None
) -> Path:
    """Pack a fully-built in-memory world into an artifact file.

    The streamed generator path (``build_world_artifact``) never holds
    the whole world; this eager variant serves round-trip tests and
    converting existing worlds.  Iteration orders of ``routers`` and
    ``subnets`` are preserved exactly.
    """
    if fingerprint is None:
        fingerprint = hashlib.sha256(
            f"world-seed-{world.seed}".encode("ascii")
        ).digest()
    writer = WorldArtifactWriter(path, seed=world.seed, fingerprint=fingerprint)
    try:
        subnet_rows: dict[int, int] = {}
        for subnet in world.subnets.values():
            subnet_rows[subnet.prefix.network] = writer.add_subnet(subnet)
        for router in world.routers.values():
            writer.add_router(router)
        loop_rows = {id(r): i for i, r in enumerate(world.loop_regions)}
        alias_rows = {id(r): i for i, r in enumerate(world.alias_regions)}
        for prefix, entry in world.resolution.items():
            if entry.kind is EntryKind.SUBNET:
                ref = subnet_rows[prefix.network]
            elif entry.kind is EntryKind.LOOP:
                ref = loop_rows[id(entry.payload)]
            elif entry.kind is EntryKind.ALIAS:
                ref = alias_rows[id(entry.payload)]
            else:
                ref = -1
            writer.add_resolution(prefix, entry.kind, ref)
        return writer.finalize(world)
    except BaseException:
        writer.abort()
        raise


# --------------------------------------------------------------------- #
# reader
# --------------------------------------------------------------------- #


class _ArtifactReader:
    """Shared decode state: the mmap and its section views.  It caches
    nothing: a decoded entity's one memo is the lazy map that hands it out
    (resolution rows ask the subnet map), which grows only with *touched*
    entities — what lets a million-router world scan in a bounded heap —
    and keeps payload identity stable (the engine keys plans by ``id``)."""

    def __init__(self, path: Path) -> None:
        self.path = path
        try:
            with open(path, "rb") as handle:
                self._mmap = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
        except (OSError, ValueError) as exc:
            raise ArtifactError(f"cannot map world artifact {path}: {exc}") from exc
        view = memoryview(self._mmap)
        if len(view) < _HEADER.size:
            raise ArtifactError(f"{path}: truncated artifact header")
        magic, version, count, seed, fingerprint = _HEADER.unpack_from(view, 0)
        if magic != _MAGIC:
            raise ArtifactError(f"{path}: not a world artifact")
        if version != _VERSION:
            raise ArtifactError(
                f"{path}: artifact version {version}, expected {_VERSION}"
            )
        self.seed = seed
        self.fingerprint = fingerprint
        self._view = view
        sections: dict[str, tuple[int, int]] = {}
        base = _HEADER.size
        for i in range(count):
            raw, offset, length = _SECTION.unpack_from(
                view, base + i * _SECTION.size
            )
            sections[raw.rstrip(b"\0").decode("ascii")] = (offset, length)
        missing = set(_SECTION_NAMES) - set(sections)
        if missing:
            raise ArtifactError(f"{path}: missing sections {sorted(missing)}")
        self._sections = sections
        self.meta = json.loads(bytes(self._section("meta")))
        self.small = pickle.loads(self._section("small"))
        self.countries: list[str] = self.meta["countries"]
        self.vendors: list[VendorProfile] = [
            vendor_by_name(name) for name in self.meta["vendors"]
        ]
        self._routers_off = sections["routers"][0]
        self._subnets_off = sections["subnets"][0]
        self.router_rows: int = self.meta["router_rows"]
        self.subnet_rows: int = self.meta["subnet_rows"]
        self._router_var = self._section("router_var").cast("Q")
        self._router_index = self._section("router_index").cast("q")
        self._hosts = self._section("subnet_hosts").cast("Q")
        index = self._section("subnet_index")
        (index_count,) = struct.unpack_from("<Q", index, 0)
        # values: the network's subnet row
        self._subnet_keys = FrozenRow(64, *_key_columns(index, 8, index_count))

    def _section(self, name: str) -> memoryview:
        offset, length = self._sections[name]
        return self._view[offset : offset + length]

    # ---------------- routers ---------------- #

    def router_id_at(self, row: int) -> int:
        return _ROUTER.unpack_from(self._view, self._routers_off + row * _ROUTER.size)[0]

    def _router_at(self, row: int) -> Router:
        (router_id, asn, country_idx, vendor_idx, flags, loop_hi, loop_lo,
         peer_hi, peer_lo, replication, background, iface_off, iface_count,
         subif_off, subif_count) = _ROUTER.unpack_from(
            self._view, self._routers_off + row * _ROUTER.size
        )
        var = self._router_var
        return Router(
            router_id, asn, self.countries[country_idx], self.vendors[vendor_idx],
            (loop_hi << 64) | loop_lo,
            _Addresses(var, iface_off, iface_count, list),  # type: ignore[arg-type]
            _InterfaceMap(var, subif_off, subif_count),  # type: ignore[arg-type]
            (peer_hi << 64) | peer_lo if flags & _RF_HAS_PEERING else None,
            *[bool(flags & bit) for bit in _RF_BITS], replication, background,
        )  # fmt: skip

    # ---------------- subnets ---------------- #

    def subnet_row_of(self, network: int) -> int:
        """Row for a /64 network via the sorted index, or -1."""
        keys = self._subnet_keys
        i = keys.find(network)
        return keys.values[i] if i >= 0 else -1

    def _subnet_at(self, row: int, network: int) -> Subnet:
        """Decode subnet ``row``, which must hold the /64 ``network``."""
        (net_hi, net_lo, asn, router_id, iface_hi, iface_lo, flags, death,
         host_count, host_off) = _SUBNET.unpack_from(
            self._view, self._subnets_off + row * _SUBNET.size
        )
        if net_lo or net_hi << 64 != network:  # host bits set, or a stray index
            raise ArtifactError(f"{self.path}: subnet row {row} holds "
                                f"{net_hi:#x}:{net_lo:#x}, not the /64 {network:#x}")
        prefix = _new(IPv6Prefix)
        _set_network(prefix, network)
        _set_length(prefix, 64)
        hosts = _Addresses(self._hosts, host_off, host_count, tuple) if host_count else ()
        return Subnet(
            prefix, asn, router_id, (iface_hi << 64) | iface_lo, hosts,
            bool(flags & _SF_ALIASED), bool(flags & _SF_FLAKY),
            death if flags & _SF_HAS_DEATH else None,
        )  # fmt: skip

    def subnet_network_at(self, row: int) -> int:
        hi, lo = struct.unpack_from("<QQ", self._view, self._subnets_off + row * _SUBNET.size)
        return (hi << 64) | lo

    # ---------------- resolution ---------------- #

    def resolution_rows(self, world: World) -> list[FrozenRow]:
        section = self._section("resolution")
        (num_lengths,) = struct.unpack_from("<I", section, 0)
        offset = 8
        rows: list[FrozenRow] = []
        for _ in range(num_lengths):
            length, _pad, count = _RES_BLOCK.unpack_from(section, offset)
            offset += _RES_BLOCK.size
            hi, lo, refs = _key_columns(section, offset, count)
            offset += count * 24
            kinds = section[offset : offset + count]
            offset += count + _pad8(count)
            rows.append(_ResolutionRow(length, hi, lo, refs, kinds, world))
        return rows


class _ResolutionRow(FrozenRow):
    """One length of the artifact's resolution index.  ``values`` is its
    ref column; :meth:`match` decodes entry ``i`` from its kind and ref on
    first use into the row's memo — the only cache of the entry — and a
    subnet entry's tuple holds the subnet's own prefix."""

    __slots__ = ("_kinds", "_subnets", "_regions")

    def __init__(self, length, hi, lo, refs, kinds, world: World) -> None:
        super().__init__(length, hi, lo, refs)
        self._kinds = kinds
        # The world's containers, not the world, whose resolution holds
        # this row: a dropped world is then freed by refcount.  The regions
        # are in ``_CODE_KINDS`` order, so a kind code indexes them.
        self._subnets: LazySubnetMap = world.subnets  # type: ignore[assignment]
        self._regions = (None, world.alias_regions, world.loop_regions, world.infra_subnets)

    def match(self, i: int) -> tuple[IPv6Prefix, ResolutionEntry]:
        found = self._matches.get(i)
        if found is None:
            code = self._kinds[i]
            kind = _CODE_KINDS[code]
            ref = self.values[i]
            network = (self.keys_hi[i] << 64) | self.keys_lo[i]
            if kind is EntryKind.SUBNET:
                payload = self._subnets.decoded(network, ref)
                prefix = payload.prefix
            else:  # a region by its list index, an infra subnet by its network
                prefix = IPv6Prefix(network, self.length)
                payload = self._regions[code][network if kind is EntryKind.INFRA else ref]
            entry = _new(ResolutionEntry)
            _set_kind(entry, kind)
            _set_payload(entry, payload)
            found = self._matches.setdefault(i, (prefix, entry))
        return found


def _key_columns(section: memoryview, offset: int, count: int) -> list[memoryview]:
    """The hi (u64), lo (u64) and ref (i64) columns of ``count`` sorted keys
    laid out one after another from ``offset``: a resolution block's or
    the subnet index's."""
    cut = [offset + count * 8 * k for k in range(4)]
    return [section[a:b].cast(code) for a, b, code in zip(cut, cut[1:], "QQq")]


def _pairs(words, off: int, n: int, stride: int) -> Iterator[int]:
    """The ``n`` addresses whose (hi, lo) words start every ``stride``
    words from ``words[off]``."""
    for j in range(off, off + stride * n, stride):
        yield (words[j] << 64) | words[j + 1]


def _find(words, off: int, n: int, stride: int, address: object) -> int:
    """Word index of ``address`` among :func:`_pairs`, or -1; compares
    words, so the stored addresses are never built."""
    if isinstance(address, int):
        hi, lo = address >> 64, address & _LO
        for j in range(off, off + stride * n, stride):
            if words[j + 1] == lo and words[j] == hi:
                return j
    return -1


class _Addresses(Sequence):
    """Read-only view of ``n`` addresses stored as (hi, lo) word pairs from
    ``words[off]`` in the mapped file: a decoded subnet's ``hosts`` and a
    decoded router's ``interface_addresses``, read on demand instead of
    copied.  Equal to, and pickled as, the ``kind`` (tuple or list) a built
    world holds there."""

    __slots__ = ("_words", "_off", "_n", "_kind")

    def __init__(self, words, off: int, n: int, kind: type) -> None:
        self._words, self._off, self._n, self._kind = words, off, n, kind

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._kind(self)[i]
        if not -self._n <= i < self._n:
            raise IndexError("address index out of range")
        j = self._off + 2 * (i % self._n)
        return (self._words[j] << 64) | self._words[j + 1]

    def __iter__(self) -> Iterator[int]:
        return _pairs(self._words, self._off, self._n, 2)

    def __contains__(self, address: object) -> bool:
        return _find(self._words, self._off, self._n, 2, address) >= 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (self._kind, _Addresses)):
            return self._kind(self) == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return self._kind, (self._kind(self),)

    def __repr__(self) -> str:
        return repr(self._kind(self))


class _InterfaceMap(Mapping):
    """Read-only ``{network: interface}`` view of a decoded router's
    ``subnet_interfaces``, stored as (network hi, lo, interface hi, lo)
    word quads; equal to, and pickled as, the dict a built world holds."""

    __slots__ = ("_words", "_off", "_n")

    def __init__(self, words, off: int, n: int) -> None:
        self._words, self._off, self._n = words, off, n

    def __getitem__(self, network: int) -> int:
        j = _find(self._words, self._off, self._n, 4, network)
        if j < 0:
            raise KeyError(network)
        return (self._words[j + 2] << 64) | self._words[j + 3]

    def __iter__(self) -> Iterator[int]:
        return _pairs(self._words, self._off, self._n, 4)

    def __len__(self) -> int:
        return self._n

    def __reduce__(self):
        values = _pairs(self._words, self._off + 2, self._n, 4)
        return dict, (dict(zip(self, values)),)

    def __repr__(self) -> str:
        return repr(self.__reduce__()[1][0])


class _DecodedMap(dict):
    """Read-only mapping over artifact rows that is also their memo: a
    decoded entity sits in the dict, so reading it again is a plain dict
    lookup, and ``__missing__`` decodes a key's row (racing threads keep
    the first object stored).  As a mapping it covers every row —
    ``len``, iteration, ``in``, ``get``, ``==`` and the views — and every
    mutator raises TypeError."""

    __slots__ = ("_reader",)

    def __init__(self, reader: _ArtifactReader) -> None:
        super().__init__()
        self._reader = reader

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} of a loaded world is read-only")

    __setitem__ = __delitem__ = __ior__ = __or__ = __ror__ = __reversed__ = _refuse
    clear = copy = pop = popitem = setdefault = update = _refuse
    __contains__, get, __eq__ = Mapping.__contains__, Mapping.get, Mapping.__eq__
    keys, values, items = Mapping.keys, Mapping.values, Mapping.items
    __ne__ = object.__ne__  # not dict's, which compares only what was decoded
    __repr__ = object.__repr__


class LazyRouterMap(_DecodedMap):
    """``{router_id: Router}`` over the artifact.  Iteration follows the
    original insertion order so loaded worlds behave byte-identically to
    built ones wherever order is observable."""

    def __missing__(self, router_id: int) -> Router:
        index = self._reader._router_index
        slot = router_id - 1
        if not 0 <= slot < len(index) or index[slot] < 0:
            raise KeyError(router_id)
        return dict.setdefault(self, router_id, self._reader._router_at(index[slot]))

    def __len__(self) -> int:
        return self._reader.router_rows

    def __iter__(self) -> Iterator[int]:
        # Streamed artifacts flush periphery routers before pinned core
        # routers, so row order differs from the builder's creation
        # (== id) order; ids are dense there, making id order exact.
        # Eagerly-saved artifacts preserve insertion order as row order
        # and may be sparse.  Dense id spans take the id path.
        reader = self._reader
        if reader.router_rows == reader.meta["router_id_span"]:
            return iter(range(1, reader.router_rows + 1))
        return (
            reader.router_id_at(row) for row in range(reader.router_rows)
        )


class LazySubnetMap(_DecodedMap):
    """``{network: Subnet}`` over the artifact (row order == registration
    order, duplicate registrations collapse keep-last).  A decoded
    subnet's ``hosts`` stay in the mapped file."""

    def __missing__(self, network: int) -> Subnet:
        return self.decoded(network, self._reader.subnet_row_of(network))

    def decoded(self, network: int, row: int) -> Subnet:
        """``self[network]``, whose ``row`` is known (-1: there is none)."""
        subnet = dict.get(self, network)
        if subnet is None:
            if row < 0:
                raise KeyError(network)
            subnet = dict.setdefault(self, network, self._reader._subnet_at(row, network))
        return subnet

    def __len__(self) -> int:
        return len(self._reader._subnet_keys)

    def _one_row_per_key(self) -> bool:
        return len(self._reader._subnet_keys) == self._reader.subnet_rows

    def __iter__(self) -> Iterator[int]:
        reader = self._reader
        networks = map(reader.subnet_network_at, range(reader.subnet_rows))
        if self._one_row_per_key():
            return networks
        # Dict semantics under overwrite: each network at its first row.
        return iter(dict.fromkeys(networks))

    def rows(self) -> Iterator[tuple[int, int, bool, Sequence[int]]]:
        """``(network, router interface, aliased, hosts)`` of each subnet in
        ``values()`` order, read from the mapped rows: decodes no ``Subnet``."""
        reader = self._reader
        records = _SUBNET.iter_unpack(reader._section("subnets"))
        if not self._one_row_per_key():  # a network's last row holds its facts
            records = list(records)
            records = [records[reader.subnet_row_of(network)] for network in self]
        for net_hi, net_lo, _, _, if_hi, if_lo, flags, _, count, off in records:
            hosts = _Addresses(reader._hosts, off, count, tuple) if count else ()
            network, interface = (net_hi << 64) | net_lo, (if_hi << 64) | if_lo
            yield network, interface, bool(flags & _SF_ALIASED), hosts


# --------------------------------------------------------------------- #
# loading and worker bootstrap
# --------------------------------------------------------------------- #


def load_world_artifact(path: str | Path) -> World:
    """Memory-map an artifact and return its (lazy, read-only) world — from
    now on :func:`resolve_world_ref`'s for ``path``, here and in forked
    children, which inherit what it decoded.  The world the path held is
    dropped first: with no other reference, refcounting frees it at once."""
    path = Path(path)
    _RESOLVED.pop(str(path), None)
    reader = _ArtifactReader(path)
    reader.small["bgp"].freeze_lookups()
    world = World(
        seed=reader.seed,
        routers=LazyRouterMap(reader),  # type: ignore[arg-type]
        subnets=LazySubnetMap(reader),  # type: ignore[arg-type]
        packet_loss=reader.meta["packet_loss"],
        artifact_path=str(path),
        artifact_fingerprint=reader.fingerprint,
        **reader.small,  # the O(#ASes) parts, saved under their World names
    )
    world.resolution = FrozenLPM(reader.resolution_rows(world))  # type: ignore[assignment]
    _RESOLVED[str(path)] = world
    return world


@dataclass(frozen=True, slots=True)
class WorldRef:
    """O(KB) world bootstrap for shard workers: path + fingerprint.

    The sharded runner ships this instead of the pickled world; workers
    resolve it through :func:`resolve_world_ref` — forked ones to the world
    their parent loaded, spawned ones by mapping the artifact, whose pages
    the OS page cache shares across every worker on the host.
    """

    path: str
    fingerprint: bytes | None = None


_RESOLVED: dict[str, World] = {}


def resolve_world_ref(ref: WorldRef) -> World:
    """The world loaded from ``ref.path`` (or loaded now), fingerprint-checked."""
    world = _RESOLVED.get(str(Path(ref.path))) or load_world_artifact(ref.path)
    if (
        ref.fingerprint is not None
        and world.artifact_fingerprint != ref.fingerprint
    ):
        raise ArtifactError(
            f"{ref.path}: artifact fingerprint changed since the scan "
            "was scheduled (world rebuilt with a different config?)"
        )
    return world


def world_payload(world: World) -> "World | WorldRef":
    """What the sharded runner should ship to process-pool workers:
    a :class:`WorldRef` for artifact-backed worlds (O(KB)), the world
    itself (pickled by the pool) otherwise."""
    if world.artifact_path is not None:
        return WorldRef(world.artifact_path, world.artifact_fingerprint)
    return world
