"""World artifacts: round-trip fidelity and scan byte-identity.

Two representations of the same world exist after this PR — the eager
object graph from ``build_world`` and the mmap-backed lazy world from
``build_world_artifact``/``load_world_artifact``.  These tests pin that
the two are observationally identical: every entity field round-trips,
iteration orders match, and a sharded scan produces byte-identical
records, telemetry, and Prometheus text regardless of representation or
shard count.
"""

import multiprocessing
import pickle
import random
import threading
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import pytest

from repro.datasets.tum import harvest_hitlist, published_alias_list
from repro.scanner import sharded as sharded_module
from repro.scanner.sharded import ShardedScanRunner
from repro.scanner.targets import bgp_slash48_targets
from repro.scanner.zmapv6 import ScanConfig
from repro.topology import artifact as artifact_module
from repro.telemetry.scan import ScanTelemetry
from repro.topology.artifact import (
    ArtifactError,
    WorldRef,
    build_fingerprint,
    load_world_artifact,
    resolve_world_ref,
    save_world,
    world_payload,
)
from repro.topology.config import tiny_config
from repro.topology.entities import EntryKind
from repro.topology.generator import build_world, build_world_artifact

ROUTER_FIELDS = (
    "router_id",
    "asn",
    "country",
    "loopback",
    "interface_addresses",
    "subnet_interfaces",
    "peering_lan_address",
    "replies_from_peering",
    "answers_direct_ping",
    "unstable_reply_source",
    "is_border",
    "errors_from_primary",
    "sra_from_primary",
    "emits_unreachables",
    "replication_factor",
    "background_error_load",
)

SUBNET_FIELDS = (
    "prefix",
    "asn",
    "router_id",
    "router_interface",
    "hosts",
    "aliased",
    "flaky",
    "death_epoch",
)


def _worker_world_state():
    """Pool task: identity and materialised-subnet count of the world the
    worker's initializer resolved."""
    world = sharded_module._WORKER_WORLD
    return id(world), dict.__len__(world.subnets)


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory):
    return tmp_path_factory.mktemp("artifact") / "tiny.sraw"


@pytest.fixture(scope="module")
def artifact_world(artifact_path):
    """The tiny world, streamed to disk and loaded back lazily.

    Same config as the session ``tiny_world`` fixture, so tests can
    compare the two representations directly.
    """
    return build_world_artifact(tiny_config(seed=7), artifact_path)


def _artifact_with_a_duplicate(tiny_world, tmp_path):
    """``tiny_world`` saved with its third subnet registered twice: first
    with other facts (no hosts, another interface, flipped flags), later
    with its own. Returns the loaded world and the dict the registrations
    make."""
    from dataclasses import replace

    from repro.topology.artifact import WorldArtifactWriter
    from repro.topology.entities import EntryKind

    subnets = list(tiny_world.subnets.values())
    stale = replace(
        subnets[2],
        hosts=(),
        router_interface=subnets[2].router_interface ^ 1,
        aliased=not subnets[2].aliased,
        flaky=not subnets[2].flaky,
    )
    registrations = subnets[:2] + [stale] + subnets[3:6] + [subnets[2]] + subnets[6:]
    reference = {}
    writer = WorldArtifactWriter(
        tmp_path / "dup.sraw", seed=tiny_world.seed, fingerprint=bytes(32)
    )
    rows = {}
    for subnet in registrations:
        reference[subnet.prefix.network] = subnet
        rows[subnet.prefix.network] = writer.add_subnet(subnet)
    assert list(reference) == list(tiny_world.subnets)
    for router in tiny_world.routers.values():
        writer.add_router(router)
    for prefix, entry in tiny_world.resolution.items():
        if entry.kind is EntryKind.SUBNET:
            writer.add_resolution(prefix, entry.kind, rows[prefix.network])
    return load_world_artifact(writer.finalize(tiny_world)), reference


def _column_and_object_readers(world, built):
    """The harvest and the published alias list of an artifact ``world``
    (read from its rows) and of ``built`` (read from its objects)."""
    return [
        (harvest_hitlist(w).addresses(), list(published_alias_list(w)))
        for w in (world, built)
    ]


class TestRoundTrip:
    def test_streamed_build_equals_eager_build(self, tiny_world, artifact_world):
        assert list(artifact_world.routers) == list(tiny_world.routers)
        assert list(artifact_world.subnets) == list(tiny_world.subnets)
        for rid, router in tiny_world.routers.items():
            loaded = artifact_world.routers[rid]
            for field in ROUTER_FIELDS:
                assert getattr(loaded, field) == getattr(router, field), (
                    rid,
                    field,
                )
            assert loaded.vendor is router.vendor  # interned by name
        for network, subnet in tiny_world.subnets.items():
            loaded = artifact_world.subnets[network]
            for field in SUBNET_FIELDS:
                assert getattr(loaded, field) == getattr(subnet, field)
        assert list(tiny_world.bgp.prefixes()) == list(
            artifact_world.bgp.prefixes()
        )
        assert tiny_world.paths == artifact_world.paths
        for asn, info in tiny_world.ases.items():
            loaded = artifact_world.ases[asn]
            assert list(info.router_ids) == list(loaded.router_ids)
            assert info.prefixes == loaded.prefixes
        assert artifact_world.artifact_path is not None
        assert artifact_world.artifact_fingerprint is not None

    def test_resolution_matches(self, tiny_world, artifact_world):
        rng = random.Random(3)
        probes = [rng.getrandbits(128) for _ in range(500)]
        probes += [s.sra_address for s in tiny_world.subnets.values()]
        probes += [r.prefix.network + 5 for r in tiny_world.loop_regions]
        probes += [r.prefix.network + 5 for r in tiny_world.alias_regions]
        for address in probes:
            expected = tiny_world.resolution.longest_match(address)
            got = artifact_world.resolution.longest_match(address)
            assert (expected is None) == (got is None)
            if expected is not None:
                assert expected[0] == got[0]
                assert expected[1].kind == got[1].kind

    def test_resolution_payload_identity_is_stable(self, artifact_world):
        """The engine keys per-batch plans by id(subnet): repeated lookups
        must return the same materialised object."""
        network = next(iter(artifact_world.subnets))
        first = artifact_world.resolution.longest_match(network)
        second = artifact_world.resolution.longest_match(network)
        assert first is not None and first[1].payload is second[1].payload
        assert first[1].payload is artifact_world.subnets[network]

    @pytest.mark.parametrize("decoded", ["ResolutionEntry", "Subnet", "Router"])
    def test_racing_threads_share_one_decoded_object(
        self, artifact_path, artifact_world, monkeypatch, decoded
    ):
        """A send the resilient watchdog abandoned as slow keeps probing
        the world beside its retry.  Two threads held together inside one
        row's decode step — both past its memo check — must still come
        out with one object for that row.  An entry's decode sets its
        slots rather than calling ``ResolutionEntry``, so its hold is the
        payload's setter."""
        from dataclasses import replace

        reader = artifact_module._ArtifactReader(artifact_path)
        subnets = artifact_module.LazySubnetMap(reader)
        routers = artifact_module.LazyRouterMap(reader)
        rows = reader.resolution_rows(replace(artifact_world, subnets=subnets))
        router_id = next(iter(artifact_world.routers))
        network = next(iter(artifact_world.subnets))
        lookup = {
            "ResolutionEntry": lambda: rows[0].match(0)[1],
            "Subnet": lambda: subnets[network],
            "Router": lambda: routers[router_id],
        }[decoded]
        hook = {"ResolutionEntry": "_set_payload"}.get(decoded, decoded)
        barrier = threading.Barrier(2)
        build = getattr(artifact_module, hook)

        def decode(*args, **kwargs):
            barrier.wait(timeout=30)
            return build(*args, **kwargs)

        monkeypatch.setattr(artifact_module, hook, decode)
        results: list = [None, None]

        def run(slot):
            results[slot] = lookup()

        threads = [threading.Thread(target=run, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert results[0] is not None
        assert results[0] is results[1]
        assert lookup() is results[0]

    def test_a_row_decodes_to_one_prefix_entry_and_payload(self, tiny_world, tmp_path):
        """However a row is reached — ``longest_match``, ``get``,
        ``all_matches``, ``items``, the subnet map — it is the same
        ``ResolutionEntry`` and payload, and a subnet entry's tuple holds
        the subnet's own prefix."""
        world = load_world_artifact(save_world(tiny_world, tmp_path / "one.sraw"))
        resolution = world.resolution
        items = {prefix: entry for prefix, entry in resolution.items()}
        subnets = 0
        for prefix, entry in items.items():
            address = prefix.network
            longest = resolution.longest_match(address)
            if longest[0] != prefix:
                continue  # a more specific prefix covers its network
            reached = [
                longest[1],
                resolution.get(prefix),
                next(e for p, e in resolution.all_matches(address) if p == prefix),
                entry,
            ]
            assert all(e is reached[0] for e in reached)
            assert all(e.payload is reached[0].payload for e in reached)
            if entry.kind is EntryKind.SUBNET:
                subnets += 1
                assert longest[0] is world.subnets[address].prefix
                assert entry.payload is world.subnets[address]
        assert subnets == len(tiny_world.subnets)
        # A second walk hands out the very same tuples.
        assert all(a is b for a, b in zip(resolution.items(), resolution.items()))

    def test_save_world_round_trips_eager_world(self, tiny_world, tmp_path):
        path = save_world(tiny_world, tmp_path / "eager.sraw")
        loaded = load_world_artifact(path)
        assert list(loaded.routers) == list(tiny_world.routers)
        assert list(loaded.subnets) == list(tiny_world.subnets)
        rid = next(iter(tiny_world.routers))
        for field in ROUTER_FIELDS:
            assert getattr(loaded.routers[rid], field) == getattr(
                tiny_world.routers[rid], field
            )

    def test_lazy_maps_behave_like_dicts(self, tiny_world, artifact_world):
        routers = artifact_world.routers
        assert len(routers) == len(tiny_world.routers)
        missing_rid = max(tiny_world.routers) + 100
        assert missing_rid not in routers
        with pytest.raises(KeyError):
            routers[missing_rid]
        subnets = artifact_world.subnets
        assert len(subnets) == len(tiny_world.subnets)
        assert 0xDEAD not in subnets
        with pytest.raises(KeyError):
            subnets[0xDEAD]
        assert subnets.get(0xDEAD) is None

    @staticmethod
    def _assert_views_match(lazy, reference):
        """``values()`` / ``items()`` of a lazy subnet map: the reference
        dict's, in its order, and the very objects ``lazy[network]``
        returns (the engine keys on subnet identity)."""
        values = list(lazy.values())
        items = list(lazy.items())
        assert [key for key, _ in items] == list(lazy) == list(reference)
        assert [value for _, value in items] == values
        assert len(values) == len(lazy.values()) == len(lazy.items()) == len(reference)
        for (network, subnet), expected in zip(items, reference.values()):
            assert subnet is lazy[network]
            for field in SUBNET_FIELDS:
                assert getattr(subnet, field) == getattr(expected, field), field
        # A second walk hands out the same objects, and the views keep
        # their set-like / container protocol.
        assert all(a is b for a, b in zip(values, lazy.values()))
        assert values[0] in lazy.values()
        assert items[-1] in lazy.items()
        assert (0xDEAD, values[0]) not in lazy.items()

    def test_subnet_views_walk_rows(self, tiny_world, artifact_world):
        from collections.abc import ItemsView, ValuesView

        assert isinstance(artifact_world.subnets.values(), ValuesView)
        assert isinstance(artifact_world.subnets.items(), ItemsView)
        self._assert_views_match(artifact_world.subnets, tiny_world.subnets)

    def test_subnet_views_with_a_duplicate_registration(self, tiny_world, tmp_path):
        """A subnet registered twice keeps its first position and its last
        value, like the dict it stands in for."""
        loaded, reference = _artifact_with_a_duplicate(tiny_world, tmp_path)
        assert len(loaded.subnets) == len(reference) == len(tiny_world.subnets)
        self._assert_views_match(loaded.subnets, reference)
        network = list(reference)[2]
        assert loaded.subnets[network].hosts == tiny_world.subnets[network].hosts

    def test_loaded_world_is_static(self, artifact_world):
        """Every mutator is refused, and a refused one changes nothing:
        the region lists and the infra dict stay what the FIB routes."""
        from repro.addr.ipv6 import IPv6Prefix
        from repro.topology.entities import (
            AliasRegion,
            InfraSubnet,
            LoopRegion,
            Subnet,
        )

        world = artifact_world
        prefix = IPv6Prefix(0xABCD << 64, 64)
        subnet = Subnet(
            prefix=prefix, asn=1, router_id=1, router_interface=(0xABCD << 64) | 1
        )
        assert world.loop_regions
        before = (
            list(world.loop_regions),
            list(world.alias_regions),
            dict(world.infra_subnets),
        )
        refused = [
            partial(world.register_subnet, subnet),
            partial(world.register_loop, LoopRegion(prefix, 1, 1, 2)),
            partial(world.register_alias, AliasRegion(prefix, 1)),
            partial(world.register_infra, InfraSubnet(prefix, 1)),
            partial(world.remove_loop, world.loop_regions[0]),
        ]
        for call in refused:
            with pytest.raises(TypeError):
                call()
            assert (
                world.loop_regions,
                world.alias_regions,
                world.infra_subnets,
            ) == before, call.func.__name__
        # The lazy maps are dicts of what they decoded, but no dict mutator
        # works on them, and a refused one leaves the memo as it was.
        for lazy in (world.routers, world.subnets):
            key = next(iter(lazy))
            value = lazy[key]  # decoded before the memo is read
            decoded = dict(dict.items(lazy))
            for mutate in (
                partial(lazy.__setitem__, key, value),
                partial(lazy.__delitem__, key),
                partial(lazy.pop, key),
                lazy.popitem,
                lazy.clear,
                partial(lazy.update, {key: None}),
                partial(lazy.setdefault, key, None),
                partial(lazy.__ior__, {key: None}),
                lazy.copy,
            ):
                with pytest.raises(TypeError):
                    mutate()
                assert dict(dict.items(lazy)) == decoded

    def test_lazy_maps_read_as_whole_mappings(self, tiny_world, tmp_path):
        """Before and after a decode, a lazy map reads as the built dict:
        length, order, ``in``, ``get``, ``==`` and ``dict()`` cover every
        row, not only the decoded ones."""
        world = load_world_artifact(save_world(tiny_world, tmp_path / "whole.sraw"))
        for lazy, built in (
            (world.routers, tiny_world.routers),
            (world.subnets, tiny_world.subnets),
        ):
            key = next(iter(built))
            assert dict.__len__(lazy) == 0
            assert len(lazy) == len(built) and list(lazy) == list(built)
            assert key in lazy and -1 not in lazy and lazy.get(-1, "none") == "none"
            assert lazy.get(key) is lazy[key] and dict.__len__(lazy) == 1
            # One decoded row is not the map, for == and != alike.
            assert lazy != {key: built[key]} and not lazy == {key: built[key]}
            assert lazy == built and not lazy != built and dict(lazy) == built
            assert list(lazy.keys()) == list(built)
            assert "object at" in repr(lazy)


class TestCorruptRows:
    def test_a_subnet_row_with_host_bits_set_names_the_row(self, tiny_world, tmp_path):
        """A flipped bit in a subnet row's low network word: the map and
        the resolution both refuse the row, by number, when they decode it."""
        path = save_world(tiny_world, tmp_path / "corrupt.sraw")
        reader = artifact_module._ArtifactReader(path)
        row = 3
        network, neighbour = map(reader.subnet_network_at, (row, row + 1))
        low_word = reader._sections["subnets"][0] + row * artifact_module._SUBNET.size + 8
        del reader
        with open(path, "r+b") as handle:
            handle.seek(low_word)
            handle.write((1).to_bytes(8, "little"))
        world = load_world_artifact(path)
        with pytest.raises(ArtifactError, match=f"subnet row {row} holds"):
            world.subnets[network]
        with pytest.raises(ArtifactError, match=f"subnet row {row} holds"):
            world.resolution.longest_match(network)
        assert world.subnets[neighbour].prefix.network == neighbour

    def test_the_small_section_types_unpickle_into_their_slots(self):
        """The four frozen types the small section pickles most set their
        slots straight on unpickling, and pickle exactly as before (their
        ``__getstate__`` is still the dataclass's)."""
        from dataclasses import FrozenInstanceError

        from repro.addr.ipv6 import IPv6Prefix, set_slots
        from repro.bgp.table import Announcement
        from repro.irr.rpsl import Route6Object
        from repro.topology.entities import TransitHop

        prefix = IPv6Prefix(0x2001_0DB8 << 96, 32)
        values = [
            prefix,
            Announcement(prefix, 64500),
            TransitHop(7, (0x2001_0DB8 << 96) | 1),
            Route6Object(prefix, 64500, "block", "MAINT-X", "RIPE", (("k", "v"),)),
        ]
        for value in values:
            cls = type(value)
            assert vars(cls)["__setstate__"] is set_slots
            assert vars(cls)["__getstate__"].__module__ == "dataclasses"
            loaded = pickle.loads(pickle.dumps(value))
            assert type(loaded) is cls and loaded == value
            assert hash(loaded) == hash(value)
            assert loaded.__getstate__() == value.__getstate__()
            with pytest.raises(FrozenInstanceError):
                loaded.__setattr__(cls.__slots__[0], None)


def _views(tiny_world, artifact_world):
    """(view, built value) of every sequence field of every entity, with
    the built world's type for each."""
    for network, subnet in tiny_world.subnets.items():
        yield artifact_world.subnets[network].hosts, subnet.hosts
    for rid, router in tiny_world.routers.items():
        loaded = artifact_world.routers[rid]
        yield loaded.interface_addresses, router.interface_addresses
        yield loaded.subnet_interfaces, router.subnet_interfaces


class TestEntityViews:
    """Decoded entities read their hosts and interfaces from the mapped
    file: each view behaves like the tuple, list or dict it replaces."""

    def test_fields_are_views_not_copies(self, tiny_world, artifact_world):
        views = [(view, built) for view, built in _views(tiny_world, artifact_world) if built]
        assert {type(built) for _, built in views} == {tuple, list, dict}
        assert not any(isinstance(view, (tuple, list, dict)) for view, _ in views)

    def test_equal_in_both_directions(self, tiny_world, artifact_world):
        for view, built in _views(tiny_world, artifact_world):
            assert view == built and built == view
            assert not (view != built) and not (built != view)
            other = list(built) if isinstance(built, tuple) else tuple(built)
            if not isinstance(built, dict):
                assert view != other and other != view  # tuple != list
            assert view != [*built, 1] and [*built, 1] != view
            assert view == view
        # Two views of one word run compare as a tuple and a list would.
        hosts = next(v for v, b in _views(tiny_world, artifact_world) if b)
        as_list = artifact_module._Addresses(hosts._words, hosts._off, len(hosts), list)
        assert hosts != as_list and as_list != hosts
        assert as_list == artifact_module._Addresses(
            hosts._words, hosts._off, len(hosts), list
        )

    def test_sequence_protocol(self, tiny_world, artifact_world):
        rng = random.Random(11)
        for view, built in _views(tiny_world, artifact_world):
            if isinstance(built, dict):
                continue
            assert len(view) == len(built)
            assert list(view) == list(built)
            assert list(reversed(view)) == list(reversed(built))
            for i in range(-len(built), len(built)):
                assert view[i] == built[i]
            for bad in (len(built), -len(built) - 1):
                with pytest.raises(IndexError):
                    view[bad]
            start, stop = sorted(rng.randrange(-3, len(built) + 3) for _ in range(2))
            for part in (slice(start, stop), slice(None, None, -1), slice(1, None, 2)):
                assert view[part] == built[part]
                assert type(view[part]) is type(built)
            for address in built:
                assert address in view
                assert view.index(address) == built.index(address)
                assert view.count(address) == 1
            # Each address with one bit flipped in its low, then its high word.
            near = [a ^ bit for a in built for bit in (1, 1 << 64)]
            for absent in (0, 1, (1 << 128) - 1, *near):
                assert (absent in view) == (absent in built)
            assert "2001:db8::1" not in view and None not in view

    def test_mapping_protocol(self, tiny_world, artifact_world):
        for view, built in _views(tiny_world, artifact_world):
            if not isinstance(built, dict):
                continue
            assert len(view) == len(built)
            assert list(view) == list(built)
            assert list(view.items()) == list(built.items())
            assert list(view.values()) == list(built.values())
            for network, interface in built.items():
                assert network in view
                assert view[network] == interface
                assert view.get(network) == interface
            near = [network ^ bit for network in built for bit in (1, 1 << 64)]
            for absent in (0, *(a for a in near if a not in built)):
                assert absent not in view
                assert view.get(absent) is None
                with pytest.raises(KeyError):
                    view[absent]
            assert "x" not in view

    def test_pickle_materialises(self, tiny_world, artifact_world):
        for view, built in _views(tiny_world, artifact_world):
            copy = pickle.loads(pickle.dumps(view))
            assert type(copy) is type(built)
            assert copy == built
            assert repr(view) == repr(built)
        network = next(n for n, s in tiny_world.subnets.items() if s.hosts)
        subnet = pickle.loads(pickle.dumps(artifact_world.subnets[network]))
        assert subnet == tiny_world.subnets[network]
        assert type(subnet.hosts) is tuple
        rid = next(r for r, x in tiny_world.routers.items() if x.subnet_interfaces)
        router = pickle.loads(pickle.dumps(artifact_world.routers[rid]))
        assert router == tiny_world.routers[rid]
        assert type(router.interface_addresses) is list
        assert type(router.subnet_interfaces) is dict

    def test_ixp_capture_is_unchanged(self, tiny_world, artifact_world):
        from repro.datasets.ixp import run_ixp_capture

        built = run_ixp_capture(tiny_world, packets=100_000, sample_rate=50)
        loaded = run_ixp_capture(artifact_world, packets=100_000, sample_rate=50)
        assert built.packets_sampled > 0
        assert loaded == built

    def test_random_target_scan_equals_in_memory_scan(self, tiny_world, artifact_world):
        """Random in-subnet targets plus every host: the kernel path that
        asks ``target in subnet.hosts``, answered both ways."""
        from repro.addr.randomgen import random_targets_for_sras

        subnets = list(tiny_world.subnets.values())
        targets = [host for subnet in subnets for host in subnet.hosts]
        targets += random_targets_for_sras(
            (s.sra_address for s in subnets), 64, random.Random(4)
        )
        scan = TestScanByteIdentity._scan_bytes
        eager = scan(tiny_world, targets, 1, "serial")
        loaded = scan(artifact_world, targets, 1, "serial")
        assert loaded == eager
        hosts = {host for subnet in subnets for host in subnet.hosts}
        replies = {target for target, source, *_ in eager[0] if target == source}
        assert len(replies & hosts) > len(hosts) // 2


class TestColumnReaders:
    """``harvest_hitlist`` and ``published_alias_list`` read an artifact
    world's subnet rows: the built world's lists, and no ``Subnet``."""

    @pytest.mark.parametrize("seed", [1, 7, 2024])
    def test_equal_the_object_readers(self, seed, tmp_path):
        config = tiny_config(seed)
        loaded = build_world_artifact(config, tmp_path / "world.sraw")
        columns, objects = _column_and_object_readers(loaded, build_world(config))
        assert columns == objects
        assert len(objects[0]) and len(objects[1])

    def test_a_duplicate_registration_reads_keep_last(self, tiny_world, tmp_path):
        """The stale first registration's facts (no hosts, another
        interface, the aliased flag flipped) would change both lists."""
        loaded, _ = _artifact_with_a_duplicate(tiny_world, tmp_path)
        columns, objects = _column_and_object_readers(loaded, tiny_world)
        assert columns == objects
        network, interface, aliased, hosts = list(loaded.subnets.rows())[2]
        original = tiny_world.subnets[network]
        assert (interface, aliased, hosts) == (
            original.router_interface,
            original.aliased,
            original.hosts,
        )

    def test_a_fresh_world_decodes_no_subnet(self, tiny_world, tmp_path):
        world = load_world_artifact(save_world(tiny_world, tmp_path / "fresh.sraw"))
        harvest_hitlist(world)
        published_alias_list(world)
        assert dict.__len__(world.subnets) == 0


class TestWorkerBootstrap:
    def test_world_payload_is_kilobytes(self, tiny_world, artifact_world):
        """The whole point: artifact worlds ship a path, not a world."""
        ref = world_payload(artifact_world)
        assert isinstance(ref, WorldRef)
        assert len(pickle.dumps(ref)) < 4096
        # Non-artifact worlds keep the legacy pickled-world path.
        assert world_payload(tiny_world) is tiny_world

    def test_resolve_world_ref_memoises(self, artifact_world):
        """The memo is the loaded world itself, not a second load."""
        ref = world_payload(artifact_world)
        assert resolve_world_ref(ref) is artifact_world
        assert resolve_world_ref(ref) is artifact_world

    def test_fingerprint_mismatch_is_refused(self, artifact_world):
        ref = WorldRef(artifact_world.artifact_path, b"\0" * 32)
        with pytest.raises(ArtifactError):
            resolve_world_ref(ref)

    def test_forked_worker_adopts_the_loaded_world(self, artifact_world):
        """A fork-context worker resolves the WorldRef to the parent's very
        world object, with the entities the parent already decoded."""
        next(iter(artifact_world.subnets.values()))  # decode one subnet
        decoded = dict.__len__(artifact_world.subnets)
        assert decoded > 0
        with ProcessPoolExecutor(
            1,
            mp_context=multiprocessing.get_context("fork"),
            initializer=sharded_module._init_worker,
            initargs=(world_payload(artifact_world), ()),
        ) as pool:
            state = pool.submit(_worker_world_state).result()
        assert state == (id(artifact_world), decoded)

    def test_rebuilt_artifact_refuses_the_old_fingerprint(self, tiny_world, tmp_path):
        """Loading an artifact rebuilt at the same path from another config
        replaces the loaded world, so a ref to the old one is refused."""
        path = tmp_path / "rebuilt.sraw"
        fingerprint = build_fingerprint(tiny_config(seed=7))
        old = load_world_artifact(save_world(tiny_world, path, fingerprint=fingerprint))
        stale = world_payload(old)
        assert resolve_world_ref(stale) is old
        new = build_world_artifact(tiny_config(seed=8), path)
        assert new.artifact_fingerprint != old.artifact_fingerprint
        with pytest.raises(ArtifactError):
            resolve_world_ref(stale)
        assert resolve_world_ref(world_payload(new)) is new

    def test_spawned_worker_maps_the_artifact(self, artifact_world, monkeypatch):
        """A spawn-context worker inherits nothing: it resolves the WorldRef
        by mapping the file, and its shards merge to the serial records."""
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(
            sharded_module,
            "ProcessPoolExecutor",
            partial(ProcessPoolExecutor, mp_context=spawn),
        )
        targets = list(
            bgp_slash48_targets(
                artifact_world.bgp,
                max_per_prefix=4,
                max_targets=400,
                rng=random.Random(3),
            )
        )
        config = ScanConfig(pps=150_000.0, seed=5)
        serial, spawned = (
            ShardedScanRunner(artifact_world, shards=shards, executor=executor).scan(
                targets, config, name="spawned", epoch=1
            )
            for shards, executor in ((1, "serial"), (2, "process"))
        )
        assert serial.records  # the targets are routed: there are replies
        assert spawned.records == serial.records
        assert spawned.engine_stats == serial.engine_stats

    def test_missing_artifact_is_a_clear_error(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_world_artifact(tmp_path / "nope.sraw")

    def test_not_an_artifact_is_a_clear_error(self, tmp_path):
        bogus = tmp_path / "bogus.sraw"
        bogus.write_bytes(b"definitely not a world artifact header")
        with pytest.raises(ArtifactError):
            load_world_artifact(bogus)


class TestScanByteIdentity:
    """The acceptance pin: scanning through the frozen shared-memory FIB
    is byte-identical to the in-memory trie path at shards 1, 4, and 8."""

    @pytest.fixture(scope="class")
    def targets(self, tiny_world):
        return list(
            bgp_slash48_targets(
                tiny_world.bgp,
                max_per_prefix=8,
                max_targets=1_500,
                rng=random.Random(21),
            )
        )

    @staticmethod
    def _scan_bytes(world, targets, shards, executor):
        telemetry = ScanTelemetry()
        runner = ShardedScanRunner(world, shards=shards, executor=executor)
        result = runner.scan(
            list(targets),
            ScanConfig(pps=150_000.0, seed=5),
            name="ident",
            epoch=2,
            telemetry=telemetry,
        )
        records = [
            (r.target, r.source, r.icmp_type, r.code, r.count, r.time)
            for r in result.records
        ]
        counters = (result.sent, result.lost, result.loops_observed)
        return (
            records,
            counters,
            telemetry.to_jsonl(),
            telemetry.to_prometheus(),
        )

    @pytest.mark.parametrize(
        ("shards", "executor"),
        [(1, "serial"), (4, "process"), (8, "process")],
    )
    def test_identical_output_bytes(
        self, tiny_world, artifact_world, targets, shards, executor
    ):
        eager = self._scan_bytes(tiny_world, targets, shards, executor)
        loaded = self._scan_bytes(artifact_world, targets, shards, executor)
        assert eager == loaded
