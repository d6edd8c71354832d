"""Behavioural tests for the simulation engine, rate limiter, stochastics."""

import pytest
from reference_harness import flood, probe_row

from repro.netsim.engine import AMPLIFICATION_CAP, SimulationEngine
from repro.netsim.ratelimit import TokenBucket
from repro.netsim.stochastic import stable_bool, stable_unit
from repro.packet.icmpv6 import ICMPv6Type, UnreachableCode
from repro.topology.config import tiny_config
from repro.topology.generator import build_world
from repro.topology.profiles import SRABehavior


class TestTokenBucket:
    def test_starts_full(self):
        bucket = TokenBucket(rate=10, burst=5)
        assert all(bucket.allow(0.0) for _ in range(5))
        assert not bucket.allow(0.0)

    def test_refills_over_time(self):
        bucket = TokenBucket(rate=10, burst=5)
        for _ in range(5):
            bucket.allow(0.0)
        assert not bucket.allow(0.0)
        assert bucket.allow(0.1)  # one token refilled

    def test_burst_caps_refill(self):
        bucket = TokenBucket(rate=1000, burst=3)
        assert sum(bucket.allow(100.0) for _ in range(10)) == 3

    def test_initial_override(self):
        bucket = TokenBucket(rate=10, burst=5, initial=1)
        assert bucket.allow(0.0)
        assert not bucket.allow(0.0)

    def test_time_going_backwards_clamped(self):
        bucket = TokenBucket(rate=10, burst=1)
        assert bucket.allow(5.0)
        # Earlier timestamp must not mint tokens.
        assert not bucket.allow(4.0)

    def test_reset(self):
        bucket = TokenBucket(rate=10, burst=2)
        bucket.allow(0.0)
        bucket.allow(0.0)
        bucket.reset()
        assert bucket.allow(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0)


class TestStochastic:
    def test_stable_unit_deterministic(self):
        assert stable_unit(1, b"x", 2, 3) == stable_unit(1, b"x", 2, 3)

    def test_stable_unit_range(self):
        for key in range(100):
            value = stable_unit(7, b"p", key)
            assert 0.0 <= value < 1.0

    def test_stable_unit_sensitive_to_inputs(self):
        base = stable_unit(1, b"x", 2)
        assert base != stable_unit(2, b"x", 2)
        assert base != stable_unit(1, b"y", 2)
        assert base != stable_unit(1, b"x", 3)

    def test_stable_unit_handles_128bit_keys(self):
        a = stable_unit(1, b"x", 1 << 100)
        b = stable_unit(1, b"x", (1 << 100) + (1 << 90))
        assert a != b

    def test_stable_bool_extremes(self):
        assert not stable_bool(1, b"x", 0.0, 5)
        assert stable_bool(1, b"x", 1.0, 5)

    def test_stable_bool_rate(self):
        hits = sum(stable_bool(1, b"rate", 0.3, i) for i in range(5000))
        assert 0.25 < hits / 5000 < 0.35


def _subnet_with_behavior(world, behavior, *, alive=True):
    for subnet in world.subnets.values():
        if subnet.aliased or subnet.flaky or subnet.death_epoch is not None:
            continue
        router = world.routers[subnet.router_id]
        if router.vendor.sra_behavior is behavior:
            return subnet
    raise AssertionError(f"no subnet with {behavior}")


class TestEngineSubnetBehaviour:
    def test_sra_reply_vendor(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        subnet = _subnet_with_behavior(tiny_world, SRABehavior.REPLY)
        result = probe_row(engine, subnet.sra_address, 0.0, probe_id=1)
        if result.lost:
            result = probe_row(engine, subnet.sra_address, 0.0, probe_id=2)
        reply = result.answer
        assert reply is not None
        assert reply.icmp_type == ICMPv6Type.ECHO_REPLY
        router = tiny_world.routers[subnet.router_id]
        assert reply.source in router.all_addresses()

    def test_sra_drop_vendor_silent(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        subnet = _subnet_with_behavior(tiny_world, SRABehavior.DROP)
        for probe_id in range(3):
            result = probe_row(engine, subnet.sra_address, 0.0, probe_id=probe_id)
            if not result.lost:
                assert result.answer is None

    def test_sra_error_vendor(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        subnet = _subnet_with_behavior(tiny_world, SRABehavior.ERROR)
        saw_error = False
        for probe_id in range(20):
            reply = probe_row(
                engine, subnet.sra_address, probe_id * 0.5, probe_id=probe_id
            ).answer
            if reply is not None:
                assert reply.icmp_type == ICMPv6Type.DESTINATION_UNREACHABLE
                saw_error = True
        assert saw_error

    def test_host_replies_from_itself(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        host = None
        for subnet in tiny_world.subnets.values():
            if subnet.hosts and not subnet.aliased and not subnet.flaky and (
                subnet.death_epoch is None
            ):
                host = subnet.hosts[0]
                break
        assert host is not None
        for probe_id in range(10):
            reply = probe_row(engine, host, 0.0, probe_id=probe_id).answer
            if reply is not None:
                assert reply.source == host
                assert reply.icmp_type == ICMPv6Type.ECHO_REPLY
                return
        raise AssertionError("host never replied in 10 tries")

    def test_aliased_subnet_replies_from_probed_address(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        aliased = next(
            (s for s in tiny_world.subnets.values() if s.aliased), None
        )
        if aliased is None:
            pytest.skip("tiny world has no aliased subnet")
        target = aliased.prefix.network + 0xDEAD
        for probe_id in range(5):
            reply = probe_row(engine, target, 0.0, probe_id=probe_id).answer
            if reply is not None:
                assert reply.source == target
                return
        raise AssertionError("aliased subnet never replied")

    def test_aliased_subnet_sra_self_reply(self, tiny_world):
        """Probing the SRA of an aliased subnet returns the SRA address
        itself as source — the alias filter's tell-tale."""
        engine = SimulationEngine(tiny_world, epoch=0)
        aliased = next(
            (s for s in tiny_world.subnets.values() if s.aliased), None
        )
        if aliased is None:
            pytest.skip("tiny world has no aliased subnet")
        for probe_id in range(5):
            reply = probe_row(
                engine, aliased.sra_address, 0.0, probe_id=probe_id
            ).answer
            if reply is not None:
                assert reply.source == aliased.sra_address
                return

    def test_unassigned_address_in_subnet_errors(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        subnet = _subnet_with_behavior(tiny_world, SRABehavior.REPLY)
        target = subnet.prefix.network + 0xDEADBEEF
        while target in subnet.hosts or target == subnet.router_interface:
            target += 1
        saw = False
        for probe_id in range(20):
            reply = probe_row(engine, target, probe_id * 0.5, probe_id=probe_id).answer
            if reply is not None:
                assert reply.icmp_type == ICMPv6Type.DESTINATION_UNREACHABLE
                assert reply.code == UnreachableCode.ADDRESS_UNREACHABLE
                saw = True
        assert saw


class TestEngineRouting:
    def test_unrouted_space_errors_from_upstream(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        target = 0x3FFF << 112  # far outside any allocation
        saw = False
        for probe_id in range(10):
            reply = probe_row(
                engine, target + probe_id, probe_id * 1.0, probe_id=probe_id
            ).answer
            if reply is not None:
                assert reply.code == UnreachableCode.NO_ROUTE
                upstream = tiny_world.routers[
                    tiny_world.vantage.upstream_router_id
                ]
                assert reply.router_id == upstream.router_id
                saw = True
        assert saw

    def test_hop_limit_expiry_in_transit(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        subnet = _subnet_with_behavior(tiny_world, SRABehavior.REPLY)
        hops = tiny_world.paths[subnet.asn]
        for ttl in range(1, len(hops) + 1):
            reply = probe_row(
                engine, subnet.sra_address, float(ttl), hop_limit=ttl, probe_id=100 + ttl
            ).answer
            if reply is not None:
                assert reply.icmp_type == ICMPv6Type.TIME_EXCEEDED
                assert reply.source == hops[ttl - 1].interface

    def test_hop_limit_zero_silent(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        subnet = next(iter(tiny_world.subnets.values()))
        result = probe_row(engine, subnet.sra_address, 0.0, hop_limit=0, probe_id=7)
        assert result.answer is None

    def test_packet_loss_deterministic(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        subnet = next(iter(tiny_world.subnets.values()))
        a = probe_row(engine, subnet.sra_address, 0.0, probe_id=55)
        b = probe_row(engine, subnet.sra_address, 0.0, probe_id=55)
        assert a.lost == b.lost

    def test_direct_ping_of_router_interface(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        answering = [
            s
            for s in tiny_world.subnets.values()
            if tiny_world.routers[s.router_id].answers_direct_ping
            and not s.aliased and not s.flaky and s.death_epoch is None
        ]
        assert answering
        subnet = answering[0]
        for probe_id in range(5):
            reply = probe_row(
                engine, subnet.router_interface, 0.0, probe_id=probe_id
            ).answer
            if reply is not None:
                assert reply.source == subnet.router_interface
                assert reply.icmp_type == ICMPv6Type.ECHO_REPLY
                return

    def test_non_answering_router_silent_on_direct_probe(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        silent = [
            s
            for s in tiny_world.subnets.values()
            if not tiny_world.routers[s.router_id].answers_direct_ping
            and not s.aliased and not s.flaky and s.death_epoch is None
        ]
        assert silent
        subnet = silent[0]
        for probe_id in range(5):
            reply = probe_row(
                engine, subnet.router_interface, 0.0, probe_id=probe_id
            ).answer
            assert reply is None or reply.icmp_type != ICMPv6Type.ECHO_REPLY


class TestEngineLoops:
    def _loop_target(self, world):
        region = world.loop_regions[0]
        return region, region.prefix.network | 0x1234

    def test_loop_produces_time_exceeded(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        region, target = self._loop_target(tiny_world)
        saw = False
        for probe_id in range(20):
            result = probe_row(engine, target, probe_id * 1.0, probe_id=probe_id)
            if result.lost:
                continue
            assert result.looped
            reply = result.answer
            if reply is not None:
                assert reply.icmp_type == ICMPv6Type.TIME_EXCEEDED
                customer = tiny_world.routers[region.customer_router_id]
                assert reply.router_id == customer.router_id
                saw = True
        assert saw

    def test_amplification_grows_with_hop_limit(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        buggy_region = next(
            (
                region
                for region in tiny_world.loop_regions
                if tiny_world.routers[region.customer_router_id].replication_factor
                > 1.12
            ),
            None,
        )
        if buggy_region is None:
            pytest.skip("no strongly-buggy loop router in tiny world")
        target = buggy_region.prefix.network | 0x42
        low = probe_row(engine, target, 0.0, hop_limit=16, probe_id=1)
        high = probe_row(engine, target, 1.0, hop_limit=128, probe_id=2)
        assert flood(high) > flood(low)

    def test_amplification_capped(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        region, target = self._loop_target(tiny_world)
        result = probe_row(engine, target, 0.0, hop_limit=255, probe_id=3)
        assert flood(result) <= AMPLIFICATION_CAP

    def test_null_route_fix_stops_loop(self):
        world = build_world(tiny_config(seed=21))
        engine = SimulationEngine(world, epoch=0)
        region = world.loop_regions[0]
        target = region.prefix.network | 0x99
        before = probe_row(engine, target, 0.0, probe_id=4)
        assert before.looped
        world.remove_loop(region)
        after = probe_row(engine, target, 1.0, probe_id=5)
        assert not after.looped


class TestEngineRateLimiting:
    def test_error_burst_suppressed(self, tiny_world):
        """Many errors from one router in a burst must be rate limited."""
        engine = SimulationEngine(tiny_world, epoch=0)
        # Find a router with many subnets and collect per-subnet unassigned
        # targets — all errors share the router's token bucket.
        router = max(
            tiny_world.routers.values(), key=lambda r: len(r.subnet_interfaces)
        )
        if len(router.subnet_interfaces) < 20:
            pytest.skip("no aggregation router in tiny world")
        targets = [net + 0xBAD for net in router.subnet_interfaces][:200]
        replies = 0
        for index, target in enumerate(targets):
            result = probe_row(engine, target, 0.0, probe_id=index)  # same instant
            replies += result.answer is not None
        assert replies < len(targets) * 0.8

    def test_echo_never_rate_limited(self, tiny_world):
        """SRA Echo replies are exempt from rate limiting (the paper's
        core mechanism) — probing many SRAs of one router all answer."""
        engine = SimulationEngine(tiny_world, epoch=0)
        candidates = [
            router
            for router in tiny_world.routers.values()
            if router.vendor.sra_behavior is SRABehavior.REPLY
            and len(router.subnet_interfaces) >= 10
        ]
        assert candidates
        router = candidates[0]
        healthy = [
            net
            for net in router.subnet_interfaces
            if not tiny_world.subnets[net].flaky
            and tiny_world.subnets[net].death_epoch is None
            and not tiny_world.subnets[net].aliased
        ]
        echoes = 0
        probed = 0
        for index, network in enumerate(healthy):
            result = probe_row(engine, network, 0.0, probe_id=index)
            if result.lost:
                continue
            probed += 1
            echoes += (
                result.answer is not None
                and result.answer.icmp_type == ICMPv6Type.ECHO_REPLY
            )
        assert probed > 0
        assert echoes == probed

    def test_new_epoch_resets_buckets(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        router = max(
            tiny_world.routers.values(), key=lambda r: len(r.subnet_interfaces)
        )
        targets = [net + 0xBAD for net in router.subnet_interfaces][:60]
        first = sum(
            probe_row(engine, t, 0.0, probe_id=i).answer is not None
            for i, t in enumerate(targets)
        )
        engine.new_epoch(1)
        second = sum(
            probe_row(engine, t, 0.0, probe_id=i).answer is not None
            for i, t in enumerate(targets)
        )
        # The second epoch starts with fresh buckets: roughly as many
        # replies as the first epoch rather than zero.
        assert second >= first * 0.3

    @pytest.mark.parametrize("epoch", [0, 3, 2**62])
    def test_window_gate_is_a_pure_function_of_the_window(self, tiny_world, epoch):
        """The limiter remembers one window's draw per router; that is a
        memo, not state: times that step back and forth across window
        boundaries (what a deferred replay or a clamped clock may feed
        it) get the pure per-window draw, then the bucket."""
        times = [0.2, 0.7, 1.1, 0.9, 1.3, 0.95, 2.5, 1.99, 2.01, 0.1, 3.4,
                 2.2, 3.6, 5.0, 4.999, 5.001, 0.0, 5.5]  # fmt: skip
        seed = tiny_world.seed
        outcomes = set()
        loaded = [
            router
            for router in tiny_world.routers.values()
            if router.background_error_load > 0.0
        ]
        assert loaded
        for router in loaded[:40]:
            rid, vendor = router.router_id, router.vendor
            load = min(
                0.95,
                router.background_error_load
                * (0.5 + stable_unit(seed, b"bgjit", rid, epoch)),
            )
            bucket = TokenBucket(
                vendor.error_rate * (1.0 - load),
                vendor.error_burst,
                initial=vendor.error_burst
                * (1.0 - stable_unit(seed, b"bgjit", rid, epoch, 1) * load),
            )
            engine = SimulationEngine(tiny_world, epoch=epoch)
            for time in times * 4:  # four passes: enough to drain a bucket
                suppressed = stable_bool(
                    seed, b"bgwin", load, rid, epoch, int(time / 1.0)
                )
                expected = not suppressed and bucket.allow(time)
                assert engine.error_allowed(rid, time) == expected, (rid, time)
                outcomes.add((suppressed, expected))
        # windows on and off, bucket full and empty
        assert outcomes == {(True, False), (False, True), (False, False)}

    def test_stats_counters(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        subnet = _subnet_with_behavior(tiny_world, SRABehavior.REPLY)
        probe_row(engine, subnet.sra_address, 0.0, probe_id=1)
        assert engine.stats.probes == 1

    def test_requires_vantage(self):
        from repro.topology.entities import World
        from repro.bgp.table import BGPTable
        from repro.irr.database import IRRDatabase

        world = World(seed=1, bgp=BGPTable(), irr=IRRDatabase())
        with pytest.raises(ValueError):
            SimulationEngine(world)
