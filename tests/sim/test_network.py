"""Unit and behavioural tests for the wormhole network simulator."""

import pytest

from repro.errors import ConfigError
from repro.routing import MinimalFullyAdaptive, UnrestrictedAdaptive, xy_routing
from repro.sim import (
    NetworkSimulator,
    Packet,
    ScriptedTraffic,
    TrafficConfig,
    TrafficGenerator,
)
from repro.topology import Mesh


def _sim(mesh, routing=None, **kwargs):
    return NetworkSimulator(mesh, routing or xy_routing(mesh), **kwargs)


class TestSinglePacket:
    def test_delivery_and_latency(self, mesh4):
        sim = _sim(mesh4)
        p = Packet(pid=0, src=(0, 0), dst=(2, 1), length=4, created=0)
        sim.offer_packet(p)
        for _ in range(100):
            sim.step()
            if p.delivered is not None:
                break
        assert p.delivered is not None
        assert p.entered is not None
        # 3 hops + pipeline: latency at least hops + length - 1
        assert p.network_latency >= 3 + 3
        assert sim.stats.packets_delivered == 1
        assert sim.stats.flits_delivered == 4

    def test_single_flit_packet(self, mesh4):
        sim = _sim(mesh4)
        p = Packet(pid=0, src=(0, 0), dst=(0, 1), length=1, created=0)
        sim.offer_packet(p)
        for _ in range(20):
            sim.step()
        assert p.delivered is not None

    def test_xy_route_taken(self, mesh4):
        sim = _sim(mesh4)
        p = Packet(pid=0, src=(0, 0), dst=(2, 2), length=2, created=0)
        sim.offer_packet(p)
        visited = set()
        for _ in range(60):
            sim.step()
            for wire, ws in sim.state.items():
                if ws.buffer:
                    visited.add(wire.link.dst)
        assert (2, 0) in visited       # X resolved first
        assert (0, 1) not in visited   # never north before east

    def test_idle_after_drain(self, mesh4):
        sim = _sim(mesh4)
        sim.offer_packet(Packet(pid=0, src=(0, 0), dst=(3, 3), length=3, created=0))
        for _ in range(100):
            sim.step()
        assert sim.is_idle()
        assert sim.flits_in_network() == 0


class TestConservation:
    def test_flits_neither_lost_nor_duplicated(self, mesh4):
        sim = _sim(mesh4, MinimalFullyAdaptive(mesh4))
        traffic = TrafficGenerator(mesh4, TrafficConfig(injection_rate=0.15, seed=9))
        stats = sim.run(400, traffic, drain=True)
        assert stats.packets_delivered == stats.packets_injected
        assert stats.flits_delivered == stats.packets_injected * 4
        assert sim.is_idle()

    def test_per_packet_flit_sequencing(self, mesh4):
        # All flits of a packet arrive in order: latency of tail >= head.
        sim = _sim(mesh4)
        packets = [
            Packet(pid=i, src=(0, 0), dst=(3, 3), length=5, created=0)
            for i in range(3)
        ]
        for p in packets:
            sim.offer_packet(p)
        for _ in range(200):
            sim.step()
        for p in packets:
            assert p.delivered is not None


class TestBackpressure:
    def test_wormhole_blocking_chain(self, mesh4):
        # Tiny buffers: a long packet spans several routers; the simulator
        # must respect per-buffer capacity everywhere.
        sim = _sim(mesh4, buffer_depth=1)
        p = Packet(pid=0, src=(0, 0), dst=(3, 0), length=8, created=0)
        sim.offer_packet(p)
        for _ in range(10):
            sim.step()
            for ws in sim.state.values():
                assert len(ws.buffer) <= 1
        for _ in range(100):
            sim.step()
        assert p.delivered is not None


class TestOwnership:
    def test_relaxed_mode_allows_multiple_packets_per_buffer(self, mesh4):
        # Under contention, a trailing packet's head queues behind the
        # leading packet's tail in the same buffer — the EbDa assumption
        # Duato's theory forbids.
        sim = _sim(
            mesh4, MinimalFullyAdaptive(mesh4), buffer_depth=4, atomic_buffers=False
        )
        traffic = TrafficGenerator(
            mesh4, TrafficConfig(injection_rate=0.3, packet_length=6, seed=4)
        )
        saw_shared = False
        for cycle in range(400):
            sim.step(traffic.packets_for_cycle(cycle))
            if any(len(ws.packets_present()) > 1 for ws in sim.state.values()):
                saw_shared = True
                break
        assert saw_shared

    def test_atomic_mode_one_packet_per_buffer(self, mesh4):
        sim = _sim(mesh4, buffer_depth=8, atomic_buffers=True)
        for i in range(4):
            sim.offer_packet(Packet(pid=i, src=(0, 0), dst=(3, 0), length=2, created=0))
        for _ in range(120):
            sim.step()
            for ws in sim.state.values():
                assert len(ws.packets_present()) <= 1
        assert sim.stats.packets_delivered == 4


class TestDeadlockDetection:
    def test_unrestricted_deadlocks_and_watchdog_fires(self, mesh4):
        sim = NetworkSimulator(
            mesh4,
            UnrestrictedAdaptive(mesh4),
            buffer_depth=2,
            watchdog=200,
        )
        traffic = TrafficGenerator(
            mesh4,
            TrafficConfig(injection_rate=0.35, packet_length=8, seed=3),
        )
        stats = sim.run(2500, traffic)
        assert stats.deadlocked
        assert stats.deadlock_declared_at is not None

    def test_safe_routing_never_trips_watchdog(self, mesh4):
        sim = _sim(mesh4, MinimalFullyAdaptive(mesh4), buffer_depth=2, watchdog=200)
        traffic = TrafficGenerator(
            mesh4,
            TrafficConfig(injection_rate=0.35, packet_length=8, seed=3),
        )
        stats = sim.run(1500, traffic, drain=True)
        assert not stats.deadlocked


class TestValidation:
    def test_unknown_source_rejected(self, mesh4):
        sim = _sim(mesh4)
        with pytest.raises(Exception):
            sim.offer_packet(Packet(pid=0, src=(9, 9), dst=(0, 0), length=1, created=0))

    def test_no_wires_rejected(self, mesh4):
        class NoChannels(UnrestrictedAdaptive):
            @property
            def channel_classes(self):
                return ()

        with pytest.raises(ConfigError):
            NetworkSimulator(mesh4, NoChannels(mesh4))
