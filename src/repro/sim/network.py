"""The cycle-based wormhole network simulator.

One :class:`NetworkSimulator` instance owns the complete runtime state of
a network: per-wire FIFO buffers with wormhole ownership, per-node source
queues, and the routing/selection machinery.  Each :meth:`step` executes
one cycle in three phases:

1. **ejection** — front flits that reached their destination are consumed
   (sinks always accept: deadlocks observed are network deadlocks);
2. **route computation / VC allocation** — head flits at buffer fronts
   (and source-queue heads) acquire a free output wire among the routing
   function's candidates, chosen by the selection policy;
3. **switch allocation / traversal** — every physical link moves at most
   one flit per cycle; winners are rotated round-robin among requesting
   wires, gated by downstream buffer space (credits).

A progress watchdog detects deadlock: if no flit moves for ``watchdog``
consecutive cycles while flits are in flight, the simulation is declared
deadlocked (the wait-for graph in :mod:`repro.sim.deadlock` produces the
cyclic-wait witness).

Runtime faults and recovery
---------------------------
A :class:`~repro.sim.faults.FaultSchedule` injects link failures, router
failures and transient flit corruption mid-simulation.  Permanent faults
degrade the topology (:class:`~repro.topology.irregular.FaultyMesh`),
rebuild the routing function through ``routing_factory`` and re-verify
the new channel dependency graph (:mod:`repro.cdg.verify`); packets
disturbed by the reconfiguration are aborted and retransmitted from their
source.  A :class:`~repro.sim.faults.RecoveryPolicy` additionally arms
*regressive deadlock recovery*: when the watchdog confirms a cyclic wait,
one victim packet is aborted (releasing its wires and buffer slots) and
retransmitted after exponential backoff, instead of halting the run.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Sequence

from repro.errors import (
    ConfigError,
    DeadlockDetected,
    FaultError,
    RoutingError,
    SimulationError,
    TopologyError,
    UnroutableError,
)
from repro.routing.base import RoutingFunction
from repro.routing.selection import SelectionContext, SelectionPolicy, first_candidate
from repro.sim.buffers import WireState
from repro.sim.faults import FaultEvent, FaultSchedule, RecoveryPolicy
from repro.sim.flit import Flit, Packet
from repro.sim.stats import SimStats
from repro.sim.traffic import TrafficGenerator
from repro.topology.base import Coord, Link, Topology
from repro.topology.classes import ClassRule, no_classes
from repro.topology.irregular import FaultyMesh
from repro.topology.wires import Wire, wires_for


class _InjectionState:
    """Progress of the packet currently streaming out of a source queue."""

    __slots__ = ("packet", "flits", "next_seq", "out_wire")

    def __init__(self, packet: Packet) -> None:
        self.packet = packet
        self.flits = list(packet.flits())
        self.next_seq = 0
        self.out_wire: Wire | None = None

    @property
    def done(self) -> bool:
        return self.next_seq >= len(self.flits)

    def current_flit(self) -> Flit:
        return self.flits[self.next_seq]


class NetworkSimulator:
    """A complete wormhole network bound to one routing function.

    Parameters
    ----------
    topology, routing, rule:
        The network, its routing algorithm and the spatial-class rule the
        algorithm's channel classes expect.
    buffer_depth:
        Flit capacity of each wire's input buffer.
    pipeline_delay:
        Extra per-hop cycles modelling the router pipeline depth (RC/VA/
        SA/ST stages beyond the single link-traversal cycle).  0 keeps the
        idealised one-cycle router.
    selection:
        Output selection policy among legal candidates.
    atomic_buffers:
        ``False`` (default) is the EbDa-relaxed discipline: several packets
        may queue in one buffer.  ``True`` enforces Duato's Assumption 3.
    switching:
        ``"wormhole"`` (default) streams flits as soon as one slot frees;
        ``"vct"`` (virtual cut-through) allocates an output only when the
        downstream buffer can hold the *whole* packet; ``"saf"``
        (store-and-forward) additionally holds the head until the entire
        packet has been stored at the current router.  Per the paper's
        Assumption 1, SAF and VCT are special cases of wormhole, so every
        EbDa design must be deadlock-free in all three modes.
    watchdog:
        Zero-progress cycles before declaring deadlock (or, with a
        recovery policy, before attempting regressive recovery).
    seed:
        Seed for the selection policy's RNG (traffic has its own seed).
    tracer:
        Optional :class:`~repro.sim.trace.Trace` recording every event.
    metrics:
        Optional :class:`~repro.sim.metrics.MetricsCollector` sampling
        per-channel utilization, buffer occupancy, VC stalls and
        throughput at a configurable interval, and freezing a
        :class:`~repro.sim.metrics.DeadlockForensics` snapshot when the
        watchdog declares deadlock.  None (default) keeps every telemetry
        hook a no-op.
    faults:
        Optional :class:`~repro.sim.faults.FaultSchedule` applied at the
        start of each matching cycle.
    recovery:
        Optional :class:`~repro.sim.faults.RecoveryPolicy`.  When set,
        watchdog-confirmed cyclic waits are broken by aborting a victim
        packet and retransmitting it from the source (bounded retries,
        exponential backoff); fault-disturbed packets are likewise
        retransmitted instead of being dropped.
    routing_factory:
        Rebuilds the routing function over a degraded topology after a
        permanent (link/router) fault.  Required when the schedule
        contains permanent faults.  The rebuilt function's CDG is
        re-verified; a cyclic verdict raises :class:`FaultError` unless
        ``require_acyclic_reroute`` is False.
    """

    def __init__(
        self,
        topology: Topology,
        routing: RoutingFunction,
        rule: ClassRule = no_classes,
        *,
        buffer_depth: int = 4,
        pipeline_delay: int = 0,
        selection: SelectionPolicy = first_candidate,
        atomic_buffers: bool = False,
        switching: str = "wormhole",
        watchdog: int = 500,
        seed: int = 0,
        tracer=None,
        metrics=None,
        faults: FaultSchedule | None = None,
        recovery: RecoveryPolicy | None = None,
        routing_factory: Callable[[Topology], RoutingFunction] | None = None,
        require_acyclic_reroute: bool = True,
    ) -> None:
        self.topology = topology
        self.routing = routing
        self.rule = rule
        self.selection = selection
        self.atomic_buffers = atomic_buffers
        if switching not in ("wormhole", "vct", "saf"):
            raise SimulationError(f"unknown switching mode {switching!r}")
        self.switching = switching
        if pipeline_delay < 0:
            raise SimulationError("pipeline_delay cannot be negative")
        self.pipeline_delay = pipeline_delay
        self.watchdog = watchdog
        self.tracer = tracer
        self.rng = random.Random(seed)
        self.buffer_depth = buffer_depth
        self.faults = faults
        self.recovery = recovery
        self.routing_factory = routing_factory
        self.require_acyclic_reroute = require_acyclic_reroute
        #: CDG verdict of the most recent fault-triggered re-verification.
        self.last_reroute_verdict = None
        self._fault_rng = random.Random(faults.seed if faults is not None else 0)
        #: pid -> abort count (bounds deadlock-recovery retries).
        self._retries: dict[int, int] = {}
        #: (ready_cycle, packet) retransmissions waiting out their backoff.
        self._pending_retransmits: list[tuple[int, Packet]] = []
        #: pid -> cycle of first abort (recovery-latency accounting).
        self._abort_cycle: dict[int, int] = {}

        wires = sorted(wires_for(topology, routing.channel_classes, rule))
        if not wires:
            raise ConfigError("routing channel classes instantiate no wires")
        self.wires: tuple[Wire, ...] = tuple(wires)
        self.state: dict[Wire, WireState] = {
            w: WireState(w, buffer_depth) for w in self.wires
        }
        self._wire_lookup: dict[tuple[Coord, Coord, object], Wire] = {
            (w.src, w.dst, w.channel): w for w in self.wires
        }
        self.source_queues: dict[Coord, deque[Packet]] = {
            node: deque() for node in topology.nodes
        }
        self._injecting: dict[Coord, _InjectionState | None] = {
            node: None for node in topology.nodes
        }
        #: (wire, pid) -> allocated output wire for that packet at wire.dst.
        self.route_assignment: dict[tuple[Wire, int], Wire] = {}

        self.cycle = 0
        self.stats = SimStats()
        self._stall_cycles = 0
        self.metrics = metrics
        if metrics is not None:
            metrics.bind(self)

    # -- state queries ----------------------------------------------------------

    def flits_in_network(self) -> int:
        """Flits currently buffered in wires."""
        return sum(len(ws.buffer) for ws in self.state.values())

    def packets_in_flight(self) -> int:
        """Packets injected but not fully delivered."""
        return self.stats.packets_injected - self.stats.packets_delivered

    def is_idle(self) -> bool:
        """No flits buffered, nothing queued, streaming or awaiting backoff."""
        return not self._network_active() and not self._pending_retransmits

    def _network_active(self) -> bool:
        """Flits buffered, queued at sources, or streaming from a source."""
        return (
            self.flits_in_network() > 0
            or any(self.source_queues.values())
            or any(s is not None for s in self._injecting.values())
        )

    def credits_of(self, candidate: tuple[Coord, object], cur: Coord) -> int:
        """Free downstream slots for a (next_node, channel) candidate."""
        wire = self._wire_lookup.get((cur, candidate[0], candidate[1]))
        if wire is None:
            return 0
        return self.state[wire].free_slots

    # -- traffic entry ------------------------------------------------------------

    def offer_packet(self, packet: Packet) -> None:
        """Queue a packet at its source node.

        Packets addressed to or from a fault-killed router are counted as
        injected-then-lost rather than rejected: traffic generators built
        over the original topology keep producing them after the failure,
        and flit conservation (``delivered + lost == injected``) must hold.
        """
        dead = getattr(self.topology, "failed_nodes", ())
        if packet.src in dead or packet.dst in dead:
            self.stats.packets_injected += 1
            self._mark_lost(packet)
            return
        self.topology.validate_node(packet.src)
        self.topology.validate_node(packet.dst)
        self.source_queues[packet.src].append(packet)
        self.stats.packets_injected += 1
        if self.tracer is not None:
            self.tracer.packet_offered(self.cycle, packet)

    # -- one cycle ------------------------------------------------------------------

    def step(self, new_packets: Sequence[Packet] = ()) -> int:
        """Advance one cycle; returns the number of flit movements."""
        self._release_retransmits()
        if self.faults is not None:
            for event in self.faults.at(self.cycle):
                self._apply_fault(event)
        for packet in new_packets:
            self.offer_packet(packet)

        moves = 0
        moves += self._eject_phase()
        self._allocation_phase()
        moves += self._traversal_phase()

        self.cycle += 1
        self.stats.cycles = self.cycle
        self.stats.flit_moves += moves

        if moves == 0 and self._network_active():
            self._stall_cycles += 1
            if self._stall_cycles >= self.watchdog and not self.stats.deadlocked:
                if self.recovery is not None and self._recover_deadlock():
                    self._stall_cycles = 0
                else:
                    self.stats.deadlocked = True
                    self.stats.deadlock_declared_at = self.cycle
                    if self.tracer is not None:
                        self.tracer.deadlock_declared(self.cycle)
                    if self.metrics is not None:
                        self.metrics.on_deadlock(self)
        else:
            self._stall_cycles = 0
        if self.metrics is not None:
            self.metrics.on_cycle(self, moves)
        return moves

    # -- phase 1: ejection ---------------------------------------------------------

    def _eject_phase(self) -> int:
        moves = 0
        for wire in self.wires:
            ws = self.state[wire]
            flit = ws.front()
            if flit is None or flit.packet.dst != wire.dst:
                continue
            if not ws.front_ready(self.cycle, self.pipeline_delay):
                continue
            ws.pop()
            moves += 1
            if self.tracer is not None:
                self.tracer.ejected(self.cycle, flit, wire.dst)
            if flit.is_tail:
                packet = flit.packet
                packet.delivered = self.cycle
                assert packet.entered is not None
                self.stats.record_delivery(
                    packet.delivered - packet.created,
                    packet.delivered - packet.entered,
                    packet.length,
                )
                aborted_at = self._abort_cycle.pop(packet.pid, None)
                if aborted_at is not None:
                    self.stats.recovery_latencies.append(self.cycle - aborted_at)
                self._retries.pop(packet.pid, None)
                if self.atomic_buffers:
                    ws.owner = None
        return moves

    # -- phase 2: routing and VC allocation ------------------------------------------

    def _allocation_phase(self) -> None:
        # Heads buffered in the network.
        for wire in self.wires:
            ws = self.state[wire]
            flit = ws.front()
            if flit is None or not flit.is_head:
                continue
            router = wire.dst
            if flit.packet.dst == router:
                continue  # ejected next cycle
            key = (wire, flit.pid)
            if key in self.route_assignment:
                continue
            if self.switching == "saf" and not self._fully_stored(ws, flit.packet):
                continue  # store-and-forward: wait for the whole packet
            try:
                self._try_allocate(router, flit.packet, wire.channel, key)
            except RoutingError as exc:
                self._handle_dead_end(flit.packet, wire.channel, exc)

        # Source-queue heads.
        for node in self.topology.nodes:
            inj = self._injecting[node]
            if inj is None:
                queue = self.source_queues[node]
                if not queue:
                    continue
                inj = _InjectionState(queue.popleft())
                self._injecting[node] = inj
            if inj.out_wire is None:
                try:
                    self._try_allocate(node, inj.packet, None, inj)
                except RoutingError as exc:
                    self._handle_dead_end(inj.packet, None, exc)

    @staticmethod
    def _fully_stored(ws: WireState, packet) -> bool:
        """Are all of the packet's flits buffered in this wire (SAF gate)?"""
        return sum(1 for f in ws.buffer if f.pid == packet.pid) == packet.length

    def _try_allocate(self, router, packet, in_channel, slot) -> None:
        if self.switching in ("vct", "saf"):
            capacity = next(iter(self.state.values())).capacity
            if packet.length > capacity:
                raise SimulationError(
                    f"{self.switching} switching needs buffers that hold a"
                    f" whole packet: length {packet.length} > depth {capacity}"
                )
        target = self.routing.target_of(packet, router)
        candidates = self.routing.candidates(router, target, in_channel)
        if not candidates:
            raise RoutingError(
                f"{self.routing.name}: dead-end at {router} for {packet}"
                f" arriving on {in_channel}"
            )
        available = []
        for nxt, ch in candidates:
            wire = self._wire_lookup.get((router, nxt, ch))
            if wire is None or self.state[wire].owner is not None:
                continue
            if (
                self.switching in ("vct", "saf")
                and self.state[wire].free_slots < packet.length
            ):
                continue  # cut-through: reserve space for the whole packet
            available.append((nxt, ch))
        if not available:
            if self.metrics is not None:
                self.metrics.note_vc_stall(router)
            return  # blocked this cycle; retry next cycle
        ctx = SelectionContext(
            cur=router,
            dst=packet.dst,
            rng=self.rng,
            credits=lambda cand, _r=router: self.credits_of(cand, _r),
            cycle=self.cycle,
        )
        nxt, ch = self.selection(available, ctx)
        out_wire = self._wire_lookup[(router, nxt, ch)]
        self.state[out_wire].owner = packet.pid
        if self.tracer is not None:
            self.tracer.allocated(self.cycle, router, packet.pid, out_wire)
        if isinstance(slot, _InjectionState):
            slot.out_wire = out_wire
        else:
            self.route_assignment[slot] = out_wire

    # -- phase 3: switch allocation and traversal --------------------------------------

    def _traversal_phase(self) -> int:
        # Snapshot buffer space: at most one arrival per wire per cycle
        # (one flit per physical link), so a single free slot suffices.
        space = {wire: self.state[wire].free_slots for wire in self.wires}

        # Gather requests per physical output link.
        by_link: dict[Link, list[tuple[int, object, Wire, Flit]]] = {}
        order = 0
        for wire in self.wires:
            ws = self.state[wire]
            flit = ws.front()
            if flit is None or flit.packet.dst == wire.dst:
                continue
            if not ws.front_ready(self.cycle, self.pipeline_delay):
                continue
            out_wire = self.route_assignment.get((wire, flit.pid))
            if out_wire is None:
                continue
            by_link.setdefault(out_wire.link, []).append((order, wire, out_wire, flit))
            order += 1
        for node in self.topology.nodes:
            inj = self._injecting[node]
            if inj is None or inj.out_wire is None or inj.done:
                continue
            by_link.setdefault(inj.out_wire.link, []).append(
                (order, node, inj.out_wire, inj.current_flit())
            )
            order += 1

        moves = 0
        for link in sorted(by_link):
            requests = [r for r in by_link[link] if space[r[2]] >= 1]
            if not requests:
                continue
            winner = requests[self.cycle % len(requests)]
            _order, source, out_wire, flit = winner
            self._move_flit(source, out_wire, flit)
            space[out_wire] -= 1
            moves += 1
        return moves

    def _move_flit(self, source, out_wire: Wire, flit: Flit) -> None:
        out_state = self.state[out_wire]
        if isinstance(source, Wire):
            ws = self.state[source]
            popped = ws.pop()
            assert popped is flit, "FIFO front changed mid-cycle"
            if flit.is_tail:
                del self.route_assignment[(source, flit.pid)]
                if self.atomic_buffers:
                    ws.owner = None
                # Path-based multicast: a waypoint absorbs its copy once
                # the whole worm (tail included) has passed through it.
                router = source.dst
                packet = flit.packet
                if router in packet.waypoints and router not in packet.copies:
                    packet.copies.add(router)
                    self.stats.multicast_copies += 1
                    if self.tracer is not None:
                        self.tracer.copy_absorbed(self.cycle, packet.pid, router)
        else:  # injection from a source node
            inj = self._injecting[source]
            assert inj is not None and inj.current_flit() is flit
            inj.next_seq += 1
            if flit.is_head:
                inj.packet.entered = self.cycle
            if inj.done:
                self._injecting[source] = None
        out_state.push(flit, self.cycle)
        if self.tracer is not None:
            self.tracer.flit_moved(self.cycle, flit, source, out_wire)
        if flit.is_tail and not self.atomic_buffers:
            # EbDa-relaxed: the wire is re-allocatable as soon as the tail
            # is in the buffer; another packet may queue behind it.
            out_state.owner = None

    # -- fault injection and recovery ---------------------------------------------------

    def _handle_dead_end(self, packet: Packet, in_channel, exc: RoutingError) -> None:
        """A packet with no legal output: fatal normally, recoverable under faults.

        Freshly injected packets (``in_channel is None``) with no route are
        structurally unroutable — retrying from the source cannot help.
        Mid-flight dead-ends (routed into a fault pocket before the
        reconfiguration) abort and retransmit under the recovery policy.
        """
        if self.recovery is None and self.faults is None:
            raise exc
        attempt = self._retries.get(packet.pid, 0)
        if (
            in_channel is None
            or self.recovery is None
            or attempt >= self.recovery.max_retries
        ):
            raise UnroutableError(
                f"{packet} cannot reach its destination on the degraded network: {exc}"
            ) from exc
        self._abort_packet(packet, reason="routing dead-end")
        self._retries[packet.pid] = attempt + 1
        self._pending_retransmits.append(
            (self.cycle + self.recovery.backoff_delay(attempt), packet)
        )

    def _release_retransmits(self) -> None:
        """Re-queue aborted packets whose backoff expired."""
        if not self._pending_retransmits:
            return
        due = [e for e in self._pending_retransmits if e[0] <= self.cycle]
        if not due:
            return
        self._pending_retransmits = [
            e for e in self._pending_retransmits if e[0] > self.cycle
        ]
        for _ready, packet in sorted(due, key=lambda e: (e[0], e[1].pid)):
            if (
                packet.src not in self.topology.node_set
                or packet.dst not in self.topology.node_set
            ):
                self._mark_lost(packet)
                continue
            packet.entered = None
            packet.delivered = None
            packet.copies = set()
            self.source_queues[packet.src].append(packet)
            self.stats.retransmissions += 1
            if self.tracer is not None:
                self.tracer.packet_retransmitted(self.cycle, packet.pid, packet.src)

    def _recover_deadlock(self) -> bool:
        """Break a confirmed cyclic wait by aborting one victim packet.

        Returns False (caller declares deadlock) when the stall has no
        cyclic-wait witness or every participant exhausted its retries.
        """
        from repro.sim.deadlock import waitfor_cycle

        pids = waitfor_cycle(self)
        if not pids:
            return False
        # Victim: the youngest participant with retry budget left — it has
        # the least progress sunk and backoff desynchronises repeat offenders.
        for victim_pid in sorted(pids, reverse=True):
            if self._retries.get(victim_pid, 0) < self.recovery.max_retries:
                break
        else:
            return False
        packet = self._find_packet(victim_pid)
        if packet is None:  # pragma: no cover - witness pids are in flight
            return False
        if self.tracer is not None:
            self.tracer.deadlock_recovered(self.cycle, victim_pid, pids)
        self._abort_packet(packet, reason="deadlock victim")
        attempt = self._retries.get(victim_pid, 0)
        self._retries[victim_pid] = attempt + 1
        self._pending_retransmits.append(
            (self.cycle + self.recovery.backoff_delay(attempt), packet)
        )
        self.stats.recovered_deadlocks += 1
        return True

    def _find_packet(self, pid: int) -> Packet | None:
        """Locate an undelivered packet anywhere in the simulator."""
        for ws in self.state.values():
            for flit in ws.buffer:
                if flit.pid == pid:
                    return flit.packet
        for inj in self._injecting.values():
            if inj is not None and inj.packet.pid == pid:
                return inj.packet
        for queue in self.source_queues.values():
            for packet in queue:
                if packet.pid == pid:
                    return packet
        return None

    def _abort_packet(self, packet: Packet, reason: str) -> None:
        """Flush a packet's flits and release every resource it holds."""
        pid = packet.pid
        for ws in self.state.values():
            if any(f.pid == pid for f in ws.buffer):
                kept = [(f, a) for f, a in zip(ws.buffer, ws.arrivals) if f.pid != pid]
                ws.buffer = deque(f for f, _a in kept)
                ws.arrivals = deque(a for _f, a in kept)
            if ws.owner == pid:
                ws.owner = None
        for key in [k for k in self.route_assignment if k[1] == pid]:
            del self.route_assignment[key]
        for node, inj in self._injecting.items():
            if inj is not None and inj.packet.pid == pid:
                self._injecting[node] = None
        for queue in self.source_queues.values():
            for queued in list(queue):
                if queued.pid == pid:
                    queue.remove(queued)
        self.stats.packets_aborted += 1
        self._abort_cycle.setdefault(pid, self.cycle)
        if self.tracer is not None:
            self.tracer.packet_aborted(self.cycle, pid, reason)

    def _mark_lost(self, packet: Packet) -> None:
        """Give up on a packet permanently (dead endpoint / retries spent)."""
        self.stats.packets_lost += 1
        self._abort_cycle.pop(packet.pid, None)
        if self.tracer is not None:
            self.tracer.packet_aborted(self.cycle, packet.pid, "lost")

    def _recover_or_lose(self, packet: Packet) -> None:
        """Retransmit an aborted packet if policy and endpoints allow."""
        if (
            self.recovery is None
            or packet.src not in self.topology.node_set
            or packet.dst not in self.topology.node_set
        ):
            self._mark_lost(packet)
            return
        attempt = self._retries.get(packet.pid, 0)
        if attempt >= self.recovery.max_retries:
            self._mark_lost(packet)
            return
        self._retries[packet.pid] = attempt + 1
        self._pending_retransmits.append(
            (self.cycle + self.recovery.backoff_delay(attempt), packet)
        )

    def _apply_fault(self, event: FaultEvent) -> None:
        if event.kind == "link":
            u, v = event.link
            if not (self.topology.has_link(u, v) or self.topology.has_link(v, u)):
                # Idempotent only for links that genuinely went away —
                # failed earlier, or attached to a dead router.  A link the
                # topology never had is a schedule typo, not a fault.
                key = tuple(sorted((u, v)))
                failed = {
                    tuple(sorted(l))
                    for l in getattr(self.topology, "failed_links", ())
                }
                dead = getattr(self.topology, "failed_nodes", ())
                if key in failed or u in dead or v in dead:
                    return  # already failed
                raise FaultError(
                    f"link fault names an unknown link {u}-{v}"
                )
            self.stats.faults_injected += 1
            if self.tracer is not None:
                self.tracer.fault_injected(self.cycle, f"link {u}-{v} failed")
            try:
                if isinstance(self.topology, FaultyMesh):
                    degraded = self.topology.without_link(u, v)
                else:
                    degraded = FaultyMesh(self.topology, failed=[(u, v)])
            except TopologyError as exc:
                raise UnroutableError(
                    f"link failure {u}-{v} disconnects the network"
                ) from exc
            self._rebuild_network(degraded, f"link {u}-{v} failed")
        elif event.kind == "router":
            node = event.node
            if node not in self.topology.node_set:
                if node in getattr(self.topology, "failed_nodes", ()):
                    return  # already failed
                raise FaultError(f"router fault names an unknown node {node}")
            self.stats.faults_injected += 1
            if self.tracer is not None:
                self.tracer.fault_injected(self.cycle, f"router {node} failed")
            try:
                if isinstance(self.topology, FaultyMesh):
                    degraded = self.topology.without_router(node)
                else:
                    degraded = FaultyMesh(self.topology, failed=[], failed_nodes=[node])
            except TopologyError as exc:
                raise UnroutableError(
                    f"router failure at {node} disconnects the network"
                ) from exc
            self._rebuild_network(degraded, f"router {node} failed")
        else:  # "drop": transient corruption of one in-flight packet
            pid = event.pid
            if pid is None:
                pool = sorted(
                    {flit.pid for ws in self.state.values() for flit in ws.buffer}
                )
                if not pool:
                    return  # nothing in flight to corrupt
                pid = self._fault_rng.choice(pool)
            packet = self._find_packet(pid)
            if packet is None:
                return
            self.stats.faults_injected += 1
            if self.tracer is not None:
                self.tracer.fault_injected(self.cycle, f"flit of #{pid} corrupted")
            self._abort_packet(packet, reason="flit corrupted")
            self._recover_or_lose(packet)

    def _rebuild_network(self, degraded: Topology, why: str) -> None:
        """Swap in a degraded topology: reroute, re-verify, abort casualties.

        Every packet buffered on (or owning, or routed through, or
        streaming into) a wire that no longer exists is aborted and — when
        its endpoints survive and a recovery policy is armed —
        retransmitted from its source over the rebuilt routing function.
        """
        if self.routing_factory is None:
            raise FaultError(
                f"{why}: a routing_factory is required to reroute around"
                " permanent faults"
            )
        new_routing = self.routing_factory(degraded)
        from repro.cdg.verify import verify_routing

        verdict = verify_routing(new_routing, degraded, self.rule)
        self.last_reroute_verdict = verdict
        if self.require_acyclic_reroute and not verdict.acyclic:
            raise FaultError(
                f"{why}: rerouted design is no longer deadlock-free ({verdict})"
            )
        new_wires = sorted(wires_for(degraded, new_routing.channel_classes, self.rule))
        if not new_wires:
            raise FaultError(f"{why}: degraded routing instantiates no wires")
        new_wire_set = set(new_wires)
        dead_nodes = set(self.topology.nodes) - set(degraded.nodes)

        # Everything currently in flight, and the subset the swap disturbs.
        in_flight: dict[int, Packet] = {}
        for ws in self.state.values():
            for flit in ws.buffer:
                in_flight[flit.pid] = flit.packet
        for inj in self._injecting.values():
            if inj is not None:
                in_flight[inj.packet.pid] = inj.packet
        victims: set[int] = set()
        for wire in self.wires:
            if wire in new_wire_set:
                continue
            ws = self.state[wire]
            victims.update(ws.packets_present())
            if ws.owner is not None:
                victims.add(ws.owner)
        for (wire, pid), out_wire in self.route_assignment.items():
            if wire not in new_wire_set or out_wire not in new_wire_set:
                victims.add(pid)
        for inj in self._injecting.values():
            if inj is not None and inj.out_wire is not None:
                if inj.out_wire not in new_wire_set:
                    victims.add(inj.packet.pid)
            if inj is not None and inj.packet.src in dead_nodes:
                victims.add(inj.packet.pid)

        # Swap in the degraded network.
        self.topology = degraded
        self.routing = new_routing
        self.wires = tuple(new_wires)
        old_state = self.state
        self.state = {}
        for wire in self.wires:
            prior = old_state.get(wire)
            self.state[wire] = (
                prior if prior is not None else WireState(wire, self.buffer_depth)
            )
        self._wire_lookup = {(w.src, w.dst, w.channel): w for w in self.wires}

        # Source-side state: keep surviving queues, drop dead endpoints.
        lost_queued: list[Packet] = []
        new_queues: dict[Coord, deque[Packet]] = {}
        new_injecting: dict[Coord, _InjectionState | None] = {}
        for node in degraded.nodes:
            kept: deque[Packet] = deque()
            for queued in self.source_queues.get(node, ()):
                if queued.dst in dead_nodes:
                    lost_queued.append(queued)
                else:
                    kept.append(queued)
            new_queues[node] = kept
            new_injecting[node] = self._injecting.get(node)
        for node in dead_nodes:
            lost_queued.extend(self.source_queues.get(node, ()))
        self.source_queues = new_queues
        self._injecting = new_injecting

        # Abort every disturbed packet; retransmit the recoverable ones.
        for pid in sorted(victims):
            packet = in_flight.get(pid)
            if packet is None:
                continue
            self._abort_packet(packet, reason=why)
            if packet.dst in dead_nodes or packet.src in dead_nodes:
                self._mark_lost(packet)
            else:
                self._recover_or_lose(packet)
        # In-flight survivors bound for a dead router cannot be delivered.
        for pid, packet in sorted(in_flight.items()):
            if pid in victims:
                continue
            if packet.dst in dead_nodes:
                self._abort_packet(packet, reason=why)
                self._mark_lost(packet)
        for packet in lost_queued:
            self._mark_lost(packet)
        # Defensive: no assignment may reference a removed wire.
        self.route_assignment = {
            key: out
            for key, out in self.route_assignment.items()
            if key[0] in new_wire_set and out in new_wire_set
        }
        if self.tracer is not None:
            self.tracer.rerouted(
                self.cycle,
                f"{why}; {new_routing.name} re-verified"
                f" ({'acyclic' if verdict.acyclic else 'CYCLIC'}),"
                f" {len(victims)} packet(s) disturbed",
            )

    # -- driving loops ----------------------------------------------------------------

    def run(
        self,
        cycles: int,
        traffic: TrafficGenerator | None = None,
        *,
        drain: bool = False,
        drain_limit: int = 100_000,
        raise_on_deadlock: bool = False,
    ) -> SimStats:
        """Run ``cycles`` cycles (plus optional drain) and return the stats.

        ``traffic`` generates packets each cycle; with ``drain=True`` the
        simulation continues without new traffic until the network empties
        (or ``drain_limit`` extra cycles pass).
        """
        for _ in range(cycles):
            new = traffic.packets_for_cycle(self.cycle) if traffic else ()
            self.step(new)
            if self.stats.deadlocked:
                break
        if drain and not self.stats.deadlocked:
            extra = 0
            while not self.is_idle() and extra < drain_limit:
                self.step()
                extra += 1
                if self.stats.deadlocked:
                    break
        if self.stats.deadlocked and raise_on_deadlock:
            from repro.sim.deadlock import cycle_witness

            witness = cycle_witness(self)
            if witness is None:
                raise DeadlockDetected(())
            pids, held = witness
            raise DeadlockDetected(pids, cycle_channels=held)
        return self.stats
