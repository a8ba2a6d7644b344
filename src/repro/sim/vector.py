"""Vectorized struct-of-arrays wormhole simulator (``backend="vector"``).

:class:`VectorSimulator` re-implements the exact cycle semantics of
:class:`~repro.sim.network.NetworkSimulator` over numpy state so that the
per-cycle cost is a bounded number of array operations — instead of
Python object/dict traffic over every wire and node each cycle.  It is
**cycle-exact**: given the same topology, routing, rule and traffic it
produces bit-identical :class:`~repro.sim.stats.SimStats` (including
``deadlock_declared_at`` and the per-packet latency list, in the same
order).  The differential fuzz oracle (:mod:`repro.fuzz.oracle`) holds it
to that contract on every trial.

Layout
------
The kernel indexes *sites* ``0..W+N-1``: wires ``0..W-1`` in sorted
(= reference iteration) order, then one injection row per node in
topology order.  A site's "front" is the flit currently able to act —
the head of the wire FIFO, or the next flit of the packet streaming out
of a source queue — mirrored in flat arrays so every phase mask is a
handful of vector ops over all sites at once:

* ``_buf_pid/_buf_seq/_buf_arr[W, B]`` + ``_head/_blen[W]`` — per-wire
  ring-buffer FIFOs (pid, flit sequence number, arrival cycle);
* ``_fpid/_fseq/_farr/_fdst[W+N]`` — the front mirror (valid where the
  wire is non-empty / the node is streaming), updated incrementally on
  every pop and push; injection rows always pass the pipeline-ready test
  (their ``_farr`` is a large negative constant);
* ``_route_pid/_route_out[W+N]`` — the route assignment of the front
  packet (wormhole FIFOs hold contiguous packet segments, so the
  reference's per-(wire, pid) assignment dict collapses to two arrays);
  an injection row is "streaming" exactly when its assignment matches;
* ``_owner`` — wormhole ownership per output wire;
* ``_pref_out`` — the sole routing candidate of each site's current
  front where known, which lets the allocation phase batch-resolve
  single-candidate cycles without a per-site Python loop.

Routing memoization is two-level: per input site, candidates are cached
by destination node, and — where the routing function publishes a
provable :meth:`~repro.routing.base.RoutingFunction.route_signature` —
the expensive ``candidates()`` call itself is shared across all
destinations with the same direction class.  Without the signature level
uniform random traffic never stops discovering new (site, destination)
pairs.

Phase semantics (mirrored decision for decision)
------------------------------------------------
1. **ejection** — one vectorized mask; ``np.nonzero`` yields wires
   ascending, the order the reference appends delivery latencies in.
2. **allocation** — a mask finds heads needing a route; a Python loop
   walks them in reference order (wires ascending, then source nodes in
   topology order), because allocation is order-dependent: an earlier
   site claiming an output changes what later sites see.  Futile retries
   are suppressed: a blocked head's outcome can only change when one of
   its candidate outputs is released (releases happen only in the eject/
   traversal phases, claims only earlier in the same loop), so blocked
   sites sleep until a release of one of their candidates wakes them.
   Failed attempts are side-effect-free in the reference (the ``first``
   selection consumes no RNG), so skipping them is exact.
3. **traversal** — fully batched.  Per-link round-robin arbitration
   looks sequential in the reference, but the link groups are
   independent (an output wire belongs to exactly one link, each link
   admits one winner), so every link's winner — ``requests[cycle %
   len(requests)]`` against the phase-start space snapshot — is computed
   at once with a stable sort + group boundaries, and the moves execute
   as array scatters.  Sources and outputs are each unique within a
   cycle and a same-wire pop+push commutes to the same ring state, so
   batch order cannot diverge from the reference's sequential one.

Scope (v1)
----------
Wormhole switching with the ``first`` (deterministic, RNG-free)
selection policy, both buffer disciplines, pipeline delay, Bernoulli or
traced traffic.  Telemetry (metrics/tracer), fault injection, recovery
and multicast waypoints are not implemented — requesting them raises
:class:`~repro.errors.ConfigError` up front (see
:func:`repro.sim.backend.backends` for the capability table).
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Sequence

import numpy as np

from repro.errors import ConfigError, RoutingError, SimulationError
from repro.routing.base import RoutingFunction
from repro.routing.selection import SelectionPolicy, first_candidate
from repro.sim.flit import Packet
from repro.sim.stats import SimStats
from repro.topology.base import Coord, Topology
from repro.topology.classes import ClassRule, no_classes
from repro.topology.wires import Wire, wires_for

__all__ = ["VectorSimulator"]

#: Sentinel arrival cycle for injection rows: always pipeline-ready.
_ALWAYS_READY = -(1 << 40)

#: Routing memos shared across simulator instances built on the same
#: (routing, rule, topology) triple, so a sweep pays the first-touch
#: routing queries only on its first point.  Keyed weakly by the routing
#: object; entries hold strong references to the rule and topology they
#: were built against (identity-checked on reuse — an ``id()`` alone
#: could be recycled after garbage collection).
_SHARED_MEMOS: "weakref.WeakKeyDictionary[RoutingFunction, dict]" = (
    weakref.WeakKeyDictionary()
)


def _unsupported(feature: str) -> ConfigError:
    return ConfigError(
        f"backend 'vector' does not support {feature};"
        " use RunConfig(backend='reference') for this configuration"
        " (see repro.sim.backends() for the capability table)"
    )


class VectorSimulator:
    """Struct-of-arrays twin of :class:`~repro.sim.network.NetworkSimulator`.

    Accepts the same constructor signature (unsupported features raise
    :class:`~repro.errors.ConfigError`) and exposes the same driving
    surface: :meth:`offer_packet`, :meth:`step`, :meth:`run`,
    :meth:`is_idle`, ``.cycle`` and ``.stats``.
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
        faults=None,
        recovery=None,
        routing_factory=None,
        require_acyclic_reroute: bool = True,
    ) -> None:
        if metrics is not None:
            raise _unsupported("metrics= telemetry")
        if tracer is not None:
            raise _unsupported("event tracing")
        if faults is not None:
            raise _unsupported("fault injection (faults=)")
        if recovery is not None:
            raise _unsupported("deadlock/fault recovery (recovery=)")
        if switching != "wormhole":
            raise _unsupported(f"switching={switching!r} (wormhole only)")
        if selection is not first_candidate:
            raise _unsupported(
                "selection policies other than 'first' (they consume RNG"
                " in a per-flit order the batched kernel cannot reproduce)"
            )
        if pipeline_delay < 0:
            raise SimulationError("pipeline_delay cannot be negative")
        if buffer_depth < 1:
            raise SimulationError("buffers need capacity >= 1")

        self.topology = topology
        self.routing = routing
        self.rule = rule
        self.selection = selection
        self.atomic_buffers = atomic_buffers
        self.switching = switching
        self.pipeline_delay = pipeline_delay
        self.watchdog = watchdog
        self.buffer_depth = buffer_depth
        self.seed = seed

        wires = sorted(wires_for(topology, routing.channel_classes, rule))
        if not wires:
            raise ConfigError("routing channel classes instantiate no wires")
        self.wires: tuple[Wire, ...] = tuple(wires)
        W = len(wires)
        self._W = W
        self._wire_lookup: dict[tuple[Coord, Coord, object], int] = {
            (w.src, w.dst, w.channel): i for i, w in enumerate(wires)
        }
        self._nodes: tuple[Coord, ...] = tuple(topology.nodes)
        self._nindex: dict[Coord, int] = {n: i for i, n in enumerate(self._nodes)}
        N = len(self._nodes)
        X = W + N

        #: Destination router of each site (-1 for injection rows, which
        #: never eject and always count as "not yet home").
        self._wdst = np.full(X, -1, dtype=np.int64)
        self._wdst[:W] = np.fromiter(
            (self._nindex[w.dst] for w in wires), dtype=np.int64, count=W
        )
        links = sorted({w.link for w in wires})
        lindex = {link: i for i, link in enumerate(links)}
        self._wlink = np.fromiter(
            (lindex[w.link] for w in wires), dtype=np.int64, count=W
        )

        B = buffer_depth
        self._buf_pid = np.full((W, B), -1, dtype=np.int64)
        self._buf_seq = np.zeros((W, B), dtype=np.int64)
        self._buf_arr = np.zeros((W, B), dtype=np.int64)
        self._head = np.zeros(W, dtype=np.int64)
        self._blen = np.zeros(W, dtype=np.int64)

        #: Front mirrors over all sites (wire rows valid where _blen > 0,
        #: injection rows valid where _fpid >= 0).
        self._fpid = np.full(X, -1, dtype=np.int64)
        self._fseq = np.zeros(X, dtype=np.int64)
        self._farr = np.zeros(X, dtype=np.int64)
        self._farr[W:] = _ALWAYS_READY
        self._fdst = np.full(X, -1, dtype=np.int64)
        self._route_pid = np.full(X, -1, dtype=np.int64)
        self._route_out = np.full(X, -1, dtype=np.int64)

        #: Wormhole ownership per output wire; a plain list because every
        #: access in the (serial) allocation loop is scalar, where list
        #: indexing beats numpy scalar indexing severalfold.
        self._owner = np.full(W, -1, dtype=np.int64)
        #: Cached first (sole) routing candidate of each site's current
        #: front, or -2 when unknown / not a singleton.  Lets the
        #: allocation phase batch-resolve when every pending site has a
        #: known single candidate; invalidated on every front change.
        self._pref_out = np.full(X, -2, dtype=np.int64)
        #: Allocation-retry suppression: sites asleep until a candidate
        #: output is released, and the reverse map release -> sleepers.
        self._blocked = np.zeros(X, dtype=bool)
        self._consumers: list[set[int]] = [set() for _ in range(W)]

        #: node index -> deque of packet indices; only non-empty queues.
        self._queues: dict[int, deque[int]] = {}

        #: Packet table (struct of arrays, grown by doubling), plus a
        #: plain-list mirror of the destination index for the scalar
        #: lookups in the allocation loop.
        self._p_cap = 1024
        self._p_dst = np.zeros(self._p_cap, dtype=np.int64)
        self._p_len = np.ones(self._p_cap, dtype=np.int64)
        self._pl_dst: list[int] = []
        self._n_packets = 0
        self._ipackets: list[Packet] = []

        #: Two-level routing memo per memo group: by destination node
        #: index (fast hits), and by ``route_signature`` where published
        #: (so ``candidates()`` runs once per direction class, not once
        #: per destination).  Values: tuple of candidate output wire
        #: indices in candidate order, or None for a raw dead-end.
        #: Routings declaring ``uses_in_channel = False`` share one group
        #: across every input port of a router; otherwise each site gets
        #: its own.  Memos are further shared across simulator instances
        #: on the same (routing, rule, topology) via ``_SHARED_MEMOS``.
        if routing.uses_in_channel:
            self._memo_of: list[int] = list(range(X))
            groups = X
        else:
            self._memo_of = [self._nindex[w.dst] for w in wires] + list(range(N))
            groups = N
        shared = _SHARED_MEMOS.setdefault(routing, {})
        entry = shared.get((id(rule), id(topology)))
        if entry is not None and entry[0] is rule and entry[1] is topology:
            _, _, self._cand_by_in, self._sig_by_in = entry
        else:
            self._cand_by_in: list[dict] = [{} for _ in range(groups)]
            self._sig_by_in: list[dict] = [{} for _ in range(groups)]
            shared[(id(rule), id(topology))] = (
                rule,
                topology,
                self._cand_by_in,
                self._sig_by_in,
            )
        #: Per-site view of the destination-level memo (one indirection
        #: fewer in the allocation hot loop; the dicts are shared, so a
        #: write through one alias is visible through all).
        self._cand_of_site: list[dict] = [
            self._cand_by_in[g] for g in self._memo_of
        ]
        self._fast_target = type(routing).target_of is RoutingFunction.target_of

        #: Source nodes with a non-empty queue AND an idle injection row —
        #: exactly the sites the allocation phase must consider for a new
        #: packet (scanning every queue against numpy scalar reads each
        #: cycle is slower than maintaining the set at the three places
        #: row-idleness changes).
        self._ready_inj: set[int] = set()

        self.cycle = 0
        self.stats = SimStats()
        self._stall_cycles = 0

    # -- state queries ----------------------------------------------------------

    def flits_in_network(self) -> int:
        """Flits currently buffered in wires."""
        return int(self._blen.sum())

    def packets_in_flight(self) -> int:
        """Packets injected but not fully delivered."""
        return self.stats.packets_injected - self.stats.packets_delivered

    def is_idle(self) -> bool:
        """No flits buffered, nothing queued and nothing streaming."""
        return not self._network_active()

    def _network_active(self) -> bool:
        return (
            bool(self._queues)
            or bool((self._fpid[self._W:] >= 0).any())
            or bool(self._blen.any())
        )

    # -- traffic entry ------------------------------------------------------------

    def offer_packet(self, packet: Packet) -> None:
        """Queue a packet at its source node (reference semantics)."""
        dead = getattr(self.topology, "failed_nodes", ())
        if packet.src in dead or packet.dst in dead:
            self.stats.packets_injected += 1
            self.stats.packets_lost += 1
            return
        if packet.waypoints:
            raise _unsupported("multicast waypoints")
        self.topology.validate_node(packet.src)
        self.topology.validate_node(packet.dst)
        ip = self._add_packet(packet)
        src = self._nindex[packet.src]
        queue = self._queues.get(src)
        if queue is None:
            queue = self._queues[src] = deque()
            if self._fpid[self._W + src] < 0:
                self._ready_inj.add(src)
        queue.append(ip)
        self.stats.packets_injected += 1

    def _add_packet(self, packet: Packet) -> int:
        ip = self._n_packets
        if ip >= self._p_cap:
            self._p_cap *= 2
            for name in ("_p_dst", "_p_len"):
                old = getattr(self, name)
                grown = np.zeros(self._p_cap, dtype=np.int64)
                grown[:ip] = old
                setattr(self, name, grown)
        dst = self._nindex[packet.dst]
        self._p_dst[ip] = dst
        self._p_len[ip] = packet.length
        self._pl_dst.append(dst)
        self._n_packets = ip + 1
        self._ipackets.append(packet)
        return ip

    # -- one cycle ------------------------------------------------------------------

    def step(self, new_packets: Sequence[Packet] = ()) -> int:
        """Advance one cycle; returns the number of flit movements."""
        for packet in new_packets:
            self.offer_packet(packet)

        moves = self._eject_phase()
        self._allocation_phase()
        moves += self._traversal_phase()

        self.cycle += 1
        self.stats.cycles = self.cycle
        self.stats.flit_moves += moves

        if moves == 0 and self._network_active():
            self._stall_cycles += 1
            if self._stall_cycles >= self.watchdog and not self.stats.deadlocked:
                self.stats.deadlocked = True
                self.stats.deadlock_declared_at = self.cycle
        else:
            self._stall_cycles = 0
        return moves

    def _refresh_fronts(self, idxs: np.ndarray) -> None:
        """Re-mirror the front flit of the given wires from the ring state."""
        pos = self._head[idxs]
        pids = self._buf_pid[idxs, pos]
        self._fpid[idxs] = pids
        seqs = self._buf_seq[idxs, pos]
        self._fseq[idxs] = seqs
        self._farr[idxs] = self._buf_arr[idxs, pos]
        dsts = self._p_dst[pids]
        self._fdst[idxs] = dsts
        pref = self._pref_out
        pref[idxs] = -2
        if self._fast_target:
            # Eagerly cache the sole candidate of newly exposed heads so
            # the allocation phase can batch-resolve them.
            heads = (seqs == 0) & (self._blen[idxs] > 0) & (dsts != self._wdst[idxs])
            if heads.any():
                cand_of_site = self._cand_of_site
                for w, dst in zip(idxs[heads].tolist(), dsts[heads].tolist()):
                    outs = cand_of_site[w].get(dst)
                    if outs is not None and len(outs) == 1:
                        pref[w] = outs[0]

    def _release(self, sites) -> None:
        """Release wormhole ownership of output wires; wake their sleepers."""
        owner = self._owner
        blocked = self._blocked
        consumers = self._consumers
        for o in sites:
            owner[o] = -1
            sleepers = consumers[o]
            if sleepers:
                for k in sleepers:
                    blocked[k] = False
                sleepers.clear()

    # -- phase 1: ejection ---------------------------------------------------------

    def _eject_phase(self) -> int:
        W = self._W
        fdst = self._fdst[:W]
        eject = (self._blen > 0) & (fdst == self._wdst[:W])
        if self.pipeline_delay:
            # With no pipeline delay the readiness test is a tautology —
            # every buffered front arrived in an earlier cycle.
            eject &= self._farr[:W] <= self.cycle - 1 - self.pipeline_delay
        idxs = np.nonzero(eject)[0]
        if idxs.size == 0:
            return 0
        pids = self._fpid[idxs]
        tails = self._fseq[idxs] == self._p_len[pids] - 1
        self._head[idxs] = (self._head[idxs] + 1) % self.buffer_depth
        self._blen[idxs] -= 1
        self._refresh_fronts(idxs)
        if tails.any():
            stats = self.stats
            cyc = self.cycle
            released = idxs[tails].tolist()
            # np.nonzero order is ascending wire order — the reference's
            # latency-append order.
            for ip in pids[tails].tolist():
                packet = self._ipackets[ip]
                packet.delivered = cyc
                assert packet.entered is not None
                stats.record_delivery(
                    cyc - packet.created, cyc - packet.entered, packet.length
                )
            if self.atomic_buffers:
                self._release(released)
        return int(idxs.size)

    # -- phase 2: routing and VC allocation ------------------------------------------

    def _allocation_phase(self) -> None:
        # Allocation is order-dependent (an earlier site claiming an
        # output changes what later ones see), and the reference order is
        # wires ascending, then source nodes in topology order — which is
        # exactly ascending site index.  Collect every site needing a
        # route this cycle into one ascending array, then resolve.
        W = self._W
        fpid = self._fpid
        route_pid = self._route_pid
        blocked = self._blocked
        pref = self._pref_out

        need = (
            (self._blen > 0)
            & (self._fseq[:W] == 0)
            & (self._fdst[:W] != self._wdst[:W])
            & (route_pid[:W] != fpid[:W])
            & ~blocked[:W]
        )
        wire_pending = np.nonzero(need)[0]

        # Injection rows: parked-then-woken heads, plus new heads popped
        # from their source queues (popping has no allocation side
        # effects, so doing it before the resolve preserves order).
        stuck = np.nonzero((fpid[W:] >= 0) & (route_pid[W:] < 0) & ~blocked[W:])[0]
        ready = self._ready_inj
        if ready:
            queues = self._queues
            pl_dst = self._pl_dst
            fseq = self._fseq
            fdst = self._fdst
            cand_of_site = self._cand_of_site
            fast = self._fast_target
            popped: list[int] = []
            for n in sorted(ready):
                queue = queues[n]
                ip = queue.popleft()
                if not queue:
                    del queues[n]
                site = W + n
                fpid[site] = ip
                fseq[site] = 0
                route_pid[site] = -1
                popped.append(site)
                dst = pl_dst[ip]
                fdst[site] = dst
                if fast:
                    single = cand_of_site[site].get(dst)
                    pref[site] = (
                        single[0] if single is not None and len(single) == 1 else -2
                    )
                else:
                    pref[site] = -2
            ready.clear()
            inj = np.array(popped, dtype=np.int64)
            if stuck.size:
                inj = np.concatenate((stuck + W, inj))
                inj.sort()
        elif stuck.size:
            inj = stuck + W
        else:
            inj = None

        if inj is None:
            pending = wire_pending
        elif wire_pending.size:
            pending = np.concatenate((wire_pending, inj))
        else:
            pending = inj
        if pending.size == 0:
            return

        prefs = pref[pending]
        cold = np.nonzero(prefs < 0)[0]
        if cold.size:
            # Warm the cold sites' memos first — a pure routing lookup
            # with no allocation side effects, so phase order is
            # preserved.  Under deterministic routing every candidate
            # set is a singleton, and one cold uniform-traffic
            # destination must not force the whole phase onto the
            # serial loop.
            single = True
            sites = pending[cold]
            for site, ip in zip(sites.tolist(), fpid[sites].tolist()):
                if len(self._outs_of(site, ip)) != 1:
                    single = False
            if not single:
                self._resolve_serial(pending)
                return
            prefs = pref[pending]
        self._resolve_single(pending, prefs)

    def _resolve_single(self, pending: np.ndarray, prefs: np.ndarray) -> None:
        """Batched allocation when every pending site has one known candidate.

        Serially, the first site (ascending) wanting a given output wins
        it if it is free; everyone else wanting that output fails.  No
        output is released during the phase, so grouping by output and
        taking the first arrival per group reproduces the serial outcome
        exactly — the common case for dimension-order routing, where the
        Python attempt loop would dominate the whole cycle.
        """
        owner = self._owner
        order = np.argsort(prefs, kind="stable")
        po = prefs[order]
        first = np.empty(po.size, dtype=bool)
        first[0] = True
        np.not_equal(po[1:], po[:-1], out=first[1:])
        win = first & (owner[po] < 0)
        widx = order[win]
        ws = pending[widx]
        wouts = po[win]
        ips = self._fpid[ws]
        owner[wouts] = ips
        self._route_pid[ws] = ips
        self._route_out[ws] = wouts
        if not win.all():
            lose = ~win
            ls = pending[order[lose]]
            self._blocked[ls] = True
            consumers = self._consumers
            for s, o in zip(ls.tolist(), po[lose].tolist()):
                consumers[o].add(s)

    def _resolve_serial(self, pending: np.ndarray) -> None:
        """Reference-order attempt loop (some head has several outputs)."""
        owner = self._owner
        pl_dst = self._pl_dst
        fast = self._fast_target
        cand_of_site = self._cand_of_site
        pref = self._pref_out
        route_pid = self._route_pid
        route_out = self._route_out
        for site, ip in zip(pending.tolist(), self._fpid[pending].tolist()):
            outs = cand_of_site[site].get(pl_dst[ip], False) if fast else False
            if outs is False or outs is None:
                out = self._alloc(site, ip)
            else:
                if len(outs) == 1:
                    pref[site] = outs[0]
                out = -1
                for o in outs:
                    if owner[o] < 0:
                        owner[o] = ip
                        out = o
                        break
                if out < 0:
                    self._sleep(site, outs)
            if out >= 0:
                route_pid[site] = ip
                route_out[site] = out

    def _sleep(self, site: int, outs) -> None:
        """Park a blocked site until one of its candidate outputs frees."""
        self._blocked[site] = True
        consumers = self._consumers
        for o in outs:
            consumers[o].add(site)

    def _in_site(self, in_key: int) -> tuple[Coord, object]:
        """(router, in_channel) of an input site (wire index, or W+node)."""
        if in_key < self._W:
            wire = self.wires[in_key]
            return wire.dst, wire.channel
        return self._nodes[in_key - self._W], None

    def _build_outs(self, router, target, in_channel):
        """Instantiated output wire indices, or None on a raw dead-end."""
        candidates = self.routing.candidates(router, target, in_channel)
        if not candidates:
            return None
        lookup = self._wire_lookup
        return tuple(
            idx
            for nxt, ch in candidates
            if (idx := lookup.get((router, nxt, ch))) is not None
        )

    def _outs_of(self, in_key: int, ip: int):
        """Memoised candidate outputs of a site's head — lookup only.

        Fills the shared routing memos exactly like the reference's
        routing query, records a singleton in ``_pref_out``, and raises
        :class:`RoutingError` on a routing dead-end, exactly like the
        reference (the vector backend has no fault/recovery path to
        absorb it).  No allocation side effects.
        """
        if self._fast_target:
            tkey = self._pl_dst[ip]
        else:
            router, _ = self._in_site(in_key)
            tkey = self.routing.target_of(self._ipackets[ip], router)
        group = self._memo_of[in_key]
        memo = self._cand_by_in[group]
        outs = memo.get(tkey, False)
        if outs is False:
            router, in_channel = self._in_site(in_key)
            target = self._nodes[tkey] if type(tkey) is int else tkey
            sig = self.routing.route_signature(router, target)
            if sig is not None:
                sig_memo = self._sig_by_in[group]
                outs = sig_memo.get(sig, False)
                if outs is False:
                    outs = self._build_outs(router, target, in_channel)
                    sig_memo[sig] = outs
            else:
                outs = self._build_outs(router, target, in_channel)
            memo[tkey] = outs
        if outs is None:
            router, in_channel = self._in_site(in_key)
            raise RoutingError(
                f"{self.routing.name}: dead-end at {router} for"
                f" {self._ipackets[ip]} arriving on {in_channel}"
            )
        if len(outs) == 1:
            self._pref_out[in_key] = outs[0]
        return outs

    def _alloc(self, in_key: int, ip: int) -> int:
        """One reference ``_try_allocate``: the chosen wire index, or -1."""
        outs = self._outs_of(in_key, ip)
        owner = self._owner
        # selection == first_candidate: the first free wire in candidate
        # order is exactly what the reference picks.
        for out in outs:
            if owner[out] < 0:
                owner[out] = ip
                return out
        self._sleep(in_key, outs)
        return -1  # blocked; a candidate release wakes the site

    # -- phase 3: switch allocation and traversal --------------------------------------

    def _traversal_phase(self) -> int:
        # Requests over all sites at once; np.nonzero yields wires
        # ascending then source nodes in topology order — exactly the
        # reference's gather order.
        W = self._W
        fpid = self._fpid
        active = np.empty(fpid.size, dtype=bool)
        np.greater(self._blen, 0, out=active[:W])
        np.greater_equal(fpid[W:], 0, out=active[W:])
        req = active & (self._fdst != self._wdst) & (self._route_pid == fpid)
        if self.pipeline_delay:
            # Tautological at delay 0: buffered fronts arrived in the past.
            req &= self._farr <= self.cycle - 1 - self.pipeline_delay
        srcs = np.nonzero(req)[0]
        if srcs.size == 0:
            return 0
        outs = self._route_out[srcs]

        # Credit gate against the phase-start space snapshot.  Winners
        # only ever consume space on their own link's wires, and each
        # link admits one winner, so the snapshot filter is exactly the
        # reference's sequential space bookkeeping.
        open_slots = self._blen[outs] < self.buffer_depth
        if not open_slots.any():
            return 0
        srcs = srcs[open_slots]
        outs = outs[open_slots]

        # Batched per-link round robin: stable sort groups each link's
        # requests in gather order; winner = requests[cycle % count].
        links = self._wlink[outs]
        order = np.argsort(links, kind="stable")
        sorted_links = links[order]
        boundary = np.empty(sorted_links.size, dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_links[1:], sorted_links[:-1], out=boundary[1:])
        starts = np.nonzero(boundary)[0]
        counts = np.empty_like(starts)
        np.subtract(starts[1:], starts[:-1], out=counts[:-1])
        counts[-1] = sorted_links.size - starts[-1]
        winners = order[starts + self.cycle % counts]
        # Execution order is irrelevant (sources and outputs are unique,
        # same-wire pop+push commutes); ascending sources let the wire /
        # injection split below be prefix slices instead of mask copies.
        winners.sort()
        self._execute_moves(srcs[winners], outs[winners])
        return int(winners.size)

    def _execute_moves(self, srcs, outs) -> None:
        """Apply all winning moves as array scatters.

        Sources and outputs are each unique within a cycle, and the only
        same-wire interaction (pop + push on one wire) commutes, so the
        pops-then-pushes batch order reproduces the reference's
        link-by-link sequential execution exactly.
        """
        cyc = self.cycle
        B = self.buffer_depth
        W = self._W
        fpid = self._fpid
        fseq = self._fseq

        # Departing flits, gathered before any mutation.  ``srcs`` is
        # ascending, so wires are the prefix and injections the suffix.
        all_ip = fpid[srcs]
        all_seq = fseq[srcs]
        all_tail = all_seq == self._p_len[all_ip] - 1
        k = int(np.searchsorted(srcs, W))

        # Pops from wire buffers.
        wsrc = srcs[:k]
        if k:
            pos = self._head[wsrc]
            self._head[wsrc] = (pos + 1) % B
            self._blen[wsrc] -= 1
            self._refresh_fronts(wsrc)

        # Pops from injecting source nodes.
        isrc = srcs[k:]
        if isrc.size:
            fseq[isrc] += 1
            fresh = all_seq[k:] == 0
            if fresh.any():
                packets = self._ipackets
                for ip in all_ip[k:][fresh].tolist():
                    packets[ip].entered = cyc

        # Tails leaving a site clear its route assignment; a finished
        # injection row also empties (re-arming its source queue), and an
        # atomic source wire releases.
        if all_tail.any():
            tsite = srcs[all_tail]
            self._route_pid[tsite] = -1
            self._route_out[tsite] = -1
            kt = int(np.searchsorted(tsite, W))
            done = tsite[kt:]
            if done.size:
                fpid[done] = -1
                queues = self._queues
                ready = self._ready_inj
                for n in (done - W).tolist():
                    if n in queues:
                        ready.add(n)
            if self.atomic_buffers and kt:
                self._release(tsite[:kt].tolist())

        # Pushes into the output wires (unique: one winner per link).
        slot = (self._head[outs] + self._blen[outs]) % B
        self._buf_pid[outs, slot] = all_ip
        self._buf_seq[outs, slot] = all_seq
        self._buf_arr[outs, slot] = cyc
        was_empty = self._blen[outs] == 0
        self._blen[outs] += 1
        if was_empty.any():
            fresh_out = outs[was_empty]
            f_ip = all_ip[was_empty]
            f_seq = all_seq[was_empty]
            fpid[fresh_out] = f_ip
            fseq[fresh_out] = f_seq
            self._farr[fresh_out] = cyc
            f_dst = self._p_dst[f_ip]
            self._fdst[fresh_out] = f_dst
            pref = self._pref_out
            pref[fresh_out] = -2
            if self._fast_target:
                heads = (f_seq == 0) & (f_dst != self._wdst[fresh_out])
                if heads.any():
                    cand_of_site = self._cand_of_site
                    for w, dst in zip(
                        fresh_out[heads].tolist(), f_dst[heads].tolist()
                    ):
                        single = cand_of_site[w].get(dst)
                        if single is not None and len(single) == 1:
                            pref[w] = single[0]
        if not self.atomic_buffers and all_tail.any():
            # EbDa-relaxed: re-allocatable once the tail is buffered.
            self._release(outs[all_tail].tolist())

    # -- driving loop ----------------------------------------------------------------

    def run(
        self,
        cycles: int,
        traffic=None,
        *,
        drain: bool = False,
        drain_limit: int = 100_000,
        raise_on_deadlock: bool = False,
    ) -> SimStats:
        """Run ``cycles`` cycles (plus optional drain) and return the stats.

        Mirrors :meth:`NetworkSimulator.run
        <repro.sim.network.NetworkSimulator.run>` except that
        ``raise_on_deadlock`` (which needs the object-graph wait-for
        witness) is unsupported.
        """
        if raise_on_deadlock:
            raise _unsupported(
                "raise_on_deadlock=True (the wait-for witness needs the"
                " reference object graph)"
            )
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
        return self.stats
