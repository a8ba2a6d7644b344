"""Path-based dual-path multicast over the Hamiltonian partitioning (§6.2).

§6.2's second case study recovers the Hamiltonian-path strategy (Lin & Ni
[26]) from the partitioning ``PA = {Xe+ Xo- Y+}``, ``PB = {Xe- Xo+ Y-}``.
This module implements the strategy itself:

* a snake Hamiltonian labelling of the 2D mesh
  (:func:`hamiltonian_label`);
* **label-monotone routing**: the *up* network (PA's channels — east on
  even rows, west on odd rows, north) moves only to higher labels, the
  *down* network (PB) only to lower ones.  Deadlock freedom is immediate:
  every hop strictly in/decreases the label, so no cyclic wait can close
  — the partition-order argument of Theorem 3 in its purest form;
* **dual-path multicast**: destinations split into the high group
  (labels above the source, visited ascending on the up network) and the
  low group (descending on the down network); each group is served by one
  worm that drops a copy at every waypoint it passes.

The simulator supports the waypoint-absorbing worms natively
(``Packet.waypoints`` + :meth:`RoutingFunction.target_of`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.channel import Channel
from repro.errors import RoutingError
from repro.routing.base import Candidate, RoutingFunction
from repro.topology.base import Coord
from repro.topology.classes import row_parity
from repro.topology.mesh import Mesh

if TYPE_CHECKING:
    # Routing sits below the simulator: importing repro.sim here would
    # load the vector backend (and numpy) on every routing import.
    from repro.sim.flit import Packet

#: Channel classes of the up network (partition PA of §6.2).
UP_CLASSES = (
    Channel.parse("X+@e"),
    Channel.parse("X-@o"),
    Channel.parse("Y+"),
)
#: Channel classes of the down network (partition PB).
DOWN_CLASSES = (
    Channel.parse("X-@e"),
    Channel.parse("X+@o"),
    Channel.parse("Y-"),
)


def hamiltonian_label(node: Coord, width: int) -> int:
    """Snake labelling: row-major, alternating direction per row.

    >>> [hamiltonian_label((x, 1), 4) for x in range(4)]
    [7, 6, 5, 4]
    """
    x, y = node
    return y * width + (x if y % 2 == 0 else width - 1 - x)


class HamiltonianPathRouting(RoutingFunction):
    """Label-monotone routing on one of the two Hamiltonian sub-networks.

    ``direction="up"`` routes only to strictly higher labels (usable when
    ``label(dst) > label(src)``); ``"down"`` mirrors it.  Within the
    monotone constraint the routing is adaptive: any neighbour whose label
    lies in ``(label(cur), label(target)]`` is a legal hop (the vertical
    links provide label shortcuts past whole rows).
    """

    def __init__(self, topology: Mesh, direction: str = "up") -> None:
        if not isinstance(topology, Mesh) or topology.n_dims != 2:
            raise RoutingError("Hamiltonian-path routing needs a 2D mesh")
        if direction not in ("up", "down"):
            raise RoutingError(f"direction must be 'up' or 'down', got {direction!r}")
        super().__init__(topology, row_parity)
        self.direction = direction
        self._width = topology.shape[0]

    @property
    def channel_classes(self) -> tuple[Channel, ...]:
        return UP_CLASSES if self.direction == "up" else DOWN_CLASSES

    @property
    def name(self) -> str:
        return f"hamiltonian-{self.direction}"

    def label(self, node: Coord) -> int:
        return hamiltonian_label(node, self._width)

    def candidates(self, cur: Coord, dst: Coord, in_channel: Channel | None) -> list[Candidate]:
        if cur == dst:
            return []
        lc, ld = self.label(cur), self.label(dst)
        # A wrong-direction target is simply unreachable on this
        # sub-network (the other worm serves it): no candidates.
        if self.direction == "up" and ld < lc:
            return []
        if self.direction == "down" and ld > lc:
            return []
        out: list[Candidate] = []
        for link in self.topology.out_links(cur):
            lv = self.label(link.dst)
            monotone = lc < lv <= ld if self.direction == "up" else ld <= lv < lc
            if not monotone:
                continue
            tag = self.rule(link)
            for ch in self.channel_classes:
                if ch.dim == link.dim and ch.sign == link.sign and ch.cls == tag:
                    out.append((link.dst, ch))
        # Prefer the largest label jump (vertical shortcuts) so worms take
        # near-minimal routes; the +1 snake step is always available as a
        # fallback, which guarantees progress.
        out.sort(key=lambda cand: -abs(self.label(cand[0]) - lc))
        return out


class MulticastHamiltonianRouting(HamiltonianPathRouting):
    """Waypoint-aware variant driving a multicast worm through its stops."""

    def target_of(self, packet: Packet, cur: Coord) -> Coord:
        lc = self.label(cur)
        pending = [w for w in packet.waypoints if w not in packet.copies]
        if self.direction == "up":
            ahead = [w for w in pending if self.label(w) > lc]
            if ahead:
                return min(ahead, key=self.label)
        else:
            ahead = [w for w in pending if self.label(w) < lc]
            if ahead:
                return max(ahead, key=self.label)
        return packet.dst


def plan_dual_path(
    topology: Mesh, src: Coord, destinations: list[Coord]
) -> tuple[Packet | None, Packet | None]:
    """Split a multicast into the high and low worms (without pids/times).

    Returns packet *templates* (pid=-1, created=0) for the high worm
    (ascending labels on the up network) and the low worm; either may be
    None when its group is empty.  Callers re-stamp pid/created/length.
    """
    from repro.sim.flit import Packet

    width = topology.shape[0]
    src_label = hamiltonian_label(src, width)
    uniq = sorted(
        {d for d in destinations if d != src},
        key=lambda n: hamiltonian_label(n, width),
    )
    high = [d for d in uniq if hamiltonian_label(d, width) > src_label]
    low = [d for d in uniq if hamiltonian_label(d, width) < src_label]

    high_packet = (
        Packet(pid=-1, src=src, dst=high[-1], length=1, created=0,
               waypoints=tuple(high[:-1]))
        if high
        else None
    )
    low = list(reversed(low))  # descending labels: visit order for the down worm
    low_packet = (
        Packet(pid=-1, src=src, dst=low[-1], length=1, created=0,
               waypoints=tuple(low[:-1]))
        if low
        else None
    )
    return high_packet, low_packet


def monotone_path_length(routing: HamiltonianPathRouting, src: Coord, dst: Coord) -> int:
    """Hops of the greedy label-monotone route from ``src`` to ``dst``."""
    cur = src
    hops = 0
    while cur != dst:
        cands = routing.candidates(cur, dst, None)
        if not cands:
            raise RoutingError(f"no monotone route {src}->{dst} via {cur}")
        cur = cands[0][0]
        hops += 1
        if hops > 10 * len(routing.topology.nodes):
            raise RoutingError("monotone walk failed to converge")
    return hops


def dual_path_cost(topology: Mesh, src: Coord, destinations: list[Coord]) -> int:
    """Total hops both worms travel to cover all destinations."""
    high, low = plan_dual_path(topology, src, destinations)
    total = 0
    for packet, direction in ((high, "up"), (low, "down")):
        if packet is None:
            continue
        routing = HamiltonianPathRouting(topology, direction)
        cur = packet.src
        for stop in packet.destinations:
            total += monotone_path_length(routing, cur, stop)
            cur = stop
    return total


def unicast_cost(topology: Mesh, src: Coord, destinations: list[Coord]) -> int:
    """Total hops of separate minimal unicasts (the naive alternative)."""
    return sum(topology.distance(src, d) for d in set(destinations) if d != src)
