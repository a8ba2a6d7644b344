"""Backward reachability over (node, class) routing states.

Turn-table routing and Up*/Down* both offer only moves whose landing state
can still reach the destination.  A state ``(v, c)`` — a packet at ``v``
that arrived on class ``c`` — reaches ``dst`` when ``v == dst`` or some
move ``(nxt, ch)`` out of ``v`` with a legal ``c -> ch`` transition lands
in a reaching state.  :func:`backward_reach` computes that least fixpoint
with one queue-driven pass backward from the destination, the same shape
as the sink peeling in :func:`repro.core.arbitrary.existence_verdict`:
each state is pushed at most once and each (move, class) edge examined at
most once, so the cost is O(states + edges) per destination instead of
O(states x diameter) for a sweep-to-fixpoint.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from repro.core.channel import Channel
from repro.routing.base import Candidate
from repro.topology.base import Coord

#: A packet's routing state: the node it is at and the class it arrived on.
State = tuple[Coord, Channel]

#: Landing state -> the nodes whose moves land there.
PredecessorIndex = dict[State, list[Coord]]


def legal_before(
    classes: tuple[Channel, ...],
    legal: Callable[[Channel, Channel], bool],
) -> dict[Channel, tuple[Channel, ...]]:
    """For each class ``ch``, the classes ``c`` with ``legal(c, ch)``."""
    return {ch: tuple(c for c in classes if legal(c, ch)) for ch in classes}


def predecessor_index(
    moves: Iterable[tuple[Coord, Iterable[Candidate]]],
) -> PredecessorIndex:
    """Index ``(node, moves out of node)`` pairs by landing state."""
    preds: PredecessorIndex = {}
    for node, out in moves:
        for move in out:
            preds.setdefault(move, []).append(node)
    return preds


def backward_reach(
    dst: Coord,
    classes: tuple[Channel, ...],
    preds: PredecessorIndex,
    before: dict[Channel, tuple[Channel, ...]],
) -> frozenset[State]:
    """Every (node, class) state from which ``dst`` is reachable.

    ``preds`` holds the moves (see :func:`predecessor_index`) and
    ``before`` the legal transitions (see :func:`legal_before`).  Every
    ``(dst, c)`` state reaches trivially; a popped state ``(v, ch)`` then
    makes ``(u, c)`` reaching for each move ``u -> (v, ch)`` and each
    class ``c`` that may precede ``ch``.
    """
    reached = {(dst, c) for c in classes}
    queue = deque(reached)
    while queue:
        node, ch = queue.popleft()
        for pred in preds.get((node, ch), ()):
            for c in before[ch]:
                state = (pred, c)
                if state not in reached:
                    reached.add(state)
                    queue.append(state)
    return frozenset(reached)
