"""Unit tests for turn-table routing (executing an EbDa design)."""

from collections import deque

import pytest

from repro.core import Channel, PartitionSequence, catalog
from repro.core.torus_designs import dateline_design
from repro.errors import EbdaError, RoutingError
from repro.fuzz.generator import DesignGenerator
from repro.routing import GreedyUpDownRouting, TurnTableRouting, UpDownRouting, reach
from repro.topology import FaultyMesh, Mesh, Torus, column_parity
from repro.topology.classes import dateline, rule_for_design
from repro.topology.fattree import FatTree


class TestBasics:
    def test_at_destination_no_candidates(self, mesh4, north_last_design):
        r = TurnTableRouting(mesh4, north_last_design)
        assert r.candidates((1, 1), (1, 1), None) == []

    def test_injection_offers_minimal_moves(self, mesh4, west_first_design):
        r = TurnTableRouting(mesh4, west_first_design)
        cands = r.candidates((0, 0), (2, 2), None)
        assert {(n, str(c)) for n, c in cands} == {
            ((1, 0), "X+"), ((0, 1), "Y+"),
        }

    def test_invalid_design_rejected(self, mesh4):
        with pytest.raises(Exception):
            TurnTableRouting(mesh4, PartitionSequence.parse("X+ X- Y+ Y-"))

    def test_name_from_label(self, mesh4, north_last_design):
        assert TurnTableRouting(mesh4, north_last_design, label="nl").name == "nl"

    def test_bad_directions_mode(self, mesh4, north_last_design):
        with pytest.raises(RoutingError):
            TurnTableRouting(mesh4, north_last_design, directions="psychic")


class TestTurnLegality:
    def test_north_last_blocks_turn_out_of_north(self, mesh4, north_last_design):
        r = TurnTableRouting(mesh4, north_last_design)
        # Arrived northbound; destination to the NE: turning east after
        # north is prohibited (Y+ is the last partition).
        cands = r.candidates((1, 1), (2, 2), Channel.parse("Y+"))
        assert all(c.dim == 1 for _n, c in cands)

    def test_north_last_defers_north(self, mesh4, north_last_design):
        r = TurnTableRouting(mesh4, north_last_design)
        # From injection toward NE the router must avoid stranding: going
        # north first would dead-end, so only east is offered.
        cands = r.candidates((0, 0), (2, 2), None)
        assert {(n, str(c)) for n, c in cands} == {((1, 0), "X+")}

    def test_transition_legal_continuation(self, mesh4, north_last_design):
        r = TurnTableRouting(mesh4, north_last_design)
        x = Channel.parse("X+")
        assert r.transition_legal(x, x)
        assert r.transition_legal(None, x)

    def test_transition_illegal_backward(self, mesh4, north_last_design):
        r = TurnTableRouting(mesh4, north_last_design)
        assert not r.transition_legal(Channel.parse("Y+"), Channel.parse("X+"))


class TestConnectivity:
    @pytest.mark.parametrize(
        "name", ["xy", "west-first", "negative-first", "north-last", "dyxy", "fig7c"]
    )
    def test_catalog_designs_connected(self, mesh4, name):
        r = TurnTableRouting(mesh4, catalog.design(name))
        assert r.is_connected()
        assert r.dead_pairs() == []

    def test_odd_even_connected_with_rule(self, mesh4):
        r = TurnTableRouting(mesh4, catalog.design("odd-even"), column_parity)
        assert r.is_connected()

    def test_all_candidate_moves_keep_destination_reachable(self, mesh4):
        # Walk the full reachable state space of a design; a dead end
        # anywhere would show the reachability filter leaking.
        r = TurnTableRouting(mesh4, catalog.design("negative-first"))
        for src in mesh4.nodes:
            for dst in mesh4.nodes:
                if src == dst:
                    continue
                frontier = [(src, None)]
                seen = set()
                while frontier:
                    cur, in_ch = frontier.pop()
                    if cur == dst:
                        continue
                    cands = r.candidates(cur, dst, in_ch)
                    assert cands, (src, dst, cur, in_ch)
                    for nxt, ch in cands:
                        if (nxt, ch) not in seen:
                            seen.add((nxt, ch))
                            frontier.append((nxt, ch))


class TestCandidateOrdering:
    def test_progress_sorted(self, mesh4):
        r = TurnTableRouting(mesh4, catalog.design("dyxy"))
        cands = r.candidates((0, 0), (3, 3), None)
        dists = [mesh4.distance(n, (3, 3)) for n, _c in cands]
        assert dists == sorted(dists)


# -- reachability: worklist pass vs the sweep-to-fixpoint it replaced ---------


def sweep_reachable_states(routing, dst):
    """Naive oracle: sweep every state until nothing changes.

    The turn-table reachability computation as it stood before the
    backward worklist pass, kept verbatim as the reference.
    """
    reachable = {(dst, c) for c in routing._classes}
    states = [(node, c) for node in routing.topology.nodes for c in routing._classes]
    succ = {}
    for node in routing.topology.nodes:
        if node == dst:
            continue
        if routing._fallback == "escape":
            moves = routing._all_moves(node)
        else:
            moves = routing._raw_moves(node, dst)
        for c in routing._classes:
            succ[(node, c)] = [
                (nxt, ch) for nxt, ch in moves if routing.transition_legal(c, ch)
            ]
    changed = True
    while changed:
        changed = False
        for state in states:
            if state in reachable:
                continue
            for nxt_state in succ.get(state, ()):
                if nxt_state in reachable:
                    reachable.add(state)
                    changed = True
                    break
    return frozenset(reachable)


def sweep_updown_reachable(routing, dst):
    """Naive oracle for Up*/Down*: the same sweep over every out-link."""
    reachable = {(dst, c) for c in routing._classes}
    moves = {node: routing._all_moves(node) for node in routing.topology.nodes}
    changed = True
    while changed:
        changed = False
        for node in routing.topology.nodes:
            if node == dst:
                continue
            for c in routing._classes:
                if (node, c) in reachable:
                    continue
                for nxt, ch in moves[node]:
                    if routing._legal(c, ch) and (nxt, ch) in reachable:
                        reachable.add((node, c))
                        changed = True
                        break
    return frozenset(reachable)


class SweepTableRouting(TurnTableRouting):
    """Turn-table routing backed by the naive sweep oracle."""

    def _reachable_states(self, dst):
        if dst not in self._reach_cache:
            self._reach_cache[dst] = sweep_reachable_states(self, dst)
        return self._reach_cache[dst]


#: Every 2-D mesh design of the catalog.
MESH_2D_DESIGNS = (
    "xy", "partially-adaptive", "west-first", "negative-first",
    "west-first-vcs", "north-last", "odd-even", "hamiltonian", "dyxy", "fig7c",
)


def assert_same_reach(routing):
    for dst in routing.topology.nodes:
        assert routing._reachable_states(dst) == sweep_reachable_states(
            routing, dst
        ), dst


class TestWorklistReachability:
    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("name", MESH_2D_DESIGNS)
    def test_catalog_designs_on_meshes(self, name, k):
        assert_same_reach(
            TurnTableRouting(Mesh(k, k), catalog.design(name), rule_for_design(name))
        )

    def test_dateline_design_on_torus(self):
        torus = Torus(4, 4)
        assert_same_reach(TurnTableRouting(torus, dateline_design(2), dateline))

    @pytest.mark.parametrize("name", MESH_2D_DESIGNS)
    def test_mesh_design_on_torus(self, name, torus4):
        # Wrap links make the minimal oracle offer moves a mesh design
        # never saw; reach sets must still agree.
        assert_same_reach(
            TurnTableRouting(torus4, catalog.design(name), rule_for_design(name))
        )

    @pytest.mark.parametrize("fallback", ["none", "escape"])
    @pytest.mark.parametrize("name", ["west-first", "negative-first", "north-last", "fig7c"])
    def test_irregular_progressive(self, name, fallback):
        topo = FaultyMesh(
            Mesh(5, 5), failed=[((1, 1), (2, 1)), ((2, 2), (2, 3)), ((3, 0), (3, 1))]
        )
        assert_same_reach(
            TurnTableRouting(
                topo, catalog.design(name),
                directions="progressive", fallback=fallback,
            )
        )

    @pytest.mark.parametrize("name", ["west-first", "odd-even", "fig7c"])
    def test_escape_on_mesh(self, name):
        assert_same_reach(
            TurnTableRouting(
                Mesh(5, 5), catalog.design(name), rule_for_design(name),
                fallback="escape",
            )
        )

    @pytest.mark.parametrize("fallback", ["none", "escape"])
    @pytest.mark.parametrize("name", ["dyxy", "fig7c", "west-first-vcs"])
    def test_without_ui_turns(self, name, fallback):
        assert_same_reach(
            TurnTableRouting(
                Mesh(5, 5), catalog.design(name), ui_turns=False, fallback=fallback
            )
        )

    def test_fuzz_mutant_turnsets(self):
        gen = DesignGenerator(seed=7, mutant_fraction=1.0)
        checked = 0
        for trial in range(40):
            design = gen.design_for(trial)
            if not design.label.startswith("mutant") or design.engine != "table":
                continue
            try:
                seq, turnset = design.compile()
                routing = TurnTableRouting(
                    design.topology(), seq, design.class_rule(),
                    turnset=turnset, validate=False,
                )
            except EbdaError:
                continue
            assert_same_reach(routing)
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("cls", [UpDownRouting, GreedyUpDownRouting])
    def test_updown_on_fat_tree(self, cls):
        topo = FatTree(leaves=4, spines=2, hosts_per_leaf=2)
        routing = cls(topo, levels={n: 2 - n[0] for n in topo.nodes})
        for dst in topo.nodes:
            assert routing._reachable(dst) == sweep_updown_reachable(routing, dst)

    @pytest.mark.parametrize("cls", [UpDownRouting, GreedyUpDownRouting])
    def test_updown_on_faulty_mesh(self, cls, faulty_mesh):
        routing = cls(faulty_mesh)
        for dst in faulty_mesh.nodes:
            assert routing._reachable(dst) == sweep_updown_reachable(routing, dst)


class TestWorklistOrderAndWork:
    @pytest.mark.parametrize("name", ["west-first", "odd-even", "fig7c"])
    def test_candidates_identical_to_sweep_backed_routing(self, name):
        mesh = Mesh(5, 5)
        rule = rule_for_design(name)
        fast = TurnTableRouting(mesh, catalog.design(name), rule)
        slow = SweepTableRouting(mesh, catalog.design(name), rule)
        for cur in mesh.nodes:
            for dst in mesh.nodes:
                for in_ch in (None, *fast.channel_classes):
                    assert fast.candidates(cur, dst, in_ch) == slow.candidates(
                        cur, dst, in_ch
                    ), (cur, dst, in_ch)

    @pytest.mark.parametrize(
        "build, method",
        [
            (lambda: TurnTableRouting(Mesh(6, 6), catalog.design("fig7c")),
             "_reachable_states"),
            (lambda: TurnTableRouting(
                Mesh(6, 6), catalog.design("odd-even"), column_parity,
                fallback="escape",
            ), "_reachable_states"),
            (lambda: UpDownRouting(Mesh(5, 5)), "_reachable"),
        ],
        ids=["fig7c", "odd-even-escape", "up-down"],
    )
    def test_each_state_pushed_at_most_once(self, build, method, monkeypatch):
        routing = build()
        pushes = []

        class CountingDeque(deque):
            def __init__(self, items=()):
                items = list(items)
                pushes.extend(items)
                super().__init__(items)

            def append(self, item):
                pushes.append(item)
                super().append(item)

        monkeypatch.setattr(reach, "deque", CountingDeque)
        for dst in routing.topology.nodes:
            pushes.clear()
            reached = getattr(routing, method)(dst)
            assert len(pushes) == len(set(pushes)) == len(reached)
