"""Unit tests for the verification verdicts."""

import pytest

from repro.cdg import all_cycles, build_design_cdg, verify_design, verify_routing, verify_turnset
from repro.core import PartitionSequence, catalog, extract_turns
from repro.core.turns import TurnSet
from repro.core.extraction import theorem1_turns
from repro.core.partition import Partition
from repro.routing import UnrestrictedAdaptive
from repro.topology import Mesh, Torus, column_parity, row_parity
from repro.topology.classes import dateline


class TestVerifyDesign:
    def test_all_catalog_2d_designs_acyclic(self, mesh4):
        for name in ["xy", "west-first", "negative-first", "north-last",
                     "dyxy", "fig7c", "partially-adaptive", "west-first-vcs"]:
            assert verify_design(catalog.design(name), mesh4).acyclic, name

    def test_odd_even_with_rule(self, mesh4):
        assert verify_design(catalog.design("odd-even"), mesh4, column_parity).acyclic

    def test_hamiltonian_with_rule(self, mesh4):
        assert verify_design(catalog.design("hamiltonian"), mesh4, row_parity).acyclic

    def test_3d_designs(self, mesh3d):
        assert verify_design(catalog.fig9b_partitions(), mesh3d).acyclic
        assert verify_design(catalog.fig9c_partitions(), mesh3d).acyclic

    def test_verdict_reports_counts(self, mesh4, north_last_design):
        v = verify_design(north_last_design, mesh4)
        assert v.wires == 48
        assert v.dependencies > 0
        assert bool(v)
        assert "ACYCLIC" in str(v)


class TestNegativeControls:
    def test_two_pairs_cyclic_with_witness(self, mesh4):
        bad = Partition.of("X+ X- Y+ Y-")
        ts = TurnSet({"bad": theorem1_turns(bad)})
        v = verify_turnset(ts, mesh4)
        assert not v.acyclic
        assert len(v.cycle) >= 4
        # witness is a real cycle: consecutive wires chain through routers
        for a, b in zip(v.cycle, v.cycle[1:]):
            assert a.dst == b.src
        assert "CYCLIC" in str(v)

    def test_unrestricted_routing_cyclic(self, mesh4):
        assert not verify_routing(UnrestrictedAdaptive(mesh4), mesh4).acyclic

    def test_plain_design_cyclic_on_torus(self):
        # Theorem 1 presumes mesh geometry; a torus ring closes on a single
        # class, so the same design must be flagged cyclic there...
        torus = Torus(4, 4)
        v = verify_design(catalog.north_last(), torus)
        assert not v.acyclic

    def test_dateline_design_acyclic_on_torus(self):
        # ...until the dateline partitioning handles the wrap links.
        from repro.core.torus_designs import dateline_design

        torus = Torus(4, 4)
        assert verify_design(dateline_design(2), torus, dateline).acyclic


class TestAllCycles:
    def test_enumerates_witnesses(self, mesh4):
        from repro.cdg import build_turn_cdg

        from repro.cdg import CycleEnumerationTruncated

        bad = PartitionSequence.parse("X+ X- Y+ Y-")
        ts = extract_turns(bad, validate=False)
        graph = build_turn_cdg(mesh4, ts, bad.all_channels)
        with pytest.warns(CycleEnumerationTruncated):
            cycles = all_cycles(graph, limit=5)
        assert len(cycles) == 5

    def test_empty_graph_has_no_cycles(self):
        import networkx as nx

        assert all_cycles(nx.DiGraph()) == []

    def test_self_loop_wire_is_a_cycle(self):
        import networkx as nx

        g = nx.DiGraph()
        g.add_edge("w", "w")
        assert all_cycles(g) == [("w",)]

    def test_truncation_is_signalled_not_silent(self, mesh4):
        import warnings

        from repro.cdg import CycleEnumerationTruncated, build_turn_cdg

        bad = PartitionSequence.parse("X+ X- Y+ Y-")
        ts = extract_turns(bad, validate=False)
        graph = build_turn_cdg(mesh4, ts, bad.all_channels)
        with pytest.warns(CycleEnumerationTruncated, match="limit=3"):
            cycles = all_cycles(graph, limit=3)
        assert len(cycles) == 3

    def test_no_warning_when_under_limit(self):
        import networkx as nx
        import warnings

        g = nx.DiGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning -> test failure
            cycles = all_cycles(g, limit=50)
        assert len(cycles) == 1

    def test_exactly_limit_cycles_no_warning(self):
        # The warning fires only when a (limit+1)-th cycle exists, not
        # when the census happens to land exactly on the limit.
        import networkx as nx
        import warnings

        g = nx.DiGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cycles = all_cycles(g, limit=1)
        assert len(cycles) == 1


class TestCyclicCore:
    def test_empty_graph(self):
        import networkx as nx

        from repro.cdg import cyclic_core

        assert cyclic_core(nx.DiGraph()) == frozenset()

    def test_self_loop_included(self):
        import networkx as nx

        from repro.cdg import cyclic_core

        g = nx.DiGraph()
        g.add_edge("w", "w")
        g.add_edge("w", "x")  # acyclic appendage stays out
        assert cyclic_core(g) == frozenset({"w"})

    def test_acyclic_graph_empty_core(self, mesh4, north_last_design):
        from repro.cdg import cyclic_core

        graph = build_design_cdg(mesh4, north_last_design)
        assert cyclic_core(graph) == frozenset()

    def test_core_contains_every_witness_wire(self, mesh4):
        from repro.cdg import build_turn_cdg, cyclic_core

        bad = PartitionSequence.parse("X+ X- Y+ Y-")
        ts = extract_turns(bad, validate=False)
        graph = build_turn_cdg(mesh4, ts, bad.all_channels)
        core = cyclic_core(graph)
        assert core
        from repro.cdg import CycleEnumerationTruncated

        with pytest.warns(CycleEnumerationTruncated):
            cycles = all_cycles(graph, limit=5)
        for cycle in cycles:
            assert set(cycle) <= core


def _mesh_catalog_2d() -> list[str]:
    """Catalog designs over the two mesh dimensions (no dragonfly/fat-tree)."""
    from repro.topology.classes import local_global, rule_for_design, up_down_signs

    return [
        name
        for name in sorted(catalog.NAMED_DESIGNS)
        if {ch.dim for ch in catalog.design(name).all_channels} == {0, 1}
        and rule_for_design(name) not in (local_global, up_down_signs)
    ]


class TestLinearVerdict:
    """An acyclic verdict never walks ``find_cycle`` (superlinear there)."""

    @pytest.fixture
    def no_find_cycle(self, monkeypatch):
        import networkx as nx

        def boom(*args, **kwargs):
            raise AssertionError("find_cycle called on an acyclic CDG")

        monkeypatch.setattr(nx, "find_cycle", boom)

    def test_catalog_2d_designs_on_8x8(self, no_find_cycle):
        from repro.topology.classes import rule_for_design

        names = _mesh_catalog_2d()
        assert len(names) == 10
        for name in names:
            v = verify_design(catalog.design(name), Mesh(8, 8), rule_for_design(name))
            assert v.acyclic and v.cycle == (), name

    def test_west_first_32x32(self, no_find_cycle):
        v = verify_design(catalog.design("west-first"), Mesh(32, 32))
        assert (v.acyclic, v.wires, v.dependencies) == (True, 3968, 11590)


def _cyclic_controls():
    from repro.cdg import build_routing_cdg, build_turn_cdg

    mesh4 = Mesh(4, 4)
    bad = Partition.of("X+ X- Y+ Y-")
    yield "two-pairs", build_turn_cdg(
        mesh4, TurnSet({"bad": theorem1_turns(bad)}), bad.channels
    )
    yield "unrestricted", build_routing_cdg(mesh4, UnrestrictedAdaptive(mesh4))
    yield "north-last-torus", build_design_cdg(Torus(4, 4), catalog.north_last())


def _cyclic_corpus_graphs():
    from pathlib import Path

    import networkx as nx

    from repro.fuzz import DifferentialOracle, load_corpus

    oracle = DifferentialOracle()
    corpus = Path(__file__).parent.parent / "fuzz" / "corpus"
    for entry in load_corpus(corpus):
        graph = oracle.cdg_graph(entry.design)
        if not nx.is_directed_acyclic_graph(graph):
            yield f"corpus:{entry.id}", graph


class TestWitnessPinned:
    """The witness of a cyclic CDG is exactly ``find_cycle``'s first walk."""

    def test_cyclic_controls_and_corpus(self):
        import networkx as nx

        from repro.cdg import verdict_for

        graphs = list(_cyclic_controls()) + list(_cyclic_corpus_graphs())
        assert len(graphs) > 3  # the corpus holds cyclic entries too
        for name, graph in graphs:
            expected = tuple(
                edge[0] for edge in nx.find_cycle(graph, orientation="original")
            )
            v = verdict_for(graph)
            assert not v.acyclic, name
            assert v.cycle == expected, name
            assert (v.wires, v.dependencies) == (
                graph.number_of_nodes(), graph.number_of_edges()
            ), name
