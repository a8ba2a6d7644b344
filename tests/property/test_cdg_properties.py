"""Property tests: the soundness theorem, checked on concrete networks.

For arbitrary VC budgets and derivations, every design the library
produces must have an acyclic concrete channel dependency graph; any
partition holding two complete pairs must be cyclic.  This is the
paper's central claim run against thousands of generated instances.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import networkx as nx

from repro.cdg import build_turn_cdg, cyclic_core, verdict_for, verify_design
from repro.core import (
    NEG,
    POS,
    Channel,
    Partition,
    PartitionSequence,
    partition_vc_budget,
    two_partition_options,
)
from repro.core.extraction import extract_turns, theorem1_turns
from repro.core.turns import TurnSet
from repro.topology import Mesh

MESHES = {2: Mesh(4, 4), 3: Mesh(3, 3, 3)}

vc_budgets_2d = st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=2)
vc_budgets_3d = st.lists(st.integers(min_value=1, max_value=2), min_size=3, max_size=3)


@given(vc_budgets_2d)
@settings(max_examples=40, deadline=None)
def test_2d_designs_always_acyclic(budget):
    seq = partition_vc_budget(budget)
    assert verify_design(seq, MESHES[2]).acyclic


@given(vc_budgets_3d)
@settings(max_examples=15, deadline=None)
def test_3d_designs_always_acyclic(budget):
    seq = partition_vc_budget(budget)
    assert verify_design(seq, MESHES[3]).acyclic


@given(st.integers(min_value=2, max_value=3), st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_traced_in_any_order_stays_acyclic(n, rng):
    base = partition_vc_budget([1] * n)
    parts = list(base.partitions)
    rng.shuffle(parts)
    seq = PartitionSequence(tuple(parts))
    assert verify_design(seq, MESHES[n]).acyclic


@given(
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=2),
)
@settings(max_examples=16, deadline=None)
def test_two_complete_pairs_always_cyclic(va, vb, vc, vd):
    # A partition with complete pairs in both dimensions (any VC mix)
    # allows a concrete square: must be cyclic on any 2D mesh.
    part = Partition(
        (
            Channel(0, POS, va),
            Channel(0, NEG, vb),
            Channel(1, POS, vc),
            Channel(1, NEG, vd),
        )
    )
    ts = TurnSet({"bad": theorem1_turns(part)})
    verdict = verdict_for(build_turn_cdg(MESHES[2], ts, part.channels))
    assert not verdict.acyclic


@given(st.integers(min_value=2, max_value=3))
@settings(max_examples=4, deadline=None)
def test_exceptional_case_options_acyclic(n):
    for seq in two_partition_options(n, include_reversed=True):
        assert verify_design(seq, MESHES[n]).acyclic


@given(vc_budgets_2d)
@settings(max_examples=20, deadline=None)
def test_consecutive_transitions_subset_still_acyclic(budget):
    seq = partition_vc_budget(budget)
    assert verify_design(seq, MESHES[2], transitions="consecutive").acyclic


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    node = st.integers(min_value=0, max_value=n - 1)
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(draw(st.lists(st.tuples(node, node), max_size=20)))
    return graph


@given(small_digraphs())
@settings(max_examples=200, deadline=None)
def test_verdict_agrees_with_scc_core_and_witness_is_closed(graph):
    # The linear acyclicity pass must agree with the SCC derivation of the
    # cyclic core (self-loops included), and any witness must be a closed
    # walk over the graph's own edges.
    verdict = verdict_for(graph)
    assert verdict.acyclic == (cyclic_core(graph) == frozenset())
    assert (verdict.wires, verdict.dependencies) == (
        graph.number_of_nodes(), graph.number_of_edges()
    )
    if verdict.acyclic:
        assert verdict.cycle == ()
        return
    cycle = verdict.cycle
    assert cycle
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert graph.has_edge(a, b)
