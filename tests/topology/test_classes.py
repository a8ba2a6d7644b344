"""Unit tests for spatial class rules."""

import pytest

from repro.errors import TopologyError
from repro.topology import (
    Mesh,
    Torus,
    column_parity,
    no_classes,
    parity_rule,
    row_parity,
    rule_for_design,
)
from repro.topology.classes import NAMED_RULES, dateline


class TestNoClasses:
    def test_everything_untagged(self):
        m = Mesh(3, 3)
        assert all(no_classes(l) == "" for l in m.links)


class TestColumnParity:
    def test_y_links_tagged_by_column(self):
        m = Mesh(4, 4)
        assert column_parity(m.link((0, 0), (0, 1))) == "e"
        assert column_parity(m.link((1, 2), (1, 1))) == "o"
        assert column_parity(m.link((2, 0), (2, 1))) == "e"

    def test_x_links_untagged(self):
        m = Mesh(4, 4)
        assert column_parity(m.link((0, 0), (1, 0))) == ""


class TestRowParity:
    def test_x_links_tagged_by_row(self):
        m = Mesh(4, 4)
        assert row_parity(m.link((0, 0), (1, 0))) == "e"
        assert row_parity(m.link((2, 1), (1, 1))) == "o"

    def test_y_links_untagged(self):
        m = Mesh(4, 4)
        assert row_parity(m.link((0, 0), (0, 1))) == ""

    def test_one_dimensional_mesh_has_no_row(self):
        with pytest.raises(TopologyError, match="reads coordinate 1"):
            row_parity(Mesh(8).link((0,), (1,)))


class TestParityRule:
    def test_general_rule(self):
        m = Mesh(4, 4)
        rule = parity_rule(classed_dim=0, parity_of=0)
        assert rule(m.link((0, 0), (1, 0))) == "e"
        assert rule(m.link((1, 0), (2, 0))) == "o"

    def test_missing_coordinate_rejected(self):
        rule = parity_rule(classed_dim=0, parity_of=2)
        with pytest.raises(TopologyError, match="2-dimensional"):
            rule(Mesh(4, 4).link((0, 0), (1, 0)))


class TestDateline:
    def test_wrap_links_tagged_w(self):
        t = Torus(4, 4)
        assert dateline(t.link((3, 0), (0, 0))) == "w"
        assert dateline(t.link((0, 0), (1, 0))) == "r"


class TestRegistry:
    def test_named_rules(self):
        assert set(NAMED_RULES) == {
            "none",
            "column-parity",
            "row-parity",
            "dateline",
            "dragonfly",
            "updown-signs",
        }

    def test_rule_for_design(self):
        assert rule_for_design("odd-even") is column_parity
        assert rule_for_design("hamiltonian") is row_parity
        assert rule_for_design("xy") is no_classes
