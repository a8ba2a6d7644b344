"""Unit tests for the Section 4 minimum-channel constructions."""

import pytest

from repro.core import (
    check_sequence,
    covers_all_regions,
    is_structurally_fully_adaptive,
    min_channels,
    minimal_fully_adaptive,
    per_region_construction,
    region_assignment,
    vc_requirements,
)
from repro.errors import PartitionError


class TestFormula:
    def test_paper_values(self):
        assert min_channels(2) == 6
        assert min_channels(3) == 16

    def test_growth(self):
        assert [min_channels(n) for n in range(1, 7)] == [2, 6, 16, 40, 96, 224]

    def test_rejects_zero(self):
        with pytest.raises(PartitionError):
            min_channels(0)


class TestPerRegionConstruction:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_structure(self, n):
        seq = per_region_construction(n)
        assert len(seq) == 2 ** n
        assert all(len(p) == n for p in seq)
        assert seq.channel_count == n * 2 ** n
        check_sequence(seq).raise_if_failed()
        assert covers_all_regions(seq, n)

    def test_2d_matches_figure7a_vcs(self):
        seq = per_region_construction(2)
        assert vc_requirements(seq) == {"X": 2, "Y": 2}

    def test_3d_channel_count_is_24(self):
        assert per_region_construction(3).channel_count == 24

    def test_no_partition_has_a_pair(self):
        assert all(p.pair_count == 0 for p in per_region_construction(3))


class TestMinimalFullyAdaptive:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_channel_count_matches_formula(self, n):
        seq = minimal_fully_adaptive(n)
        assert seq.channel_count == min_channels(n)
        assert len(seq) == 2 ** (n - 1)
        check_sequence(seq).raise_if_failed()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_structurally_fully_adaptive(self, n):
        assert is_structurally_fully_adaptive(minimal_fully_adaptive(n), n)

    def test_every_partition_has_exactly_one_pair(self):
        seq = minimal_fully_adaptive(3)
        assert all(p.pair_count == 1 for p in seq)

    def test_2d_vc_budget(self):
        assert vc_requirements(minimal_fully_adaptive(2)) == {"X": 1, "Y": 2}

    def test_3d_vc_budget_matches_figure9b(self):
        assert vc_requirements(minimal_fully_adaptive(3)) == {"X": 2, "Y": 2, "Z": 4}

    def test_pair_dim_selectable(self):
        seq = minimal_fully_adaptive(2, pair_dim=0)
        assert vc_requirements(seq) == {"X": 2, "Y": 1}

    def test_bad_pair_dim(self):
        with pytest.raises(PartitionError):
            minimal_fully_adaptive(2, pair_dim=5)

    def test_region_assignment_covers_pairs_of_regions(self):
        assignment = region_assignment(minimal_fully_adaptive(3), 3)
        regions = [r for rs in assignment.values() for r in rs]
        assert len(regions) == 8
        assert len(set(regions)) == 8
        assert all(len(rs) == 2 for rs in assignment.values())
