"""Unit tests for the experiment runner."""

import pytest

from repro.errors import ConfigError
from repro.routing import MinimalFullyAdaptive, xy_routing
from repro.sim import (
    RunConfig,
    compare_table,
    run_point,
    saturation_rate,
    sweep_rates,
)
from repro.topology import Mesh
from repro.topology.classes import no_classes


class TestRunPoint:
    def test_returns_complete_result(self, mesh4):
        result = run_point(
            mesh4, xy_routing(mesh4), RunConfig(cycles=300, injection_rate=0.05)
        )
        assert result.routing_name == "XY-order"
        assert result.n_nodes == 16
        assert result.stats.packets_delivered > 0
        assert not result.deadlocked
        assert result.avg_latency > 0
        assert "rate=0.050" in result.row()

    def test_reproducible(self, mesh4):
        cfg = RunConfig(cycles=300, injection_rate=0.08, seed=21)
        a = run_point(mesh4, xy_routing(mesh4), cfg)
        b = run_point(mesh4, xy_routing(mesh4), cfg)
        assert a.stats.packets_injected == b.stats.packets_injected
        assert a.stats.latencies == b.stats.latencies


class TestRunConfigRanges:
    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_rate_bounds_inclusive(self, rate):
        assert RunConfig(injection_rate=rate).injection_rate == rate

    @pytest.mark.parametrize("rate", [-1.0, -1e-9, 1.5, float("nan")])
    def test_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ConfigError, match="injection_rate must be in"):
            RunConfig(injection_rate=rate)

    def test_with_rate_rechecks(self):
        with pytest.raises(ConfigError, match="injection_rate"):
            RunConfig().with_rate(2.0)

    @pytest.mark.parametrize("cycles", [0, -5])
    def test_cycles_below_one_rejected(self, cycles):
        with pytest.raises(ConfigError, match=f"cycles must be >= 1, got {cycles}"):
            RunConfig(cycles=cycles)

    def test_one_cycle_accepted(self):
        assert RunConfig(cycles=1).cycles == 1


class TestSweep:
    def test_latency_monotone_with_rate(self, mesh4):
        results = sweep_rates(
            mesh4,
            lambda t: MinimalFullyAdaptive(t),
            rates=[0.02, 0.20],
            config=RunConfig(cycles=500, seed=2),
        )
        assert results[0].avg_latency < results[1].avg_latency

    def test_with_rate_builder(self):
        cfg = RunConfig(injection_rate=0.01)
        assert cfg.with_rate(0.5).injection_rate == 0.5
        assert cfg.injection_rate == 0.01


class TestSweepRatesPositionalRuleRemoved:
    def test_positional_rule_raises(self, mesh4):
        from repro.topology.classes import no_classes

        with pytest.raises(TypeError, match="rule positionally"):
            sweep_rates(
                mesh4, "xy", [0.02], RunConfig(cycles=200, seed=2), no_classes
            )

    def test_keyword_rule_works(self, mesh4):
        results = sweep_rates(
            mesh4, "xy", [0.02], RunConfig(cycles=200, seed=2), rule=no_classes
        )
        assert len(results) == 1

    def test_excess_positionals_rejected(self, mesh4):
        with pytest.raises(TypeError, match="positionally"):
            sweep_rates(
                mesh4, "xy", [0.02], RunConfig(cycles=200), no_classes, no_classes
            )


class TestSaturation:
    def test_detects_latency_blowup(self, mesh4):
        results = sweep_rates(
            mesh4,
            lambda t: xy_routing(t),
            rates=[0.02, 0.05, 0.30],
            config=RunConfig(cycles=500, seed=2),
        )
        sat = saturation_rate(results)
        assert sat == 0.30

    def test_none_when_unsaturated(self, mesh4):
        results = sweep_rates(
            mesh4,
            lambda t: xy_routing(t),
            rates=[0.01, 0.02],
            config=RunConfig(cycles=400, seed=2),
        )
        assert saturation_rate(results) is None

    def test_empty(self):
        assert saturation_rate([]) is None

    def test_baseline_is_minimum_rate_point(self, mesh4):
        # Regression: the zero-load baseline must come from the
        # minimum-rate point, so a sweep supplied in descending rate order
        # yields the same verdict as the ascending one.
        ascending = sweep_rates(
            mesh4, "xy", [0.02, 0.05, 0.30], config=RunConfig(cycles=500, seed=2)
        )
        descending = list(reversed(ascending))
        assert saturation_rate(ascending) == saturation_rate(descending) == 0.30


class TestCompareTable:
    def test_renders_rows(self, mesh4):
        results = sweep_rates(
            mesh4, lambda t: xy_routing(t), rates=[0.02],
            config=RunConfig(cycles=200, seed=2),
        )
        table = compare_table({"xy": results})
        assert "xy" in table and "0.020" in table

    def test_empty_table(self):
        assert compare_table({}) == "(no results)"
