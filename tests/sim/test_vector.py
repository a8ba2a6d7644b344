"""Cycle-exactness tests: the vector backend against the reference.

Every test runs the identical configuration through both engines and
requires bit-identical ``SimStats.to_dict()`` — counters, the full
per-packet latency list in delivery order, and the deadlock declaration
cycle.
"""

import pytest

from repro.errors import ConfigError
from repro.routing import (
    MinimalFullyAdaptive,
    OddEven,
    TurnTableRouting,
    UnrestrictedAdaptive,
    xy_routing,
)
from repro.core import catalog
from repro.core.torus_designs import dateline_design
from repro.sim import (
    NetworkSimulator,
    RunConfig,
    TrafficConfig,
    TrafficGenerator,
    VectorSimulator,
    run_point,
)
from repro.topology import Mesh, Torus
from repro.topology.classes import NAMED_RULES, no_classes, rule_for_design


def both_backends(topology, routing_factory, rule=no_classes, *, cycles=300,
                  rate=0.08, seed=3, drain=True, **sim_kwargs):
    """Run the same point through both engines; return the two stat dicts."""
    results = []
    for cls in (NetworkSimulator, VectorSimulator):
        sim = cls(topology, routing_factory(topology), rule, seed=seed, **sim_kwargs)
        traffic = TrafficGenerator(
            topology,
            TrafficConfig(injection_rate=rate, packet_length=4, seed=seed),
        )
        results.append(sim.run(cycles, traffic, drain=drain).to_dict())
    return results


class TestParity:
    def test_xy_mesh(self, mesh4):
        ref, vec = both_backends(mesh4, xy_routing)
        assert ref == vec

    def test_west_first_atomic_buffers(self, mesh4):
        design = catalog.p3_west_first()

        def factory(t):
            return TurnTableRouting(t, design)

        ref, vec = both_backends(mesh4, factory, atomic_buffers=True, rate=0.12)
        assert ref == vec

    def test_fully_adaptive_8x8(self):
        mesh = Mesh(8, 8)
        ref, vec = both_backends(mesh, MinimalFullyAdaptive, cycles=400, rate=0.06)
        assert ref == vec
        assert vec["packets_delivered"] > 0

    def test_odd_even_uses_in_channel(self, mesh4):
        # OddEven reads the arrival channel: exercises per-site memos.
        ref, vec = both_backends(mesh4, OddEven, rate=0.1)
        assert ref == vec

    def test_dateline_torus(self):
        torus = Torus(4, 4)
        design = dateline_design(2)
        rule = NAMED_RULES["dateline"]

        def factory(t):
            return TurnTableRouting(t, design, rule)

        ref, vec = both_backends(torus, factory, rule, rate=0.08)
        assert ref == vec

    def test_pipeline_delay(self, mesh4):
        ref, vec = both_backends(mesh4, xy_routing, pipeline_delay=2, rate=0.06)
        assert ref == vec

    def test_deadlock_declared_same_cycle(self, mesh4):
        # The negative control deadlocks under load; the declaration
        # cycle (and everything else) must match exactly.
        ref, vec = both_backends(
            mesh4, UnrestrictedAdaptive, cycles=800, rate=0.3,
            watchdog=200, buffer_depth=2, drain=False,
        )
        assert ref == vec
        assert ref["deadlocked"]
        assert ref["deadlock_declared_at"] is not None


class TestRunPointBackend:
    def test_backend_field_selects_vector(self, mesh4):
        from dataclasses import replace

        cfg = RunConfig(cycles=300, injection_rate=0.08, seed=5)
        ref = run_point(mesh4, "xy", cfg)
        vec = run_point(mesh4, "xy", replace(cfg, backend="vector"))
        assert ref.stats.to_dict() == vec.stats.to_dict()

    def test_unknown_backend_rejected(self, mesh4):
        with pytest.raises(ConfigError, match="unknown backend"):
            run_point(mesh4, "xy", RunConfig(cycles=100, backend="warp"))

    @pytest.mark.parametrize("backend", ["reference", "vector"])
    def test_design_with_no_wires_is_bad_input(self, mesh4, backend):
        # A Z channel has no link on a 2-D mesh: a config error on both
        # backends (the fuzz oracle compares their exception types).
        with pytest.raises(ConfigError, match="instantiate no wires"):
            run_point(mesh4, "Z+", RunConfig(cycles=10, backend=backend))


class TestUnsupportedFeatures:
    def test_metrics_refused_up_front(self, mesh4):
        with pytest.raises(ConfigError, match="metrics"):
            run_point(
                mesh4, "xy", RunConfig(cycles=100, metrics=True, backend="vector")
            )

    def test_faults_refused_up_front(self, mesh4):
        from repro.sim import FaultEvent, FaultSchedule

        faults = FaultSchedule([FaultEvent(10, "drop")], seed=0)
        with pytest.raises(ConfigError, match="fault"):
            run_point(
                mesh4, "xy", RunConfig(cycles=100, faults=faults, backend="vector")
            )

    def test_non_first_selection_refused(self, mesh4):
        with pytest.raises(ConfigError, match="selection"):
            run_point(
                mesh4, "xy",
                RunConfig(cycles=100, selection="random", backend="vector"),
            )

    def test_constructor_refuses_tracer(self, mesh4):
        from repro.sim import Trace

        with pytest.raises(ConfigError):
            VectorSimulator(mesh4, xy_routing(mesh4), tracer=Trace())
