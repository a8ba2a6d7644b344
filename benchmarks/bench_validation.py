"""Benchmarks for the verification experiments V1-V4 (see DESIGN.md).

The simulation-heavy experiments (V2/V3/V7) run through the
:class:`~repro.sim.parallel.SweepEngine`; each benchmark records the
engine's :class:`~repro.sim.parallel.SweepReport` in ``extra_info`` so
``pytest --benchmark-json`` captures per-point wall times and cache
effectiveness alongside the timing.
"""

from benchmarks.conftest import report
from repro.experiments import (
    cdg_validation,
    deadlock_demo,
    fault_sweep,
    partial3d_sim,
    perf_sweep,
)
from repro.sim import ResultCache, SweepEngine


def _record_sweep(benchmark, result) -> None:
    """Attach the experiment's SweepReport to the benchmark record."""
    sweep = result.data.get("sweep")
    if sweep is not None:
        benchmark.extra_info["sweep"] = sweep


def test_v1_every_design_acyclic(once):
    """V1: every Algorithm-1/2 design has an acyclic concrete CDG."""
    report(once(cdg_validation.run))


def test_v2_deadlock_stress(once, benchmark):
    """V2: the unrestricted baseline deadlocks; EbDa designs never do."""
    result = once(deadlock_demo.run)
    _record_sweep(benchmark, result)
    report(result)


def test_v3_latency_throughput(once, benchmark):
    """V3: latency vs injection rate for the derived algorithms."""
    result = once(perf_sweep.run)
    _record_sweep(benchmark, result)
    report(result)


def test_v4_partial3d_comparison(once):
    """V4: §6.3 design vs Elevator-First on a partial 3D NoC."""
    report(once(partial3d_sim.run))


def test_v7_fault_sweep(once, benchmark):
    """V7: runtime faults, rerouting and regressive deadlock recovery."""
    result = once(fault_sweep.run)
    _record_sweep(benchmark, result)
    report(result)


def test_v2_warm_cache(once, benchmark, tmp_path):
    """V2 rerun against a warm cache: zero simulation cycles executed."""
    cache = ResultCache(tmp_path / "cache")
    deadlock_demo.run(engine=SweepEngine(cache=cache))  # cold run primes it
    result = once(deadlock_demo.run, engine=SweepEngine(cache=cache))
    sweep = result.data["sweep"]
    assert sweep["cache_misses"] == 0, sweep
    assert sweep["cycles_executed"] == 0, sweep
    _record_sweep(benchmark, result)
    report(result)
