"""Experiment runner: single points, injection-rate sweeps, saturation.

This is the harness the performance benchmarks (V2/V3 in DESIGN.md) drive.
Every run is fully described by a :class:`RunConfig`, making experiments
reproducible and easy to tabulate.

``RunConfig`` is picklable — the parallel engine in
:mod:`repro.sim.parallel` ships configs to worker processes — provided the
callable-valued fields hold *named specs* (``pattern="uniform"``,
``selection="first"``, ``routing_factory="negative-first"``; see
:mod:`repro.sim.specs`) or module-level functions.  Raw lambdas and
closures keep working for in-process runs but force the serial fallback
and opt out of result caching.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import ConfigError
from repro.routing.base import RoutingFunction
from repro.routing.selection import SelectionPolicy
from repro.sim.backend import check_run_config, resolve_backend, simulator_class
from repro.sim.faults import FaultSchedule, RecoveryPolicy
from repro.sim.patterns import TrafficPattern
from repro.sim.specs import (
    RoutingFactory,
    resolve_pattern,
    resolve_routing_factory,
    resolve_selection,
)
from repro.sim.stats import SimStats
from repro.sim.traffic import TrafficConfig, TrafficGenerator
from repro.topology.base import Topology
from repro.topology.classes import ClassRule, no_classes

if TYPE_CHECKING:
    from repro.sim.parallel import SweepEngine

__all__ = [
    "BuiltPoint",
    "RoutingFactory",
    "RunConfig",
    "RunResult",
    "build_point",
    "compare_table",
    "run_point",
    "saturation_rate",
    "sweep_rates",
]


@dataclass
class RunConfig:
    """Everything needed to reproduce one simulation point.

    The callable-valued fields (``pattern``, ``selection``,
    ``routing_factory``) also accept registry names — the picklable,
    cacheable form; see :mod:`repro.sim.specs`.
    """

    cycles: int = 2000
    injection_rate: float = 0.05
    packet_length: int = 4
    pattern: TrafficPattern | str = "uniform"
    buffer_depth: int = 4
    selection: SelectionPolicy | str = "first"
    atomic_buffers: bool = False
    watchdog: int = 500
    drain: bool = True
    seed: int = 1
    #: Optional runtime fault schedule (link/router failures, drops).
    faults: FaultSchedule | None = None
    #: Optional regressive deadlock/fault recovery policy.
    recovery: RecoveryPolicy | None = None
    #: Rebuilds routing over the degraded topology after permanent faults.
    routing_factory: RoutingFactory | str | None = None
    #: Telemetry: ``True`` builds a fresh
    #: :class:`~repro.sim.metrics.MetricsCollector` per point (sampling
    #: every ``sample_every`` cycles); a ready collector is used as-is
    #: (single points only — a collector observes exactly one simulator).
    #: None (default) keeps every telemetry hook a no-op.  Metered points
    #: are uncacheable (see :func:`repro.sim.specs.spec_token`).
    metrics: "object | bool | None" = None
    #: Sampling interval (cycles) when ``metrics=True``.
    sample_every: int = 100
    #: Traced-workload mode: a :class:`~repro.chaos.workloads.WorkloadTrace`
    #: (or a :data:`~repro.chaos.workloads.NAMED_WORKLOADS` name) replaces
    #: the Bernoulli :class:`~repro.sim.traffic.TrafficGenerator` —
    #: ``injection_rate``/``packet_length``/``pattern`` are then ignored in
    #: favour of the trace's own schedule.  Traced points stay cacheable:
    #: traces token-ise by name or content digest.
    workload: "object | str | None" = None
    #: Simulation engine: ``"reference"`` (per-flit objects, full feature
    #: set) or ``"vector"`` (struct-of-arrays numpy kernel, cycle-exact
    #: on its supported subset — see :func:`repro.sim.backend.backends`).
    #: Cycle-exact backends share result-cache entries: the backend name
    #: is deliberately absent from the cache key.
    backend: str = "reference"

    def __post_init__(self) -> None:
        # Reject out-of-range knobs before any simulation state is built:
        # a negative rate or packet length would otherwise surface deep in
        # the traffic generator as a simulator error, and cycles < 1 as an
        # empty "[ok]" run.
        if not 0.0 <= self.injection_rate <= 1.0:
            raise ConfigError(
                f"injection_rate must be in [0, 1], got {self.injection_rate!r}"
            )
        for name in ("cycles", "packet_length", "buffer_depth", "sample_every"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value!r}")

    def with_rate(self, rate: float) -> "RunConfig":
        return replace(self, injection_rate=rate)


@dataclass
class RunResult:
    """A simulation point: the config used plus the resulting stats."""

    routing_name: str
    config: RunConfig
    stats: SimStats
    n_nodes: int
    #: The finalized collector when the point ran metered (None otherwise,
    #: including cache hits — a hit replays stats, not samples).
    metrics: "object | None" = None

    @property
    def avg_latency(self) -> float:
        return self.stats.avg_total_latency

    @property
    def throughput(self) -> float:
        return self.stats.throughput(self.n_nodes)

    @property
    def deadlocked(self) -> bool:
        return self.stats.deadlocked

    def row(self) -> str:
        lat = f"{self.avg_latency:8.1f}" if self.stats.latencies else "     n/a"
        status = "DEADLOCK" if self.deadlocked else "ok"
        return (
            f"{self.routing_name:28s} rate={self.config.injection_rate:.3f}"
            f" lat={lat} thr={self.throughput:.4f} [{status}]"
        )


@dataclass
class BuiltPoint:
    """One simulation point built by :func:`build_point` and not yet run.

    ``simulator`` is live: a caller may attach a
    :class:`~repro.sim.trace.Trace` before :meth:`run`, or read
    ``last_reroute_verdict`` after it.
    """

    routing: RoutingFunction
    config: RunConfig
    simulator: "object"
    traffic: "object"
    n_nodes: int
    metrics: "object | None" = None

    def run(self) -> RunResult:
        """Simulate the point (drained per ``config.drain``)."""
        stats = self.simulator.run(
            self.config.cycles, self.traffic, drain=self.config.drain
        )
        if self.metrics is not None:
            self.metrics.finalize()
        return RunResult(
            self.routing.name, self.config, stats, self.n_nodes,
            metrics=self.metrics,
        )


def build_point(
    topology: Topology,
    routing: RoutingFunction | RoutingFactory | str,
    config: RunConfig,
    rule: ClassRule = no_classes,
) -> BuiltPoint:
    """The simulator and traffic :func:`run_point` runs, built but not run."""
    if not isinstance(routing, RoutingFunction):
        routing = resolve_routing_factory(routing)(topology)
    backend = resolve_backend(config.backend)
    check_run_config(backend, config)
    routing_factory = config.routing_factory
    if isinstance(routing_factory, str):
        routing_factory = resolve_routing_factory(routing_factory)
    collector = config.metrics
    if collector is True:
        from repro.sim.metrics import MetricsCollector

        collector = MetricsCollector(sample_every=config.sample_every)
    elif collector is False:
        collector = None
    sim = simulator_class(backend.name)(
        topology,
        routing,
        rule,
        buffer_depth=config.buffer_depth,
        selection=resolve_selection(config.selection),
        atomic_buffers=config.atomic_buffers,
        watchdog=config.watchdog,
        seed=config.seed,
        metrics=collector,
        faults=config.faults,
        recovery=config.recovery,
        routing_factory=routing_factory,
    )
    if config.workload is not None:
        # Traced mode: the workload's own deterministic schedule replaces
        # the Bernoulli injection process (lazy import — chaos depends on
        # sim, so the reverse edge must not exist at module level).
        from repro.chaos.workloads import resolve_workload

        traffic: "object" = resolve_workload(config.workload).materialize(
            topology, config.cycles
        )
    else:
        traffic = TrafficGenerator(
            topology,
            TrafficConfig(
                injection_rate=config.injection_rate,
                packet_length=config.packet_length,
                pattern=resolve_pattern(config.pattern),
                seed=config.seed + 7919,
            ),
        )
    return BuiltPoint(
        routing, config, sim, traffic, len(topology.nodes), metrics=collector
    )


def run_point(
    topology: Topology,
    routing: RoutingFunction | RoutingFactory | str,
    config: RunConfig,
    rule: ClassRule = no_classes,
) -> RunResult:
    """Run one simulation point.

    ``routing`` may be a ready :class:`RoutingFunction`, a factory, or a
    named routing spec (``"xy"``, any catalog design name, arrow
    notation) resolved via :mod:`repro.sim.specs`.
    """
    return build_point(topology, routing, config, rule).run()


def sweep_rates(
    topology: Topology,
    routing_factory: RoutingFactory | str,
    rates: Sequence[float],
    config: RunConfig,
    *deprecated_rule: ClassRule,
    rule: ClassRule | None = None,
    engine: "SweepEngine | None" = None,
    jobs: int | None = None,
) -> list[RunResult]:
    """Latency/throughput curve over injection rates (one fresh net per point).

    ``engine=`` (a :class:`~repro.sim.parallel.SweepEngine`) or ``jobs=``
    routes the sweep through the parallel engine — same results, fanned
    out over processes, with optional result caching.  The default stays
    the deterministic serial loop.

    .. versionchanged:: 1.6
        Passing ``rule`` positionally (deprecated since 1.1) is now an
        error; pass it by keyword.
    """
    if deprecated_rule:
        raise TypeError(
            "sweep_rates() no longer accepts the class rule positionally"
            " (deprecated in 1.1, removed in 1.6): pass it by keyword,"
            " sweep_rates(..., rule=...)"
        )
    if rule is None:
        rule = no_classes

    if engine is None and jobs is not None:
        from repro.sim.parallel import SweepEngine

        engine = SweepEngine(jobs=jobs)
    if engine is not None:
        return engine.sweep(topology, routing_factory, rates, config, rule=rule).results

    factory = resolve_routing_factory(routing_factory)
    results = []
    for rate in rates:
        routing = factory(topology)
        results.append(run_point(topology, routing, config.with_rate(rate), rule))
    return results


def saturation_rate(
    results: Sequence[RunResult],
    *,
    latency_factor: float = 3.0,
) -> float | None:
    """First injection rate whose latency exceeds ``latency_factor`` x the
    zero-load latency (or that deadlocks); None when never saturated.

    The zero-load baseline is the *minimum-rate* point with any delivered
    packets — not merely the first element — so a sweep supplied in
    descending (or shuffled) rate order, or one whose early points sit
    above saturation, cannot mislabel the curve.
    """
    if not results:
        return None
    measured = [r for r in results if r.stats.latencies]
    if not measured:
        return None
    base = min(measured, key=lambda r: r.config.injection_rate).avg_latency
    for r in sorted(results, key=lambda r: r.config.injection_rate):
        if r.deadlocked:
            return r.config.injection_rate
        if r.stats.latencies and r.avg_latency > latency_factor * base:
            return r.config.injection_rate
    return None


def compare_table(results_by_algo: dict[str, Sequence[RunResult]]) -> str:
    """Multi-algorithm comparison table (rows = rates, cols = algorithms)."""
    algos = list(results_by_algo)
    if not algos:
        return "(no results)"
    rates = [r.config.injection_rate for r in results_by_algo[algos[0]]]
    header = "rate     " + "  ".join(f"{a:>22s}" for a in algos)
    lines = [header]
    for i, rate in enumerate(rates):
        cells = []
        for a in algos:
            r = results_by_algo[a][i]
            if r.deadlocked:
                cells.append(f"{'DEADLOCK':>22s}")
            elif r.stats.latencies:
                cells.append(f"{r.avg_latency:>14.1f} cycles")
            else:
                cells.append(f"{'n/a':>22s}")
        lines.append(f"{rate:<8.3f} " + "  ".join(cells))
    return "\n".join(lines)
