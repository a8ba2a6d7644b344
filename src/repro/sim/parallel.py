"""Parallel sweep engine with content-addressed result caching.

The evaluation surface (V2/V3 rate sweeps, the V7 chaos sweep, turn-model
searches) is embarrassingly parallel: every simulation point is fully
described by ``(topology, routing spec, RunConfig, class rule)`` and runs
independently.  :class:`SweepEngine` fans those points out over a
:class:`~concurrent.futures.ProcessPoolExecutor` — with a deterministic
in-process fallback for ``jobs=1`` and for unpicklable work — and
memoises finished points in an on-disk :class:`ResultCache` so repeated
sweeps and CI benchmark runs skip already-computed simulations.

Determinism contract: every point carries its own seeds, so ``jobs=4``
produces **bit-identical** :class:`~repro.sim.stats.SimStats` to
``jobs=1`` for the same configs, and a cache-loaded point compares equal
to a freshly simulated one.

Cache-key contract (what invalidates a cached point):

* the topology (``repr`` + node count + a digest of the full link list);
* the routing spec token (name, registered factory, or design notation);
* the class-rule token;
* every :class:`~repro.sim.runner.RunConfig` field (callable fields via
  their spec tokens; fault schedules event by event) — except
  ``backend``, which is deliberately excluded: every registered backend
  is cycle-exact (:mod:`repro.sim.backend`), so a point simulated by one
  backend is a valid hit for the other;
* the library version (:data:`repro.__version__`) and the cache schema.

A point whose spec has no stable token (a lambda pattern, a closure
factory) is simply *uncacheable*: it always simulates, it is never
written, and it can never produce a stale hit.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Sequence

from repro import jsonio
from repro.errors import EbdaError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import current_tracer
from repro.routing.base import RoutingFunction
from repro.sim.runner import RunConfig, RunResult, run_point
from repro.sim.specs import resolve_routing_factory, spec_token
from repro.sim.stats import SimStats
from repro.topology.base import Topology
from repro.topology.classes import ClassRule, no_classes

__all__ = [
    "CACHE_SCHEMA",
    "PointOutcome",
    "ResultCache",
    "SweepEngine",
    "SweepReport",
    "cache_key",
    "default_cache_dir",
    "point_token",
    "sweep_token",
    "topology_token",
]

#: Bump to invalidate every existing cache entry after a format change.
CACHE_SCHEMA = 1


def default_cache_dir() -> Path:
    """``$REPRO_EBDA_CACHE_DIR``, else ``~/.cache/repro-ebda``."""
    env = os.environ.get("REPRO_EBDA_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-ebda"


def topology_token(topology: Topology) -> str:
    """A content-addressed token for a concrete topology.

    ``repr`` alone distinguishes the stock shapes (``Mesh(4, 4)``); the
    link digest additionally catches degraded/irregular instances whose
    repr under-describes the wiring.
    """
    links = "\n".join(
        f"{l.src}>{l.dst}:{l.dim}{l.sign:+d}" for l in sorted(topology.links)
    )
    digest = hashlib.sha256(links.encode()).hexdigest()[:16]
    return f"{topology!r}|n={len(topology.nodes)}|links={digest}"


def _routing_token(routing: object) -> str | None:
    """Token for the sweep's routing argument (spec, factory or instance)."""
    token = spec_token("routing", routing)
    if token is not None:
        return token
    if isinstance(routing, RoutingFunction):
        cls = type(routing)
        parts = [f"obj:{cls.__module__}.{cls.__qualname__}", f"name={routing.name}"]
        design = getattr(routing, "design", None)
        if design is not None:
            parts.append(f"design={design.arrow_notation()}")
        return "|".join(parts)
    return None


def _config_token(config: RunConfig) -> str | None:
    """Canonical string of every RunConfig field, or None when uncacheable."""
    parts: list[str] = []
    for f in fields(config):
        if f.name == "backend":
            # Backends are cycle-exact (repro.sim.backend): identical
            # stats either way, so keys stay backend-agnostic and the
            # engines share cache entries.
            continue
        value = getattr(config, f.name)
        if f.name in ("pattern", "selection", "metrics", "workload"):
            token = spec_token(f.name, value)
        elif f.name == "routing_factory":
            token = spec_token("routing", value)
        elif f.name == "faults":
            token = (
                "none"
                if value is None
                else f"seed={value.seed};" + ";".join(repr(e) for e in value.events)
            )
        else:
            token = repr(value)
        if token is None:
            return None
        parts.append(f"{f.name}={token}")
    return "|".join(parts)


def point_token(
    topology: Topology,
    routing: object,
    config: RunConfig,
    rule: ClassRule = no_classes,
) -> str | None:
    """A *version-free* 16-hex identity for one point, or None when the
    point has no stable spec.

    This is the run ledger's spec token (:mod:`repro.obs.ledger`): two
    library versions running the same point share it, which is exactly
    what lets ``repro runs diff`` detect cross-version result drift.
    The result cache builds :func:`cache_key` on top by adding the cache
    schema and library version.
    """
    routing_token = _routing_token(routing)
    config_token = _config_token(config)
    rule_token = spec_token("rule", rule)
    if routing_token is None or config_token is None or rule_token is None:
        return None
    material = "\n".join(
        [
            f"topology={topology_token(topology)}",
            f"routing={routing_token}",
            f"rule={rule_token}",
            f"config={config_token}",
        ]
    )
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def sweep_token(
    topology: Topology,
    routing: object,
    rates: Sequence[float],
    config: RunConfig,
    rule: ClassRule = no_classes,
) -> str | None:
    """A version-free 16-hex identity for a whole rate sweep, or None."""
    base = point_token(topology, routing, config, rule)
    if base is None:
        return None
    material = f"point={base}\nrates={','.join(repr(float(r)) for r in rates)}"
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def cache_key(
    topology: Topology,
    routing: object,
    config: RunConfig,
    rule: ClassRule = no_classes,
) -> str | None:
    """The content-addressed key for one point, or None when uncacheable."""
    import repro

    token = point_token(topology, routing, config, rule)
    if token is None:
        return None
    material = "\n".join(
        [
            f"schema={CACHE_SCHEMA}",
            f"version={repro.__version__}",
            f"point={token}",
        ]
    )
    return hashlib.sha256(material.encode()).hexdigest()


class ResultCache:
    """On-disk store of finished simulation points, one JSON file per key.

    Writes are atomic (:func:`repro.jsonio.atomic_write`), so concurrent
    sweeps sharing a directory can only ever observe complete entries.
    """

    def __init__(self, directory: "Path | str | None" = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str, config: RunConfig) -> RunResult | None:
        """The cached result for ``key`` (rebuilt around ``config``); a bad entry misses."""
        try:
            payload = jsonio.read_json(self._path(key), "cache entry")
            if payload.get("schema") != CACHE_SCHEMA:
                return None
            return RunResult(
                routing_name=payload["routing_name"],
                config=config,
                stats=SimStats.from_dict(payload["stats"]),
                n_nodes=payload["n_nodes"],
            )
        except (EbdaError, KeyError, TypeError, ValueError):
            return None

    def put(self, key: str, result: RunResult, wall_time: float) -> None:
        """Store a finished point under ``key``."""
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA,
            "routing_name": result.routing_name,
            "n_nodes": result.n_nodes,
            "stats": result.stats.to_dict(),
            "wall_time": wall_time,
        }
        jsonio.atomic_write(self._path(key), jsonio.line(payload).encode())

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.directory.glob("*.json"))
        except OSError:
            return 0

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.directory.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


@dataclass
class PointOutcome:
    """One sweep point's result plus its execution provenance."""

    result: RunResult
    #: Seconds this point took (simulation time for misses, load time for hits).
    wall_time: float
    #: True when served from the cache without simulating.
    cached: bool
    #: The cache key, or None when the point was uncacheable.
    key: str | None = None


@dataclass
class SweepReport:
    """A finished sweep: results plus the measurements that justify it.

    ``repro.sweep``/:meth:`SweepEngine.sweep` return this instead of a
    bare result list so speedups and cache effectiveness are measurable
    (the benchmark suite records them via :meth:`to_dict`).
    """

    points: list[PointOutcome]
    jobs: int
    wall_time: float
    #: Wall seconds per engine stage: ``cache_read`` (probing existing
    #: entries), ``spawn`` (process-pool construction), ``simulate``
    #: (executing the misses), ``cache_write`` (persisting new entries).
    #: Simulation time is additionally attributed per engine under
    #: ``simulate:<backend>`` keys (``simulate:reference``,
    #: ``simulate:vector``) summing each miss's own wall time, so a
    #: mixed-backend batch shows where the cycles actually ran.
    stage_times: dict[str, float] = field(default_factory=dict)

    @property
    def results(self) -> list[RunResult]:
        return [p.result for p in self.points]

    @property
    def cache_hits(self) -> int:
        return sum(1 for p in self.points if p.cached)

    @property
    def cache_misses(self) -> int:
        return sum(1 for p in self.points if not p.cached)

    @property
    def cycles_executed(self) -> int:
        """Simulation cycles actually executed (cache hits contribute 0)."""
        return sum(p.result.stats.cycles for p in self.points if not p.cached)

    @property
    def point_wall_times(self) -> list[float]:
        return [p.wall_time for p in self.points]

    def summary(self) -> str:
        """One-line human-readable account of the sweep."""
        return (
            f"{len(self.points)} points in {self.wall_time:.2f}s"
            f" (jobs={self.jobs}, cache {self.cache_hits} hit"
            f"/{self.cache_misses} miss, {self.cycles_executed} sim cycles)"
        )

    def stage_summary(self) -> str:
        """One line of engine stage times (``repro sweep`` prints this).

        Fixed stages first, then the per-backend ``simulate:<engine>``
        attributions, each as ``name=seconds``.
        """
        order = ["cache_read", "spawn", "simulate", "cache_write"]
        keys = [k for k in order if k in self.stage_times]
        keys += sorted(k for k in self.stage_times if k not in order)
        return "stages: " + " ".join(
            f"{k}={self.stage_times[k]:.3f}s" for k in keys
        )

    def to_dict(self) -> dict:
        """Strict-JSON-safe report (per-point timings and telemetry included).

        ``avg_latency`` is ``None`` (not the invalid-JSON ``NaN``) for
        points that delivered no packets; metered points carry their
        collector's compact summary under ``"metrics"``.
        """
        def point_dict(p: PointOutcome) -> dict:
            lat = p.result.avg_latency
            entry = {
                "routing": p.result.routing_name,
                "injection_rate": p.result.config.injection_rate,
                "seed": p.result.config.seed,
                "avg_latency": None if lat != lat else lat,
                "throughput": p.result.throughput,
                "deadlocked": p.result.deadlocked,
                "wall_time": p.wall_time,
                "cached": p.cached,
            }
            collector = getattr(p.result, "metrics", None)
            if collector is not None:
                entry["metrics"] = collector.summary_dict()
            return entry

        return {
            "jobs": self.jobs,
            "wall_time": self.wall_time,
            "stage_times": dict(self.stage_times),
            "n_points": len(self.points),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cycles_executed": self.cycles_executed,
            "points": [point_dict(p) for p in self.points],
        }


#: Metric names the engine reports (see :mod:`repro.obs.metrics`).
_HITS = "repro_cache_hits_total"
_HITS_HELP = "Result-cache hits served without simulating"
_MISSES = "repro_cache_misses_total"
_MISSES_HELP = "Result-cache misses (points actually simulated)"
_SIM_SECONDS = "repro_simulate_seconds"
_SIM_HELP = "Wall seconds per simulated point, by backend"


def _execute_point(payload: tuple) -> tuple[RunResult, float]:
    """Worker entry: simulate one point, timing it (module-level: picklable)."""
    topology, routing, config, rule = payload
    start = time.perf_counter()
    result = run_point(topology, routing, config, rule)
    return result, time.perf_counter() - start


def _picklable(obj: object) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:  # pickle raises a zoo: PicklingError, TypeError, ...
        return False


class SweepEngine:
    """Executes simulation points in parallel, consulting a result cache.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs everything in-process
        — the deterministic fallback path; results are bit-identical
        either way.
    cache:
        ``False`` (default) disables caching; ``True`` uses
        :func:`default_cache_dir`; a path or :class:`ResultCache` selects
        an explicit store.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: "bool | str | Path | ResultCache" = False,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        if isinstance(cache, ResultCache):
            self.cache: ResultCache | None = cache
        elif cache is True:
            self.cache = ResultCache()
        elif cache:
            self.cache = ResultCache(cache)
        else:
            self.cache = None

    # -- single points ---------------------------------------------------------

    def run_point(
        self,
        topology: Topology,
        routing: "RoutingFunction | str | object",
        config: RunConfig,
        rule: ClassRule = no_classes,
    ) -> PointOutcome:
        """One point, in-process, cache-aware."""
        tracer = current_tracer()
        with tracer.span("sweep.point", backend=config.backend) as span:
            key = (
                cache_key(topology, routing, config, rule)
                if self.cache is not None
                else None
            )
            if key is not None and self.cache is not None:
                cached = self._load(key, config)
                if cached is not None:
                    REGISTRY.counter(_HITS, help=_HITS_HELP).inc()
                    span.set(cached=True)
                    return cached
            result, elapsed = _execute_point((topology, routing, config, rule))
            if self.cache is not None:
                REGISTRY.counter(_MISSES, help=_MISSES_HELP).inc()
            REGISTRY.histogram(
                _SIM_SECONDS, labels={"backend": config.backend}, help=_SIM_HELP
            ).observe(elapsed)
            if key is not None and self.cache is not None:
                self.cache.put(key, result, elapsed)
            span.set(cached=False)
            return PointOutcome(result, elapsed, cached=False, key=key)

    def _load(self, key: str, config: RunConfig) -> PointOutcome | None:
        start = time.perf_counter()
        result = self.cache.get(key, config)  # type: ignore[union-attr]
        if result is None:
            return None
        return PointOutcome(result, time.perf_counter() - start, cached=True, key=key)

    # -- fan-out ---------------------------------------------------------------

    def map_tasks(self, fn, payloads: Iterable) -> list:
        """Fan arbitrary independent tasks out over the worker pool.

        ``fn`` must be a module-level callable and each payload picklable
        for the parallel path; otherwise the whole batch degrades to the
        deterministic in-process fallback (same results, serially).
        Results preserve payload order.  Unlike :meth:`run_many` this does
        not consult the result cache — callers own their own memoisation.
        The fuzzing harness (:mod:`repro.fuzz.runner`) uses this to spread
        differential trials across workers.
        """
        items = list(payloads)
        parallel = (
            self.jobs > 1
            and len(items) > 1
            and _picklable(fn)
            and all(_picklable(item) for item in items)
        )
        if not parallel:
            return [fn(item) for item in items]
        pool = ProcessPoolExecutor(max_workers=self.jobs)
        try:
            return list(pool.map(fn, items))
        finally:
            pool.shutdown()

    def run_many(
        self,
        points: Iterable[tuple[Topology, object, RunConfig]],
        rule: ClassRule = no_classes,
    ) -> SweepReport:
        """Run ``(topology, routing-spec, config)`` points, preserving order.

        Cache hits load immediately; misses fan out over the process pool
        when ``jobs > 1`` and every miss payload is picklable, otherwise
        they run in-process (same results, serially).
        """
        started = time.perf_counter()
        stage_times = {
            "cache_read": 0.0, "spawn": 0.0, "simulate": 0.0, "cache_write": 0.0,
        }
        work = [(t, r, c, rule) for (t, r, c) in points]
        outcomes: list[PointOutcome | None] = [None] * len(work)
        tracer = current_tracer()
        with tracer.span(
            "sweep.run_many", points=len(work), jobs=self.jobs
        ) as root:
            return self._run_many_traced(
                tracer, root, work, outcomes, stage_times, started
            )

    def _run_many_traced(
        self, tracer, root, work, outcomes, stage_times, started
    ) -> SweepReport:
        with tracer.span("sweep.cache_read"):
            mark = time.perf_counter()
            pending: list[tuple[int, tuple]] = []
            for i, payload in enumerate(work):
                key = cache_key(*payload) if self.cache is not None else None
                if key is not None and self.cache is not None:
                    cached = self._load(key, payload[2])
                    if cached is not None:
                        outcomes[i] = cached
                        continue
                pending.append((i, payload))
            stage_times["cache_read"] = time.perf_counter() - mark

        parallel = (
            self.jobs > 1
            and len(pending) > 1
            and all(_picklable(payload) for _i, payload in pending)
        )
        if parallel:
            with tracer.span("sweep.spawn"):
                mark = time.perf_counter()
                pool = ProcessPoolExecutor(max_workers=self.jobs)
                stage_times["spawn"] = time.perf_counter() - mark
            with tracer.span("sweep.simulate", parallel=True, misses=len(pending)):
                mark = time.perf_counter()
                try:
                    executed = list(
                        pool.map(_execute_point, [payload for _i, payload in pending])
                    )
                finally:
                    pool.shutdown()
                stage_times["simulate"] = time.perf_counter() - mark
        else:
            with tracer.span("sweep.simulate", parallel=False, misses=len(pending)):
                mark = time.perf_counter()
                executed = [_execute_point(payload) for _i, payload in pending]
                stage_times["simulate"] = time.perf_counter() - mark

        with tracer.span("sweep.cache_write"):
            mark = time.perf_counter()
            for (i, payload), (result, elapsed) in zip(pending, executed):
                key = cache_key(*payload) if self.cache is not None else None
                if key is not None and self.cache is not None:
                    self.cache.put(key, result, elapsed)
                backend_stage = f"simulate:{payload[2].backend}"
                stage_times[backend_stage] = stage_times.get(backend_stage, 0.0) + elapsed
                REGISTRY.histogram(
                    _SIM_SECONDS,
                    labels={"backend": payload[2].backend},
                    help=_SIM_HELP,
                ).observe(elapsed)
                outcomes[i] = PointOutcome(result, elapsed, cached=False, key=key)
            stage_times["cache_write"] = time.perf_counter() - mark

        hits = sum(1 for o in outcomes if o is not None and o.cached)
        if self.cache is not None:
            REGISTRY.counter(_HITS, help=_HITS_HELP).inc(hits)
            REGISTRY.counter(_MISSES, help=_MISSES_HELP).inc(len(pending))
        root.set(cache_hits=hits, cache_misses=len(pending))

        return SweepReport(
            points=[o for o in outcomes if o is not None],
            jobs=self.jobs if parallel else 1,
            wall_time=time.perf_counter() - started,
            stage_times=stage_times,
        )

    def sweep(
        self,
        topology: Topology,
        routing_factory: "object | str",
        rates: Sequence[float],
        config: RunConfig,
        rule: ClassRule = no_classes,
    ) -> SweepReport:
        """Latency/throughput curve over injection rates, one point per rate.

        The parallel analogue of :func:`repro.sim.runner.sweep_rates`;
        named specs keep the fan-out picklable, raw factories degrade to
        the in-process path automatically.
        """
        if not isinstance(routing_factory, str):
            # Fail fast on typos; string specs resolve in the workers.
            resolve_routing_factory(routing_factory)
        points = [(topology, routing_factory, config.with_rate(r)) for r in rates]
        report = self.run_many(points, rule)
        self._ledger_sweep(topology, routing_factory, rates, config, rule, report)
        return report

    def _ledger_sweep(
        self, topology, routing_factory, rates, config, rule, report
    ) -> None:
        """Append a ``sweep`` ledger record when a ledger is configured.

        Identity is the version-free :func:`sweep_token`; the outcome
        digest covers every point's deterministic stats dict, in rate
        order, so any drifting point flips the sweep's digest.
        """
        from repro.obs.ledger import current_ledger, record_run

        if current_ledger() is None:
            return
        spec = sweep_token(topology, routing_factory, rates, config, rule)
        if spec is None:
            spec = f"unhashable:{getattr(routing_factory, '__name__', routing_factory)}"
        deadlocked = any(r.deadlocked for r in report.results)
        record_run(
            "sweep",
            spec=spec,
            backend=config.backend,
            seed=config.seed,
            outcome="deadlock" if deadlocked else "ok",
            payload=[r.stats.to_dict() for r in report.results],
            wall_s=report.wall_time,
        )
