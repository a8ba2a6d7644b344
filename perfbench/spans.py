"""The benchmark's own span recorder and the table of layer entry points.

Spans are recorded by wrapping the public callables of each layer for the
duration of a traced round and restoring them afterwards.  This module
deliberately does not use ``repro.obs``: a later rewrite of the program's
own tracing must not change how the benchmark measures.

A wrapper is installed at every name a caller looks up: the class
attribute for methods, and every module-level binding of the original
object for functions (``from x import f`` copies ``f`` into the importing
module, so patching only the defining module would miss those callers).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# Which span name feeds which per-layer self-time metric.  The names of
# the spans are the layers of ``repro`` they enter.
SELF_TIME_METRICS = {
    "analyze.lint": "analyze.lint_s",
    "analyze.certify": "analyze.certify_s",
    "analyze.certcheck": "analyze.certcheck_s",
    "cdg.build": "cdg.build_s",
    "cdg.verdict": "cdg.verdict_s",
    "core.theorems": "core.theorems_s",
    "core.arbitrary": "core.arbitrary_s",
    "topology.build": "topology.build_s",
    "specs.resolve": "specs.resolve_s",
    "routing.candidates": "routing.candidates_s",
    "traffic.packets": "traffic.packets_s",
    "sim.reference.run": "sim.reference.run_s",
    "sim.vector.run": "sim.vector.run_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "fuzz.generate": "fuzz.generate_s",
    "fuzz.trial": "fuzz.trial_s",
    "chaos.trial": "chaos.trial_s",
    "chaos.checkpoint": "chaos.checkpoint_s",
}

# Counts of work done, reported as they are.
COUNTERS = (
    "analyze.lint.calls",
    "cdg.wires",
    "cdg.dependencies",
    "routing.candidates.calls",
    "sim.cycles",
    "sim.flit_moves",
    "cache.get.calls",
    "cache.hits",
)

# (backend, mesh shape) pairs reported as microseconds per flit move.
FLIT_MOVE_MESHES = (
    ("reference", "8x8"),
    ("vector", "8x8"),
    ("vector", "16x16"),
    ("reference", "4x4"),
)


class Recorder:
    """Spans kept in memory: ``[name, parent index, start, end]`` each."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        # (backend, shape) -> [inclusive simulator seconds, flit moves]
        self.flit_cost: dict = defaultdict(lambda: [0.0, 0])
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, on_return=None, on_call=None):
        """``fn`` wrapped to record one span per call.

        ``on_return(result, seconds, token)`` runs after a successful call
        and feeds the counters; ``token`` is what ``on_call(args)`` returned
        before the call (None without ``on_call``).
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = on_call(args) if on_call is not None else None
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result, span[3] - span[2], token)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def patch_method(
        self, cls: type, attr: str, name: str, on_return=None, on_call=None
    ) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, (staticmethod, classmethod)) or not callable(original):
            raise TypeError(f"{cls.__name__}.{attr} is not a plain method")
        self._set(cls, attr, self.wrap(name, original, on_return, on_call))

    def patch_function(self, original, name: str, on_return=None) -> None:
        """Wrap ``original`` at every ``repro`` module binding of it."""
        wrapper = self.wrap(name, original, on_return)
        bound = 0
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)
                    bound += 1
        if not bound:
            raise LookupError(f"no module binds {original.__qualname__}")

    def patch_mapping(self, mapping: dict, name: str) -> None:
        """Wrap every callable value of a registry dict."""
        for key, value in list(mapping.items()):
            self._set(mapping, key, self.wrap(name, value), item=True)

    def _set(self, target, attr, value, item=False) -> None:
        if item:
            self._patches.append((target, attr, target[attr], True))
            target[attr] = value
        else:
            self._patches.append((target, attr, getattr(target, attr), False))
            setattr(target, attr, value)

    def restore(self) -> None:
        for target, attr, original, item in reversed(self._patches):
            if item:
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time of child spans."""
        child = [0.0] * len(self.spans)
        for _name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, _parent, start, end) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return dict(totals)

    def covered(self, first: int) -> float:
        """Seconds covered by top-level spans (no parent) from span ``first`` on."""
        return sum(
            end - start
            for _name, parent, start, end in self.spans[first:]
            if parent < 0
        )

    def write(self, path: Path) -> int:
        """Write every span as gzipped JSON lines; returns the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "parent": parent,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
        return len(self.spans)


def _subclasses(base: type) -> list[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def install(rec: Recorder) -> None:
    """Wrap every layer entry point the per-layer metrics time."""
    import repro.analyze as analyze
    import repro.cdg.graph as graph
    import repro.cdg.verify as verify
    import repro.chaos.campaign as campaign
    import repro.core.arbitrary as arbitrary
    import repro.core.theorems as theorems
    import repro.sim.specs as specs
    from repro.analyze.engine import Analyzer
    from repro.chaos.checkpoint import CampaignCheckpoint
    from repro.fuzz.generator import DesignGenerator
    from repro.fuzz.oracle import DifferentialOracle
    from repro.routing.base import RoutingFunction
    from repro.sim.network import NetworkSimulator
    from repro.sim.parallel import ResultCache
    from repro.sim.vector import VectorSimulator
    from repro.topology.base import Topology

    counts = rec.counts

    def lint_done(result, seconds, token):
        counts["analyze.lint.calls"] += 1

    def verdict_done(result, seconds, token):
        counts["cdg.wires"] += result.wires
        counts["cdg.dependencies"] += result.dependencies

    def candidates_done(result, seconds, token):
        counts["routing.candidates.calls"] += 1

    def cache_get_done(result, seconds, token):
        counts["cache.get.calls"] += 1
        if result is not None:
            counts["cache.hits"] += 1

    def mesh_shape(args):
        # Read before the run: fault recovery swaps in a degraded topology.
        topology = args[0].topology
        if type(topology).__name__ != "Mesh":
            return None
        return "x".join(str(k) for k in topology.shape)

    def sim_done(backend):
        def done(result, seconds, shape):
            counts["sim.cycles"] += result.cycles
            counts["sim.flit_moves"] += result.flit_moves
            if shape is not None:
                cost = rec.flit_cost[(backend, shape)]
                cost[0] += seconds
                cost[1] += result.flit_moves
        return done

    rec.patch_method(Analyzer, "run", "analyze.lint", lint_done)
    rec.patch_function(analyze.certify_all, "analyze.certify")
    rec.patch_function(analyze.check_certificates, "analyze.certcheck")
    for builder in (graph.build_design_cdg, graph.build_routing_cdg, graph.build_turn_cdg):
        rec.patch_function(builder, "cdg.build")
    rec.patch_function(verify.verdict_for, "cdg.verdict", verdict_done)
    rec.patch_function(theorems.audit_turns, "core.theorems")
    for fn in (
        arbitrary.dependency_relation_from_turns,
        arbitrary.dependency_relation_from_routing,
        arbitrary.existence_verdict,
    ):
        rec.patch_function(fn, "core.arbitrary")
    for cls in _subclasses(Topology):
        if "__init__" in cls.__dict__:
            rec.patch_method(cls, "__init__", "topology.build")
    rec.patch_function(specs.resolve_routing_factory, "specs.resolve")
    rec.patch_mapping(specs.NAMED_ROUTING_FACTORIES, "specs.resolve")
    rec.patch_method(specs.EbdaDesignFactory, "__call__", "specs.resolve")
    for cls in _subclasses(RoutingFunction):
        if "candidates" in cls.__dict__:
            rec.patch_method(cls, "candidates", "routing.candidates", candidates_done)
    from repro.chaos.workloads import TracedWorkload
    from repro.sim.traffic import ScriptedTraffic, TrafficGenerator

    for cls in (TrafficGenerator, ScriptedTraffic, TracedWorkload):
        rec.patch_method(cls, "packets_for_cycle", "traffic.packets")
    rec.patch_method(
        NetworkSimulator, "run", "sim.reference.run", sim_done("reference"), mesh_shape
    )
    rec.patch_method(
        VectorSimulator, "run", "sim.vector.run", sim_done("vector"), mesh_shape
    )
    rec.patch_method(ResultCache, "get", "cache.get", cache_get_done)
    rec.patch_method(ResultCache, "put", "cache.put")
    rec.patch_method(DesignGenerator, "designs", "fuzz.generate")
    rec.patch_method(DifferentialOracle, "run", "fuzz.trial")
    rec.patch_function(campaign.run_trial, "chaos.trial")
    rec.patch_method(CampaignCheckpoint, "store", "chaos.checkpoint")
