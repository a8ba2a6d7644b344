"""EbDa — design and verification of deadlock-free interconnection networks.

A full reproduction of *"EbDa: A New Theory on Design and Verification of
Deadlock-free Interconnection Networks"* (Ebrahimi & Daneshtalab, ISCA
2017), comprising:

* :mod:`repro.core` — the EbDa theory: channels, partitions, the three
  theorems, turn extraction, Algorithm 1/2, minimal-channel constructions,
  and the arbitrary-network deadlock-free-routing existence condition;
* :mod:`repro.cdg` — channel dependency graphs (Dally verification), the
  Glass-Ni turn-model enumeration, combinatorial complexity accounting;
* :mod:`repro.topology` — n-D mesh, k-ary n-cube, vertically partially
  connected 3D, dragonfly, fat-tree, irregular and arbitrary-graph
  topologies;
* :mod:`repro.routing` — EbDa table-driven routing plus the baseline
  algorithms the paper discusses (XY, west-first, north-last,
  negative-first, Odd-Even, DyXY, Elevator-First, Up*/Down*);
* :mod:`repro.sim` — a cycle-based flit-level wormhole network simulator
  with virtual channels, credit flow control and deadlock detection;
* :mod:`repro.analysis` — adaptiveness metrics and turn accounting;
* :mod:`repro.fuzz` — differential verification fuzzing cross-checking
  theorems, static analyzer, CDG, simulator and the arbitrary-network
  existence condition over five topology families, with minimised
  replayable counterexamples;
* :mod:`repro.analyze` — the static design linter: paper-grounded rules
  (``EBDA001``...) over partitions/turns/classes with text, JSON and
  SARIF reporters (``repro lint``), no CDG build or simulation;
* :mod:`repro.experiments` — one harness per table/figure of the paper.

Quickstart::

    from repro import PartitionSequence, extract_turns
    from repro.cdg import verify_design
    from repro.topology import Mesh

    design = PartitionSequence.parse("X- -> X+ Y+ Y-")   # west-first
    verdict = verify_design(design, Mesh(8, 8))
    assert verdict.acyclic
"""

from repro.core import (
    Channel,
    Partition,
    PartitionSequence,
    Turn,
    TurnKind,
    TurnSet,
    channels,
    check_sequence,
    extract_turns,
    min_channels,
    minimal_fully_adaptive,
    partition_vc_budget,
)
from repro.errors import (
    ChannelParseError,
    ConfigError,
    DeadlockDetected,
    EbdaError,
    FaultError,
    PartitionError,
    RoutingError,
    SimulationError,
    TheoremViolation,
    TopologyError,
    UnroutableError,
)

__version__ = "1.9.0"

#: The stable facade (PEP 562 lazy exports): resolving any of these pulls
#: in the simulator/verification stack on first use, keeping plain
#: ``import repro`` as light as the core theory.
_FACADE = {
    "run_point": "repro.api",
    "sweep": "repro.api",
    "verify": "repro.api",
    "RunConfig": "repro.sim.runner",
    "RunResult": "repro.sim.runner",
    "BackendInfo": "repro.sim.backend",
    "backends": "repro.sim.backend",
    "SimStats": "repro.sim.stats",
    "SweepEngine": "repro.sim.parallel",
    "SweepReport": "repro.sim.parallel",
    "ResultCache": "repro.sim.parallel",
    "MetricsCollector": "repro.sim.metrics",
    "DeadlockForensics": "repro.sim.metrics",
    "FuzzDesign": "repro.fuzz",
    "DesignGenerator": "repro.fuzz",
    "DifferentialOracle": "repro.fuzz",
    "run_fuzz": "repro.fuzz",
    "shrink": "repro.fuzz",
    "Analyzer": "repro.analyze",
    "AnalysisReport": "repro.analyze",
    "DesignUnit": "repro.analyze",
    "Diagnostic": "repro.analyze",
    "lint_design": "repro.analyze",
}


def __getattr__(name: str):
    if name in _FACADE:
        import importlib

        return getattr(importlib.import_module(_FACADE[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_FACADE))


__all__ = [
    "run_point",
    "sweep",
    "verify",
    "RunConfig",
    "RunResult",
    "BackendInfo",
    "backends",
    "SimStats",
    "SweepEngine",
    "SweepReport",
    "ResultCache",
    "MetricsCollector",
    "DeadlockForensics",
    "FuzzDesign",
    "DesignGenerator",
    "DifferentialOracle",
    "run_fuzz",
    "shrink",
    "Analyzer",
    "AnalysisReport",
    "DesignUnit",
    "Diagnostic",
    "lint_design",
    "Channel",
    "Partition",
    "PartitionSequence",
    "Turn",
    "TurnKind",
    "TurnSet",
    "channels",
    "check_sequence",
    "extract_turns",
    "min_channels",
    "minimal_fully_adaptive",
    "partition_vc_budget",
    "ChannelParseError",
    "ConfigError",
    "DeadlockDetected",
    "EbdaError",
    "FaultError",
    "PartitionError",
    "RoutingError",
    "SimulationError",
    "TheoremViolation",
    "TopologyError",
    "UnroutableError",
    "__version__",
]
