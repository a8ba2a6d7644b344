"""Simulation backend registry and capability introspection.

Two engines can execute a :class:`~repro.sim.runner.RunConfig` point:

* ``"reference"`` — the per-flit object simulator
  (:class:`~repro.sim.network.NetworkSimulator`), the semantic ground
  truth with every feature (telemetry, tracing, faults, recovery);
* ``"vector"`` — the struct-of-arrays numpy kernel
  (:class:`~repro.sim.vector.VectorSimulator`), cycle-exact against the
  reference on the feature subset it implements, and an order of
  magnitude faster on meshes that fit the batched phases.

:func:`backends` lists what each engine supports; :func:`resolve_backend`
maps a name to its :class:`BackendInfo`; :func:`check_run_config` rejects
configs that request features a backend lacks with a
:class:`~repro.errors.ConfigError` *before* any simulation starts.

Because every registered backend is cycle-exact, the result cache keys
points without the backend name (see
:func:`repro.sim.parallel.cache_key`): a point simulated by one backend
is a valid cache hit for the other.  The differential fuzz oracle
(:mod:`repro.fuzz.oracle`) continuously enforces the exactness claim
behind that sharing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.errors import ConfigError
from repro.routing.selection import first_candidate

__all__ = [
    "BackendInfo",
    "backends",
    "check_run_config",
    "refusal",
    "resolve_backend",
    "simulator_class",
]


@dataclass(frozen=True)
class BackendInfo:
    """Capability record for one simulation backend."""

    name: str
    description: str
    #: Bit-identical :class:`~repro.sim.stats.SimStats` to the reference
    #: on every supported configuration (deadlock cycle included).
    cycle_exact: bool
    supports_metrics: bool
    supports_tracer: bool
    supports_faults: bool
    supports_recovery: bool
    supports_waypoints: bool
    #: Named selection policies the backend accepts.
    supported_selections: tuple[str, ...]
    #: Switching modes the backend accepts.
    supported_switching: tuple[str, ...]

    def to_dict(self) -> dict:
        return asdict(self)


_BACKENDS: dict[str, BackendInfo] = {
    "reference": BackendInfo(
        name="reference",
        description="per-flit object simulator; full feature set, ground truth",
        cycle_exact=True,
        supports_metrics=True,
        supports_tracer=True,
        supports_faults=True,
        supports_recovery=True,
        supports_waypoints=True,
        supported_selections=("first", "random", "zigzag", "congestion"),
        supported_switching=("wormhole", "vct", "saf"),
    ),
    "vector": BackendInfo(
        name="vector",
        description="struct-of-arrays numpy kernel; cycle-exact, ~21-26x faster",
        cycle_exact=True,
        supports_metrics=False,
        supports_tracer=False,
        supports_faults=False,
        supports_recovery=False,
        supports_waypoints=False,
        supported_selections=("first",),
        supported_switching=("wormhole",),
    ),
}


def backends() -> tuple[BackendInfo, ...]:
    """Every registered simulation backend, reference first."""
    return tuple(_BACKENDS.values())


def resolve_backend(name: str) -> BackendInfo:
    """The :class:`BackendInfo` for ``name``; :class:`ConfigError` if unknown."""
    info = _BACKENDS.get(name)
    if info is None:
        known = ", ".join(sorted(_BACKENDS))
        raise ConfigError(f"unknown backend {name!r}: expected one of {known}")
    return info


def simulator_class(name: str):
    """The simulator class implementing backend ``name`` (lazy import)."""
    resolve_backend(name)
    if name == "vector":
        from repro.sim.vector import VectorSimulator

        return VectorSimulator
    from repro.sim.network import NetworkSimulator

    return NetworkSimulator


def refusal(info: BackendInfo, feature: str) -> ConfigError:
    """The :class:`~repro.errors.ConfigError` refusing ``feature`` on a backend."""
    return ConfigError(
        f"backend {info.name!r} does not support {feature};"
        " use RunConfig(backend='reference') for this configuration"
        " (repro.sim.backends() lists capabilities)"
    )


def check_run_config(info: BackendInfo, config) -> None:
    """Reject a :class:`~repro.sim.runner.RunConfig` the backend cannot run.

    Raises :class:`~repro.errors.ConfigError` naming the offending
    feature and the backend that would accept it; a config that passes
    here may still fail inside the simulator for reasons independent of
    the backend (bad topology, invalid rates, ...).
    """
    if not info.supports_metrics and config.metrics not in (None, False):
        raise refusal(info, "metrics= telemetry")
    if not info.supports_faults and config.faults is not None:
        raise refusal(info, "fault injection (faults=)")
    if not info.supports_recovery and config.recovery is not None:
        raise refusal(info, "deadlock/fault recovery (recovery=)")
    selection = config.selection
    if not callable(selection):
        if selection not in info.supported_selections:
            raise refusal(info, f"selection={selection!r}")
    elif "first" in info.supported_selections and len(info.supported_selections) == 1:
        # A callable policy is only acceptable when it IS the one policy
        # the backend implements.
        from repro.sim.specs import resolve_selection

        if resolve_selection(selection) is not first_candidate:
            raise refusal(info, "custom selection policies")
