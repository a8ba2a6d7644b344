"""Exception hierarchy for the EbDa reproduction library.

Every error raised by the library derives from :class:`EbdaError` so callers
can catch library failures with a single except clause while still
distinguishing the precise failure mode.
"""

from __future__ import annotations


class EbdaError(Exception):
    """Base class for all errors raised by this library."""


class ChannelParseError(EbdaError, ValueError):
    """A channel string such as ``"X2+"`` could not be parsed."""


class PartitionError(EbdaError, ValueError):
    """A partition or partition sequence violates a structural rule."""


class TheoremViolation(EbdaError, ValueError):
    """A construction violates one of the EbDa theorems.

    The offending theorem is recorded in :attr:`theorem` (1, 2 or 3) and a
    human-readable explanation in ``args[0]``.
    """

    def __init__(self, theorem: int, message: str) -> None:
        super().__init__(message)
        self.theorem = theorem


class TopologyError(EbdaError, ValueError):
    """A topology is malformed or an operation referenced a missing node/link."""


class RoutingError(EbdaError, ValueError):
    """A routing function was queried with an invalid state or has no legal output."""


class ConfigError(EbdaError, ValueError):
    """A run configuration is invalid or unsupported as a whole.

    Raised eagerly — before any simulation state is built — when a
    :class:`~repro.sim.runner.RunConfig` holds an out-of-range knob
    (``injection_rate`` outside [0, 1], ``cycles`` < 1), names an unknown
    simulation backend or requests a feature the chosen backend does not
    implement (e.g. ``metrics=`` on the vectorized backend).  The message
    always names the offending field.
    """


class SimulationError(EbdaError, RuntimeError):
    """The simulator reached an inconsistent internal state."""


class FaultError(SimulationError):
    """A runtime fault (link/router failure, flit corruption) could not be
    absorbed: the degraded network violates an invariant the simulation
    needs (e.g. the rerouted design is no longer EbDa-valid)."""


class UnroutableError(FaultError):
    """The degraded network cannot route required traffic at all — it is
    disconnected, or a packet's source can no longer reach its destination
    under any legal route."""


class DeadlockDetected(SimulationError):
    """Raised (optionally) when the deadlock detector finds a cyclic wait.

    Attributes
    ----------
    cycle:
        The list of packet ids forming the cyclic wait, in order.
    cycle_channels:
        The concrete channels each packet holds while waiting.
    """

    def __init__(self, cycle, cycle_channels=None) -> None:
        super().__init__(f"deadlock cycle among packets: {list(cycle)}")
        self.cycle = list(cycle)
        self.cycle_channels = list(cycle_channels or [])
