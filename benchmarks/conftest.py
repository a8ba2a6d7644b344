"""Benchmark-suite helpers.

Every paper artifact has one benchmark that times its regeneration and
prints the regenerated table/figure content (run pytest with ``-s`` to see
it).  Simulation-heavy experiments run one round (they are macro
experiments, not microbenchmarks).
"""

from __future__ import annotations

import pytest


@pytest.fixture
def once(benchmark):
    """Run a macro experiment exactly once under the benchmark clock."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner


def report(result) -> None:
    """Print an experiment report and assert its paper checks."""
    print()
    print(result.report())
    result.require()

