"""Process-wide metrics: counters, gauges and histograms with exporters.

A :class:`MetricsRegistry` is a flat, get-or-create map from
``(name, labels)`` to one of three instrument kinds:

* :class:`Counter` — monotonically increasing (``repro_cache_hits_total``);
* :class:`Gauge` — last-write-wins level (``repro_campaign_progress``);
* :class:`Histogram` — cumulative-bucket distribution
  (``repro_simulate_seconds{backend="vector"}``).

The module-level :data:`REGISTRY` is what the instrumented subsystems
(:class:`~repro.sim.parallel.SweepEngine`,
:func:`~repro.fuzz.runner.run_fuzz`,
:class:`~repro.chaos.campaign.ChaosCampaign`,
:class:`~repro.analyze.engine.Analyzer`) write into; it exports two
ways:

* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text exposition
  format (``# TYPE`` headers, label sets, ``_bucket``/``_sum``/``_count``
  histogram series), ready to serve from a ``/metrics`` endpoint;
* :meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.to_jsonl` —
  a strict-JSON snapshot per instrument, for machine-readable trend
  tracking.

Instruments are cheap (a dict hit + float add) and the registry is
import-light, so the hot paths pay one attribute lookup when metrics go
unread.  Like tracing, metrics are observational only: nothing here
feeds back into cache keys or simulation results.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from pathlib import Path
from typing import Iterable, Mapping

from repro import jsonio
from repro.errors import EbdaError

__all__ = [
    "METRICS_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
]

#: Bump when the snapshot record schema changes shape.
METRICS_SCHEMA = 1

#: Default histogram buckets: wall-clock seconds from 1 ms to ~2 min.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 120.0)

_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or not set(name) <= _NAME_OK or name[0].isdigit():
        raise EbdaError(
            f"bad metric name {name!r}: use [a-zA-Z_:][a-zA-Z0-9_:]*"
        )
    return name


def _label_key(labels: Mapping[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_suffix(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "labels", "help", "value")

    def __init__(self, name: str, labels: tuple, help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise EbdaError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount

    def snapshot_value(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A level that can go up and down; last write wins."""

    kind = "gauge"
    __slots__ = ("name", "labels", "help", "value")

    def __init__(self, name: str, labels: tuple, help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot_value(self) -> dict:
        return {"value": self.value}


class Histogram:
    """A cumulative-bucket distribution (Prometheus histogram semantics)."""

    kind = "histogram"
    __slots__ = ("name", "labels", "help", "buckets", "counts", "count", "sum")

    def __init__(
        self,
        name: str,
        labels: tuple,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise EbdaError(f"histogram {name} needs at least one bucket")
        self.counts = [0] * len(self.buckets)  # per-bucket (non-cumulative)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        idx = bisect_right(self.buckets, value)
        if idx < len(self.counts):
            self.counts[idx] += 1
        # values above the last bucket only appear in +Inf (count).

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative count)`` pairs, excluding the +Inf bucket."""
        out = []
        running = 0
        for le, n in zip(self.buckets, self.counts):
            running += n
            out.append((le, running))
        return out

    def snapshot_value(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": [
                {"le": le, "count": n} for le, n in self.cumulative()
            ],
        }


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """Get-or-create registry of instruments, with exporters.

    Thread-safe for instrument *creation*; individual updates are plain
    float ops (the GIL-atomic kind the rest of the library relies on).
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple, "Counter | Gauge | Histogram"] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, labels, help: str, **kwargs):
        key = (_check_name(name), _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = cls(name, key[1], help=help, **kwargs)
                    self._instruments[key] = instrument
        if not isinstance(instrument, cls):
            raise EbdaError(
                f"metric {name!r} already registered as a"
                f" {instrument.kind}, not a {cls.kind}"
            )
        return instrument

    def counter(
        self, name: str, labels: Mapping[str, str] | None = None, help: str = ""
    ) -> Counter:
        return self._get(Counter, name, labels, help)

    def gauge(
        self, name: str, labels: Mapping[str, str] | None = None, help: str = ""
    ) -> Gauge:
        return self._get(Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, labels, help, buckets=buckets)

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self):
        return iter(sorted(self._instruments.values(), key=lambda i: (i.name, i.labels)))

    def reset(self) -> None:
        """Drop every instrument (tests and fresh campaign runs)."""
        with self._lock:
            self._instruments.clear()

    # -- exporters -------------------------------------------------------------

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        seen_headers: set[str] = set()
        for instrument in self:
            if instrument.name not in seen_headers:
                seen_headers.add(instrument.name)
                if instrument.help:
                    lines.append(f"# HELP {instrument.name} {instrument.help}")
                lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            suffix = _label_suffix(instrument.labels)
            if isinstance(instrument, Histogram):
                for le, running in instrument.cumulative():
                    le_labels = instrument.labels + (("le", _format_value(le)),)
                    lines.append(
                        f"{instrument.name}_bucket{_label_suffix(le_labels)}"
                        f" {running}"
                    )
                inf_labels = instrument.labels + (("le", "+Inf"),)
                lines.append(
                    f"{instrument.name}_bucket{_label_suffix(inf_labels)}"
                    f" {instrument.count}"
                )
                lines.append(
                    f"{instrument.name}_sum{suffix} {_format_value(instrument.sum)}"
                )
                lines.append(f"{instrument.name}_count{suffix} {instrument.count}")
            else:
                lines.append(
                    f"{instrument.name}{suffix} {_format_value(instrument.value)}"
                )
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> list[dict]:
        """One strict-JSON record per instrument, sorted by (name, labels)."""
        out = []
        for instrument in self:
            out.append(
                {
                    "schema": METRICS_SCHEMA,
                    "record": "metric",
                    "name": instrument.name,
                    "kind": instrument.kind,
                    "labels": dict(instrument.labels),
                    **instrument.snapshot_value(),
                }
            )
        return out

    def to_jsonl(self, path: "str | Path") -> int:
        """Write the snapshot as strict JSON Lines; returns the line count.

        The first line is a ``metrics-meta`` record with the schema and a
        capture timestamp; instrument lines follow.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        records = self.snapshot()
        meta = {
            "schema": METRICS_SCHEMA,
            "record": "metrics-meta",
            "instruments": len(records),
            "captured_at": time.time(),
        }
        return jsonio.write_jsonl(path, [meta, *records])


#: The process-wide default registry the instrumented subsystems write to.
REGISTRY = MetricsRegistry()
