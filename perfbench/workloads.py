"""The three benchmark workloads: ``verify``, ``sweep`` and ``campaign``.

Each workload is a closed loop run by one process: the next call into
``repro`` starts when the previous one returns, and every simulation goes
through ``SweepEngine(jobs=1)``.  A workload object builds its inputs from
the seed in its constructor (that is the set-up the benchmark times) and
runs one *round* of calls per :meth:`run_round`, timing each call and
checking each output.  A round returns its samples per stage, plus under
``"once"`` the time of work done only in a ``cold`` round.  Every call is
one attempted operation; it fails if it raises or its output check fails.

Every workload reports three stage times, ``a``, ``b`` and ``c``, so the
three share one metric list (see README.md for the mapping).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import signal
import time
import traceback
from dataclasses import replace
from pathlib import Path

import repro.cli
from repro.cdg import verify_design
from repro.chaos.campaign import CampaignConfig, ChaosCampaign
from repro.core import catalog
from repro.fuzz.design import FAMILIES
from repro.fuzz.generator import DesignGenerator
from repro.fuzz.oracle import SimProfile
from repro.fuzz.runner import run_fuzz
from repro.sim.parallel import ResultCache, SweepEngine
from repro.sim.runner import RunConfig
from repro.sim.specs import resolve_pattern
from repro.sim.traffic import TrafficConfig, TrafficGenerator
from repro.topology import Mesh
from repro.topology.classes import rule_for_design


def digest(payload: object) -> str:
    """A short sha256 over the canonical JSON of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def probe() -> float:
    """Seconds one fixed pure-Python task takes now: the machine's speed.

    The task uses none of ``repro``, so no change to the program moves it.
    It takes ~1-2 ms, and it calls no C code that could run Python, so it
    is safe to run from a signal handler at any point of the program.
    """
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(4000):
        key = i % 97
        counts[key] = counts.get(key, 0) + i
    pairs = [(value, key) for key, value in counts.items()] * 20
    pairs.sort()
    words = [str(value) for value, _key in pairs]
    "".join(words)
    return time.perf_counter() - start


class SpeedProbe:
    """Runs :func:`probe` every ``interval`` seconds of wall time.

    The shared machine runs everything up to ~2x slower in some stretches
    than in others, switching every few tenths of a second and drifting
    over minutes.  A timer signal samples that speed all through a run,
    during the timed calls as well as between them.  ``spent`` is the wall
    time the probes took, which timed calls subtract.
    """

    #: A call's time is reported as its wall time scaled to a machine on
    #: which :func:`probe` takes this long.
    REFERENCE_S = 0.001

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - start

    def slowdown(self, since: int) -> float:
        """Mean probe time from sample ``since`` on, over the reference.

        A call too short to hold a probe takes the two latest ones.
        """
        recent = self.samples[since:] or self.samples[-2:]
        return sum(recent) / len(recent) / self.REFERENCE_S

    def __enter__(self) -> "SpeedProbe":
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Tally:
    """Attempted/failed operation counts, failure notes and output digests.

    With a :class:`SpeedProbe`, a call's time excludes the probes that ran
    during it and is divided by the slowdown they measured; ``wall`` and
    ``scaled`` sum the calls' times before and after that division.
    """

    def __init__(self, speed: SpeedProbe | None = None) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.speed = speed
        self.wall = 0.0
        self.scaled = 0.0

    def call(self, label: str, fn, check):
        """Time ``fn()``; count one operation; ``check(result)`` must hold.

        Returns ``(seconds, result)``; ``result`` is None when ``fn``
        raised, and the exception is recorded as a failure.
        """
        self.attempted += 1
        speed = self.speed
        since = len(speed.samples) if speed is not None else 0
        probed = speed.spent if speed is not None else 0.0
        start = time.perf_counter()
        try:
            result, problem = fn(), None
        except Exception:  # noqa: BLE001 - a crash is a failed operation
            result, problem = None, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        if speed is not None:
            seconds -= speed.spent - probed
            self.wall += seconds
            seconds /= speed.slowdown(since)
            self.scaled += seconds
        if problem is None:
            problem = check(result)
        if problem:
            self.fail(label, problem)
        return seconds, result

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {why}")


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = repro.cli.main(argv)
    return code, out.getvalue()


class Verify:
    """Design verification with no simulation.

    Why: the analyze, analyze.symbolic, analyze.certcheck and cdg layers do
    all the work; the simulator does none.  Stage a is one pass of concrete
    CDG verification (the 16x16 west-first check exposes the verifier's
    cost), b one in-process ``repro lint --all``, c one in-process
    ``repro certify --all`` with certcheck re-validation.  The inputs are
    the fixed catalog; the seed only orders the checks.
    """

    name = "verify"
    #: The 2-D mesh designs of the catalog, fixed so that a design added to
    #: the catalog later does not change the benchmark's work.
    DESIGNS = (
        "xy", "partially-adaptive", "west-first", "negative-first",
        "west-first-vcs", "north-last", "odd-even", "hamiltonian",
        "dyxy", "fig7c",
    )
    RADICES = (4, 8)
    #: Lint and certify take ~0.1 s each: repeat them in a round so their
    #: medians rest on more samples than the ~9 s CDG pass.
    REPEATS = 4

    def __init__(self, seed: int, tmp: Path) -> None:
        checks = [
            (name, k, catalog.design(name), rule_for_design(name))
            for name in self.DESIGNS
            for k in self.RADICES
        ]
        checks.append(
            ("west-first", 16, catalog.design("west-first"), rule_for_design("west-first"))
        )
        random.Random(seed).shuffle(checks)
        self.checks = checks

    def run_round(self, tally: Tally, index: int, cold: bool) -> dict[str, list[float]]:
        samples: dict[str, list[float]] = {"a": [], "b": [], "c": []}
        cdg_seconds = 0.0
        # Lint and certify are spread through the pass, so that their
        # samples see the same machine conditions as the CDG checks.
        every = max(1, len(self.checks) // self.REPEATS)
        for i, (name, k, design, rule) in enumerate(self.checks):
            # A fresh mesh per check: topologies cache their wire maps, and
            # a designer's check builds its own.
            seconds, verdict = tally.call(
                f"verify_design {name} {k}x{k}",
                lambda: verify_design(design, Mesh(k, k), rule),
                lambda v: None if v.acyclic else "verdict is cyclic",
            )
            cdg_seconds += seconds
            if verdict is not None:
                tally.digests[f"verdict {name} {k}x{k}"] = digest(
                    [verdict.acyclic, verdict.wires, verdict.dependencies]
                )
            if i % every == every - 1 and len(samples["b"]) < self.REPEATS:
                seconds, _r = tally.call(
                    "repro lint --all", lambda: _cli(["lint", "--all"]), _lint_clean
                )
                samples["b"].append(seconds)
                seconds, _r = tally.call(
                    "repro certify --all", lambda: _cli(["certify", "--all"]), _certified
                )
                samples["c"].append(seconds)
        samples["a"].append(cdg_seconds)
        return samples


def _lint_clean(result: tuple[int, str]) -> str | None:
    code, out = result
    if code != 0 or "0 error(s), 0 warning(s)" not in out:
        return f"catalog lint not clean (exit {code}): {out.strip().splitlines()[-1:]}"
    return None


def _certified(result: tuple[int, str]) -> str | None:
    code, out = result
    if code != 0 or "checker: all certificates independently re-validated" not in out:
        return f"certify failed (exit {code}): {out.strip().splitlines()[-3:]}"
    return None


class Sweep:
    """Rate sweeps through ``SweepEngine`` on both simulator backends.

    Why: the simulator cores do most of the work, on meshes where per-flit
    work dominates; ``ebda-fully-adaptive`` moves time into routing lookup
    while ``xy`` bypasses it, 16x16 is where the vector backend gains most,
    and the cold/warm passes separate ResultCache writes from reads.
    Stage a is the uncached reference point set, b the uncached vector
    point set (8x8 plus 16x16), c one all-hits warm pass.
    """

    name = "sweep"
    #: Per (pattern, routing): rates below, near and past saturation on the
    #: 8x8 mesh at ``CYCLES`` cycles with drain.  Saturation is the first
    #: rate whose mean latency exceeds three times the zero-load latency
    #: (``repro.sim.runner.saturation_rate``), measured over traffic seeds
    #: 1-8 in steps of 0.01: "near" is its median, and 0.18 lies above the
    #: highest value seen (0.15).  See README.md for the measurement.
    RATES = {
        ("uniform", "xy"): (0.03, 0.13, 0.18),
        ("uniform", "odd-even"): (0.03, 0.11, 0.18),
        ("uniform", "ebda-fully-adaptive"): (0.03, 0.13, 0.18),
        ("transpose", "xy"): (0.03, 0.09, 0.18),
        ("transpose", "odd-even"): (0.03, 0.09, 0.18),
        ("transpose", "ebda-fully-adaptive"): (0.03, 0.14, 0.18),
    }
    CYCLES = 48
    #: The 16x16 points, vector only: (routing, rate, cycles).  The
    #: adaptive point's time is nearly all routing lookup, paid per packet,
    #: so it runs at a low rate for few cycles.
    BIG = (("xy", 0.02, 200), ("ebda-fully-adaptive", 0.01, 32))
    #: A burst of warm passes follows every timed sweep, so that the ~25 ms
    #: passes sample the whole round (see run.py's POOLED).
    WARM_BURST = 3

    def __init__(self, seed: int, tmp: Path) -> None:
        rng = random.Random(seed)
        self.tmp = tmp
        self.sweeps = [
            (routing, rates, RunConfig(cycles=self.CYCLES, pattern=pattern,
                                       seed=rng.randrange(1 << 30)))
            for (pattern, routing), rates in self.RATES.items()
        ]
        big_mesh = Mesh(16, 16)
        self.big = [
            (routing, (rate,), RunConfig(
                cycles=cycles, backend="vector",
                seed=_seed_with_mean_packets(rng, big_mesh, rate, cycles),
            ))
            for routing, rate, cycles in self.BIG
        ]
        self.engine = SweepEngine(jobs=1)
        self.warm_engine: SweepEngine | None = None
        self.cold: list | None = None
        self.caches = 0

    @staticmethod
    def _one(engine, mesh, sweep, backend):
        routing, rates, config = sweep
        return engine.sweep(mesh, routing, rates, replace(config, backend=backend)).points

    def _pass(self, mesh):
        """The 8x8 vector sweep against the result cache, per sweep."""
        return [self._one(self.warm_engine, mesh, sweep, "vector") for sweep in self.sweeps]

    def _warm(self, tally: Tally, mesh, samples) -> None:
        for _ in range(self.WARM_BURST):
            seconds, _r = tally.call(
                "warm cached sweep",
                lambda: self._pass(mesh),
                lambda r: _all_cached(r, True) or _same_stats(self.cold, r),
            )
            samples["c"].append(seconds)

    def run_round(self, tally: Tally, index: int, cold: bool) -> dict[str, list[float]]:
        samples: dict[str, list[float]] = {"a": [], "b": [], "c": [], "once": []}
        # Fresh topologies per round: they cache their wire maps.
        mesh, big_mesh = Mesh(8, 8), Mesh(16, 16)
        if cold:
            # Cold pass: every point misses and is written to a fresh cache.
            self.caches += 1
            cache_dir = self.tmp / f"cache-{self.caches}"
            self.warm_engine = SweepEngine(jobs=1, cache=ResultCache(cache_dir))
            seconds, self.cold = tally.call(
                "cold cached sweep", lambda: self._pass(mesh), lambda r: _all_cached(r, False)
            )
            samples["once"].append(seconds)
        # Warm passes between the timed sweeps spread the warm samples over
        # the whole round.
        ref = []
        ref_seconds = vec_seconds = 0.0
        for sweep in self.sweeps:
            seconds, got = tally.call(
                f"reference sweep {sweep[0]} {sweep[2].pattern}",
                lambda: self._one(self.engine, mesh, sweep, "reference"),
                _deadlock_free,
            )
            ref_seconds += seconds
            ref.append(got)
            _record_points(tally, got, "reference", "8x8")
            self._warm(tally, mesh, samples)
        for i, sweep in enumerate(self.sweeps):
            seconds, got = tally.call(
                f"vector sweep {sweep[0]} {sweep[2].pattern}",
                lambda: self._one(self.engine, mesh, sweep, "vector"),
                lambda r: _deadlock_free(r)
                or _same_stats(ref[i], r)
                or _same_stats(self.cold and self.cold[i], r),
            )
            vec_seconds += seconds
            _record_points(tally, got, "vector", "8x8")
            self._warm(tally, mesh, samples)
        for sweep in self.big:
            seconds, got = tally.call(
                f"vector sweep {sweep[0]} 16x16",
                lambda: self._one(self.engine, big_mesh, sweep, "vector"),
                _deadlock_free,
            )
            vec_seconds += seconds
            _record_points(tally, got, "vector", "16x16")
            self._warm(tally, mesh, samples)
        samples["a"].append(ref_seconds)
        samples["b"].append(vec_seconds)
        return samples


def _seed_with_mean_packets(rng: random.Random, mesh, rate: float, cycles: int) -> int:
    """A point seed whose uniform traffic injects the expected packet count.

    The adaptive 16x16 point costs ~30 ms of routing lookup per packet, and
    a Bernoulli draw of ~100 packets varies by ~10% between seeds; holding
    the count within 2% of its mean keeps that out of the timing, while the
    seed still picks the sources, destinations and injection cycles.  The
    traffic seed offset is the one ``run_point`` uses.
    """
    target = rate * len(mesh.nodes) * cycles
    while True:
        seed = rng.randrange(1 << 30)
        traffic = TrafficGenerator(mesh, TrafficConfig(
            injection_rate=rate, pattern=resolve_pattern("uniform"), seed=seed + 7919,
        ))
        packets = sum(len(traffic.packets_for_cycle(c)) for c in range(cycles))
        if abs(packets - target) <= 0.02 * target:
            return seed


def _record_points(tally: Tally, points, backend: str, mesh: str) -> None:
    """A stats digest per point, so two commits compare point by point."""
    for p in points or ():
        config = p.result.config
        key = f"point {backend} {mesh} {p.result.routing_name} {config.pattern} {config.injection_rate}"
        tally.digests[key] = digest(p.result.stats.to_dict())


def _flat(points) -> list:
    """Points, or per-sweep lists of points, as one flat list."""
    return [q for p in points for q in (p if isinstance(p, list) else [p])]


def _deadlock_free(points) -> str | None:
    bad = [p.result.routing_name for p in points if p.result.deadlocked]
    return f"deadlock-free designs deadlocked: {bad}" if bad else None


def _same_stats(expected, points) -> str | None:
    if not expected:
        return "no earlier points to compare with"
    expected, points = _flat(expected), _flat(points)
    differ = [
        (a.result.routing_name, a.result.config.injection_rate)
        for a, b in zip(expected, points)
        if a.result.stats.to_dict() != b.result.stats.to_dict()
    ]
    if len(expected) != len(points) or differ:
        return f"SimStats differ between passes at {differ}"
    return None


def _all_cached(points, cached: bool) -> str | None:
    wrong = sum(1 for p in _flat(points) if p.cached != cached)
    return f"{wrong} point(s) with cached != {cached}" if wrong else None


class _PickedTrials:
    """Fixed trials of per-family generators, served as one ``run_fuzz`` stream.

    Each design is drawn afresh through ``DesignGenerator.designs`` when
    ``run_fuzz`` asks for it, so generation is part of the timed fuzz work
    as it is in a real campaign.
    """

    def __init__(self, picks, families) -> None:
        self._picks = picks
        self.families = families

    def designs(self, n: int, start: int = 0):
        return [
            generator.designs(1, start=trial)[0]
            for generator, trial in self._picks[start:start + n]
        ]


class Campaign:
    """Many tiny simulations: a differential fuzz batch and a chaos campaign.

    Why: per-run fixed costs dominate (spec resolution, routing and
    topology build, per-cycle dispatch on 4x4 meshes), which is where a
    batch axis over simulations would show.  Stage a is fuzz seconds per
    trial judged, b chaos seconds per trial, c one resume of a finished
    chaos campaign from its checkpoints.
    """

    name = "campaign"
    #: The fuzz batch is the same ten designs in every round and every run:
    #: for each family, the first valid design and the first mutant on one
    #: fixed shape from the stream of generator seed ``FUZZ_SEED``.  A
    #: trial's cost differs ~50x with shape and with whether the oracles end
    #: up simulating it, so a seed-dependent draw of a few dozen trials made
    #: the trial rate a property of the draw (IQR/median 0.2-0.4 over five
    #: seeds) rather than of the code.  The seed drives the chaos trials.
    FUZZ_SEED = 0
    SHAPES = {
        "mesh": (3, 4),
        "torus": (3, 3),
        "dragonfly": (4,),
        "fattree": (3, 2, 1),
        "irregular": (3, 4),
    }
    CHAOS_TRIALS = 24
    #: Resumes run in a burst after the chaos campaign and after each fuzz
    #: trial.  A resume takes ~1-2 ms, and the machine switches between
    #: a fast and a ~2x slower speed every few tenths of a second, so stage
    #: c pools many bursts spread over the round (see run.py's POOLED).
    RESUME_BURST = 8

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.profile = SimProfile()
        self.runs = 0
        self.picks = self._pick_trials()

    def _pick_trials(self) -> list[tuple[DesignGenerator, int]]:
        """Per family, the first valid and the first mutant trial on its shape."""
        picks = []
        for family in FAMILIES:
            generator = DesignGenerator(self.FUZZ_SEED, families=(family,))
            wanted = {"valid", "mutant"}
            for trial in range(1000):
                design = generator.design_for(trial)
                kind = "valid" if design.labeled_valid else "mutant"
                if kind in wanted and tuple(design.shape) == self.SHAPES[family]:
                    wanted.discard(kind)
                    picks.append((generator, trial))
                    if not wanted:
                        break
            else:
                raise RuntimeError(f"no {sorted(wanted)} {family} design in range")
        return picks

    def _resume(self, tally: Tally, config, checkpoints, first, samples) -> None:
        for _ in range(self.RESUME_BURST):
            seconds, _r = tally.call(
                "chaos resume",
                lambda: ChaosCampaign(config, checkpoint_dir=checkpoints).run(),
                lambda r: _chaos_ok(r, self.CHAOS_TRIALS)
                or (None if r.trial_bytes == first.trial_bytes
                    else "resumed records differ from the first pass"),
            )
            samples["c"].append(seconds)

    def run_round(self, tally: Tally, index: int, cold: bool) -> dict[str, list[float]]:
        samples: dict[str, list[float]] = {"a": [], "b": [], "c": []}
        config = CampaignConfig(trials=self.CHAOS_TRIALS, seed=self.seed * 1000 + index)
        # A fresh checkpoint directory per run, so the first pass simulates.
        self.runs += 1
        checkpoints = self.tmp / f"chaos-{self.runs}"
        seconds, chaos = tally.call(
            "chaos campaign",
            lambda: ChaosCampaign(
                config, engine=SweepEngine(jobs=1), checkpoint_dir=checkpoints
            ).run(),
            lambda r: _chaos_ok(r, self.CHAOS_TRIALS),
        )
        samples["b"].append(seconds / self.CHAOS_TRIALS)
        if chaos is not None:
            tally.digests[f"chaos round {index}"] = digest(
                [b.decode() for b in chaos.trial_bytes]
            )
            self._resume(tally, config, checkpoints, chaos, samples)

        # One fuzz batch per trial, with resumes between them, spreads the
        # resume samples over the round.
        fuzz_seconds = 0.0
        trials = []
        for pick in self.picks:
            generator = _PickedTrials([pick], tuple(FAMILIES))
            seconds, report = tally.call(
                "fuzz batch",
                lambda: run_fuzz(1, self.FUZZ_SEED, generator=generator,
                                 engine=SweepEngine(jobs=1), profile=self.profile),
                lambda r: _fuzz_clean(r, 1),
            )
            fuzz_seconds += seconds
            if report is not None:
                trials.extend(t.to_dict() for t in report.trials)
            if chaos is not None:
                self._resume(tally, config, checkpoints, chaos, samples)
        samples["a"].append(fuzz_seconds / len(self.picks))
        tally.digests["fuzz trials"] = digest(trials)
        return samples


def _fuzz_clean(report, runs: int) -> str | None:
    errors = sum(1 for t in report.trials if t.classification == "oracle-error")
    if report.disagreements or errors or report.runs_completed != runs:
        return (
            f"{len(report.disagreements)} hard disagreement(s), {errors}"
            f" oracle-error(s), {report.runs_completed}/{runs} trials"
        )
    return None


def _chaos_ok(report, trials: int) -> str | None:
    if not report.ok or report.trials_completed != trials:
        return f"chaos campaign not ok: {report.outcome_counts()}"
    return None


WORKLOADS = {cls.name: cls for cls in (Verify, Sweep, Campaign)}
