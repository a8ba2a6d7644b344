"""Benchmark of the ``repro`` package: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload as a closed loop for ``--seconds`` seconds
with tracing off and reports the end-to-end metrics.  ``--trace 1`` is the
separate traced run: it times ``import repro`` and ``import repro.cli`` in
fresh interpreters, then runs the same round of every workload untraced and
then traced, and reports per-layer self times, counts, and each workload's
attributed fraction and tracing overhead.  Human-readable lines come first;
the last line of standard output is the JSON result.  A fuller record
(provenance, samples, output digests) is written to
``.perfbench/results/``, and the traced run's spans to ``.perfbench/spans/``.

The simulated latencies have no hardware reference: the network model is
unvalidated, so the benchmark checks outputs for exactness across backends
and reruns and gives no error figure against real hardware.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("verify", "sweep", "campaign")

#: Fresh processes timed for ``setup_s``; its median is reported.
SETUP_PROBES = 3
#: Fresh interpreters per import metric in the traced run.
IMPORT_PROBES = 3
#: The issue's name for each stage of each workload, with its unit.
STAGE_NAMES = {
    "verify": {"a": "verify_cdg_s", "b": "lint_s", "c": "certify_s"},
    "sweep": {"a": "sweep_reference_s", "b": "sweep_vector_s", "c": "sweep_warm_s"},
    "campaign": {"a": "fuzz_s_per_trial", "b": "chaos_s_per_trial", "c": "chaos_resume_s"},
}
#: Stages reported as a pooled mean (total time / calls) instead of a
#: median.  Campaign b is a per-trial cost over differing trials.  The
#: others are calls of a few milliseconds: the machine alternates between a
#: fast and a ~2x slower speed every few tenths of a second, so the median
#: of short samples flips between the two, while the mean follows the share
#: of time spent in each, as the long stages do.
POOLED = {("campaign", "b"), ("campaign", "c"), ("sweep", "c")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "tmp"))
    try:
        isolate(tmp)
        if args.setup_probe is not None:
            return setup_probe(args, tmp)
        if args.trace:
            return traced_run(args, tmp)
        return timed_run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def isolate(tmp: Path) -> None:
    """Point every on-disk store of ``repro`` into this run's temp tree."""
    os.environ.pop("REPRO_EBDA_LEDGER_DIR", None)
    os.environ["REPRO_EBDA_CACHE_DIR"] = str(tmp / "default-cache")
    os.environ["REPRO_EBDA_HEARTBEAT_DIR"] = str(tmp / "heartbeats")
    os.environ["XDG_CACHE_HOME"] = str(tmp / "xdg-cache")


def build(workload: str, seed: int, tmp: Path):
    """Import the program and construct the workload's inputs (the set-up)."""
    import workloads

    return workloads.WORKLOADS[workload](seed, tmp)


def setup_probe(args, tmp: Path) -> int:
    build(args.workload, args.seed, tmp)
    print(json.dumps({"setup_s": time.monotonic() - args.setup_probe}))
    return 0


def fresh_process_seconds(argv: list[str]) -> float:
    """Run ``argv``; its last stdout line is JSON holding one number."""
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    (value,) = json.loads(done.stdout.strip().splitlines()[-1]).values()
    return value


def setup_seconds(args) -> list[float]:
    """Wall time of fresh processes from spawn through input construction.

    The main process imports first, so every probe finds the bytecode
    caches as a user's second and later invocations do.
    """
    out = []
    for _ in range(SETUP_PROBES):
        out.append(fresh_process_seconds([
            sys.executable, str(Path(__file__).resolve()),
            "--setup-probe", repr(time.monotonic()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0",
        ]))
    return out


def provenance() -> dict:
    import networkx
    import numpy

    import repro

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "repro": repro.__version__,
        "platform": platform.platform(),
    }


def tail(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99, 95, 90, 75, 50, 25, 10):
        if n * (1 - p / 100) >= 10:
            return p, ordered[min(n - 1, int(n * p / 100))]
    return None


def timed_run(args, tmp: Path) -> int:
    import workloads

    workload = build(args.workload, args.seed, tmp)
    setup = setup_seconds(args)
    speed = workloads.SpeedProbe()
    tally = workloads.Tally(speed)
    samples: dict[str, list[float]] = {"a": [], "b": [], "c": []}
    once = 0.0
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    with speed:
        while True:
            started = time.perf_counter()
            got = workload.run_round(tally, rounds, cold=rounds == 0)
            one_off = sum(got.pop("once", ()))
            once += one_off
            for stage, values in got.items():
                samples[stage].extend(values)
            rounds += 1
            # Start another round only if one more (without the one-off
            # work of the first) fits before the deadline.
            took = time.perf_counter() - started - one_off
            if time.perf_counter() + took > deadline:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # A stage whose every call raised has no samples: it reads NaN, and
    # the run is reported as not correct rather than crashing here.
    stages = {
        stage: (
            float("nan")
            if not values
            else statistics.fmean(values)
            if (args.workload, stage) in POOLED
            else statistics.median(values)
        )
        for stage, values in samples.items()
    }
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "stage_a_s": (stages["a"], "s"),
        "stage_b_s": (stages["b"], "s"),
        "stage_c_s": (stages["c"], "s"),
    }
    named = {name: stages[stage] for stage, name in STAGE_NAMES[args.workload].items()}
    if args.workload == "campaign":
        named["fuzz_trials_per_s"] = 1 / named.pop("fuzz_s_per_trial")
        named["chaos_trials_per_s"] = 1 / named.pop("chaos_s_per_trial")
    named["failed_fraction"] = tally.failed / max(1, tally.attempted)

    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}"
          f"  operations {tally.attempted}  failed {tally.failed}"
          f"  first-round-only work {once:.3f} s")
    print(f"  machine slowdown {tally.wall / tally.scaled:.4f} over the timed calls,"
          f" from {len(speed.samples)} probes (stage times are scaled by it; setup_s"
          " is wall time)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<22} {value:12.6f} {unit}")
    for name, value in named.items():
        unit = "1/s" if name.endswith("_per_s") else ("" if "fraction" in name else "s")
        print(f"  {name:<22} {value:12.6f} {unit}")
    for stage, values in samples.items():
        t = tail(values)
        extra = f"p{t[0]:g}={t[1]:.6f}" if t else "no percentile has 10 samples beyond it"
        print(f"  stage {stage}: {len(values)} samples, {extra}")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    write_result(args, {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "named": named,
        "timed_wall_s": tally.wall,
        "timed_scaled_s": tally.scaled,
        "probes": speed.samples,
        "rounds": rounds,
        "setup_samples": setup,
        "samples": samples,
        "tails": {s: tail(v) for s, v in samples.items()},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "digests": tally.digests,
    })
    emit(tally, metrics, correct=all(samples.values()))
    return 0


def import_seconds() -> dict[str, float]:
    """Median ``import repro`` / ``import repro.cli`` time, fresh interpreters."""
    code = (
        "import json, sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter();"
        " import {mod}; print(json.dumps({{'s': time.perf_counter() - t}}))"
    )
    times: dict[str, list[float]] = {"repro": [], "repro.cli": []}
    for _ in range(IMPORT_PROBES):
        for mod in times:
            times[mod].append(fresh_process_seconds(
                [sys.executable, "-c", code.format(src=str(SRC), mod=mod)]
            ))
    return {mod: statistics.median(values) for mod, values in times.items()}


def traced_run(args, tmp: Path) -> int:
    import spans
    import workloads

    imports = import_seconds()
    recorder = spans.Recorder()
    tally = workloads.Tally()
    per_workload = {}
    for name in WORKLOADS:
        workload = build(name, args.seed, tmp / name)

        def timed_round() -> float:
            started = time.perf_counter()
            workload.run_round(tally, 0, cold=True)
            return time.perf_counter() - started

        # The same round untraced, then traced.  The machine's slow and
        # fast phases move a round by up to ~10%, which bounds how finely
        # one pair resolves the overhead.
        untraced = timed_round()
        first = len(recorder.spans)
        spans.install(recorder)
        try:
            traced = timed_round()
        finally:
            recorder.restore()
        per_workload[name] = {
            "untraced_s": untraced,
            "traced_s": traced,
            "attributed_fraction": recorder.covered(first) / traced,
            "overhead_fraction": (traced - untraced) / untraced,
        }

    self_times = recorder.self_times()
    metrics: dict[str, tuple[float, str]] = {
        "import.repro_s": (imports["repro"], "s"),
        "import.cli_s": (imports["repro.cli"], "s"),
    }
    for span_name, metric in spans.SELF_TIME_METRICS.items():
        metrics[metric] = (self_times.get(span_name, 0.0), "s")
    for counter in spans.COUNTERS:
        metrics[counter] = (recorder.counts[counter], "count")
    for backend, shape in spans.FLIT_MOVE_MESHES:
        seconds, moves = recorder.flit_cost[(backend, shape)]
        metrics[f"sim.{backend}.us_per_flit_move.{shape}"] = (
            1e6 * seconds / moves if moves else 0.0, "us",
        )
    for name, row in per_workload.items():
        metrics[f"trace.attributed_fraction.{name}"] = (row["attributed_fraction"], "fraction")
        metrics[f"trace.overhead_fraction.{name}"] = (row["overhead_fraction"], "fraction")

    n_spans = recorder.write(OUT / "spans" / f"seed{args.seed}.jsonl.gz")
    print(f"traced run  seed {args.seed}  spans {n_spans}"
          f"  operations {tally.attempted}  failed {tally.failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:14.6f} {unit}")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    write_result(args, {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "workloads": per_workload,
        "spans": n_spans,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "digests": tally.digests,
    })
    emit(tally, metrics)
    return 0


def write_result(args, body: dict) -> None:
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "model_note": (
            "simulated latencies have no hardware reference; the network model"
            " is unvalidated, so no error figure is given"
        ),
        **body,
    }
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"provenance {json.dumps(record['provenance'], sort_keys=True)}")
    digests = body["digests"]
    combined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()[:16]
    print(f"output digests: {len(digests)}, combined {combined}")
    print(f"result record -> {path.relative_to(ROOT)}")


def emit(tally, metrics: dict[str, tuple[float, str]], correct: bool = True) -> None:
    print(json.dumps({
        "correct": correct and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
