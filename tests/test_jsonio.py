"""The strict-JSON module and every loader built on it."""

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro import jsonio
from repro.analyze.baseline import load_baseline
from repro.analyze.symbolic.prover import certify_all
from repro.chaos.campaign import CampaignConfig, run_trial, trial_record_bytes
from repro.chaos.survival import CHAOS_SCHEMA, load_survival
from repro.chaos.workloads import load_workload
from repro.errors import EbdaError
from repro.fuzz.corpus import load_entry
from repro.obs.heartbeat import load_heartbeat
from repro.obs.ledger import RunLedger, RunRecord
from repro.obs.trace import load_trace
from repro.sim.metrics import METRICS_SCHEMA, load_metrics

SRC = Path(jsonio.__file__).resolve().parent

#: Stands in for the non-finite token in each fixture before it is written.
HOLE = "@HOLE@"


def _jsonl(*records):
    return "\n".join(json.dumps(r) for r in records) + "\n"


def _pretty(record):
    return json.dumps(record, indent=2) + "\n"


#: (loader, file name, file text with one HOLE) — one case per strict loader.
LOADERS = {
    "load_metrics": (
        load_metrics,
        "m.jsonl",
        _jsonl({"record": "meta", "schema": METRICS_SCHEMA},
               {"record": "sample", "throughput": HOLE}),
    ),
    "load_survival": (
        load_survival,
        "c.jsonl",
        _jsonl({"record": "campaign-meta", "schema": CHAOS_SCHEMA},
               {"record": "trial", "latency_p50": HOLE}),
    ),
    "load_workload": (
        load_workload,
        "w.jsonl",
        _jsonl({"record": "workload-meta", "kind": "bursty"},
               {"record": "injection", "cycle": HOLE}),
    ),
    "load_trace": (
        load_trace,
        "spans.jsonl",
        _jsonl({"event": "span-start", "schema": 1, "span": 0, "parent": None,
                "name": "x", "t": 0.0, "attrs": {}},
               {"event": "span-end", "schema": 1, "span": 0, "name": "x",
                "t": 1.0, "elapsed_s": HOLE, "attrs": {}}),
    ),
    "RunLedger.records": (
        lambda path: RunLedger(path.parent).records(),
        "ledger.jsonl",
        _jsonl(RunRecord(kind="sweep", spec="a", created_at=1.0).to_dict(),
               {"wall_s": HOLE}),
    ),
    "load_heartbeat": (
        load_heartbeat,
        "hb.json",
        json.dumps({"record": "heartbeat", "eta_s": HOLE}),
    ),
    "load_entry": (
        load_entry,
        "fuzz-0.json",
        _pretty({"note": "NaN and Infinity in a string", "expect": "unsafe",
                 "design": {"rate": HOLE}}),
    ),
    "load_baseline": (
        load_baseline,
        "baseline.json",
        _pretty({"version": 1, "fingerprints": {"a": "NaN"}, "extra": HOLE}),
    ),
}


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_loader_rejects_non_finite_token(tmp_path, loader, token):
    load, name, text = LOADERS[loader]
    path = tmp_path / name
    lines = text.splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if HOLE in line)
    path.write_text(text.replace(f'"{HOLE}"', token))
    with pytest.raises(EbdaError, match=rf"{re.escape(str(path))}:{lineno}: "):
        load(path)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_cache_entry_with_non_finite_token_is_a_miss(tmp_path, token):
    from repro.sim.parallel import CACHE_SCHEMA, ResultCache
    from repro.sim.runner import RunConfig

    cache = ResultCache(tmp_path)
    (tmp_path / "k.json").write_text(f'{{"schema": {CACHE_SCHEMA}, "x": {token}}}')
    assert cache.get("k", RunConfig()) is None


class TestEncoders:
    VALUE = {"b": [1, 2.5, None, True], "a": {"é": "ü", "z": -0.0}}

    def test_canonical_matches_the_documented_form(self):
        assert jsonio.canonical(self.VALUE) == json.dumps(
            self.VALUE, sort_keys=True, separators=(",", ":"), ensure_ascii=True
        )

    def test_line_matches_default_dumps(self):
        assert jsonio.line(self.VALUE) == json.dumps(self.VALUE)

    @pytest.mark.parametrize("encode", [jsonio.canonical, jsonio.line])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_encoders_reject_non_finite(self, encode, value):
        with pytest.raises(ValueError):
            encode({"x": [value]})

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_loads_rejects_non_finite(self, token):
        with pytest.raises(ValueError, match="non-strict JSON constant"):
            jsonio.loads(f'{{"x": [{token}]}}')

    def test_loads_round_trips(self):
        assert jsonio.loads(jsonio.canonical(self.VALUE)) == self.VALUE


class TestFiles:
    def test_jsonl_round_trip_skips_blank_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        assert jsonio.write_jsonl(path, [{"a": 1}, {"b": 2}]) == 2
        assert path.read_text() == '{"a": 1}\n{"b": 2}\n'
        path.write_text(path.read_text() + "\n  \n" + '{"c": 3}\n')
        assert jsonio.read_jsonl(path, "test") == [(1, {"a": 1}), (2, {"b": 2}), (5, {"c": 3})]

    def test_read_jsonl_needs_objects(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": 1}\n[1]\n')
        with pytest.raises(EbdaError, match=r"r\.jsonl:2: test line must be a JSON object"):
            jsonio.read_jsonl(path, "test")

    def test_read_jsonl_bad_syntax_names_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": 1}\n\n{nope\n')
        with pytest.raises(EbdaError, match=r"r\.jsonl:3: not valid JSON"):
            jsonio.read_jsonl(path, "test")

    def test_read_json_bad_syntax_names_line(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{\n  "a": 1,\n  "b": \n}\n')
        with pytest.raises(EbdaError, match=r"r\.json:4: not valid JSON"):
            jsonio.read_json(path, "test")

    def test_read_json_needs_an_object(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("[]")
        with pytest.raises(EbdaError, match="must hold a JSON object"):
            jsonio.read_json(path, "test")

    @pytest.mark.parametrize("read", [jsonio.read_json, jsonio.read_jsonl])
    def test_unreadable_file(self, tmp_path, read):
        with pytest.raises(EbdaError, match="cannot read test file .*not found"):
            read(tmp_path / "missing", "test")
        (tmp_path / "binary").write_bytes(b"\xff\xfe{")
        with pytest.raises(EbdaError, match="cannot read test file"):
            read(tmp_path / "binary", "test")
        with pytest.raises(EbdaError, match="cannot read test file"):
            read(tmp_path, "test")

    def test_atomic_write_replaces_and_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("old")
        jsonio.atomic_write(path, b'{"new": 1}')
        assert path.read_bytes() == b'{"new": 1}'
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]


class TestByteIdentity:
    """Digests pinned from the pre-``jsonio`` encoders: the bytes must not move."""

    def test_certificate_digests(self):
        digests = "".join(c.digest for r in certify_all() for c in r.certificates)
        assert hashlib.sha256(digests.encode()).hexdigest() == (
            "af7a671d64a4c6d08a80d13648d29d7883d0faaffe3a32ca28ca8429b0d981a3"
        )

    def test_chaos_trial_record_bytes(self):
        config = CampaignConfig(trials=8, seed=0, mesh=(4, 4), cycles=200)
        data = trial_record_bytes(run_trial(config, 0))
        assert hashlib.sha256(data).hexdigest() == (
            "c434d95fee9a7b7880471adea6dd6930106c52e532c94979fe0d87450d8740fe"
        )


def test_strict_json_lives_only_in_jsonio():
    """Strictness and atomic writes have one home (certcheck keeps its own)."""
    allowed = {SRC / "jsonio.py", SRC / "analyze" / "certcheck.py"}
    offenders = [
        f"{path.relative_to(SRC)}: {needle}"
        for path in sorted(SRC.rglob("*.py"))
        if path not in allowed
        for needle in ("allow_nan=", "parse_constant=", "os.replace(")
        if needle in path.read_text()
    ]
    assert offenders == []
