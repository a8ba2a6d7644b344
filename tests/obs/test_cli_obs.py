"""CLI surface of the observability runtime: --spans-out / --ledger on
pipeline commands, `repro runs`, `repro top`, and campaign progress."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.obs import HeartbeatWriter, check_balance, load_trace, set_ledger


@pytest.fixture(autouse=True)
def _clean_obs(monkeypatch):
    monkeypatch.delenv("REPRO_EBDA_LEDGER_DIR", raising=False)
    monkeypatch.delenv("REPRO_EBDA_HEARTBEAT_DIR", raising=False)
    previous = set_ledger(None)
    yield
    set_ledger(previous)


SWEEP = ["sweep", "xy", "--mesh", "4x4", "--rates", "0.05",
         "--cycles", "150", "--no-cache"]


class TestSpansOut:
    def test_sweep_writes_balanced_trace(self, tmp_path, capsys):
        spans = tmp_path / "spans.jsonl"
        assert main(SWEEP + ["--spans-out", str(spans)]) == 0
        err = capsys.readouterr().err
        assert f"-> {spans}" in err
        events = load_trace(spans)
        check_balance(events)
        names = {e["name"] for e in events if e["event"] == "span-start"}
        assert "sweep.run_many" in names
        assert "sweep.simulate" in names

    def test_lint_writes_lint_unit_spans(self, tmp_path, capsys):
        spans = tmp_path / "spans.jsonl"
        assert main(["lint", "odd-even", "--spans-out", str(spans)]) == 0
        events = load_trace(spans)
        check_balance(events)
        assert any(
            e["name"] == "lint.unit"
            for e in events
            if e["event"] == "span-start"
        )


class TestLedgerFlag:
    def test_sweep_appends_and_runs_list_shows_it(self, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        assert main(SWEEP + ["--ledger", str(ledger)]) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "sweep" in out
        assert "RUN-ID" in out

    def test_runs_show_by_prefix(self, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        main(SWEEP + ["--ledger", str(ledger)])
        capsys.readouterr()
        main(["runs", "list", "--ledger", str(ledger)])
        run_id = capsys.readouterr().out.splitlines()[1].split()[0]
        assert main(["runs", "show", run_id[:8], "--ledger", str(ledger)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["run_id"] == run_id
        assert record["kind"] == "sweep"

    def test_runs_show_unknown_prefix_exits(self, tmp_path):
        ledger = tmp_path / "ledger"
        main(SWEEP + ["--ledger", str(ledger)])
        with pytest.raises(SystemExit):
            main(["runs", "show", "ffffffff", "--ledger", str(ledger)])

    def test_runs_diff_clean_after_rerun(self, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        main(SWEEP + ["--ledger", str(ledger)])
        main(SWEEP + ["--ledger", str(ledger)])
        capsys.readouterr()
        assert main(["runs", "diff", "--ledger", str(ledger)]) == 0
        assert "no drift" in capsys.readouterr().out

    def test_runs_list_empty_ledger(self, tmp_path, capsys):
        assert main(["runs", "list", "--ledger", str(tmp_path)]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "bad_line", ["[]", '{"schema": 1, "record": "run", "kind": "sweep"}']
    )
    def test_runs_list_corrupt_ledger_is_one_line_error(self, tmp_path, bad_line):
        ledger = tmp_path / "ledger"
        assert main(SWEEP + ["--ledger", str(ledger)]) == 0
        with (ledger / "ledger.jsonl").open("a") as fh:
            fh.write(bad_line + "\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "runs", "list", "--ledger", str(ledger)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"{ledger / 'ledger.jsonl'}:2:" in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_lint_records_run(self, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        assert main(["lint", "odd-even", "--ledger", str(ledger)]) == 0
        capsys.readouterr()
        main(["runs", "list", "--ledger", str(ledger)])
        assert "lint" in capsys.readouterr().out

    def test_certify_records_run(self, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        assert main(
            ["certify", "mesh-backward-turn", "--ledger", str(ledger)]
        ) == 0
        capsys.readouterr()
        main(["runs", "list", "--ledger", str(ledger)])
        assert "certify" in capsys.readouterr().out


class TestSweepStageSummary:
    def test_stage_times_in_cli_summary(self, capsys):
        assert main(SWEEP) == 0
        out = capsys.readouterr().out
        assert "stages:" in out
        assert "simulate=" in out
        assert "simulate:reference=" in out


class TestFuzzProgress:
    def test_progress_lines_by_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_EBDA_HEARTBEAT_DIR", str(tmp_path))
        assert main(["fuzz", "--runs", "4", "--fast"]) == 0
        err = capsys.readouterr().err
        assert "fuzz:" in err and "trials" in err
        assert list(tmp_path.glob("fuzz-*.json"))

    def test_quiet_suppresses_progress(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_EBDA_HEARTBEAT_DIR", str(tmp_path))
        assert main(["fuzz", "--runs", "4", "--fast", "--quiet"]) == 0
        err = capsys.readouterr().err
        assert "fuzz:" not in err
        assert not list(tmp_path.glob("fuzz-*.json"))


class TestTop:
    def test_one_shot_renders_heartbeats(self, tmp_path, capsys):
        HeartbeatWriter("camp", "chaos", 10, tmp_path).beat(3)
        assert main(["top", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "camp" in out
        assert "3/10" in out

    def test_empty_directory(self, tmp_path, capsys):
        assert main(["top", "--dir", str(tmp_path)]) == 0
        assert "no campaign heartbeats" in capsys.readouterr().out
