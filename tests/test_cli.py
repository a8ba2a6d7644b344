"""Unit tests for the command-line interface."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main


def _subprocess_env():
    """The environment for a fresh interpreter importing this checkout."""
    import os
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": src}


class TestList:
    def test_lists_experiments_and_designs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Table1" in out
        assert "north-last" in out
        assert "column-parity" in out


class TestVerify:
    def test_arrow_notation_acyclic(self, capsys):
        assert main(["verify", "X+ X- Y- -> Y+", "--mesh", "4x4"]) == 0
        assert "ACYCLIC" in capsys.readouterr().out

    def test_catalog_name_with_implied_rule(self, capsys):
        assert main(["verify", "odd-even", "--mesh", "4x4"]) == 0

    def test_explicit_rule(self, capsys):
        assert main(["verify", "hamiltonian", "--mesh", "4x4", "--rule", "row-parity"]) == 0

    def test_invalid_design_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "X+ X- Y+ Y-", "--mesh", "4x4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot parse design") and err.count("\n") == 1

    def test_bad_mesh_spec(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "xy", "--mesh", "huge"])
        assert exc.value.code == 2
        assert "bad mesh spec 'huge'" in capsys.readouterr().err

    def test_unknown_rule(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "xy", "--mesh", "4x4", "--rule", "nope"])
        assert exc.value.code == 2
        assert "unknown rule 'nope'" in capsys.readouterr().err

    def test_cyclic_verdict_exits_one(self, capsys, monkeypatch):
        # No design that passes validation is cyclic on a mesh (that is
        # Theorem 1), so feed the verb a real cyclic verdict: the
        # two-complete-pairs turn set's.
        import repro.cli
        from repro.cdg import verify_turnset
        from repro.core import Partition
        from repro.core.extraction import theorem1_turns
        from repro.core.turns import TurnSet
        from repro.topology import Mesh

        bad = Partition.of("X+ X- Y+ Y-")
        cyclic = verify_turnset(TurnSet({"bad": theorem1_turns(bad)}), Mesh(4, 4))
        monkeypatch.setattr(repro.cli, "verify_design", lambda *a, **k: cyclic)
        assert main(["verify", "xy", "--mesh", "4x4"]) == 1
        assert "CYCLIC" in capsys.readouterr().out


class TestDesign:
    def test_budget_design(self, capsys):
        assert main(["design", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "Algorithm 1 output" in out
        assert "ACYCLIC" in out

    def test_bad_budget(self):
        with pytest.raises(SystemExit):
            main(["design", "abc"])


class TestRun:
    def test_single_experiment(self, capsys):
        assert main(["run", "Fig4"]) == 0
        out = capsys.readouterr().out
        assert "Fig4" in out and "[PASS]" in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["run", "Fig99"])


class TestSimulate:
    def test_catalog_design(self, capsys):
        code = main(
            ["simulate", "north-last", "--mesh", "4x4", "--cycles", "300",
             "--rate", "0.05"]
        )
        assert code == 0
        assert "delivered" in capsys.readouterr().out

    def test_arrow_notation(self, capsys):
        code = main(
            ["simulate", "X- -> X+ Y+ Y-", "--mesh", "4x4", "--cycles", "200"]
        )
        assert code == 0

    def test_fault_injection_with_recovery(self, capsys):
        code = main(
            ["simulate", "negative-first", "--mesh", "4x4", "--cycles", "200",
             "--rate", "0.05", "--fail-link", "1,1-2,1", "--fail-at", "50",
             "--drops", "1", "--recover"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "delivered" in out
        assert "reroute" in out.lower()

    def test_bad_link_spec_exits(self):
        with pytest.raises(SystemExit):
            main(
                ["simulate", "negative-first", "--mesh", "4x4",
                 "--fail-link", "garbage"]
            )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--rate", "-1"], "injection_rate must be in [0, 1], got -1.0"),
            (["--rate", "1.5"], "injection_rate must be in [0, 1], got 1.5"),
            (["--cycles", "-5"], "cycles must be >= 1, got -5"),
            (["--cycles", "0"], "cycles must be >= 1, got 0"),
            # The fault-injection path bypasses the engine; same check.
            (["--rate", "-1", "--fail-link", "1,1-2,1"],
             "injection_rate must be in [0, 1], got -1.0"),
        ],
    )
    def test_out_of_range_knob_exits_two_with_one_line(self, capsys, flags, message):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "xy", "--mesh", "4x4", *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""


class TestSimulateCache:
    def test_second_run_served_from_cache(self, capsys, tmp_path):
        argv = ["simulate", "north-last", "--mesh", "4x4", "--cycles", "300",
                "--rate", "0.05", "--cache", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "cache" not in capsys.readouterr().out
        assert main(argv) == 0
        assert "served from cache" in capsys.readouterr().out

    def test_bad_jobs_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "xy", "--mesh", "4x4", "--jobs", "0"])


class TestSweepCommand:
    def test_table_and_summary(self, capsys, tmp_path):
        argv = ["sweep", "west-first", "--mesh", "4x4",
                "--rates", "0.02,0.05", "--cycles", "300",
                "--cache", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "west-first" in out
        assert "0.020" in out
        assert "cache 0 hit/2 miss" in out

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache 2 hit/0 miss" in out
        assert "0 sim cycles" in out

    def test_report_file(self, capsys, tmp_path):
        import json

        report_path = tmp_path / "report.json"
        argv = ["sweep", "xy", "--mesh", "4x4", "--rates", "0.02",
                "--cycles", "200", "--report", str(report_path)]
        assert main(argv) == 0
        payload = json.loads(report_path.read_text())
        assert payload["n_points"] == 1

    def test_jobs_flag(self, capsys):
        argv = ["sweep", "xy", "--mesh", "4x4", "--rates", "0.02,0.05",
                "--cycles", "200", "--jobs", "2"]
        assert main(argv) == 0

    def test_unknown_routing_exits(self):
        with pytest.raises(SystemExit):
            main(["sweep", "not-a-routing", "--mesh", "4x4", "--rates", "0.02"])

    def test_out_of_range_rate_exits_before_simulating(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "xy", "--mesh", "4x4", "--rates", "0.02,2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == "injection_rate must be in [0, 1], got 2.0\n"
        assert captured.out == ""


class TestRunEngineFlags:
    def test_run_with_jobs(self, capsys):
        assert main(["run", "Fig4", "--jobs", "2"]) == 0
        assert "[PASS]" in capsys.readouterr().out


class TestLogic:
    def test_emits_routing_pseudocode(self, capsys):
        assert main(["logic", "north-last", "--mesh", "4x4"]) == 0
        out = capsys.readouterr().out
        assert "if X_offset" in out
        assert "arriving on" in out


class TestTelemetryCli:
    def _export(self, tmp_path, capsys):
        mpath = tmp_path / "metrics.jsonl"
        code = main(
            ["simulate", "west-first", "--mesh", "4x4", "--cycles", "300",
             "--rate", "0.05", "--metrics-out", str(mpath),
             "--sample-every", "50"]
        )
        assert code == 0
        capsys.readouterr()
        return mpath

    def test_simulate_exports_metrics_and_trace(self, capsys, tmp_path):
        mpath = tmp_path / "metrics.jsonl"
        tpath = tmp_path / "trace.jsonl"
        code = main(
            ["simulate", "xy", "--mesh", "4x4", "--cycles", "200",
             "--rate", "0.05", "--metrics-out", str(mpath),
             "--trace-out", str(tpath)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics:" in out and "trace:" in out
        assert mpath.exists() and tpath.exists()
        import json

        first = json.loads(mpath.read_text().splitlines()[0])
        assert first["record"] == "meta"

    def test_inspect_renders_all_sections(self, capsys, tmp_path):
        mpath = self._export(tmp_path, capsys)
        assert main(["inspect", str(mpath)]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        assert "link utilization" in out
        assert "no deadlock forensics" in out

    def test_inspect_heatmap_only(self, capsys, tmp_path):
        mpath = self._export(tmp_path, capsys)
        assert main(["inspect", str(mpath), "--heatmap"]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary" not in out
        # west-first partitions key the rollup
        assert "P1" in out or "X-" in out or "partition" in out

    def test_inspect_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(SystemExit):
            main(["inspect", str(bad)])

    def test_inspect_missing_file_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["inspect", str(tmp_path / "absent.jsonl")])

    def test_sweep_metrics_out_writes_per_point_lines(self, capsys, tmp_path):
        import json

        mpath = tmp_path / "sweep-metrics.jsonl"
        argv = ["sweep", "xy", "--mesh", "4x4", "--rates", "0.02,0.05",
                "--cycles", "200", "--metrics-out", str(mpath),
                "--sample-every", "50"]
        assert main(argv) == 0
        assert "per-point metrics" in capsys.readouterr().out
        lines = mpath.read_text().splitlines()
        assert len(lines) == 2
        records = [json.loads(ln) for ln in lines]
        assert all(r["record"] == "sweep-point" for r in records)
        assert [r["injection_rate"] for r in records] == [0.02, 0.05]
        assert all(r["samples"] > 0 for r in records)


class TestLint:
    def test_catalog_design_clean_exit_zero(self, capsys):
        assert main(["lint", "west-first"]) == 0
        out = capsys.readouterr().out
        assert "west-first" in out
        assert "checked 1 design(s)" in out

    def test_all_catalog_designs_lint_clean(self, capsys):
        assert main(["lint", "--all"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out.splitlines()[-1]

    def test_invalid_design_reports_and_fails(self, capsys):
        assert main(["lint", "X+ X- Y+ Y- -> X2+"]) == 1
        out = capsys.readouterr().out
        assert "EBDA001" in out
        assert "error" in out

    def test_fail_on_never_masks_exit(self, capsys):
        assert main(["lint", "X+ X- Y+ Y- -> X2+", "--fail-on", "never"]) == 0

    def test_fail_on_note_tightens(self, capsys):
        # west-first is error-free but carries EBDA010 notes
        assert main(["lint", "west-first", "--fail-on", "note"]) == 1

    def test_torus_topology_flags_unbroken_rings(self, capsys):
        assert main(["lint", "X+ X- -> Y+ Y-", "--torus", "4x4"]) == 1
        assert "EBDA005" in capsys.readouterr().out

    def test_no_topology_skips_ring_check(self, capsys):
        assert main(["lint", "X+ X- -> Y+ Y-", "--no-topology"]) == 0

    def test_select_runs_exactly_those_rules(self, capsys):
        import json

        assert main([
            "lint", "west-first", "--select", "EBDA001,EBDA011",
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["designs"][0]["rules_run"] == ["EBDA001", "EBDA011"]

    def test_unknown_select_exits(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "xy", "--select", "EBDA999"])
        assert exc.value.code == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_sarif_output_to_file(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "lint.sarif"
        assert main([
            "lint", "west-first", "--format", "sarif",
            "--output", str(out_file),
        ]) == 0
        log = json.loads(out_file.read_text())
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["tool"]["driver"]["name"] == "repro-lint"

    def test_baseline_round_trip(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        bad = "X+ X- Y+ Y- -> X2+"
        assert main(["lint", bad, "--write-baseline", str(baseline)]) == 0
        assert main(["lint", bad, "--baseline", str(baseline)]) == 0

    def test_missing_baseline_exits(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "xy", "--baseline", str(tmp_path / "nope.json")])
        assert exc.value.code == 2
        assert "not found" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "EBDA001" in out and "EBDA011" in out
        assert "Theorem 1" in out

    def test_nothing_to_lint_exits(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint"])
        assert exc.value.code == 2
        assert "nothing to lint" in capsys.readouterr().err

    def test_unparseable_design_exits(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "garbage spec"])
        assert exc.value.code == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_full_adaptive_claim_arms_ebda009(self, capsys):
        assert main(["lint", "X+ X- Y- -> Y+", "--full-adaptive"]) == 1
        assert "EBDA009" in capsys.readouterr().out

    def test_lint_all_never_loads_numpy(self):
        # Static checks stay off the simulator stack: numpy is half of a
        # cold `repro lint` if anything below the CLI imports repro.sim.
        import subprocess
        import sys

        script = (
            "import contextlib, io, sys\n"
            "import repro.cli\n"
            "assert 'numpy' not in sys.modules, 'import repro.cli loaded numpy'\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = repro.cli.main(['lint', '--all'])\n"
            "assert code == 0, code\n"
            "assert 'numpy' not in sys.modules, 'lint --all loaded numpy'\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=_subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr


class TestChaosCli:
    ARGS = ["chaos", "--trials", "6", "--cycles", "150", "--mesh", "3x3"]

    def test_runs_and_reports(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "chaos survival report" in out
        assert "P[delivered]" in out

    def test_out_writes_loadable_jsonl(self, capsys, tmp_path):
        from repro.chaos import load_survival

        path = tmp_path / "campaign.jsonl"
        assert main(self.ARGS + ["--out", str(path)]) == 0
        records = load_survival(path)
        assert records[0]["record"] == "campaign-meta"
        assert sum(1 for r in records if r["record"] == "trial") == 6

    def test_out_is_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        assert main(self.ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_load_renders_existing_report(self, capsys, tmp_path):
        path = tmp_path / "campaign.jsonl"
        main(self.ARGS + ["--out", str(path)])
        capsys.readouterr()
        assert main(["chaos", "--load", str(path)]) == 0
        assert "chaos survival report" in capsys.readouterr().out

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(SystemExit):
            main(["chaos", "--load", str(bad)])

    def test_checkpoint_resume(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpt"
        args = ["chaos", "--trials", "12", "--cycles", "150", "--mesh", "3x3",
                "--checkpoint-dir", str(ckpt)]
        assert main(args + ["--budget-s", "0"]) == 1  # interrupted -> nonzero
        out = capsys.readouterr().out
        assert "interrupted" in out
        assert main(args) == 0  # resume completes
        assert "12/12" in capsys.readouterr().out

    def test_bad_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--trials", "2", "--workloads", "nope"])

    def test_bad_mesh_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--trials", "2", "--mesh", "huge"])


class TestCertify:
    def test_default_certifies_every_family(self, capsys):
        assert main(["certify"]) == 0
        out = capsys.readouterr().out
        assert "dim-order-mesh" in out
        assert "proven clean" in out
        assert "independently re-validated" in out

    def test_broken_family_reports_its_region(self, capsys):
        assert main(["certify", "mesh-backward-turn"]) == 0
        out = capsys.readouterr().out
        assert "EBDA003 fires on every (n, k)" in out

    def test_gate_runs_the_differential(self, capsys):
        assert main(["certify", "dim-order-mesh", "--gate", "10"]) == 0
        out = capsys.readouterr().out
        assert "10 symbolic-vs-concrete checks" in out
        assert "zero disagreements" in out

    def test_json_format_round_trips(self, capsys):
        import json

        assert main(["certify", "alg1-mesh", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["families"][0]["family"] == "alg1-mesh"

    def test_cert_dir_writes_checkable_files(self, capsys, tmp_path):
        import json

        from repro.analyze import check_certificate

        assert main(
            ["certify", "dateline-torus", "--cert-dir", str(tmp_path)]
        ) == 0
        path = tmp_path / "dateline-torus.json"
        certs = json.loads(path.read_text())
        assert certs and all(check_certificate(c).ok for c in certs)

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            main(["certify", "no-such-family"])


class TestExists:
    def graph(self, tmp_path, payload):
        import json

        path = tmp_path / "graph.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_cyclic_graph_exits_one_with_witness(self, capsys, tmp_path):
        path = self.graph(
            tmp_path, {"edges": [[0, 1], [1, 2], [2, 0]]}
        )
        assert main(["exists", path]) == 1
        out = capsys.readouterr().out
        assert "no deadlock-free guarantee" in out

    def test_acyclic_graph_exits_zero(self, capsys, tmp_path):
        path = self.graph(tmp_path, {"edges": [[0, 1], [1, 2], [0, 2]]})
        assert main(["exists", path]) == 0
        assert "deadlock-free routing exists" in capsys.readouterr().out

    def test_json_format(self, capsys, tmp_path):
        import json

        path = self.graph(tmp_path, {"edges": [["a", "b"], ["b", "a"]]})
        assert main(["exists", path, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["safe"] is False
        assert payload["cycle"]

    def test_design_flag_overrides_file(self, capsys, tmp_path):
        path = self.graph(
            tmp_path,
            {"edges": [[0, 1], [1, 2]], "design": "X+"},
        )
        assert main(["exists", path, "--design", "X+ -> Y+"]) == 0
        assert "X+ -> Y+" in capsys.readouterr().out

    def test_missing_file_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["exists", str(tmp_path / "nope.json")])
        assert exc.value.code == 2
        assert "cannot read graph file" in capsys.readouterr().err

    def test_malformed_payload_rejected(self, capsys, tmp_path):
        path = self.graph(tmp_path, {"nodes": [1, 2]})
        with pytest.raises(SystemExit) as exc:
            main(["exists", path])
        assert exc.value.code == 2
        assert '"edges" list' in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"edges": [[0, 1]], "nodes": 5},
            {"edges": [[{"a": 1}, 1]]},
            {"edges": [[0, 1, 2]]},
            {"edges": [[0, 0]]},
        ],
    )
    def test_bad_graph_exits_two_with_one_line(self, capsys, tmp_path, payload):
        path = self.graph(tmp_path, payload)
        with pytest.raises(SystemExit) as exc:
            main(["exists", path])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err and err.count("\n") == 1

    def test_unparseable_design_exits_two(self, tmp_path):
        path = self.graph(tmp_path, {"edges": [[0, 1]]})
        with pytest.raises(SystemExit) as exc:
            main(["exists", path, "--design", "garbage"])
        assert exc.value.code == 2


class TestFuzzInstantiations:
    def test_instantiation_oracle_via_fuzz(self, capsys):
        assert main(
            ["fuzz", "--runs", "0", "--instantiations", "30", "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "instantiation oracle: 30 points" in out
        assert "all symbolic verdicts confirmed" in out


def _run(argv):
    """``main(argv)`` -> (exit code, stdout, stderr), SystemExit included."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_bad_input(argv):
    code, out, err = _run(argv)
    assert code == 2, (argv, code, err)
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert out == ""


#: One row per bad input, every verb: each exits 2 with one stderr line and
#: nothing on stdout.  ``{tmp}`` holds ``garbage.jsonl`` (not JSON), an
#: empty directory ``empty/`` and a ledger whose only line is corrupt;
#: ``{tmp}/missing/`` does not exist.
BAD_INPUT = {
    "verify-mesh": ["verify", "xy", "--mesh", "4xq"],
    "verify-design": ["verify", "X+ X- Y+ Y-", "--mesh", "4x4"],
    "verify-unknown-rule": ["verify", "xy", "--mesh", "4x4", "--rule", "nope"],
    "verify-rule-instantiates-nothing":
        ["verify", "xy", "--mesh", "4x4", "--rule", "dragonfly"],
    "verify-rule-missing-dimension": ["verify", "hamiltonian", "--mesh", "8"],
    "verify-explicit-rule-missing-dimension":
        ["verify", "xy", "--mesh", "8", "--rule", "row-parity"],
    "design-budget": ["design", "abc"],
    "design-zero-budget": ["design", "0,2"],
    "logic-mesh": ["logic", "xy", "--mesh", "4x"],
    "logic-3d": ["logic", "xy", "--mesh", "3x3x3"],
    "run-unknown": ["run", "Fig99"],
    "run-jobs": ["run", "Fig4", "--jobs", "0"],
    "simulate-design": ["simulate", "garbage spec", "--mesh", "4x4"],
    "simulate-mesh": ["simulate", "xy", "--mesh", "huge"],
    "simulate-length": ["simulate", "xy", "--mesh", "4x4", "--length", "0"],
    "simulate-buffers": ["simulate", "xy", "--mesh", "4x4", "--buffers", "0"],
    "simulate-sample-every": [
        "simulate", "xy", "--mesh", "4x4", "--sample-every", "0",
        "--metrics-out", "{tmp}/m.jsonl",
    ],
    "simulate-fail-link": ["simulate", "xy", "--mesh", "4x4", "--fail-link", "1,1"],
    "simulate-fail-at": [
        "simulate", "xy", "--mesh", "4x4", "--drops", "1", "--fail-at", "-3",
    ],
    "simulate-retries": [
        "simulate", "xy", "--mesh", "4x4", "--recover", "--retries", "0",
    ],
    "simulate-jobs": ["simulate", "xy", "--mesh", "4x4", "--jobs", "0"],
    "simulate-vector-trace": [
        "simulate", "xy", "--mesh", "4x4", "--backend", "vector",
        "--trace-out", "{tmp}/t.jsonl",
    ],
    "simulate-vector-faults": [
        "simulate", "xy", "--mesh", "4x4", "--backend", "vector", "--drops", "1",
    ],
    "sweep-rates": ["sweep", "xy", "--mesh", "4x4", "--rates", "abc"],
    "sweep-rate-range": ["sweep", "xy", "--mesh", "4x4", "--rates", "2"],
    "sweep-no-rates": ["sweep", "xy", "--mesh", "4x4", "--rates", ","],
    "sweep-routing": ["sweep", "not-a-routing", "--mesh", "4x4"],
    "sweep-pattern": ["sweep", "xy", "--mesh", "4x4", "--pattern", "nope"],
    "sweep-selection": ["sweep", "xy", "--mesh", "4x4", "--selection", "nope"],
    "sweep-mesh": ["sweep", "xy", "--mesh", "4x4x"],
    "sweep-no-wires": ["sweep", "Z+", "--mesh", "4x4"],
    "inspect-missing": ["inspect", "{tmp}/absent.jsonl"],
    "inspect-garbage": ["inspect", "{tmp}/garbage.jsonl"],
    "lint-design": ["lint", "nosuch-design"],
    "lint-nothing": ["lint"],
    "lint-mesh": ["lint", "xy", "--mesh", "q"],
    "lint-torus": ["lint", "xy", "--torus", "4xq"],
    "lint-select": ["lint", "xy", "--select", "EBDA999"],
    "lint-rule": ["lint", "xy", "--rule", "nope"],
    "lint-baseline": ["lint", "xy", "--baseline", "{tmp}/absent.json"],
    "certify-family": ["certify", "no-such-family"],
    "exists-missing": ["exists", "{tmp}/absent.json"],
    "exists-garbage": ["exists", "{tmp}/garbage.jsonl"],
    "chaos-mesh": ["chaos", "--mesh", "huge"],
    "chaos-trials": ["chaos", "--trials", "0"],
    "chaos-cycles": ["chaos", "--cycles", "0"],
    "chaos-buffers": ["chaos", "--buffers", "0"],
    "chaos-watchdog": ["chaos", "--watchdog", "0"],
    "chaos-workloads": ["chaos", "--workloads", "nope"],
    "chaos-policies": ["chaos", "--policies", "nope"],
    "chaos-load": ["chaos", "--load", "{tmp}/garbage.jsonl"],
    "fuzz-families": ["fuzz", "--runs", "0", "--families", "nope"],
    "fuzz-replay-empty": ["fuzz", "--runs", "0", "--replay", "{tmp}/empty"],
    "runs-corrupt-ledger": ["runs", "list", "--ledger", "{tmp}/ledger"],
    "runs-show-unknown": ["runs", "show", "ffff", "--ledger", "{tmp}/empty"],
    # An output file under a missing directory is refused before any work.
    "lint-output": ["lint", "xy", "--output", "{tmp}/missing/x"],
    "lint-write-baseline": ["lint", "xy", "--write-baseline", "{tmp}/missing/x"],
    "sweep-report": ["sweep", "xy", "--mesh", "4x4", "--report", "{tmp}/missing/x"],
    "sweep-metrics-out":
        ["sweep", "xy", "--mesh", "4x4", "--metrics-out", "{tmp}/missing/x"],
    "sweep-spans-out":
        ["sweep", "xy", "--mesh", "4x4", "--spans-out", "{tmp}/missing/x"],
    "simulate-metrics-out":
        ["simulate", "xy", "--mesh", "4x4", "--metrics-out", "{tmp}/missing/x"],
    "simulate-trace-out":
        ["simulate", "xy", "--mesh", "4x4", "--trace-out", "{tmp}/missing/x"],
    "fuzz-report": ["fuzz", "--runs", "1", "--report", "{tmp}/missing/x"],
    "chaos-out": ["chaos", "--out", "{tmp}/missing/x"],
    "certify-out": ["certify", "alg1-mesh", "--out", "{tmp}/missing/x"],
}


class TestExitCodeContract:
    """0 ok, 1 negative verdict or finding, 2 bad input — on every verb."""

    @pytest.fixture
    def tmp(self, tmp_path):
        (tmp_path / "garbage.jsonl").write_text("not json\n")
        (tmp_path / "empty").mkdir()
        (tmp_path / "ledger").mkdir()
        (tmp_path / "ledger" / "ledger.jsonl").write_text("[]\n")
        return str(tmp_path)

    @pytest.mark.parametrize("argv", BAD_INPUT.values(), ids=BAD_INPUT.keys())
    def test_bad_input_exits_two_with_one_line(self, tmp, argv):
        _assert_bad_input([a.format(tmp=tmp) for a in argv])

    def test_verify_names_the_rule_and_design(self):
        code, _, err = _run(["verify", "xy", "--mesh", "4x4", "--rule", "dragonfly"])
        assert code == 2
        assert err == (
            "rule 'dragonfly' instantiates no channel of design 'xy' on Mesh(4, 4)\n"
        )

    def test_shape_flags_share_one_message(self):
        messages = [
            _run(argv)[2]
            for argv in (
                ["verify", "xy", "--mesh", "4xq"],
                ["chaos", "--mesh", "4xq"],
                ["lint", "xy", "--torus", "4xq"],
            )
        ]
        suffix = " spec '4xq' (use e.g. 8x8 or 4x4x4): invalid literal for int()"
        assert messages[0].startswith("bad mesh" + suffix)
        assert messages[1].startswith("bad mesh" + suffix)
        assert messages[2].startswith("bad torus" + suffix)

    def test_simulate_deadlock_exits_one(self, monkeypatch):
        from repro.sim.runner import BuiltPoint

        original = BuiltPoint.run

        def deadlocking(self):
            result = original(self)
            result.stats.deadlocked = True
            return result

        monkeypatch.setattr(BuiltPoint, "run", deadlocking)
        code, out, _ = _run(["simulate", "xy", "--mesh", "4x4", "--cycles", "50"])
        assert code == 1
        assert out.startswith("[DEADLOCK]")

    def test_failed_experiment_exits_one(self, monkeypatch):
        from repro.experiments import ALL_EXPERIMENTS
        from repro.experiments.base import ExperimentResult, check_true

        def broken():
            return ExperimentResult(
                "Broken", "always fails", "", {}, (check_true("holds", False),)
            )

        monkeypatch.setitem(ALL_EXPERIMENTS, "Broken", broken)
        code, out, err = _run(["run", "Broken"])
        assert code == 1
        assert "[FAIL]" in out and "1 experiment(s) FAILED" in err

    def test_fuzz_disagreement_exits_one(self, monkeypatch):
        import repro.fuzz

        monkeypatch.setattr(
            repro.fuzz, "self_check", lambda profile: (False, "alarm missed")
        )
        code, out, _ = _run(["fuzz", "--runs", "0", "--self-check"])
        assert code == 1
        assert "alarm missed" in out

    def test_rejected_certificate_exits_one(self, monkeypatch):
        import repro.analyze
        from repro.analyze.certcheck import CheckResult

        monkeypatch.setattr(
            repro.analyze, "check_certificates",
            lambda certs: [CheckResult("alg1-mesh", "EBDA001", False, ("forged",))],
        )
        code, out, _ = _run(["certify", "alg1-mesh"])
        assert code == 1
        assert "REJECTED (forged)" in out

    def test_ledger_drift_exits_one(self, tmp_path):
        from repro.obs import set_ledger
        from repro.obs.ledger import record_run

        previous = set_ledger(str(tmp_path))
        try:
            record_run("sweep", spec="s", payload={"delivered": 1})
            record_run("sweep", spec="s", payload={"delivered": 2})
        finally:
            set_ledger(previous)
        code, out, _ = _run(["runs", "diff", "--ledger", str(tmp_path)])
        assert code == 1
        assert out.startswith("DRIFT sweep spec=s")

    @pytest.mark.parametrize(
        "argv",
        [
            ["lint", "nosuch-design"],
            ["sweep", "xy", "--mesh", "4x4", "--rates", "2"],
            ["lint", "xy", "--output", "{tmp}/missing/x"],
        ],
        ids=["lint-design", "sweep-rates", "lint-output"],
    )
    def test_installed_entry_point(self, tmp, argv):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", *(a.format(tmp=tmp) for a in argv)],
            capture_output=True,
            text=True,
            env=_subprocess_env(),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stdout == ""


_GOOD_DIM = st.integers(2, 4).map(str)
_BAD_DIM = st.sampled_from(["", "0", "1", "-2", "q", "2.5", "4 4", "0x"])
_GOOD_RATE = st.sampled_from(["0.01", "0.05", "1"])
_BAD_RATE = st.sampled_from(["abc", "-0.1", "1.5", "nan", "inf", "0.1.2", "1e3"])
_GOOD_COORD = st.integers(0, 2).map(str)
_BAD_COORD = st.sampled_from(["", "a", "1.5", "?", " ", "-1"])
_GOOD_VC = st.integers(1, 3).map(str)
_BAD_VC = st.sampled_from(["", "0", "-1", "abc", "1.5"])


def _with_one_bad(good, bad, sep, max_good=2):
    """``sep``-joined tokens, at least one of them drawn from ``bad``."""
    return st.builds(
        lambda before, b, after: sep.join([*before, b, *after]),
        st.lists(good, max_size=max_good),
        bad,
        st.lists(good, max_size=max_good),
    )


class TestMalformedFlagProperty:
    """Malformed shape, rate, link and budget strings: always exit 2, one line.

    Values go in as ``--flag=value`` (or after ``--``) so that a leading
    ``-`` reaches the verb instead of argparse's option parser.
    """

    @settings(max_examples=25, deadline=None)
    @given(spec=_with_one_bad(_GOOD_DIM, _BAD_DIM, "x"))
    def test_mesh(self, spec):
        _assert_bad_input(["verify", "xy", f"--mesh={spec}"])

    @settings(max_examples=25, deadline=None)
    @given(spec=_with_one_bad(_GOOD_RATE, _BAD_RATE, ","))
    def test_rates(self, spec):
        _assert_bad_input(["sweep", "xy", "--mesh", "3x3", f"--rates={spec}"])

    @settings(max_examples=25, deadline=None)
    @given(
        spec=st.one_of(
            # a bad coordinate on either end
            st.builds(
                lambda u, v: f"{u}-{v}",
                _with_one_bad(_GOOD_COORD, _BAD_COORD, ",", max_good=1),
                st.lists(_GOOD_COORD, min_size=1, max_size=2).map(",".join),
            ),
            st.builds(
                lambda u, v: f"{u}-{v}",
                st.lists(_GOOD_COORD, min_size=1, max_size=2).map(",".join),
                _with_one_bad(_GOOD_COORD, _BAD_COORD, ",", max_good=1),
            ),
            # a missing or doubled separator
            st.lists(_GOOD_COORD, min_size=1, max_size=4).map(",".join),
            st.lists(_GOOD_COORD, min_size=3, max_size=3).map("-".join),
        )
    )
    def test_fail_link(self, spec):
        _assert_bad_input(
            ["simulate", "xy", "--mesh", "3x3", "--cycles", "5", f"--fail-link={spec}"]
        )

    @settings(max_examples=25, deadline=None)
    @given(spec=_with_one_bad(_GOOD_VC, _BAD_VC, ","))
    def test_budget(self, spec):
        _assert_bad_input(["design", "--", spec])


class TestSimulateDeterminism:
    """Observing a run never changes it; every flag path is ``run_point``."""

    ARGV = ["simulate", "west-first", "--mesh", "4x4", "--rate", "0.1",
            "--cycles", "300", "--no-cache"]
    LINE = "[ok] cycles=312 injected=461 delivered=461 avg_lat=8.8 thr=0.3694" \
        " flits/node/cycle"

    def test_telemetry_flags_do_not_change_the_run(self, tmp_path):
        from repro.obs import set_ledger

        previous = set_ledger(None)
        try:
            for extra in (
                [],
                ["--metrics-out", str(tmp_path / "m.jsonl")],
                ["--trace-out", str(tmp_path / "t.jsonl")],
                ["--ledger", str(tmp_path / "ledger")],
            ):
                code, out, _ = _run(self.ARGV + extra)
                assert code == 0
                assert out.splitlines()[0] == self.LINE, extra
        finally:
            set_ledger(previous)

    def test_fault_flags_equal_run_point(self):
        from repro.sim import (
            EbdaDesignFactory,
            FaultEvent,
            FaultSchedule,
            RecoveryPolicy,
            RunConfig,
            run_point,
        )
        from repro.topology import Mesh

        code, out, _ = _run(
            ["simulate", "negative-first", "--mesh", "4x4", "--cycles", "200",
             "--rate", "0.05", "--fail-link", "1,1-2,1", "--fail-at", "50",
             "--drops", "1", "--recover"]
        )
        assert code == 0
        config = RunConfig(
            cycles=200,
            injection_rate=0.05,
            watchdog=500,
            seed=1,
            faults=FaultSchedule(
                [FaultEvent(50, "link", link=((1, 1), (2, 1))), FaultEvent(50, "drop")],
                seed=1,
            ),
            recovery=RecoveryPolicy(max_retries=8),
            routing_factory=EbdaDesignFactory(
                "negative-first", directions="progressive", fallback="escape"
            ),
        )
        result = run_point(Mesh(4, 4), EbdaDesignFactory("negative-first"), config)
        assert out.splitlines()[0] == result.stats.summary(16)
        assert result.stats.faults_injected == 2
