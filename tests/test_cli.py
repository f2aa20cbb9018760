import json
import subprocess
import sys

import pytest

from totaldom.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_circular_pair(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "circular:n=10,d=3")
        assert code == 0
        assert "gamma_t=2 witness=[0,5]" in out

    def test_cycle5(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "cycle:n=5")
        assert code == 0
        assert "gamma_t=3" in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "cycle:n=5", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["gamma"]["value"] == 2
        assert payload["gamma_t"]["value"] == 3
        assert "stats" not in payload

    def test_stats_opt_in(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "cycle:n=5", "--format", "json", "--stats"
        )
        payload = json.loads(out)
        assert set(payload["stats"]["gamma_t"]) == {
            "subsets_examined",
            "branch_nodes",
            "forced_picks",
            "prunes_dead",
            "prunes_incumbent",
            "prunes_packing",
            "prunes_counting",
            "incumbent_updates",
            "elapsed_ms",
        }

    def test_undefined_gamma_t(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "random:n=4,p=0,seed=1"
        )
        assert code == 0
        assert "gamma_t=undefined" in out

    def test_paranoid_cross_check(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "cycle:n=7", "--paranoid"
        )
        assert code == 0

    def test_exhaustive_strategy_flag(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "cycle:n=6", "--strategy", "exhaustive"
        )
        assert code == 0
        assert "gamma_t=4 witness=[0,1,2,3]" in out  # canonical lex witness

    def test_identical_invocations_identical_output(self, capsys):
        _, out1, _ = run(capsys, "compute", "--family", "random:n=12,p=0.3,seed=4")
        _, out2, _ = run(capsys, "compute", "--family", "random:n=12,p=0.3,seed=4")
        assert out1 == out2

    def test_node_limit_exit_3(self, capsys):
        code, _, err = run(
            capsys,
            "compute",
            "--family",
            "cycle:n=10",
            "--node-limit",
            "1",
        )
        assert code == 3
        assert "limit" in err

    def test_requires_one_input(self, capsys):
        code, _, err = run(capsys, "compute")
        assert code == 2
        code, _, err = run(
            capsys, "compute", "--family", "cycle:n=5", "--input", "x.txt"
        )
        assert code == 2


class TestInputFiles:
    def test_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        code, _, _ = run(
            capsys, "family", "--family", "cycle:n=5", "--output", str(path)
        )
        assert code == 0
        code, out, _ = run(capsys, "compute", "--input", str(path))
        assert code == 0
        assert "gamma_t=3" in out

    def test_family_to_stdout(self, capsys):
        code, out, _ = run(capsys, "family", "--family", "star+matching:t=3,r=2")
        assert code == 0
        assert out.splitlines()[0] == "8 5"

    def test_malformed_edge_list_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n0 zero\n")
        code, _, err = run(capsys, "compute", "--input", str(path))
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "compute", "--input", "/nonexistent/g.txt")
        assert code == 2

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO("2 1\n0 1\n"))
        code, out, _ = run(capsys, "compute", "--input", "-")
        assert code == 0
        assert "gamma_t=2" in out

    def test_seed_override(self, capsys):
        _, out1, _ = run(capsys, "family", "--family", "random:n=8,p=0.5,seed=1")
        _, out2, _ = run(
            capsys, "family", "--family", "random:n=8,p=0.5,seed=1", "--seed", "2"
        )
        _, out3, _ = run(capsys, "family", "--family", "random:n=8,p=0.5,seed=2")
        assert out1 != out2 and out2 == out3

    def test_seed_override_rejected_for_deterministic_family(self, capsys):
        code, _, err = run(
            capsys, "family", "--family", "cycle:n=5", "--seed", "3"
        )
        assert code == 2


class TestBounds:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "bounds", "--family", "cycle:n=5")
        assert code == 0
        assert "diam2_upper applicable=true value=3 tight=true" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--family", "star:t=4", "--format", "json"
        )
        reports = json.loads(out)
        assert reports[0] == {
            "bound": "cockayne_upper",
            "applicable": True,
            "value": 2,
            "tight": True,
        }

    def test_no_exact_skips_tightness(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--family", "cycle:n=5", "--no-exact", "--format", "json"
        )
        assert all(r["tight"] is None for r in json.loads(out))

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--family", "cycle:n=8", "--format", "csv"
        )
        lines = out.splitlines()
        assert lines[0] == "bound,applicable,value,tight"
        assert "n_over_delta_lower,true,4,true" in lines


class TestVerifyCommand:
    def test_single_theorem(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "path_cycle_formula")
        assert code == 0
        assert out == "PASS path_cycle_formula checked=36\n"

    def test_list(self, capsys):
        code, out, _ = run(capsys, "verify", "--list")
        assert code == 0
        assert len(out.splitlines()) == 11

    def test_unknown_theorem(self, capsys):
        code, _, err = run(capsys, "verify", "--theorem", "fermat")
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--theorem", "circular_two", "--format", "json"
        )
        payload = json.loads(out)
        assert payload[0]["verdict"] == "PASS"
        assert "elapsed_ms" not in payload[0]

    def test_stats_adds_elapsed(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--theorem",
            "circular_three",
            "--format",
            "json",
            "--stats",
        )
        assert "elapsed_ms" in json.loads(out)[0]

    def test_stats_adds_classes_and_tightness(self, capsys):
        # C5 and C6 are the classes with girth >= 5 on n <= 6: 12 + 60
        # labelings, at each of which the girth bound is attained
        code, out, _ = run(
            capsys, "verify", "--theorem", "girth_upper", "--format", "json", "--stats"
        )
        report = json.loads(out)[0]
        assert code == 0 and report["classes"] == 2
        assert report["instances"] == report["tight"] == 72
        code, out, _ = run(capsys, "verify", "--theorem", "tree_star", "--stats")
        assert " classes=47 tight=" in out
        code, out, _ = run(capsys, "verify", "--theorem", "circular_three", "--stats")
        assert "classes=" not in out and "elapsed_ms=" in out

    def test_counterexample_exits_1(self, capsys, monkeypatch):
        # the implemented claims all hold, so fabricate a failing report to
        # exercise the counterexample path end to end
        import totaldom.cli as cli_mod
        from totaldom import TheoremId, VerificationReport

        def fake_verify(theorem, scale="quick", jobs=1):
            return VerificationReport(
                theorem=theorem,
                domain="synthetic",
                instances_checked=1,
                counterexamples=[
                    {"instance": {"n": 2, "edges": [[0, 1]]}, "detail": {"x": 1}}
                ],
                elapsed_seconds=0.0,
            )

        monkeypatch.setattr(cli_mod, "verify", fake_verify)
        code, out, _ = run(capsys, "verify", "--theorem", "sandwich")
        assert code == 1
        assert out.splitlines()[0].startswith("FAIL sandwich")
        assert "counterexample:" in out


class TestSweepCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "cycle:n=3..6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("family,n,d,t,r,p,seed,gamma,gamma_t")
        assert len(lines) == 5

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--family", "path:n=4..5", "--format", "json"
        )
        rows = json.loads(out)
        assert [r["n"] for r in rows] == ["4", "5"]

    def test_node_limit_marks_refused_cells(self, capsys):
        # both solves of this n=64 graph need thousands of branch nodes
        code, out, _ = run(
            capsys, "sweep", "--family", "random:n=63..64,p=0.1,seed=0",
            "--node-limit", "50",
        )
        assert code == 0
        header, *rows = [line.split(",") for line in out.splitlines()]
        assert len(rows) == 2
        cells = {h: v for h, v in zip(header, rows[1])}
        assert cells["gamma"] == cells["gamma_t"] == "refused"
        assert cells["cockayne_upper"] != "" and cells["cockayne_upper_tight"] == ""

    def test_budget_exceeded(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--family", "random:n=2..16,p=0.3,seed=1..1000"
        )
        assert code == 2
        assert "budget" in err


class TestConfigFile:
    def test_config_applies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("strategy=exhaustive\nstats=true\n# comment\n")
        code, out, _ = run(
            capsys,
            "compute",
            "--family",
            "cycle:n=6",
            "--config",
            str(cfg),
        )
        assert code == 0
        assert "gamma_t=4 witness=[0,1,2,3]" in out  # exhaustive witness
        assert "subsets_examined" in out  # stats switched on by config

    def test_cli_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("format=json\n")
        code, out, _ = run(
            capsys,
            "compute",
            "--family",
            "cycle:n=5",
            "--config",
            str(cfg),
            "--format",
            "text",
        )
        assert code == 0
        assert out.startswith("n=5")

    def test_bad_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("no_such_flag=1\n")
        code, _, err = run(
            capsys, "compute", "--family", "cycle:n=5", "--config", str(cfg)
        )
        assert code == 2


VERIFY = ("verify", "--theorem", "path_cycle_formula")
SWEEP = ("sweep", "--family", "cycle:n=3..4")
COMPUTE = ("compute", "--family", "cycle:n=5")


class TestUsageErrors:
    # argparse reports a usage error by exiting with code 2; jobs values are
    # kept to 0 and -1 so that no worker pool is ever started
    def usage_error(self, capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, line",
        [
            (VERIFY, "jobs=abc"),
            (VERIFY, "scale=huge"),
            (VERIFY, "jobs=0"),
            (VERIFY, "jobs=-1"),
            (SWEEP, "jobs=0"),
            (COMPUTE, "strategy=foo"),
        ],
    )
    def test_bad_config_value_exit_2(self, capsys, tmp_path, argv, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        self.usage_error(capsys, *argv, "--config", str(cfg))

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize("argv", [VERIFY, SWEEP])
    def test_jobs_below_one_exit_2(self, capsys, argv, jobs):
        self.usage_error(capsys, *argv, "--jobs", jobs)


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "totaldom", "compute", "--family", "cycle:n=5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "gamma_t=3" in proc.stdout

    def test_closed_stdout_exits_141_quietly(self):
        # the JSON (about 290 kB) outgrows the pipe buffer, so the writes
        # after the reader closes fail every time
        proc = subprocess.Popen(
            [sys.executable, "-m", "totaldom", "sweep", "--family",
             "random:n=8,p=0.5,seed=1..600", "--format", "json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"[\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""

    def test_usage_error_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "totaldom", "compute", "--format", "yaml",
             "--family", "cycle:n=5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
