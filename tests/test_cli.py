import io
import json
import math
import os
import subprocess
import sys

import pytest

import meanscape
from meanscape.cli import CommandResult, cli_run, main


def run_ok(argv):
    result = cli_run(argv)
    assert result.status == "ok", result.diagnostics
    assert result.exit_code == 0
    return result


def payload(argv):
    return run_ok(argv).payload


# imported by nothing meanscape runs: numpy is a test oracle, dataclasses, with the
# inspect it loads, cost a fresh process about 20 ms, and the expression compiler
# generates source text, so it needs no ast
_HEAVY_MODULES = ("numpy", "dataclasses", "inspect", "ast")


class TestPointCommands:
    def test_eval(self):
        p = payload(["eval", "--mean", "(x+y)/2", "--at", "2,4"])
        assert p["value"] == 3.0

    def test_eval_builtin_name(self):
        p = payload(["eval", "--mean", "G", "--at", "1,4"])
        assert p["value"] == 2.0 and p["mean"] == "G"

    def test_star(self):
        p = payload(["star", "--m1", "G", "--m2", "H", "--at", "1,4"])
        assert p["value"] == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_star_tiny_arguments(self):
        p = payload(["star", "--m1", "A", "--m2", "A", "--at", "1e-170,4e-170"])
        assert p["value"] == pytest.approx(2.5e-170, rel=1e-14, abs=0.0)

    def test_inverse(self):
        p = payload(["inverse", "--mean", "G", "--at", "1,4"])
        assert p["value"] == pytest.approx(3.0)

    def test_symmetry(self):
        p = payload(["symmetry", "--m0", "G", "--m1", "A", "--at", "1,4"])
        assert p["value"] == pytest.approx(1.6, rel=1e-14)

    # both scaled products of the reflection underflow there; S[G](H) is A
    @pytest.mark.parametrize("at", ["1e-300,1e300", "1e300,1e-300", "5e-324,1e308"])
    def test_symmetry_where_the_arguments_span_the_float_range(self, capsys, at):
        assert main(["symmetry", "--m0", "G", "--m1", "H", "--at", at]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "ok"
        x, y = doc["payload"]["at"]
        assert doc["payload"]["value"] == pytest.approx((x + y) / 2, rel=1e-15, abs=0.0)

    def test_sigma(self):
        p = payload(["sigma", "--m0", "A", "--m1", "G", "--at", "1,4"])
        assert p["value"] == pytest.approx(3.0, abs=1e-10)

    def test_sigma_on_the_diagonal_outside_the_domain(self):
        result = cli_run(["sigma", "--m0", "G", "--m1", "A", "--at=-1,-1"])
        assert result.exit_code == 1
        doc = json.loads(result.rendered)
        assert doc["diagnostics"] == ["(-1.0, -1.0) is outside the domain (0, inf) of G"]

    def test_sigma_expression_needs_monotone_flag(self):
        argv = ["sigma", "--m0", "(x+y)/2", "--m1", "G", "--at", "1,4"]
        result = cli_run(argv)
        assert result.exit_code == 1
        p = payload(argv + ["--assume-monotone"])
        assert p["value"] == pytest.approx(3.0, abs=1e-10)

    def test_normal(self):
        p = payload(["normal", "--weight", "1/t", "--at", "1,3"])
        assert p["value"] == pytest.approx(1.5)

    def test_m_arith(self):
        p = payload(["m-arith", "--mean", "G", "--at", "1,2"])
        assert p["value"] == pytest.approx(1.4567910310469069, abs=1e-13)
        assert p["guaranteed"] is True
        assert p["guaranteed_by"] == "distance" and p["d_upper"] == 0.5
        assert "d_estimate" not in p


class TestAnalysisCommands:
    def test_compare(self):
        p = payload(["compare", "--p1", "1", "--p2", "1/sqrt(t)",
                     "--window", "0.1,10"])
        assert p["relation"] == ">"

    def test_compare_default_second_weight(self):
        p = payload(["compare", "--p1", "1/t", "--window", "0.1,10"])
        assert p["relation"] == "<"

    def test_distance_and_via_phi_agree(self):
        base = ["--m1", "G", "--m2", "H", "--window", "0.1,10", "--grid", "64"]
        plain = payload(["distance"] + base)
        via = payload(["distance"] + base + ["--via-phi"])
        assert plain["via_phi"] is False and via["via_phi"] is True
        assert abs(plain["value"] - via["value"]) < 1e-6

    def test_dist_to_a(self):
        p = payload(["dist-to-a", "--mean", "G", "--window", "0.01,100"])
        assert 0.0 < p["value"] < 0.5
        assert p["sup_phi"] == pytest.approx(0.5 * math.log(1e4), rel=1e-9)

    def test_dist_to_a_across_the_float_range(self):
        # phi(H) at (1e300, 1e-300) is log(1e300) - log(1e-300): the ratio overflows
        p = payload(["dist-to-a", "--mean", "H", "--window=1e-300,1e300"])
        assert p["value"] == 0.5
        assert p["argmax"] == [1e300, 1e-300]
        assert p["sup_phi"] == pytest.approx(600 * math.log(10.0), rel=1e-15)

    def test_border(self):
        p = payload(["border", "--mean", "G"])
        assert p["trend"] == "growing"
        p = payload(["border", "--mean", "A", "--domain", "reals"])
        assert p["trend"] == "bounded"

    @pytest.mark.parametrize("argv, message", [
        (["--grid", "1", "--windows", "1,2"], "grid must be >= 8"),
        (["--grid", "8", "--windows=1,2;-1,5"],
         "window [-1, 5] is not inside the domain (0, inf) of G"),
    ])
    def test_border_rejects_grid_and_window(self, argv, message):
        result = cli_run(["border", "--mean", "G", *argv])
        assert result.exit_code == 1
        assert json.loads(result.rendered)["diagnostics"] == [message]

    def test_gh_cert(self):
        p = payload(["gh-cert"])
        assert 0.149 <= p["value"] <= 0.152
        assert p["argmax_t"] == pytest.approx(2.89005, abs=1e-4)

    def test_verify(self):
        p = payload(["verify", "--mean", "min(x,y)", "--grid", "200"])
        assert p["axiom_iii_ok"] is False
        assert p["counterexamples"]

    def test_coincide(self):
        p = payload(["coincide", "--m0", "G", "--window", "0.1,10", "--grid", "50"])
        assert p["max_discrepancy"] < 1e-9

    def test_counterexample(self):
        p = payload(["counterexample"])
        assert p["d_estimate"] > 0.99
        assert p["compound_is_A"] is True


class TestSmallScales:
    """Below 1e-9 the commands answer as at scale 1: every band and stop is relative."""

    def test_compound(self):
        want = payload(["compound", "--m1", "A", "--m2", "G", "--at", "1,4"])["value"]
        p = payload(["compound", "--m1", "A", "--m2", "G", "--at", "1e-14,4e-14"])
        assert p["value"] == pytest.approx(want * 1e-14, rel=1e-13, abs=0.0)

    def test_sigma(self):
        p = payload(["sigma", "--m0", "G", "--m1", "A", "--at", "1e-14,4e-14"])
        assert p["value"] == pytest.approx(1.6e-14, rel=1e-11, abs=0.0)

    def test_distance(self):
        window = ["--window", "1e-12,1e-10"]
        p = payload(["distance", "--m1", "A", "--m2", "G"] + window)
        want = payload(["dist-to-a", "--mean", "G"] + window)["value"]
        assert p["value"] == pytest.approx(want, rel=1e-12)

    def test_coincide(self):
        p = payload(["coincide", "--m0", "G", "--window", "1e-14,1e-12"])
        assert p["max_discrepancy"] < 1e-9 * 1e-12

    def test_verify(self):
        window = ["--window", "1e-14,1e-12"]
        p = payload(["verify", "--mean", "x"] + window)
        assert (p["axiom_i_ok"], p["axiom_ii_ok"], p["axiom_iii_ok"]) == (False, True, False)
        assert payload(["verify", "--mean", "G"] + window)["counterexamples"] == []


class TestCompoundCommand:
    def test_compound_value(self):
        p = payload(["compound", "--m1", "(x+y)/2", "--m2", "sqrt(x*y)",
                     "--at", "1,2"])
        assert p["value"] == pytest.approx(1.4567910310469069, abs=1e-12)
        assert p["converged"] is True
        # parsed operands declare no continuity, and no theorem bounds their distance
        assert p["guaranteed"] is False
        assert p["guaranteed_by"] is None and p["d_upper"] is None

    def test_compound_builtins_guaranteed_by_continuity(self):
        p = payload(["compound", "--m1", "A", "--m2", "G", "--at", "1,2"])
        assert p["guaranteed"] is True
        assert p["guaranteed_by"] == "continuity" and p["d_upper"] is None

    def test_start_outside_the_domain_is_the_compound_domain_error(self):
        result = cli_run(["compound", "--m1", "A", "--m2", "G", "--at=-1,-1", "--trace"])
        assert result.exit_code == 1
        assert json.loads(result.rendered)["diagnostics"] == [
            "(-1.0, -1.0) is outside the domain (0, inf) of mid(A,G)"]

    def test_trace_rows(self):
        p = payload(["compound", "--m1", "A", "--m2", "G", "--at", "1,2", "--trace"])
        rows = p["trace"]
        assert rows[0] == {"n": 0, "x": 1.0, "y": 2.0, "gap": 1.0}
        assert rows[1]["x"] == 1.5
        assert rows[1]["gap"] == pytest.approx(0.08578643762690495, abs=1e-15)

    def test_trace_csv(self):
        result = run_ok(["compound", "--m1", "A", "--m2", "G", "--at", "1,2",
                         "--trace", "--format", "csv"])
        lines = result.rendered.strip().splitlines()
        assert lines[0] == "n,x,y,gap"
        first = lines[1].split(",")
        assert first == ["0", "1", "2", "1"]
        assert len(lines) == len(payload(
            ["compound", "--m1", "A", "--m2", "G", "--at", "1,2", "--trace"])["trace"]) + 1

    def test_csv_rejected_elsewhere(self):
        result = cli_run(["eval", "--mean", "A", "--at", "1,2", "--format", "csv"])
        assert result.exit_code == 1

    def test_non_convergence_is_exit_2(self):
        result = cli_run(["compound", "--m1", "A", "--m2", "G", "--at", "1,1000000",
                          "--max-iter", "2"])
        assert result.exit_code == 2
        assert result.status == "error"
        assert result.diagnostics

    def test_lost_bracket_is_exit_2(self):
        # x+y is not a mean, so the root leaves the bracket
        result = cli_run(["sigma", "--m0", "A", "--m1", "x+y", "--at", "1,4"])
        assert result.exit_code == 2
        assert any("sign change" in d for d in result.diagnostics)


class TestErrorHandling:
    def test_unknown_command(self):
        result = cli_run(["frobnicate"])
        assert result.exit_code == 1
        assert any("usage" in d for d in result.diagnostics)

    def test_no_command(self):
        result = cli_run([])
        assert result.exit_code == 1

    def test_parse_error_reports_position(self):
        result = cli_run(["eval", "--mean", "log(x", "--at", "1,2"])
        assert result.exit_code == 1
        assert any("position 6" in d for d in result.diagnostics)

    @pytest.mark.parametrize("src", ["2" + "^1" * 600, "x" + "+x" * 1200],
                             ids=["power-chain", "sum-chain"])
    def test_over_deep_expression_is_user_error(self, src):
        result = cli_run(["eval", "--mean", src, "--at", "1,2"])
        assert result.exit_code == 1
        doc = json.loads(result.rendered)
        assert doc["status"] == "error"
        assert "expression too deeply nested" in doc["diagnostics"][0]

    def test_domain_error_is_user_error(self):
        result = cli_run(["eval", "--mean", "G", "--at", "-1,2"])
        assert result.exit_code == 1

    def test_bad_at(self):
        result = cli_run(["eval", "--mean", "A", "--at", "1;2"])
        assert result.exit_code == 1

    def test_builtin_atom_fault_is_user_error(self):
        result = cli_run(["eval", "--mean", "H+0", "--domain", "reals", "--at", "1,-1"])
        assert result.exit_code == 1
        doc = json.loads(result.rendered)
        assert doc["status"] == "error" and doc["diagnostics"]

    def test_builtin_atom_outside_its_domain_is_user_error(self):
        # G's kernel answers 1.414 here, outside [-2, -1]; the atom refuses the point
        result = cli_run(["eval", "--mean", "G+0*x", "--domain", "reals", "--at=-2,-1"])
        assert result.exit_code == 1
        doc = json.loads(result.rendered)
        assert doc["status"] == "error"
        assert "G is undefined at (-2.0, -1.0)" in doc["diagnostics"][0]

    def test_error_envelope_has_diagnostic(self):
        result = cli_run(["eval", "--mean", "log(", "--at", "1,2"])
        doc = json.loads(result.rendered)
        assert doc["status"] == "error"
        assert len(doc["diagnostics"]) >= 1


class TestOutputContract:
    def test_json_envelope_parses(self):
        result = run_ok(["gh-cert"])
        doc = json.loads(result.rendered)
        assert set(doc) == {"status", "payload", "diagnostics"}
        assert doc["payload"]["value"] == pytest.approx(0.150141553, abs=1e-9)

    def test_seventeen_digit_serialization(self):
        result = run_ok(["eval", "--mean", "2*x*y/(x+y)", "--at", "1,3"])
        doc = json.loads(result.rendered)
        assert doc["payload"]["value"] == 1.5
        # a value with a long mantissa survives the round trip exactly
        result = run_ok(["eval", "--mean", "sqrt(x*y)", "--at", "2,1"])
        doc = json.loads(result.rendered)
        assert doc["payload"]["value"] == math.sqrt(2.0)

    def test_determinism(self):
        argv = ["verify", "--mean", "sqrt(x*y)", "--window", "0.1,10",
                "--grid", "100", "--seed", "5"]
        assert cli_run(argv).rendered == cli_run(argv).rendered

    def test_seed_from_environment(self, monkeypatch):
        argv = ["coincide", "--m0", "A", "--grid", "10"]
        monkeypatch.setenv("MEANSCAPE_SEED", "123")
        assert cli_run(argv).payload["seed"] == 123
        # explicit flag wins over the environment
        assert cli_run(argv + ["--seed", "9"]).payload["seed"] == 9
        monkeypatch.setenv("MEANSCAPE_SEED", "not-an-int")
        assert cli_run(argv).exit_code == 1

    @pytest.mark.parametrize("argv", [["eval", "--mean", "sqrt(x*y)", "--at", "1,2"],
                                      ["eval", "--mean", "G", "--at", "1,2"]])
    def test_negative_seed_is_usage_error(self, monkeypatch, argv):
        # rejected for every command, whether or not it samples
        message = ["--seed/MEANSCAPE_SEED must be a non-negative integer, got -5"]
        monkeypatch.delenv("MEANSCAPE_SEED", raising=False)
        flagged = cli_run(argv + ["--seed", "-5"])
        monkeypatch.setenv("MEANSCAPE_SEED", "-5")
        for result in (flagged, cli_run(argv)):
            assert (result.status, result.exit_code, result.diagnostics) == ("error", 1, message)

    def test_stdin_expression(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("(x+y)/2"))
        p = payload(["eval", "--mean", "-", "--at", "2,4"])
        assert p["value"] == 3.0

    def test_out_file(self, tmp_path):
        target = tmp_path / "result.json"
        code = main(["gh-cert", "--out", str(target)])
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["status"] == "ok"

    def test_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(meanscape.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        unwanted = _HEAVY_MODULES + ("meanscape.cli",)
        code = ("import sys, meanscape; print(sorted(m for m in sys.modules "
                f"if m.startswith(('scipy', 'numpy')) or m in {unwanted!r}))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0 and proc.stdout.strip() == "[]"

    def test_metric_import_loads_no_numpy(self):
        src = os.path.dirname(os.path.dirname(meanscape.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, meanscape.metric; print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0 and proc.stdout.strip() == "False"

    # a fresh interpreter per command; no command loads numpy, the grid commands included,
    # nor the stdlib modules that only a dataclass needs (the ids keep an old False column)
    @pytest.mark.parametrize("argv, loads_numpy", [
        (["eval", "--mean", "sqrt(x*y)", "--at", "2,8"], False),
        (["verify", "--mean", "sqrt(x*y)"], False),
        (["coincide", "--m0", "G", "--grid", "20"], False),
        (["compare", "--p1", "1/t"], False),
        (["gh-cert"], False),
        (["compound", "--m1", "(x+y)/2", "--m2", "sqrt(x*y)", "--at", "1,2", "--trace"], False),
        (["m-arith", "--mean", "G", "--at", "1,2"], False),
        (["distance", "--m1", "G", "--m2", "H", "--grid", "16"], False),
        (["dist-to-a", "--mean", "G", "--grid", "16"], False),
        (["border", "--mean", "G"], False),
        (["counterexample", "--grid", "16"], False),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_numpy_loads_only_for_the_grid(self, argv, loads_numpy):
        src = os.path.dirname(os.path.dirname(meanscape.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys; from meanscape.cli import main; code = main(sys.argv[1:]); "
                f"print([m for m in {_HEAVY_MODULES!r} if m in sys.modules], file=sys.stderr); "
                "sys.exit(code)")
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["status"] == "ok"
        assert not loads_numpy and proc.stderr.strip() == "[]"

    def test_module_entry_point(self):
        src = os.path.dirname(os.path.dirname(meanscape.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        # the package must not import meanscape.cli, or runpy warns before running it
        for entry in (["-m", "meanscape"], ["-W", "error", "-m", "meanscape.cli"]):
            proc = subprocess.run([sys.executable] + entry + ["eval", "--mean", "A", "--at", "2,4"],
                                  capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 0 and proc.stderr == "", entry
            assert json.loads(proc.stdout)["payload"]["value"] == 3.0

    def test_command_result_defaults(self):
        first, second = CommandResult("ok", {}), CommandResult("ok", {})
        assert (first.diagnostics, first.exit_code, first.rendered, first.out_path) == (
            [], 0, "", None)
        first.diagnostics.append("note")
        assert second.diagnostics == []
        with pytest.raises(AttributeError):
            first.colour = "red"

    def test_package_exposes_cli_run(self):
        assert meanscape.cli_run is cli_run

    def test_main_prints_to_stdout(self, capsys):
        code = main(["eval", "--mean", "A", "--at", "2,4"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["payload"]["value"] == 3.0
