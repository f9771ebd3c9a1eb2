import gc
import importlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import mpmath
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import meanscape
from meanscape import cli
from meanscape.cli import _COMMANDS, _EVERY_COMMAND, CommandResult, cli_run, main


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

    def test_eval_on_a_domain_that_holds_no_window(self):
        # the value is read; the axioms, with no window to sample, are not
        result = run_ok(["eval", "--mean", "x+0*y", "--domain", "1,1.0000000000000004",
                         "--at", "1.0000000000000002,1.0000000000000002"])
        assert result.payload["value"] == 1.0000000000000002
        assert result.diagnostics == [
            "axiom sampling aborted: domain (1, 1.0000000000000004) holds no window"]

    def test_star(self):
        p = payload(["star", "--m1", "G", "--m2", "H", "--at", "1,4"])
        assert p["value"] == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_star_tiny_arguments(self):
        p = payload(["star", "--m1", "A", "--m2", "A", "--at", "1e-170,4e-170"])
        assert p["value"] == pytest.approx(2.5e-170, rel=1e-14, abs=0.0)

    def test_inverse(self):
        p = payload(["inverse", "--mean", "G", "--at", "1,4"])
        assert p["value"] == pytest.approx(3.0)

    # x + y overflows at the first point; at the second M is y, and x + y - M cancelled
    @pytest.mark.parametrize("mean, at, want", [("G", "1.6e308,1.5e308", 1.5508066615170333e308),
                                                ("max(x,y)", "1e-300,1e300", 1e-300)])
    def test_inverse_where_x_plus_y_overflows_or_cancels(self, mean, at, want):
        assert payload(["inverse", "--mean", mean, "--at", at])["value"] == want

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

    # one scaled product of S[H](G) underflows and the other does not, or x * a does
    @pytest.mark.parametrize("at", ["1e-200,1e200", "1e-300,1e300", "3e-320,1e300"])
    def test_symmetry_through_h_where_one_product_underflows(self, at):
        p = payload(["symmetry", "--m0", "H", "--m1", "G", "--at", at])
        x, y = p["at"]
        with mpmath.workdps(50):
            g = mpmath.sqrt(mpmath.mpf(x) * y)
            want = float(x * mpmath.mpf(y) * g / ((mpmath.mpf(x) + y) * g - x * mpmath.mpf(y)))
        assert p["value"] == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_eval_arithmetic_near_the_float_maximum(self):
        assert payload(["eval", "--mean", "A", "--at", "1.6e308,1.5e308"])["value"] == 1.55e308

    # both weights of the endpoint-weighted form are 0: the composite is 0/0 there
    @pytest.mark.parametrize("argv, at", [
        (["symmetry", "--m0", "A", "--m1", "A"], "2e-323,1.5e-323"),
        (["star", "--m1", "A", "--m2", "G"], "2e-323,1.5e-323"),
        (["star", "--m1", "min(x,y)", "--m2", "max(x,y)"], "1,2"),
    ])
    def test_undefined_form_is_user_error(self, capsys, argv, at):
        assert main(argv + ["--at", at]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "error"
        x, y = (float(t) for t in at.split(","))
        assert doc["diagnostics"][0].endswith(f"({x}, {y}) is 0/0: both endpoint weights vanish")

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


_POINT_MEANS = ["A", "G", "H", "(x+y)/2", "sqrt(x*y)", "min(x,y)", "max(x,y)"]
_EXTREME_POINTS = ["2e-323,1.5e-323", "1e-300,1e300", "1.6e308,1.5e308", "1,2"]


def _point_argvs():
    """Every point subcommand on built-in, parsed and min/max operands at each point."""
    for at in _EXTREME_POINTS:
        for m in _POINT_MEANS:
            for cmd in ("eval", "inverse", "m-arith"):
                yield [cmd, "--mean", m, "--at", at]
        for w in ("1", "1/t", "t^0.146*(1+t)^0.057"):
            yield ["normal", "--weight", w, "--at", at]
        for m1 in _POINT_MEANS:
            for m2 in _POINT_MEANS:
                yield ["star", "--m1", m1, "--m2", m2, "--at", at]
                yield ["symmetry", "--m0", m1, "--m1", m2, "--at", at]
                yield ["sigma", "--m0", m1, "--m1", m2, "--at", at]
                yield ["compound", "--m1", m1, "--m2", m2, "--at", at]


def _outside_message(value, lo, hi):
    """The diagnostic of a point value outside [lo, hi] = [min(x, y), max(x, y)]."""
    return (f"the value {value} lies outside [min(x, y), max(x, y)] = [{lo}, {hi}], where a "
            f"mean's values lie, by more than the relative slack 1e-12")


def test_every_point_command_answers_with_an_envelope():
    # a fault at an extreme point is an exit code and a diagnostic, never a traceback; a value
    # lies in [min(x, y), max(x, y)] up to the slack of axiom (ii), or carries a diagnostic
    slack = meanscape.core._BETWEENNESS_SLACK
    for argv in _point_argvs():
        result = cli_run(argv)
        doc = json.loads(result.rendered)
        assert (result.exit_code, doc["status"]) in ((0, "ok"), (1, "error"), (2, "error")), argv
        assert doc["diagnostics"] or result.exit_code == 0, argv
        if result.status == "ok":
            (lo, hi), value = sorted(result.payload["at"]), result.payload["value"]
            assert (lo - slack * abs(lo) <= value <= hi + slack * abs(hi)
                    or _outside_message(value, lo, hi) in result.diagnostics), argv


# a parsed G whose product underflows, a reflection through it, and a logarithmic mean that
# cancels: each value leaves [min(x, y), max(x, y)], with exit 0
@pytest.mark.parametrize("argv", [
    ["eval", "--mean", "sqrt(x*y)", "--at", "1e-200,1e-300"],
    ["symmetry", "--m0", "G", "--m1", "sqrt(x*y)", "--at", "1e-200,1e-320"],
    ["eval", "--mean", "(x-y)/(log(x)-log(y))", "--at", "4.489618163283976,4.489618163650204"],
])
def test_a_point_value_outside_the_arguments_is_flagged(argv):
    result = run_ok(argv)
    (lo, hi), value = sorted(result.payload["at"]), result.payload["value"]
    assert not lo <= value <= hi
    assert result.diagnostics == [_outside_message(value, lo, hi)]


def test_an_excursion_within_the_slack_is_not_flagged():
    # H's formula rounds one ulp above both of these adjacent arguments
    result = run_ok(["eval", "--mean", "H", "--at", "0.7420588876428118,0.7420588876428119"])
    assert result.payload["value"] > max(result.payload["at"])
    assert result.diagnostics == []


def test_verify_and_the_point_commands_share_the_betweenness_rule():
    # 5e-13 * max(x, y) below min(x, y) lies within a slack of max(|x|, |y|) but not of the
    # smaller end, where x and y differ by more than a factor of 2: both commands flag it
    mean = "min(x,y) - 5e-13*max(x,y)"
    result = run_ok(["eval", "--mean", mean, "--at", "1,4"])
    assert _outside_message(result.payload["value"], 1.0, 4.0) in result.diagnostics
    assert payload(["verify", "--mean", mean])["axiom_ii_ok"] is False


@pytest.mark.parametrize("mean", ["min(x,y) - 5e-13*max(x,y)", "max(x,y) + 2e-12*min(x,y)",
                                  "(x-y)/(log(x)-log(y))"])
def test_the_point_diagnostic_fires_exactly_where_between_is_false(mean):
    # the ratio y/x crosses 2, where the first two means cross the per-end slack, and goes
    # down to adjacent floats, where the logarithmic mean cancels
    draw = random.Random(5)
    for _ in range(40):
        x = draw.uniform(0.5, 8.0)
        y = x * draw.choice((draw.uniform(1.0, 4.0), 1.0 + draw.uniform(1, 1e6) * 2.0 ** -52))
        result = run_ok(["eval", "--mean", mean, "--at", f"{x!r},{y!r}"])
        value = result.payload["value"]
        flagged = _outside_message(value, min(x, y), max(x, y)) in result.diagnostics
        assert flagged == (not meanscape.core._between(value, x, y)), (x, y, value)


# operands that are not means, at points where their endpoint weights cancel or overflow
@pytest.mark.parametrize("argv, message", [
    (["compare", "--p1", "t", "--p2", "0*t", "--window", "1,2"],
     "weight 0.0 * t is not positive and finite at 1.0"),
    (["symmetry", "--m0", "G", "--m1", "0*x", "--at", "5e-324,1", "--domain", "reals"],
     "S[G](0.0 * x)(5e-324, 1.0) is undefined: its endpoint weights differ in sign"),
    (["symmetry", "--m0", "G", "--m1", "0*x", "--at", "1e-310,1e300", "--domain", "reals"],
     "S[G](0.0 * x)(1e-310, 1e+300) is undefined: its endpoint weights differ in sign"),
])
def test_a_non_mean_that_divides_by_zero_or_overflows_is_user_error(capsys, argv, message):
    assert main(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"status": "error", "payload": {"command": argv[0]}, "diagnostics": [message]}


_FUZZ_MEANS = ["G", "(x+y)/2", "0*x", "x-y", "min(x,y)", "log(x)", "G\x01", "x\x1f+y"]
_FUZZ_WEIGHTS = ["t", "0*t", "-t", "1/t", "t\x7f"]
_FUZZ_PAIRS = ["1,2", "5e-324,1", "1e-310,1e300", "1e300,1.7e308", "-1,2", "0,1", "1,\x02"]
_FUZZ_VALUES = {  # values of every flag but --out, which writes a file
    **dict.fromkeys(["--mean", "--m0", "--m1", "--m2"], _FUZZ_MEANS),
    **dict.fromkeys(["--weight", "--p1", "--p2"], _FUZZ_WEIGHTS),
    "--at": _FUZZ_PAIRS, "--window": _FUZZ_PAIRS,
    "--windows": ["0.1,10;1,2", "5e-324,1;1e300,1.7e308", "\x03;1,2"],
    "--grid": ["2", "5"], "--tol": ["0", "0.5", "1e-300"], "--max-iter": ["0", "3"],
    "--domain": ["pos", "reals"], "--seed": ["0", "3"],
    "--format": ["json", "csv"],
    **dict.fromkeys(["--assume-monotone", "--via-phi", "--trace"], [None]),
}


_FUZZ_STRAYS = ["\x01", "x\x02y", "--\x1b", "\t"]


@st.composite
def _fuzz_argv(draw):
    """A command and a random subset of its flags, each with a value from _FUZZ_VALUES,
    and now and then a stray token."""
    command = draw(st.sampled_from(list(_COMMANDS)))
    argv = [command]
    for flag in _EVERY_COMMAND + _COMMANDS[command].flags:
        if flag in _FUZZ_VALUES and draw(st.integers(0, 5)):
            value = draw(st.sampled_from(_FUZZ_VALUES[flag]))
            argv += [flag] if value is None else [flag, value]
    if not draw(st.integers(0, 9)):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(_FUZZ_STRAYS)))
    return argv


@seed(3)
@settings(max_examples=300)
@given(_fuzz_argv())
def test_cli_run_never_raises(argv):
    result = cli_run(argv)
    assert result.exit_code in (0, 1, 2), argv
    if result.exit_code or "csv" not in argv:  # every envelope is JSON that parses
        doc = json.loads(result.rendered)
        assert doc["status"] == ("error" if result.exit_code else "ok"), argv


# values of each flag for the reading property: usual ones, then rarer ones: refused by its
# converter, or naming a flag, so that given apart from its flag it is no value
_READ_VALUES = {
    **dict.fromkeys(["--mean", "--m0", "--m1", "--m2", "--weight", "--p1", "--p2", "--out"], (
        ["G", "(x+y)/2", "", "x=y", "-", "-x+2*y", "--x y", "--no-flag=a b", "--x", "--help=a b"],
        ["--at=1 2", "-h", "--help", "--mean", "--window"])),
    "--at": (["1,2", "-1,2", "nan,1"], ["1", "a,b"]),
    "--window": (["1,3", "-1,1"], ["1,1", "a"]),
    "--windows": (["0.1,10;1,100", "1,2;"], ["1,0", "0.1,10;a,b", ";"]),
    "--grid": (["8", "64"], ["1", "0", "-3", "1.5", "x"]),
    "--tol": (["1e-3", "0"], ["-1", "nan", "x"]),
    "--max-iter": (["5", "0"], ["-1", "1.5"]),
    "--domain": (["pos", "reals", "0,1", "-5,0"], ["1,0", "nan,1", "x"]),
    "--seed": (["3", "0"], ["-5", "x", ""]),
    "--format": (["json", "csv"], ["xml"]),
}
# tokens that stand where a flag or a command should
_STRAY_TOKENS = ["stray", "-", "-1", "--", "--windo", "--no-such-flag", "--trace=1", "--help=x",
                 "eval", "-h", "--help", "--he", *cli._FLAGS]


def _switch(flag: str) -> bool:
    return "switch" in cli._FLAGS[flag]


@st.composite
def _drawn_run(draw):
    """A command, or none or an unknown one, and its items, each a flag or None for a stray
    token, with the tokens that give it: the flags the command reads, the required ones and
    any others, in any order and either form, repeated, with usual or rarer values; and at
    most one fault of form: a flag left out, a value flag given no value or a switch given
    one, a stray token between two items."""
    command = draw(st.sampled_from([*_COMMANDS, "frobnicate", None]))
    reads = _EVERY_COMMAND + _COMMANDS[command].flags if command in _COMMANDS else [*cli._FLAGS]
    flags = [f for f in reads if "required" in cli._FLAGS[f] or draw(st.booleans())]
    flags += draw(st.lists(st.sampled_from(reads), max_size=2))
    items = []
    for flag in draw(st.permutations(flags)):
        if _switch(flag):
            items.append((flag, [flag]))
        else:
            value = draw(st.sampled_from(_READ_VALUES[flag][draw(st.integers(0, 9)) == 0]))
            items.append((flag, draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))))
    fault = draw(st.sampled_from([None, None, "left out", "no value", "switch value", "stray"]))
    valued = [i for i, (flag, _) in enumerate(items) if not _switch(flag)]
    switches = [flag for flag in reads if _switch(flag)]
    if command not in _COMMANDS:
        pass  # the first token decides
    elif fault == "left out" and items:
        items.pop(draw(st.integers(0, len(items) - 1)))
    elif fault == "no value" and valued:
        i = draw(st.sampled_from(valued))
        items[i] = (items[i][0], [items[i][0]])
    elif fault == "switch value" and switches:
        flag = draw(st.sampled_from(switches))
        items.insert(draw(st.integers(0, len(items))), (flag, [f"{flag}=1"]))
    elif fault == "stray":
        stray = draw(st.sampled_from(_STRAY_TOKENS))
        items.insert(draw(st.integers(0, len(items))), (None, [stray]))
    return command, items


def _read_as(read, argv):
    """What ``read`` makes of ``argv``: the attributes of its namespace by name, each as its
    repr (NaN equals itself there), "help", or the message of the _UsageError it raised."""
    try:
        namespace = read(argv)
    except cli._Help:
        return "help"
    except cli._UsageError as exc:
        return ("usage error", str(exc))
    return {k: repr(v) for k, v in vars(namespace).items()}


def _read_of_the_draw(command, items):
    """What the drawn run reads to, worked out item by item from how it was drawn."""
    if command not in _COMMANDS:
        flag = items[0][1][0].partition("=")[0]
        return ("usage error", f"unknown command 'frobnicate'; meanscape --help lists them\n"
                f"usage: meanscape COMMAND [-h]" if command else
                f"{flag} comes before the command; flags follow the command, as in meanscape "
                f"COMMAND {flag} ...\nusage: meanscape COMMAND [-h]")
    cmd, reads = _COMMANDS[command], _EVERY_COMMAND + _COMMANDS[command].flags
    usage = cli._usage(command, reads)
    read = {}
    for flag, tokens in items:
        name, equals, text = tokens[0].partition("=")
        if name in ("-h", "--help") and not equals:
            return "help"
        if name not in reads:  # a stray token, followed by a flag or the end
            return ("usage error", f"unrecognized arguments: {tokens[0]}\n{usage}")
        if _switch(name):
            if equals:
                return ("usage error", f"argument {name}: ignored explicit argument {text!r}\n"
                        f"{usage}")
            read[name] = True
            continue
        if len(tokens) == 2:
            text = tokens[1]
        if len(tokens) == 1 and not equals or len(tokens) == 2 and (
                text in ("-h", "--help") or text.partition("=")[0] in reads):
            return ("usage error", f"argument {name}: expected one argument\n{usage}")
        if name == "--format" and text not in ("json", "csv"):
            return ("usage error", f"argument --format: invalid choice: {text!r} "
                    f"(choose from 'json', 'csv')\n{usage}")
        try:
            read[name] = cli._type(name, cmd)(text)
        except cli._UsageError as exc:
            return ("usage error", str(exc))
    missing = [f for f in reads if "required" in cli._FLAGS[f] and f not in read]
    if missing:
        return ("usage error", f"the following arguments are required: {', '.join(missing)}\n"
                f"{usage}")
    for flag in reads:  # the defaults, the seed's from the environment
        if flag not in read:
            default = (os.environ.get("MEANSCAPE_SEED", cli.DEFAULT_SEED) if flag == "--seed"
                       else cli._FLAGS[flag].get("default"))
            try:
                read[flag] = cli._type(flag, cmd)(default) if isinstance(default, str) else default
            except cli._UsageError as exc:
                return ("usage error", str(exc))
    return {"command": repr(command), **{cli._dest(f): repr(v) for f, v in read.items()}}


@seed(28)
@settings(max_examples=600)
@given(_drawn_run(), st.sampled_from([None, "5", "abc", "-2", ""]))
def test_the_reader_reads_what_the_draw_gives(run, env_seed):
    command, items = run
    argv = ([] if command is None else [command]) + [t for _, tokens in items for t in tokens]
    with mock.patch.dict(os.environ, {"MEANSCAPE_SEED": env_seed or ""}):
        if env_seed is None:
            del os.environ["MEANSCAPE_SEED"]
        assert _read_as(cli._read_args, argv) == _read_of_the_draw(*run), argv


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
        (["--grid", "1", "--windows", "1,2"], "--grid must be at least 8, got 1"),
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

    @pytest.mark.parametrize("seed", [0, 2, 4, 5, 7])
    def test_coincide_near_the_float_maximum(self, seed):
        # a normal mean of the probe family has a weight past the float range here
        p = payload(["coincide", "--m0", "G", "--window", "1e300,1.7e308",
                     "--seed", str(seed)])
        assert p["max_discrepancy"] < 1e-11 * 1.7e308

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

    @pytest.mark.parametrize("argv", [
        ["compound", "--m1", "(x+y)/2", "--m2", "sqrt(x*y)", "--at", "1,2", "--trace"],
        ["m-arith", "--mean", "sqrt(x*y)", "--at", "1,2"],
    ])
    def test_no_compound_kernel_is_generated(self, argv, monkeypatch):
        # both evaluate through compound_trace, so a generated kernel would go uncalled
        def refuse(*args):
            raise AssertionError("a compound kernel was generated")
        monkeypatch.setattr(meanscape.middle, "_compound_kernel", refuse)
        run_ok(argv)

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

    # A rounds to x and G, H to y there: the start is a fixed point one quantum wide
    @pytest.mark.parametrize("argv", [["compound", "--m1", "A", "--m2", "G"],
                                      ["compound", "--m1", "(x+y)/2", "--m2", "sqrt(x*y)"],
                                      ["m-arith", "--mean", "G"], ["m-arith", "--mean", "H"]],
                             ids=" ".join)
    def test_adjacent_subnormal_start_stops_at_once(self, argv):
        p = payload(argv + ["--at", "2e-323,1.5e-323"])
        assert (p["converged"], p["iterations"]) == (True, 0)
        assert 1.5e-323 <= p["value"] <= 2e-323

    def test_non_convergence_is_exit_2(self):
        A, G = meanscape.make_arithmetic(), meanscape.make_geometric()
        for argv, library in [(["compound", "--m1", "A", "--m2", "G"],
                               meanscape.compound(A, G, max_iterations=2)),
                              (["m-arith", "--mean", "G"],
                               meanscape.m_arithmetic(G, max_iterations=2))]:
            result = cli_run(argv + ["--at", "1,1000000", "--max-iter", "2"])
            assert result.exit_code == 2
            assert result.status == "error"
            # the message of the library compound's own ConvergenceError, from the same start
            with pytest.raises(meanscape.ConvergenceError) as err:
                library(1.0, 1e6)
            assert result.diagnostics == [str(err.value)]

    def test_lost_bracket_is_exit_2(self):
        # x+y is not a mean, so the root leaves the bracket
        result = cli_run(["sigma", "--m0", "A", "--m1", "x+y", "--at", "1,4"])
        assert result.exit_code == 2
        assert any("sign change" in d for d in result.diagnostics)


class TestErrorHandling:
    @pytest.mark.parametrize("command", [["compound", "--m1", "A", "--m2", "G"],
                                         ["m-arith", "--mean", "G"]], ids=" ".join)
    @pytest.mark.parametrize("flags, message", [
        (["--tol", "nan"], "--tol must be finite and non-negative, got nan"),
        (["--tol", "inf"], "--tol must be finite and non-negative, got inf"),
        (["--tol=-1e-13"], "--tol must be finite and non-negative, got -1e-13"),
        (["--max-iter", "-1"], "--max-iter must be non-negative, got -1"),
    ])
    def test_bad_iteration_settings_are_user_errors(self, command, flags, message):
        result = cli_run(command + ["--at", "1,2"] + flags)
        assert (result.status, result.exit_code, result.diagnostics) == ("error", 1, [message])

    @pytest.mark.parametrize("argv, message", [
        (["compound", "--m1", "A", "--m2", "G", "--at", "1,4", "--tol", "-1"],
         "--tol must be finite and non-negative, got -1.0"),
        (["m-arith", "--mean", "G", "--at", "1,4", "--max-iter", "-1"],
         "--max-iter must be non-negative, got -1"),
    ])
    def test_a_bad_setting_names_its_flag(self, capsys, argv, message):
        assert main(argv) == 1
        doc = json.loads(capsys.readouterr().out)
        assert (doc["status"], doc["diagnostics"]) == ("error", [message])

    def test_sigma_reads_no_tol(self):
        # sigma solves to adjacent floats, so --tol is a flag it does not read
        result = cli_run(["sigma", "--m0", "A", "--m1", "G", "--at", "1,4", "--tol", "1e-12"])
        assert (result.status, result.exit_code, result.payload) == ("error", 1, {})
        assert result.diagnostics[0].startswith("unrecognized arguments: --tol 1e-12\n")

    @pytest.mark.parametrize("p1, p2, ratio, t", [
        ("exp(t)", "exp(-t)", "inf", "357.14285714285717"),
        ("exp(-t)", "exp(t)", "6.161064896628e-311", "357.14285714285717"),
    ])
    def test_a_weight_ratio_outside_the_normal_floats_is_exit_2(self, capsys, p1, p2, ratio, t):
        # e^(2t) rises strictly, but leaves the float range: no order can be read from it
        argv = ["compare", "--p1", p1, "--p2", p2, "--window", "300,400", "--domain", "reals",
                "--grid", "8"]
        assert main(argv) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"status": "error", "payload": {"command": "compare"}, "diagnostics": [
            f"the ratio of weights {p1} / {p2} is {ratio} at {t}, outside the positive normal "
            "floats"]}

    def test_unknown_command(self):
        result = cli_run(["frobnicate"])
        assert result.exit_code == 1
        assert any("usage" in d for d in result.diagnostics)

    def test_no_command(self):
        result = cli_run([])
        assert result.exit_code == 1

    @pytest.mark.parametrize("argv, flag", [
        (["--grid", "8", "gh-cert"], "--grid"),
        (["--seed=3", "eval", "--mean", "A", "--at", "1,2"], "--seed"),
        (["--format", "json"], "--format"),
        (["--he"], "--he"),  # no abbreviation of --help is --help
        (["--h", "eval"], "--h"),
    ])
    def test_flag_before_the_command(self, argv, flag):
        result = cli_run(argv)
        assert result.exit_code == 1
        assert result.diagnostics == [
            f"{flag} comes before the command; flags follow the command, "
            f"as in meanscape COMMAND {flag} ...\nusage: meanscape COMMAND [-h]"]

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--help", "eval"]])
    def test_help_before_the_command_lists_the_commands(self, argv):
        result = cli_run(argv)
        assert (result.status, result.exit_code) == ("ok", 0)
        assert result.rendered.startswith("usage: meanscape COMMAND [-h]\n")
        assert re.findall(r"^  ([\w-]+) ", result.rendered, re.M) == list(_COMMANDS)

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


class TestFlagValues:
    @pytest.mark.parametrize("argv, equals_form, exit_code", [
        (["eval", "--mean", "A", "--at", "-1,2"], ["eval", "--mean", "A", "--at=-1,2"], 0),
        (["distance", "--m1", "A", "--m2", "(x+y)/2", "--domain", "reals", "--window", "-1,1",
          "--grid", "8"],
         ["distance", "--m1", "A", "--m2", "(x+y)/2", "--domain", "reals", "--window=-1,1",
          "--grid", "8"], 0),
        (["eval", "--mean", "(x+y)/2", "--at", "-3,-1", "--domain", "-5,0"],
         ["eval", "--mean", "(x+y)/2", "--at=-3,-1", "--domain=-5,0"], 0),
        (["eval", "--mean", "-x+2*y", "--domain", "reals", "--at", "1,2"],
         ["eval", "--mean=-x+2*y", "--domain", "reals", "--at", "1,2"], 0),
        (["compound", "--m1", "A", "--m2", "G", "--at", "1,2", "--tol", "-1e-13"],
         ["compound", "--m1", "A", "--m2", "G", "--at", "1,2", "--tol=-1e-13"], 1),
    ])
    def test_a_value_may_start_with_a_dash(self, argv, equals_form, exit_code):
        result = cli_run(argv)
        assert result.exit_code == exit_code, result.diagnostics
        assert result.rendered == cli_run(equals_form).rendered

    @pytest.mark.parametrize("argv", [["eval", "--mean", "A", "--at"],
                                      ["eval", "--at", "--mean", "A"]], ids=" ".join)
    def test_a_flag_is_no_value(self, argv):
        result = cli_run(argv)
        assert result.exit_code == 1
        assert result.diagnostics[0].startswith("argument --at: expected one argument\n")

    # refused while the arguments are read: the expression "log(" is never parsed
    @pytest.mark.parametrize("argv, message", [
        (["eval", "--mean", "log(", "--at", "a,b"], "--at must be numeric, got 'a,b'"),
        (["eval", "--mean", "log(", "--at", "1"],
         "--at must be two comma-separated numbers, got '1'"),
        (["distance", "--m1", "log(", "--m2", "H", "--window", "1,1"],
         "bad window: empty or degenerate interval [1.0, 1.0]"),
        (["border", "--mean", "log(", "--windows", "1,0"],
         "bad window: empty or degenerate interval [1.0, 0.0]"),
        (["eval", "--mean", "log(", "--at", "1,2", "--domain", "1,0"],
         "bad domain: empty or degenerate interval [1.0, 0.0]"),
        (["eval", "--mean", "log(", "--at", "1,2", "--domain", "nan,1"],
         "bad domain: interval endpoints must not be NaN"),
        (["eval", "--mean", "log(", "--at", "1,2", "--seed", "x"],
         "--seed/MEANSCAPE_SEED must be a non-negative integer, got 'x'"),
        (["border", "--mean", "log(", "--windows", "0.1,10;a,b"],
         "--windows must be numeric, got 'a,b'"),
        (["border", "--mean", "log(", "--windows", ";"],
         "--windows must hold at least one window, got ';'"),
        (["border", "--mean", "log(", "--grid", "x"], "--grid must be at least 8, got 'x'"),
    ])
    def test_a_bad_value_is_a_usage_error(self, monkeypatch, argv, message):
        monkeypatch.setattr("sys.stdin", None)  # nothing reads it
        result = cli_run(argv)
        assert (result.exit_code, result.payload, result.diagnostics) == (1, {}, [message])

    def test_stdin_is_read_once(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("(x+y)/2"))
        result = cli_run(["star", "--m1", "-", "--m2", "-", "--at", "1,2"])
        assert (result.exit_code, result.payload, result.diagnostics) == (
            1, {"command": "star"}, ["stdin can only be read once per invocation"])

    def test_domain_lo_hi(self):
        result = run_ok(["eval", "--mean", "(x+y)/2", "--domain", "0,1", "--at", "0.25,0.5"])
        assert (result.payload["value"], result.diagnostics) == (0.375, [])

    @pytest.mark.parametrize("argv", [
        ["verify", "--mean", "sqrt(x*y)", "--domain", "1e17,inf"],
        ["eval", "--mean", "sqrt(x)*sqrt(y)", "--domain", "1e300,inf", "--at", "2e300,3e300"],
    ], ids=" ".join)
    def test_a_domain_far_from_zero(self, argv):
        # the default window of a parsed mean stays inside the domain
        assert run_ok(argv).diagnostics == []

    def test_a_bad_seed_from_the_environment(self, monkeypatch):
        monkeypatch.setenv("MEANSCAPE_SEED", "abc")
        result = cli_run(["coincide", "--m0", "A", "--grid", "10"])
        assert (result.exit_code, result.payload, result.diagnostics) == (
            1, {}, ["--seed/MEANSCAPE_SEED must be a non-negative integer, got 'abc'"])
        assert run_ok(["coincide", "--m0", "A", "--grid", "10", "--seed", "3"]).payload["seed"] == 3
        result = run_ok(["eval", "--help"])
        assert result.rendered.startswith("usage: meanscape eval [-h]")


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

    def test_non_finite_floats_are_written_as_python_s_json_module_writes_them(self):
        assert [cli._to_json(v) for v in (math.nan, math.inf, -math.inf)] == [
            "NaN", "Infinity", "-Infinity"]
        assert cli._to_json({"v": [math.nan, (math.inf,)]}) == '{"v": [NaN, [Infinity]]}'
        assert json.loads(cli._to_json([math.inf]))[0] == math.inf

    def test_an_object_it_cannot_write_raises(self):
        with pytest.raises(TypeError, match="^cannot serialize object$"):
            cli._to_json(object())

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

    @pytest.mark.parametrize("name", ["x.json", "\x02x.json"])
    def test_out_to_a_path_that_cannot_be_written(self, tmp_path, capsys, name):
        target = tmp_path / "missing" / name
        assert main(["eval", "--mean", "G", "--at", "1,4", "--out", str(target)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"status": "error", "payload": {"command": "eval"},
                       "diagnostics": [f"cannot write --out {target}: No such file or directory"]}
        assert not target.parent.exists()

    def test_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(meanscape.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        unwanted = _HEAVY_MODULES + ("meanscape.cli",)
        code = ("import sys, meanscape; print(sorted(m for m in sys.modules "
                f"if m.startswith(('scipy', 'numpy')) or m in {unwanted!r}))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0 and proc.stdout.strip() == "[]"

    def test_import_loads_no_typing(self):
        # -S: site's .pth files may import typing themselves
        src = os.path.dirname(os.path.dirname(meanscape.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, meanscape.cli; print('typing' in sys.modules)"
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_compiles_only_the_built_in_kernels(self):
        # the loops of compounds and traces are compiled on first use, not at import
        src = os.path.dirname(os.path.dirname(meanscape.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys\n"
                "compiled = []\n"
                "def hook(event, args):\n"
                "    if event == 'compile' and sys._getframe(1).f_code.co_name == '_generated':\n"
                "        compiled.append(args[1])\n"
                "sys.addaudithook(hook)\n"
                "import meanscape.cli\n"
                "print(compiled)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['<core>', '<core>', '<core>']"

    def test_import_compiles_no_pattern(self):
        # middle._shared reads a value's names without a pattern, so neither the import nor
        # a compound's loop loads re; -S keeps out site, whose .pth files may load it
        src = os.path.dirname(os.path.dirname(meanscape.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys\n"
                "import meanscape.cli\n"
                "import meanscape as ms\n"
                "G = ms.make_geometric()\n"
                "ms.compound(G, ms.group_inverse(G))(1.0, 4.0)\n"
                "print('re' in sys.modules)")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    def test_no_run_loads_parsing_modules(self):
        # the CLI reads its arguments itself: argparse, with the gettext and locale it loads,
        # would cost a fresh process several milliseconds
        src = os.path.dirname(os.path.dirname(meanscape.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys\n"
                "from meanscape.cli import cli_run\n"
                "result = cli_run(sys.argv[1:])\n"
                "print(result.exit_code, [m for m in ('argparse', 'gettext', 'locale') "
                "if m in sys.modules])")
        for argv, want in [(_EXAMPLES["compound"][0], "0 []"), (["eval", "--help"], "0 []"),
                           (["eval", "--mean", "A"], "1 []")]:
            proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                                  text=True, env=env, timeout=60)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == want, argv

    def test_metric_import_loads_no_numpy(self):
        src = os.path.dirname(os.path.dirname(meanscape.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, meanscape.metric; print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0 and proc.stdout.strip() == "False"

    # a fresh interpreter per command; no command loads numpy, the grid commands included,
    # nor the stdlib modules that only a dataclass needs
    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_no_command_loads_heavy_modules(self, command):
        src = os.path.dirname(os.path.dirname(meanscape.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys; from meanscape.cli import main; code = main(sys.argv[1:]); "
                f"print([m for m in {_HEAVY_MODULES!r} if m in sys.modules], file=sys.stderr); "
                "sys.exit(code)")
        proc = subprocess.run([sys.executable, "-c", code, *_EXAMPLES[command][0]],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["status"] == "ok"
        assert proc.stderr.strip() == "[]"

    def test_module_entry_point(self, tmp_path):
        src = os.path.dirname(os.path.dirname(meanscape.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = tmp_path / "out.json"
        # an ok run, a usage error, a numerical failure, --help and --out: the program writes
        # what cli_run renders, to stdout or to the --out file, and exits with its code
        for argv in (["eval", "--mean", "A", "--at", "2,4"], ["eval", "--mean", "A"],
                     ["compound", "--m1", "A", "--m2", "G", "--at", "1,2", "--max-iter", "0"],
                     ["eval", "--help"], ["gh-cert", "--out", str(out)]):
            want = cli_run(argv)
            # the package must not import meanscape.cli, or runpy warns before running it
            for entry in (["-m", "meanscape"], ["-W", "error", "-m", "meanscape.cli"],
                          ["-c", "import sys; from meanscape.cli import main; sys.exit(main())"]):
                proc = subprocess.run([sys.executable] + entry + argv, capture_output=True,
                                      env=env, timeout=60)
                assert (proc.returncode, proc.stderr) == (want.exit_code, b""), (argv, entry)
                if want.out_path:
                    assert proc.stdout == b"", entry
                    assert out.read_bytes() == want.rendered.encode(), entry
                    out.unlink()
                else:
                    assert proc.stdout == want.rendered.encode(), (argv, entry)

    def test_the_program_freezes_the_collector(self):
        # what is alive when the command starts lives until exit: no collection walks it
        src = os.path.dirname(os.path.dirname(meanscape.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import gc, sys\n"
                "from meanscape.cli import main\n"
                "code = main()\n"
                "print(gc.get_freeze_count(), file=sys.stderr)\n"
                "sys.exit(code)")
        proc = subprocess.run([sys.executable, "-c", code, "eval", "--mean", "A", "--at", "2,4"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stderr) > 0

    def test_in_process_runs_leave_the_collector_alone(self, tmp_path, capsys):
        frozen = gc.get_freeze_count()
        for argv in (["eval", "--mean", "A", "--at", "2,4"], ["eval", "--mean", "A"],
                     ["eval", "--help"], ["gh-cert", "--out", str(tmp_path / "out.json")]):
            main(argv)
            cli_run(argv)
            assert gc.get_freeze_count() == frozen, argv

    def test_a_closed_stdout_pipe(self):
        # the reader is gone before the program writes: one line on stderr, exit 1, and no
        # traceback from the write or from shutdown's flush
        src = os.path.dirname(os.path.dirname(meanscape.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "meanscape", "gh-cert"], stdout=write,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "cannot write the output: Broken pipe\n")

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

    def test_package_names_are_its_modules_all(self):
        # each module's __all__ is the one list of its public names
        modules = [importlib.import_module(f"meanscape.{name}")
                   for name in ("core", "algebra", "metric", "middle", "expressions")]
        names = [name for module in modules for name in module.__all__]
        assert meanscape.__all__ == names
        assert len(set(names)) == len(names)
        assert not [name for name in names if name.startswith("_")]
        for module in modules:
            for name in module.__all__:
                assert getattr(meanscape, name) is getattr(module, name), name

    def test_star_import_loads_no_cli(self):
        # cli_run is no name of __all__: it loads on first use, as runpy needs
        src = os.path.dirname(os.path.dirname(meanscape.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys\n"
                "from meanscape import *\n"
                "print('meanscape.cli' in sys.modules)\n"
                "import meanscape\n"
                "print(meanscape.cli_run.__module__)")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "meanscape.cli"]

    def test_main_prints_to_stdout(self, capsys):
        code = main(["eval", "--mean", "A", "--at", "2,4"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["payload"]["value"] == 3.0
        assert main(["gh-cert", "--help"]) == 0
        assert capsys.readouterr().out == cli_run(["gh-cert", "--help"]).rendered


# one valid argv per command and the keys of its payload, in order
_EXAMPLES = {
    "eval": (["eval", "--mean", "sqrt(x*y)", "--at", "2,8"],
             ["command", "mean", "at", "value"]),
    "star": (["star", "--m1", "G", "--m2", "H", "--at", "1,4"],
             ["command", "m1", "m2", "at", "value"]),
    "inverse": (["inverse", "--mean", "G", "--at", "1,4"],
                ["command", "mean", "at", "value"]),
    "symmetry": (["symmetry", "--m0", "G", "--m1", "A", "--at", "1,4"],
                 ["command", "m0", "m1", "at", "value"]),
    "sigma": (["sigma", "--m0", "A", "--m1", "G", "--at", "1,4"],
              ["command", "m0", "m1", "at", "value"]),
    "normal": (["normal", "--weight", "1/t", "--at", "1,3"],
               ["command", "weight", "at", "value"]),
    "compare": (["compare", "--p1", "1/t"],
                ["command", "p1", "p2", "window", "samples", "relation"]),
    "distance": (["distance", "--m1", "G", "--m2", "H", "--grid", "16"],
                 ["command", "m1", "m2", "via_phi", "window", "grid", "value", "argmax"]),
    "dist-to-a": (["dist-to-a", "--mean", "G", "--grid", "16"],
                  ["command", "mean", "window", "grid", "value", "sup_phi", "argmax"]),
    "border": (["border", "--mean", "G"],
               ["command", "mean", "windows", "sups", "sup_f_estimate", "trend"]),
    "gh-cert": (["gh-cert"],
                ["command", "value", "quartic_residual", "argmax_t"]),
    "compound": (["compound", "--m1", "(x+y)/2", "--m2", "sqrt(x*y)", "--at", "1,2", "--trace"],
                 ["command", "m1", "m2", "at", "tolerance", "max_iterations", "value",
                  "iterations", "converged", "guaranteed", "guaranteed_by", "d_upper", "trace"]),
    "m-arith": (["m-arith", "--mean", "G", "--at", "1,2"],
                ["command", "m1", "m2", "at", "tolerance", "max_iterations", "value",
                 "iterations", "converged", "guaranteed", "guaranteed_by", "d_upper"]),
    "coincide": (["coincide", "--m0", "G", "--grid", "20"],
                 ["command", "m0", "window", "samples", "seed", "max_discrepancy",
                  "worst_point"]),
    "verify": (["verify", "--mean", "sqrt(x*y)"],
               ["command", "mean", "window", "samples", "seed", "axiom_i_ok", "axiom_ii_ok",
                "axiom_iii_ok", "counterexamples"]),
    "counterexample": (["counterexample", "--grid", "16"],
                       ["command", "window", "grid", "seed", "d_estimate", "compound_is_A"]),
}


# the flags some commands read and others do not, each with a well-formed value
_TUNING_FLAGS = {"--window": "1,3", "--grid": "8", "--tol": "1e-3", "--max-iter": "5",
                 "--domain": "reals"}


class TestCommandTable:
    def test_every_command_has_an_example(self):
        assert list(_EXAMPLES) == list(_COMMANDS)

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_help_lists_the_flags_the_command_reads(self, capsys, command):
        result = cli_run([command, "--help"])
        assert (result.status, result.exit_code, capsys.readouterr().out) == ("ok", 0, "")
        assert result.rendered.startswith(f"usage: meanscape {command} [-h]")
        listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", result.rendered, re.M)
        assert listed == ["--help", *_EVERY_COMMAND, *_COMMANDS[command].flags]

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_flags_the_command_does_not_read_are_usage_errors(self, command):
        unread = [f for f in _TUNING_FLAGS if f not in _COMMANDS[command].flags]
        assert unread
        for flag in unread:
            result = cli_run(_EXAMPLES[command][0] + [flag, _TUNING_FLAGS[flag]])
            assert (result.status, result.exit_code, result.payload) == ("error", 1, {}), flag
            assert result.diagnostics[0].startswith(
                f"unrecognized arguments: {flag} {_TUNING_FLAGS[flag]}\n"
                f"usage: meanscape {command} [-h]")

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_one_command_parses_as_among_all(self, command):
        # help and usage errors come from the one parser that holds all sixteen commands
        argvs = [[command, "--help"], [command, "-h"], [command], [command, "--seed", "x"],
                 _EXAMPLES[command][0] + ["--no-such-flag"]]
        alone = [cli_run(argv) for argv in argvs]
        assert [r.exit_code for r in alone[:2] + alone[3:]] == [0, 0, 1, 1]

    @pytest.mark.parametrize("command", [c for c in _COMMANDS if "--grid" in _COMMANDS[c].flags])
    def test_a_grid_below_the_commands_least_is_a_usage_error(self, command):
        least = _COMMANDS[command].least_grid
        result = cli_run(_EXAMPLES[command][0] + ["--grid", str(least - 1)])
        assert (result.status, result.exit_code, result.payload, result.diagnostics) == (
            "error", 1, {}, [f"--grid must be at least {least}, got {least - 1}"])
        assert cli_run(_EXAMPLES[command][0] + ["--grid", str(least)]).exit_code == 0

    def test_forty_nine_settings_are_refused(self):
        assert sum(f not in cmd.flags for cmd in _COMMANDS.values() for f in _TUNING_FLAGS) == 49

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_payload_keys_keep_their_order(self, command):
        argv, keys = _EXAMPLES[command]
        assert list(payload(argv)) == keys


def _readme_commands() -> list[list[str]]:
    """The argv of every ``meanscape ...`` line in the README's sh blocks."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return [shlex.split(line)[1:] for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
            for line in block.splitlines() if line.startswith("meanscape ")]


def test_the_readme_names_only_what_exists():
    # every backticked `module.name` of the package's modules names a value of that module
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    named = set(re.findall(r"`(core|middle|metric|algebra|expressions|cli)\.(\w+)", readme))
    assert len(named) >= 10
    missing = [f"{module}.{name}" for module, name in sorted(named)
               if not hasattr(importlib.import_module(f"meanscape.{module}"), name)]
    assert not missing


def test_the_readme_command_table_is_the_command_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = {}
    for commands, flags in re.findall(r"^\| (`.+?) \| (.+?) \|$", readme, re.M):
        for command in re.findall(r"`([\w-]+)`", commands):
            listed[command] = tuple(re.findall(r"`(--[\w-]+)`", flags))
    assert listed == {name: cmd.flags for name, cmd in _COMMANDS.items()}


def test_the_readme_has_examples():
    assert len(_readme_commands()) >= 19


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_example_runs(argv):
    result = cli_run(argv)
    assert result.exit_code == 0, result.diagnostics
