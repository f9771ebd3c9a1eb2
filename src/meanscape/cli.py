"""Command-line interface: every operation, JSON or CSV out, exit codes.

The envelope printed on stdout is always {"status", "payload",
"diagnostics"}; numbers carry 17 significant digits so values round-trip
through text. Exit codes: 0 ok, 1 user error (bad arguments, parse or
domain problems, an --out file that cannot be written), 2 numerical
failure (non-convergence, lost brackets). CSV output is available for
iteration traces only. The environment variable MEANSCAPE_SEED overrides
the default seed; --seed overrides both.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, NamedTuple, Optional

from .core import (
    DEFAULT_SEED,
    Interval,
    NumericalError,
    common_domain,
    default_window,
    make_arithmetic,
    verify_axioms,
)
from .algebra import (
    compare_normal,
    classify_vs_arithmetic,
    group_inverse,
    group_symmetry,
    make_normal_mean,
    phi,
    star,
)
from .metric import (
    border_diagnostic,
    distance,
    distance_gh_certificate,
    distance_to_arithmetic,
    distance_via_phi,
)
from .middle import (
    COUNTEREXAMPLE_WINDOW,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    SYMMETRIC_TOLERANCE,
    _ARITHMETIC_GUARANTEE,
    _guarantee,
    compound_trace,
    coincidence_probe,
    counterexample_check,
    functional_symmetric,
)
from .expressions import mean_from_source, weight_from_source

__all__ = ["CommandResult", "cli_run", "main"]


class CommandResult:
    """What one invocation printed, or would print, and its exit code."""

    __slots__ = ("status", "payload", "diagnostics", "exit_code", "rendered", "out_path")

    def __init__(self, status: str, payload: dict, diagnostics: Optional[list[str]] = None,
                 exit_code: int = 0, rendered: str = "", out_path: Optional[str] = None):
        self.status = status
        self.payload = payload
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.exit_code = exit_code
        self.rendered = rendered
        self.out_path = out_path


class _UsageError(Exception):
    pass


class _Help(Exception):  # carries the text --help asks for
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of printing and calling sys.exit, so cli_run stays a function
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")

    def print_help(self, file=None):
        raise _Help(self.format_help())

    def parse_known_args(self, args=None, namespace=None):
        # a command refuses what it does not read itself, so the usage shown is its own
        args, unread = super().parse_known_args(args, namespace)
        if unread:
            self.error(f"unrecognized arguments: {' '.join(unread)}")
        return args, unread


def _fmt_float(v: float) -> str:
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    return format(v, ".17g")


def _to_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        out = out.replace("\r", "\\r").replace("\t", "\\t")
        return f'"{out}"'
    if isinstance(obj, dict):
        items = ", ".join(f"{_to_json(str(k))}: {_to_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _render_json(result: CommandResult) -> str:
    envelope = {"status": result.status, "payload": result.payload,
                "diagnostics": result.diagnostics}
    return _to_json(envelope) + "\n"


def _render_trace_csv(rows) -> str:
    lines = ["n,x,y,gap"]
    for row in rows:
        lines.append(f"{row['n']},{_fmt_float(row['x'])},{_fmt_float(row['y'])},"
                     f"{_fmt_float(row['gap'])}")
    return "\n".join(lines) + "\n"


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError(f"{what} must be two comma-separated numbers, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise _UsageError(f"{what} must be numeric, got {text!r}") from None


def _parse_window(text: str) -> Interval:
    lo, hi = _parse_pair(text, "--window")
    try:
        return Interval.closed(lo, hi)
    except ValueError as exc:
        raise _UsageError(f"bad window: {exc}") from None


def _parse_domain(text: str) -> Interval:
    if text == "pos":
        return Interval(0.0, math.inf)
    if text == "reals":
        return Interval(-math.inf, math.inf)
    lo, hi = _parse_pair(text, "--domain")
    try:
        return Interval(lo, hi)
    except ValueError as exc:
        raise _UsageError(f"bad domain: {exc}") from None


class _Resolver:
    """Turns expression arguments into means/weights, reading stdin at most once."""

    def __init__(self, domain: Optional[Interval], seed: int):
        self.domain = domain
        self.seed = seed
        self.stdin_used = False
        self.diagnostics: list[str] = []

    def _source(self, text: str) -> str:
        if text == "-":
            if self.stdin_used:
                raise _UsageError("stdin can only be read once per invocation")
            self.stdin_used = True
            return sys.stdin.read()
        return text

    def mean(self, text: str, *, monotone: bool = False):
        build = mean_from_source(self._source(text), self.domain, seed=self.seed)
        self.diagnostics.extend(build.diagnostics)
        m = build.mean
        if monotone and m.is_monotone is not True:
            m = m.replace(is_monotone=True)
        return m

    def weight(self, text: str):
        return weight_from_source(self._source(text), self.domain)


def _window(args) -> Optional[Interval]:
    return _parse_window(args.window) if args.window else None


# Each payload builder takes the parsed flags and the resolver; the dispatch puts
# the command's name first in the payload.

def _point_command(help_text: str, build, *operands: str) -> _Command:
    """A command whose value is build(*operands) at --at; --weight names a weight."""

    def run(args, resolver: _Resolver) -> dict:
        names, values = {}, []
        for flag in operands:
            dest = flag[2:]
            value = (resolver.weight if flag == "--weight" else resolver.mean)(vars(args)[dest])
            names[dest] = value.name
            values.append(value)
        x, y = _parse_pair(args.at, "--at")
        return {**names, "at": [x, y], "value": build(*values)(x, y)}

    return _Command(help_text, run, (*operands, "--at", "--domain"))


def _sigma(args, resolver: _Resolver) -> dict:
    m0 = resolver.mean(args.m0, monotone=args.assume_monotone)
    m1 = resolver.mean(args.m1)
    x, y = _parse_pair(args.at, "--at")
    return {"m0": m0.name, "m1": m1.name, "at": [x, y],
            "value": functional_symmetric(m0, m1, x, y, rel_tol=args.tol)}


def _compare(args, resolver: _Resolver) -> dict:
    window = _window(args)
    p1 = resolver.weight(args.p1)
    win = window or default_window(p1.domain)
    if args.p2 is None:
        relation, p2_name = classify_vs_arithmetic(p1, win, args.grid), "1"
    else:
        p2 = resolver.weight(args.p2)
        relation, p2_name = compare_normal(p1, p2, win, args.grid), p2.name
    return {"p1": p1.name, "p2": p2_name, "window": [win.lo, win.hi], "samples": args.grid,
            "relation": relation.value}


def _distance(args, resolver: _Resolver) -> dict:
    window = _window(args)
    m1 = resolver.mean(args.m1)
    m2 = resolver.mean(args.m2)
    win = window or default_window(common_domain(m1.domain, m2.domain))
    est = (distance_via_phi if args.via_phi else distance)(m1, m2, win, args.grid)
    return {"m1": m1.name, "m2": m2.name, "via_phi": args.via_phi,
            "window": [win.lo, win.hi], "grid": est.grid_size, "value": est.value,
            "argmax": list(est.argmax)}


def _dist_to_a(args, resolver: _Resolver) -> dict:
    window = _window(args)
    m = resolver.mean(args.mean)
    win = window or default_window(m.domain)
    est = distance_to_arithmetic(m, win, args.grid)
    return {"mean": m.name, "window": [win.lo, win.hi], "grid": est.grid_size,
            "value": est.value, "sup_phi": phi(m)(*est.argmax), "argmax": list(est.argmax)}


def _border(args, resolver: _Resolver) -> dict:
    m = resolver.mean(args.mean)
    windows = [_parse_window(w) for w in args.windows.split(";") if w]
    diag = border_diagnostic(m, windows, args.grid)
    return {"mean": m.name, "windows": [[w.lo, w.hi] for w in diag.windows_tested],
            "sups": list(diag.sup_per_window),
            "sup_f_estimate": diag.sup_f_estimate, "trend": diag.trend}


def _gh_cert(args, resolver: _Resolver) -> dict:
    cert = distance_gh_certificate()
    return {"value": cert.value, "quartic_residual": cert.quartic_residual,
            "argmax_t": cert.argmax_t}


def _iterate(args, m1, m2, guaranteed_by: Optional[str], d_upper: Optional[float],
             trace: bool = False) -> dict:
    """The compound of m1 and m2 at --at, with its iteration rows if trace is set.

    The value comes from ``compound_trace``; the compound itself is never built, since
    building it generates a kernel that nothing here would call."""
    common_domain(m1.domain, m2.domain)  # the operands are checked before --at, as compound()
    x, y = _parse_pair(args.at, "--at")
    run = compound_trace(m1, m2, x, y, args.tol, args.max_iter, estimate_contraction=False)
    payload = {"m1": m1.name, "m2": m2.name, "at": [x, y],
               "tolerance": args.tol, "max_iterations": args.max_iter,
               "value": run.limit, "iterations": run.iterations_used,
               "converged": run.converged, "guaranteed": guaranteed_by is not None,
               "guaranteed_by": guaranteed_by, "d_upper": d_upper}
    if trace:
        payload["trace"] = [{"n": s.n, "x": s.x, "y": s.y, "gap": s.gap} for s in run.steps]
    return payload


def _compound(args, resolver: _Resolver) -> dict:
    m1, m2 = resolver.mean(args.m1), resolver.mean(args.m2)
    return _iterate(args, m1, m2, _guarantee(m1, m2), None, args.trace)


def _m_arith(args, resolver: _Resolver) -> dict:
    return _iterate(args, make_arithmetic(), resolver.mean(args.mean), *_ARITHMETIC_GUARANTEE)


def _coincide(args, resolver: _Resolver) -> dict:
    win = _window(args) or Interval.closed(0.1, 10.0)
    m0 = resolver.mean(args.m0, monotone=args.assume_monotone)
    probe = coincidence_probe(m0, win, args.grid, resolver.seed)
    return {"m0": m0.name, "window": [win.lo, win.hi], "samples": args.grid,
            "seed": resolver.seed, "max_discrepancy": probe.max_discrepancy,
            "worst_point": list(probe.worst_point)}


def _verify(args, resolver: _Resolver) -> dict:
    window = _window(args)
    m = resolver.mean(args.mean)
    win = window or default_window(m.domain)
    report = verify_axioms(m, win, args.grid, resolver.seed)
    return {"mean": m.name, "window": [win.lo, win.hi], "samples": report.samples_used,
            "seed": resolver.seed, "axiom_i_ok": report.axiom_i_ok,
            "axiom_ii_ok": report.axiom_ii_ok, "axiom_iii_ok": report.axiom_iii_ok,
            "counterexamples": [list(c) for c in report.counterexamples]}


def _counterexample(args, resolver: _Resolver) -> dict:
    win = _window(args) or COUNTEREXAMPLE_WINDOW
    res = counterexample_check(win, args.grid, seed=resolver.seed)
    return {"window": [win.lo, win.hi], "grid": args.grid, "seed": resolver.seed,
            "d_estimate": res.d_estimate, "compound_is_A": res.compound_is_A}


class _Command(NamedTuple):
    """One row of the command table; defaults overrides the defaults of its flags."""

    help: str
    run: Callable[[argparse.Namespace, _Resolver], dict]
    flags: tuple[str, ...]  # the flags run reads, in the order --help lists them
    defaults: dict = {}


_REQUIRED = {"required": True}
_FLAGS = {  # add_argument keywords of each flag
    "--mean": _REQUIRED, "--m0": _REQUIRED, "--m1": _REQUIRED, "--m2": _REQUIRED,
    "--weight": _REQUIRED, "--p1": _REQUIRED, "--at": _REQUIRED,
    "--p2": {"help": "omit to compare against the arithmetic weight 1"},
    "--assume-monotone": {"action": "store_true",
                          "help": "declare a parsed m0 monotone so the solver may run"},
    "--via-phi": {"action": "store_true"},
    "--trace": {"action": "store_true"},
    "--windows": {"default": "0.1,10;0.01,100;0.001,1000;0.0001,10000",
                  "help": "semicolon-separated nested windows lo,hi;lo,hi;..."},
    "--window": {"help": "sampling window lo,hi"},
    "--grid": {"type": int, "default": 64, "help": "grid resolution / sample count"},
    "--tol": {"type": float, "default": DEFAULT_TOLERANCE, "help": "tolerance"},
    "--max-iter": {"type": int, "default": DEFAULT_MAX_ITERATIONS},
    "--domain": {"default": "pos", "help": "domain for parsed expressions: pos, reals or lo,hi"},
    "--seed": {"type": int},
    "--format": {"choices": ("json", "csv"), "default": "json"},
    "--out": {"help": "write output to a file"},
}

# read by every command: the seed is checked on every run
_EVERY_COMMAND = ("--seed", "--format", "--out")

_COMMANDS = {
    "eval": _point_command("evaluate a mean at a point", lambda m: m, "--mean"),
    "star": _point_command("group law of two means at a point", star, "--m1", "--m2"),
    "inverse": _point_command("group inverse at a point", group_inverse, "--mean"),
    "symmetry": _point_command("group reflection of m1 through m0 at a point",
                               group_symmetry, "--m0", "--m1"),
    "sigma": _Command("functional symmetric of m1 with respect to m0 at a point", _sigma,
                      ("--m0", "--m1", "--at", "--assume-monotone", "--tol", "--domain"),
                      {"tol": SYMMETRIC_TOLERANCE}),
    "normal": _point_command("normal mean of a weight at a point", make_normal_mean,
                             "--weight"),
    "compare": _Command("order of the normal means of two weights", _compare,
                        ("--p1", "--p2", "--window", "--grid", "--domain")),
    "distance": _Command("distance between two means", _distance,
                         ("--m1", "--m2", "--via-phi", "--window", "--grid", "--domain")),
    "dist-to-a": _Command("distance to the arithmetic mean", _dist_to_a,
                          ("--mean", "--window", "--grid", "--domain")),
    "border": _Command("border trend across nested windows", _border,
                       ("--mean", "--windows", "--grid", "--domain")),
    "gh-cert": _Command("certified distance between G and H with quartic residual",
                        _gh_cert, ()),
    "compound": _Command("compound mean at a point", _compound,
                         ("--m1", "--m2", "--at", "--trace", "--tol", "--max-iter", "--domain")),
    "m-arith": _Command("compound of the arithmetic mean with a given mean", _m_arith,
                        ("--mean", "--at", "--tol", "--max-iter", "--domain")),
    "coincide": _Command("probe agreement of the two symmetries through a mean", _coincide,
                         ("--m0", "--assume-monotone", "--window", "--grid", "--domain")),
    "verify": _Command("sample the mean axioms", _verify,
                       ("--mean", "--window", "--grid", "--domain")),
    "counterexample": _Command("distance-1 pair whose compound still converges, to A",
                               _counterexample, ("--window", "--grid")),
}


def _build_parser(command: Optional[str]) -> _Parser:
    """The parser of a run whose first argument is ``command``: the top-level parser reads no
    flag but --help, so that is the only command the run can invoke, and the one with flags."""
    parser = _Parser(prog="meanscape", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, cmd in _COMMANDS.items():
        # no abbreviations: border's --windows would take --window, which it does not read
        p = sub.add_parser(name, help=cmd.help, allow_abbrev=False)
        if name == command:
            for flag in _EVERY_COMMAND + cmd.flags:
                p.add_argument(flag, **_FLAGS[flag])
            p.set_defaults(**cmd.defaults)
    return parser


def cli_run(argv: list[str]) -> CommandResult:
    """Run one CLI invocation and return the result without printing (for --help,
    ``rendered`` is the help text)."""
    parser = _build_parser(argv[0] if argv else None)
    try:
        try:
            args = parser.parse_args(argv)
        except _UsageError:
            if not (argv and argv[0].startswith("-") and argv[0] not in ("-", "--")):
                raise
            # the top-level parser knows no flag but --help (and its prefixes), so it read
            # the flag's value as the command
            flag = argv[0].split("=", 1)[0]
            raise _UsageError(f"{flag} comes before the command; flags follow the command, "
                              f"as in meanscape COMMAND {flag} ...\n{parser.format_usage()}"
                              ) from None
        if args.format == "csv" and not (args.command == "compound" and args.trace):
            raise _UsageError("csv output is only available for compound --trace")
        seed = args.seed
        if seed is None:
            env = os.environ.get("MEANSCAPE_SEED")
            try:
                seed = int(env) if env is not None else DEFAULT_SEED
            except ValueError:
                raise _UsageError(f"MEANSCAPE_SEED must be an integer, got {env!r}") from None
        if seed < 0:
            raise _UsageError(f"--seed/MEANSCAPE_SEED must be a non-negative integer, got {seed}")
        # checked here too, so that the message names the flag and not the library's parameter
        tol, max_iter = getattr(args, "tol", 0.0), getattr(args, "max_iter", 0)
        if not 0.0 <= tol < math.inf:
            raise _UsageError(f"--tol must be finite and non-negative, got {tol}")
        if max_iter < 0:
            raise _UsageError(f"--max-iter must be non-negative, got {max_iter}")
        cmd = _COMMANDS[args.command]
        # a command without --domain parses no expression
        domain = _parse_domain(args.domain) if "--domain" in cmd.flags else None
        resolver = _Resolver(domain, seed)
    except _Help as text:
        return CommandResult("ok", {}, rendered=str(text))
    except _UsageError as exc:
        result = CommandResult("error", {}, [str(exc)], 1)
        result.rendered = _render_json(result)
        return result

    try:
        payload = {"command": args.command, **cmd.run(args, resolver)}
        result = CommandResult("ok", payload, resolver.diagnostics, 0, out_path=args.out)
    except (_UsageError, ValueError, NumericalError) as exc:  # parse and domain errors too
        result = CommandResult("error", {"command": args.command}, [str(exc)],
                               2 if isinstance(exc, NumericalError) else 1, out_path=args.out)

    if result.status == "ok" and args.format == "csv":
        result.rendered = _render_trace_csv(result.payload["trace"])
    else:
        result.rendered = _render_json(result)
    return result


def main(argv: Optional[list[str]] = None) -> int:
    result = cli_run(sys.argv[1:] if argv is None else argv)
    if result.out_path:
        try:
            with open(result.out_path, "w") as fh:
                fh.write(result.rendered)
            return result.exit_code
        except OSError as exc:  # then the envelope of that error goes to stdout
            message = f"cannot write --out {result.out_path}: {exc.strerror or exc}"
            result = CommandResult("error", {"command": result.payload["command"]}, [message], 1)
            result.rendered = _render_json(result)
    sys.stdout.write(result.rendered)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
