"""Command-line interface: every operation, JSON or CSV out, exit codes.

The envelope printed on stdout is always {"status", "payload",
"diagnostics"}; numbers carry 17 significant digits so values round-trip
through text. Exit codes: 0 ok, 1 user error (bad arguments, parse or
domain problems, an --out file that cannot be written), 2 numerical
failure (non-convergence, lost brackets). CSV output is available for
iteration traces only.

Each command is one row of _COMMANDS and each flag one row of _FLAGS,
whose ``type`` parses and range-checks the flag's value, so a bad value is
a usage error raised while the arguments are read. One reader reads every
run from the two tables, left to right, and stops at the first malformed
token; --help is rendered from the same rows. A value may start with "-"
(``--at -1,2``). MEANSCAPE_SEED is the default of --seed.

Run as a program (``main()`` with no argv), the CLI freezes the garbage
collector before the run: the objects alive when the command starts live
until exit, so no collection needs to walk them. ``main(argv)`` and
``cli_run`` leave the collector alone.
"""

from __future__ import annotations

import gc
import itertools
import math
import os
import sys
from types import SimpleNamespace
from collections.abc import Callable

from .core import (
    DEFAULT_SEED,
    Interval,
    NumericalError,
    _Record,
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

    def __init__(self, status: str, payload: dict, diagnostics: list[str] | None = None,
                 exit_code: int = 0, rendered: str = "", out_path: str | None = None):
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


def _fmt_float(v: float) -> str:
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    return format(v, ".17g")


# every character JSON forbids raw in a string: the controls, '"' and the backslash
_ESCAPES = {**{c: f"\\u{c:04x}" for c in range(0x20)}, ord('"'): '\\"', ord("\\"): "\\\\",
            ord("\n"): "\\n", ord("\r"): "\\r", ord("\t"): "\\t"}


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
        return f'"{obj.translate(_ESCAPES)}"'
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


def _parse_pair(text: str, what: str = "--at") -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError(f"{what} must be two comma-separated numbers, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise _UsageError(f"{what} must be numeric, got {text!r}") from None


def _parse_window(text: str, flag: str = "--window") -> Interval:
    lo, hi = _parse_pair(text, flag)
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


def _parse_windows(text: str) -> list[Interval]:
    windows = [_parse_window(w, "--windows") for w in text.split(";") if w]
    if not windows:
        raise _UsageError(f"--windows must hold at least one window, got {text!r}")
    return windows


def _number(kind: Callable[[str], float], flag: str, rule: str, accepts: Callable[[float], bool]):
    """A number flag's converter; a text that is no number, or a number that ``accepts``
    refuses, is a usage error."""

    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise _UsageError(f"{flag} must be {rule}, got {text!r}") from None
        if not accepts(value):
            raise _UsageError(f"{flag} must be {rule}, got {value}")
        return value

    return convert


class _Resolver:
    """Turns expression arguments into means/weights, reading stdin at most once."""

    def __init__(self, domain: Interval | None, seed: int):
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
        return {**names, "at": list(args.at), "value": build(*values)(*args.at)}

    return _Command(help_text, run, (*operands, "--at", "--domain"))


def _sigma(args, resolver: _Resolver) -> dict:
    m0 = resolver.mean(args.m0, monotone=args.assume_monotone)
    m1 = resolver.mean(args.m1)
    return {"m0": m0.name, "m1": m1.name, "at": list(args.at),
            "value": functional_symmetric(m0, m1, *args.at)}


def _compare(args, resolver: _Resolver) -> dict:
    p1 = resolver.weight(args.p1)
    win = args.window or default_window(p1.domain)
    if args.p2 is None:
        relation, p2_name = classify_vs_arithmetic(p1, win, args.grid), "1"
    else:
        p2 = resolver.weight(args.p2)
        relation, p2_name = compare_normal(p1, p2, win, args.grid), p2.name
    return {"p1": p1.name, "p2": p2_name, "window": [win.lo, win.hi], "samples": args.grid,
            "relation": relation.value}


def _distance(args, resolver: _Resolver) -> dict:
    m1 = resolver.mean(args.m1)
    m2 = resolver.mean(args.m2)
    win = args.window or default_window(common_domain(m1.domain, m2.domain))
    est = (distance_via_phi if args.via_phi else distance)(m1, m2, win, args.grid)
    return {"m1": m1.name, "m2": m2.name, "via_phi": args.via_phi,
            "window": [win.lo, win.hi], "grid": est.grid_size, "value": est.value,
            "argmax": list(est.argmax)}


def _dist_to_a(args, resolver: _Resolver) -> dict:
    m = resolver.mean(args.mean)
    win = args.window or default_window(m.domain)
    est = distance_to_arithmetic(m, win, args.grid)
    return {"mean": m.name, "window": [win.lo, win.hi], "grid": est.grid_size,
            "value": est.value, "sup_phi": phi(m)(*est.argmax), "argmax": list(est.argmax)}


def _border(args, resolver: _Resolver) -> dict:
    m = resolver.mean(args.mean)
    diag = border_diagnostic(m, args.windows, args.grid)
    return {"mean": m.name, "windows": [[w.lo, w.hi] for w in diag.windows_tested],
            "sups": list(diag.sup_per_window),
            "sup_f_estimate": diag.sup_f_estimate, "trend": diag.trend}


def _gh_cert(args, resolver: _Resolver) -> dict:
    return distance_gh_certificate()._asdict()


def _iterate(args, m1, m2, guaranteed_by: str | None, d_upper: float | None,
             trace: bool = False) -> dict:
    """The compound of m1 and m2 at --at, with its iteration rows if trace is set.

    The value comes from ``compound_trace``; the compound itself is never built, since
    building it generates a kernel that nothing here would call."""
    run = compound_trace(m1, m2, *args.at, args.tol, args.max_iter, estimate_contraction=False)
    payload = {"m1": m1.name, "m2": m2.name, "at": list(args.at),
               "tolerance": args.tol, "max_iterations": args.max_iter,
               "value": run.limit, "iterations": run.iterations_used,
               "converged": run.converged, "guaranteed": guaranteed_by is not None,
               "guaranteed_by": guaranteed_by, "d_upper": d_upper}
    if trace:
        payload["trace"] = [step._asdict() for step in run.steps]
    return payload


def _compound(args, resolver: _Resolver) -> dict:
    m1, m2 = resolver.mean(args.m1), resolver.mean(args.m2)
    return _iterate(args, m1, m2, _guarantee(m1, m2), None, args.trace)


def _m_arith(args, resolver: _Resolver) -> dict:
    return _iterate(args, make_arithmetic(), resolver.mean(args.mean), *_ARITHMETIC_GUARANTEE)


def _coincide(args, resolver: _Resolver) -> dict:
    win = args.window or Interval.closed(0.1, 10.0)
    m0 = resolver.mean(args.m0, monotone=args.assume_monotone)
    probe = coincidence_probe(m0, win, args.grid, resolver.seed)
    return {"m0": m0.name, "window": [win.lo, win.hi], "samples": args.grid,
            "seed": resolver.seed, "max_discrepancy": probe.max_discrepancy,
            "worst_point": list(probe.worst_point)}


def _verify(args, resolver: _Resolver) -> dict:
    m = resolver.mean(args.mean)
    win = args.window or default_window(m.domain)
    report = verify_axioms(m, win, args.grid, resolver.seed)
    return {"mean": m.name, "window": [win.lo, win.hi], "samples": report.samples_used,
            "seed": resolver.seed, "axiom_i_ok": report.axiom_i_ok,
            "axiom_ii_ok": report.axiom_ii_ok, "axiom_iii_ok": report.axiom_iii_ok,
            "counterexamples": [list(c) for c in report.counterexamples]}


def _counterexample(args, resolver: _Resolver) -> dict:
    win = args.window or COUNTEREXAMPLE_WINDOW
    res = counterexample_check(win, args.grid, seed=resolver.seed)
    return {"window": [win.lo, win.hi], "grid": args.grid, "seed": resolver.seed, **res._asdict()}


class _Command(_Record):
    """One row of the command table."""

    help: str
    run: Callable[[SimpleNamespace, _Resolver], dict]
    flags: tuple[str, ...]  # the flags run reads, in the order --help lists them
    least_grid: int = 1  # the least --grid that run accepts, where it reads --grid


_REQUIRED = {"required": True}
_SWITCH = {"switch": True, "default": False}  # a flag that takes no value
# each flag's row: whether it is required or a switch, its converter ("type", str if none),
# its default (converted where it is a string), the values it allows and its --help line
_FLAGS = {
    "--mean": _REQUIRED, "--m0": _REQUIRED, "--m1": _REQUIRED, "--m2": _REQUIRED,
    "--weight": _REQUIRED, "--p1": _REQUIRED, "--at": {**_REQUIRED, "type": _parse_pair},
    "--p2": {"help": "omit to compare against the arithmetic weight 1"},
    "--assume-monotone": {**_SWITCH, "help": "declare a parsed m0 monotone so the solver may run"},
    "--via-phi": _SWITCH,
    "--trace": _SWITCH,
    "--windows": {"type": _parse_windows, "default": "0.1,10;0.01,100;0.001,1000;0.0001,10000",
                  "help": "semicolon-separated nested windows lo,hi;lo,hi;..."},
    "--window": {"type": _parse_window, "help": "sampling window lo,hi"},
    "--grid": {"default": 64, "help": "grid resolution / sample count"},  # its type: _grid
    "--tol": {"type": _number(float, "--tol", "finite and non-negative",
                              lambda tol: 0.0 <= tol < math.inf),
              "default": DEFAULT_TOLERANCE, "help": "tolerance"},
    "--max-iter": {"type": _number(int, "--max-iter", "non-negative", lambda n: n >= 0),
                   "default": DEFAULT_MAX_ITERATIONS},
    "--domain": {"type": _parse_domain, "default": "pos",
                 "help": "domain for parsed expressions: pos, reals or lo,hi"},
    "--seed": {"type": _number(int, "--seed/MEANSCAPE_SEED", "a non-negative integer",
                               lambda seed: seed >= 0)},
    "--format": {"choices": ("json", "csv"), "default": "json",
                 "help": "json, or csv for compound --trace"},
    "--out": {"help": "write output to a file"},
}


def _grid(least: int):
    """The converter of --grid for a command that reads at least ``least`` grid points."""
    return _number(int, "--grid", f"at least {least}", lambda grid: grid >= least)


# read by every command: the seed is checked on every run
_EVERY_COMMAND = ("--seed", "--format", "--out")

_COMMANDS = {
    "eval": _point_command("evaluate a mean at a point", lambda m: m, "--mean"),
    "star": _point_command("group law of two means at a point", star, "--m1", "--m2"),
    "inverse": _point_command("group inverse at a point", group_inverse, "--mean"),
    "symmetry": _point_command("group reflection of m1 through m0 at a point",
                               group_symmetry, "--m0", "--m1"),
    "sigma": _Command("functional symmetric of m1 with respect to m0 at a point", _sigma,
                      ("--m0", "--m1", "--at", "--assume-monotone", "--domain")),
    "normal": _point_command("normal mean of a weight at a point", make_normal_mean,
                             "--weight"),
    "compare": _Command("order of the normal means of two weights", _compare,
                        ("--p1", "--p2", "--window", "--grid", "--domain"), least_grid=2),
    "distance": _Command("distance between two means", _distance,
                         ("--m1", "--m2", "--via-phi", "--window", "--grid", "--domain"),
                         least_grid=8),
    "dist-to-a": _Command("distance to the arithmetic mean", _dist_to_a,
                          ("--mean", "--window", "--grid", "--domain"), least_grid=8),
    "border": _Command("border trend across nested windows", _border,
                       ("--mean", "--windows", "--grid", "--domain"), least_grid=8),
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
                               _counterexample, ("--window", "--grid"), least_grid=8),
}


def _dest(flag: str) -> str:
    """The attribute that holds the value of ``flag``."""
    return flag[2:].replace("-", "_")


def _type(flag: str, cmd: _Command) -> Callable[[str], object]:
    """The converter of a value of ``flag`` in ``cmd``: --grid's least value is the command's."""
    return _grid(cmd.least_grid) if flag == "--grid" else _FLAGS[flag].get("type", str)


def _shape(flag: str) -> str:
    """``flag`` as usage and --help show it: with its value's name unless it is a switch."""
    return flag if "switch" in _FLAGS[flag] else f"{flag} {_dest(flag).upper()}"


def _usage(command: str, flags: tuple[str, ...] = ()) -> str:
    shapes = (_shape(f) if "required" in _FLAGS[f] else f"[{_shape(f)}]" for f in flags)
    return " ".join(("usage: meanscape", command, "[-h]", *shapes))


def _help(usage: str, about: str, rows) -> str:
    """--help's text: the usage line, what the command does, then a line per (name, help)."""
    lines = [usage, "", about, ""] + [f"  {name:<21} {text}".rstrip() for name, text in rows]
    return "\n".join(lines) + "\n"


def _read_args(argv: list[str]) -> SimpleNamespace:
    """The namespace of the run ``argv`` names, read left to right from the command and flag
    tables. It raises _Help with the text -h or --help asks for, and _UsageError at the first
    malformed token: each value goes through its converter as it is read; then come the
    required flags left out, then each string default, in the order of the command's flags."""
    if not argv or argv[0] not in _COMMANDS:
        top = _usage("COMMAND")
        if argv and argv[0] in ("-h", "--help"):
            raise _Help(_help(top, __doc__.splitlines()[0],
                              [(name, cmd.help) for name, cmd in _COMMANDS.items()]))
        if not argv:
            raise _UsageError(f"a command is required\n{top}")
        flag = argv[0].partition("=")[0]
        if flag.startswith("-"):
            raise _UsageError(f"{flag} comes before the command; flags follow the command, "
                              f"as in meanscape COMMAND {flag} ...\n{top}")
        raise _UsageError(f"unknown command {argv[0]!r}; meanscape --help lists them\n{top}")
    cmd = _COMMANDS[argv[0]]
    flags = _EVERY_COMMAND + cmd.flags
    usage = _usage(argv[0], flags)

    def names_flag(token: str) -> bool:
        return token in ("-h", "--help") or token.partition("=")[0] in flags

    args, tokens = {"command": argv[0]}, iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            raise _Help(_help(usage, cmd.help, [("-h, --help", "show this help and exit")] + [
                (_shape(f), _FLAGS[f].get("help", "")) for f in flags]))
        flag, equals, text = token.partition("=")
        if flag not in flags:  # with the tokens after it up to the next flag, its values
            unread = itertools.takewhile(lambda t: not names_flag(t), tokens)
            raise _UsageError(f"unrecognized arguments: {' '.join([token, *unread])}\n{usage}")
        row = _FLAGS[flag]
        if "switch" in row:
            if equals:
                raise _UsageError(f"argument {flag}: ignored explicit argument {text!r}\n{usage}")
            args[_dest(flag)] = True
            continue
        if not equals:
            text = next(tokens, None)
            if text is None or names_flag(text):
                raise _UsageError(f"argument {flag}: expected one argument\n{usage}")
        if text not in row.get("choices", (text,)):
            choices = ", ".join(map(repr, row["choices"]))
            raise _UsageError(f"argument {flag}: invalid choice: {text!r} (choose from {choices})"
                              f"\n{usage}")
        args[_dest(flag)] = _type(flag, cmd)(text)

    missing = [f for f in flags if "required" in _FLAGS[f] and _dest(f) not in args]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}\n{usage}")
    for flag in flags:
        if _dest(flag) not in args:
            default = (os.environ.get("MEANSCAPE_SEED", DEFAULT_SEED) if flag == "--seed"
                       else _FLAGS[flag].get("default"))
            args[_dest(flag)] = _type(flag, cmd)(default) if isinstance(default, str) else default
    return SimpleNamespace(**args)


def cli_run(argv: list[str]) -> CommandResult:
    """Run one CLI invocation and return the result without printing (for --help,
    ``rendered`` is the help text)."""
    try:
        args = _read_args(argv)
        if args.format == "csv" and not (args.command == "compound" and args.trace):
            raise _UsageError("csv output is only available for compound --trace")
        cmd = _COMMANDS[args.command]
        # a command without --domain parses no expression
        resolver = _Resolver(getattr(args, "domain", None), args.seed)
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


def main(argv: list[str] | None = None) -> int:
    """Run one invocation, write its output and return its exit code. With no ``argv`` it
    runs ``sys.argv[1:]`` as the program, and first freezes the garbage collector: what is
    alive when the command starts lives until exit, so no collection during the run or at
    shutdown needs to walk it. Called with a list, it leaves the collector alone. Where
    stdout's reader has gone, it says so on stderr and returns 1."""
    if argv is None:
        gc.freeze()  # the interpreter's and the package's objects outlive the run
        argv = sys.argv[1:]
    result = cli_run(argv)
    if result.out_path:
        try:
            with open(result.out_path, "w") as fh:
                fh.write(result.rendered)
            return result.exit_code
        except OSError as exc:  # then the envelope of that error goes to stdout
            message = f"cannot write --out {result.out_path}: {exc.strerror or exc}"
            result = CommandResult("error", {"command": result.payload["command"]}, [message], 1)
            result.rendered = _render_json(result)
    try:
        sys.stdout.write(result.rendered)
        sys.stdout.flush()
    except BrokenPipeError as exc:  # stdout's reader has gone
        # the recipe of the signal module's note on SIGPIPE: shutdown flushes stdout again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"cannot write the output: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
