"""Command-line interface: every operation, JSON or CSV out, exit codes.

The envelope printed on stdout is always {"status", "payload",
"diagnostics"}; numbers carry 17 significant digits so values round-trip
through text. Exit codes: 0 ok, 1 user error (bad arguments, parse or
domain problems), 2 numerical failure (non-convergence, lost brackets).
CSV output is available for iteration traces only. The environment
variable MEANSCAPE_SEED overrides the default seed; --seed overrides
both.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional

from .core import (
    DEFAULT_SEED,
    DomainError,
    Interval,
    NumericalError,
    common_domain,
    default_window,
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
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    compound,
    compound_trace,
    coincidence_probe,
    counterexample_check,
    functional_symmetric,
    m_arithmetic,
)
from .expressions import ExpressionError, mean_from_source, weight_from_source

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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of sys.exit so cli_run stays a function
        raise _UsageError(f"{message}\n{self.format_usage()}")


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

    def __init__(self, domain: Interval, seed: int):
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="meanscape", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--window", help="sampling window lo,hi")
    common.add_argument("--grid", type=int, default=64, help="grid resolution / sample count")
    common.add_argument("--tol", type=float, default=None, help="tolerance")
    common.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITERATIONS)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="write output to a file")
    common.add_argument("--domain", default="pos",
                        help="domain for parsed expressions: pos, reals or lo,hi")

    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("eval", parents=[common], help="evaluate a mean at a point")
    p.add_argument("--mean", required=True)
    p.add_argument("--at", required=True)

    p = sub.add_parser("star", parents=[common], help="group law of two means at a point")
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)
    p.add_argument("--at", required=True)

    p = sub.add_parser("inverse", parents=[common], help="group inverse at a point")
    p.add_argument("--mean", required=True)
    p.add_argument("--at", required=True)

    p = sub.add_parser("symmetry", parents=[common],
                       help="group reflection of m1 through m0 at a point")
    p.add_argument("--m0", required=True)
    p.add_argument("--m1", required=True)
    p.add_argument("--at", required=True)

    p = sub.add_parser("sigma", parents=[common],
                       help="functional symmetric of m1 with respect to m0 at a point")
    p.add_argument("--m0", required=True)
    p.add_argument("--m1", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--assume-monotone", action="store_true",
                   help="declare a parsed m0 monotone so the solver may run")

    p = sub.add_parser("normal", parents=[common], help="normal mean of a weight at a point")
    p.add_argument("--weight", required=True)
    p.add_argument("--at", required=True)

    p = sub.add_parser("compare", parents=[common],
                       help="order of the normal means of two weights")
    p.add_argument("--p1", required=True)
    p.add_argument("--p2", default=None, help="omit to compare against the arithmetic weight 1")

    p = sub.add_parser("distance", parents=[common], help="distance between two means")
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)
    p.add_argument("--via-phi", action="store_true", dest="via_phi")

    p = sub.add_parser("dist-to-a", parents=[common], help="distance to the arithmetic mean")
    p.add_argument("--mean", required=True)

    p = sub.add_parser("border", parents=[common], help="border trend across nested windows")
    p.add_argument("--mean", required=True)
    p.add_argument("--windows", default="0.1,10;0.01,100;0.001,1000;0.0001,10000",
                   help="semicolon-separated nested windows lo,hi;lo,hi;...")

    sub.add_parser("gh-cert", parents=[common],
                   help="certified distance between G and H with quartic residual")

    p = sub.add_parser("compound", parents=[common], help="compound mean at a point")
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--trace", action="store_true")

    p = sub.add_parser("m-arith", parents=[common],
                       help="compound of the arithmetic mean with a given mean")
    p.add_argument("--mean", required=True)
    p.add_argument("--at", required=True)

    p = sub.add_parser("coincide", parents=[common],
                       help="probe agreement of the two symmetries through a mean")
    p.add_argument("--m0", required=True)
    p.add_argument("--assume-monotone", action="store_true")

    p = sub.add_parser("verify", parents=[common], help="sample the mean axioms")
    p.add_argument("--mean", required=True)

    sub.add_parser("counterexample", parents=[common],
                   help="distance-1 pair whose compound still converges, to A")

    return parser


def _dispatch(args, resolver: _Resolver, seed: int) -> dict:
    cmd = args.command
    tol = args.tol if args.tol is not None else DEFAULT_TOLERANCE
    window = _parse_window(args.window) if args.window else None

    if cmd == "eval":
        m = resolver.mean(args.mean)
        x, y = _parse_pair(args.at, "--at")
        return {"command": cmd, "mean": m.name, "at": [x, y], "value": m(x, y)}

    if cmd == "star":
        m1 = resolver.mean(args.m1)
        m2 = resolver.mean(args.m2)
        x, y = _parse_pair(args.at, "--at")
        return {"command": cmd, "m1": m1.name, "m2": m2.name, "at": [x, y],
                "value": star(m1, m2)(x, y)}

    if cmd == "inverse":
        m = resolver.mean(args.mean)
        x, y = _parse_pair(args.at, "--at")
        return {"command": cmd, "mean": m.name, "at": [x, y],
                "value": group_inverse(m)(x, y)}

    if cmd == "symmetry":
        m0 = resolver.mean(args.m0)
        m1 = resolver.mean(args.m1)
        x, y = _parse_pair(args.at, "--at")
        return {"command": cmd, "m0": m0.name, "m1": m1.name, "at": [x, y],
                "value": group_symmetry(m0, m1)(x, y)}

    if cmd == "sigma":
        m0 = resolver.mean(args.m0, monotone=args.assume_monotone)
        m1 = resolver.mean(args.m1)
        x, y = _parse_pair(args.at, "--at")
        sigma_tol = args.tol if args.tol is not None else 1e-12
        return {"command": cmd, "m0": m0.name, "m1": m1.name, "at": [x, y],
                "value": functional_symmetric(m0, m1, x, y, rel_tol=sigma_tol)}

    if cmd == "normal":
        p = resolver.weight(args.weight)
        m = make_normal_mean(p)
        x, y = _parse_pair(args.at, "--at")
        return {"command": cmd, "weight": p.name, "at": [x, y], "value": m(x, y)}

    if cmd == "compare":
        p1 = resolver.weight(args.p1)
        win = window or default_window(p1.domain)
        if args.p2 is None:
            relation = classify_vs_arithmetic(p1, win, args.grid)
            names = {"p1": p1.name, "p2": "1"}
        else:
            p2 = resolver.weight(args.p2)
            relation = compare_normal(p1, p2, win, args.grid)
            names = {"p1": p1.name, "p2": p2.name}
        return {"command": cmd, **names, "window": [win.lo, win.hi],
                "samples": args.grid, "relation": relation.value}

    if cmd == "distance":
        m1 = resolver.mean(args.m1)
        m2 = resolver.mean(args.m2)
        win = window or default_window(common_domain(m1.domain, m2.domain))
        est = (distance_via_phi if args.via_phi else distance)(m1, m2, win, args.grid)
        return {"command": cmd, "m1": m1.name, "m2": m2.name, "via_phi": args.via_phi,
                "window": [win.lo, win.hi], "grid": est.grid_size, "value": est.value,
                "argmax": list(est.argmax)}

    if cmd == "dist-to-a":
        m = resolver.mean(args.mean)
        win = window or default_window(m.domain)
        est = distance_to_arithmetic(m, win, args.grid)
        sup_phi = phi(m)(*est.argmax)
        return {"command": cmd, "mean": m.name, "window": [win.lo, win.hi],
                "grid": est.grid_size, "value": est.value, "sup_phi": sup_phi,
                "argmax": list(est.argmax)}

    if cmd == "border":
        m = resolver.mean(args.mean)
        windows = [_parse_window(w) for w in args.windows.split(";") if w]
        diag = border_diagnostic(m, windows, args.grid)
        return {"command": cmd, "mean": m.name,
                "windows": [[w.lo, w.hi] for w in diag.windows_tested],
                "sups": list(diag.sup_per_window),
                "sup_f_estimate": diag.sup_f_estimate, "trend": diag.trend}

    if cmd == "gh-cert":
        cert = distance_gh_certificate()
        return {"command": cmd, "value": cert.value,
                "quartic_residual": cert.quartic_residual, "argmax_t": cert.argmax_t}

    if cmd in ("compound", "m-arith"):
        if cmd == "compound":
            c = compound(resolver.mean(args.m1), resolver.mean(args.m2), tol, args.max_iter)
        else:
            c = m_arithmetic(resolver.mean(args.mean), tol, args.max_iter)
        m1, m2 = c.m1, c.m2
        x, y = _parse_pair(args.at, "--at")
        trace = compound_trace(m1, m2, x, y, tol, args.max_iter,
                               estimate_contraction=False)
        payload = {"command": cmd, "m1": m1.name, "m2": m2.name, "at": [x, y],
                   "tolerance": tol, "max_iterations": args.max_iter,
                   "value": trace.limit, "iterations": trace.iterations_used,
                   "converged": trace.converged, "guaranteed": c.guaranteed,
                   "guaranteed_by": c.guaranteed_by, "d_upper": c.d_upper}
        if getattr(args, "trace", False):
            payload["trace"] = [{"n": s.n, "x": s.x, "y": s.y, "gap": s.gap}
                                for s in trace.steps]
        return payload

    if cmd == "coincide":
        m0 = resolver.mean(args.m0, monotone=args.assume_monotone)
        win = window or Interval.closed(0.1, 10.0)
        probe = coincidence_probe(m0, win, args.grid, seed)
        return {"command": cmd, "m0": m0.name, "window": [win.lo, win.hi],
                "samples": args.grid, "seed": seed,
                "max_discrepancy": probe.max_discrepancy,
                "worst_point": list(probe.worst_point)}

    if cmd == "verify":
        m = resolver.mean(args.mean)
        win = window or default_window(m.domain)
        report = verify_axioms(m, win, args.grid, seed)
        return {"command": cmd, "mean": m.name, "window": [win.lo, win.hi],
                "samples": report.samples_used, "seed": seed,
                "axiom_i_ok": report.axiom_i_ok, "axiom_ii_ok": report.axiom_ii_ok,
                "axiom_iii_ok": report.axiom_iii_ok,
                "counterexamples": [list(c) for c in report.counterexamples]}

    if cmd == "counterexample":
        win = window or Interval.closed(1e-6, 1e6)
        res = counterexample_check(win, args.grid, seed=seed)
        return {"command": cmd, "window": [win.lo, win.hi], "grid": args.grid,
                "seed": seed, "d_estimate": res.d_estimate,
                "compound_is_A": res.compound_is_A}

    raise _UsageError("a command is required; try --help")


def cli_run(argv: list[str]) -> CommandResult:
    """Run one CLI invocation and return the result without printing."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError(parser.format_usage())
        if args.format == "csv" and not (args.command == "compound"
                                         and getattr(args, "trace", False)):
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
        resolver = _Resolver(_parse_domain(args.domain), seed)
    except _UsageError as exc:
        result = CommandResult("error", {}, [str(exc)], 1)
        result.rendered = _render_json(result)
        return result

    out_path = args.out
    try:
        payload = _dispatch(args, resolver, seed)
        result = CommandResult("ok", payload, resolver.diagnostics, 0, out_path=out_path)
    except (_UsageError, ExpressionError, DomainError, ValueError) as exc:
        result = CommandResult("error", {"command": args.command}, [str(exc)], 1,
                               out_path=out_path)
    except NumericalError as exc:
        result = CommandResult("error", {"command": args.command}, [str(exc)], 2,
                               out_path=out_path)

    if result.status == "ok" and args.format == "csv":
        result.rendered = _render_trace_csv(result.payload["trace"])
    else:
        result.rendered = _render_json(result)
    return result


def main(argv: Optional[list[str]] = None) -> int:
    result = cli_run(sys.argv[1:] if argv is None else argv)
    if result.out_path:
        with open(result.out_path, "w") as fh:
            fh.write(result.rendered)
    else:
        sys.stdout.write(result.rendered)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
