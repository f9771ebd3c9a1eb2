"""A small arithmetic expression language for means and weights.

Mean expressions are written over the variables ``x`` and ``y``, weight
expressions over ``t``. Operators are + - * / ^ with the usual
precedence (^ binds tightest and associates right, then unary minus,
then * and /, then + and -), plus the functions sqrt, exp, log, abs,
min, max and pow. The built-in mean names A, G, H and AGM are accepted
as atoms inside mean expressions.

Parsing never raises anything but ExpressionError, which carries a
0-based source span and a 1-based position for messages; arbitrary input
therefore yields either a tree or a positioned error, never a crash.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .core import DomainError, Interval, MeanFunction, POSITIVE_REALS, verify_axioms
from .core import AxiomReport, default_window, DEFAULT_SEED
from .core import BUILTIN_MEANS
from .algebra import WeightFunction
from .middle import make_agm

__all__ = [
    "ExpressionError",
    "EvaluationError",
    "Expression",
    "Num",
    "Var",
    "BuiltinMean",
    "Unary",
    "Binary",
    "Call",
    "parse_mean_expr",
    "parse_weight_expr",
    "format_expression",
    "evaluate",
    "expr_to_mean",
    "expr_to_weight",
    "mean_from_source",
    "weight_from_source",
    "MeanBuild",
]

_FUNCTIONS = {"sqrt": 1, "exp": 1, "log": 1, "abs": 1, "min": 2, "max": 2, "pow": 2}
_BUILTIN_MEANS = {**BUILTIN_MEANS, "AGM": make_agm}
# each nesting level costs several interpreter frames; stay well below the
# default recursion limit so malformed input errors out instead of crashing
_MAX_DEPTH = 120
_VERIFY_SAMPLES = 256  # seeded pairs on which a parsed mean's axioms are sampled


class ExpressionError(ValueError):
    """Lexical or syntax error with a source span."""

    def __init__(self, message: str, span: tuple[int, int]):
        self.span = span
        self.position = span[0] + 1  # 1-based, for humans
        super().__init__(f"{message} at position {self.position}")


class EvaluationError(DomainError):
    """A well-formed expression hit a domain fault (log/sqrt/0-division)."""


@dataclass(frozen=True)
class Expression:
    pass


@dataclass(frozen=True)
class Num(Expression):
    value: float


@dataclass(frozen=True)
class Var(Expression):
    name: str


@dataclass(frozen=True)
class BuiltinMean(Expression):
    name: str


@dataclass(frozen=True)
class Unary(Expression):
    op: str
    operand: Expression


@dataclass(frozen=True)
class Binary(Expression):
    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Call(Expression):
    func: str
    args: tuple[Expression, ...]


class _Token(NamedTuple):
    kind: str  # num ident op lparen rparen comma end
    text: str
    start: int
    end: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == ".":
                j += 1
                while j < n and src[j].isdigit():
                    j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            tokens.append(_Token("num", src[i:j], i, j))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("ident", src[i:j], i, j))
            i = j
            continue
        if c in "+-*/^":
            tokens.append(_Token("op", c, i, i + 1))
            i += 1
            continue
        if c == "(":
            tokens.append(_Token("lparen", c, i, i + 1))
            i += 1
            continue
        if c == ")":
            tokens.append(_Token("rparen", c, i, i + 1))
            i += 1
            continue
        if c == ",":
            tokens.append(_Token("comma", c, i, i + 1))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {c!r}", (i, i + 1))
    tokens.append(_Token("end", "", n, n))
    return tokens


class _Parser:
    """Recursive descent with the fixed precedence ladder."""

    def __init__(self, src: str, variables: tuple[str, ...], allow_builtins: bool):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.variables = variables
        self.allow_builtins = allow_builtins
        self.depth = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.current
        if tok.kind != kind:
            raise ExpressionError(f"expected {what}", (tok.start, tok.end))
        return self.advance()

    def parse(self) -> Expression:
        tree = self.sum()
        tok = self.current
        if tok.kind != "end":
            raise ExpressionError(f"unexpected {tok.text!r}", (tok.start, tok.end))
        return tree

    def _enter(self, tok: _Token) -> None:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ExpressionError("expression too deeply nested", (tok.start, tok.end))

    def sum(self) -> Expression:
        self._enter(self.current)
        try:
            node = self.term()
            while self.current.kind == "op" and self.current.text in "+-":
                op = self.advance().text
                node = Binary(op, node, self.term())
            return node
        finally:
            self.depth -= 1

    def term(self) -> Expression:
        node = self.unary()
        while self.current.kind == "op" and self.current.text in "*/":
            op = self.advance().text
            node = Binary(op, node, self.unary())
        return node

    def unary(self) -> Expression:
        if self.current.kind == "op" and self.current.text == "-":
            tok = self.advance()
            self._enter(tok)
            try:
                return Unary("-", self.unary())
            finally:
                self.depth -= 1
        return self.power()

    def power(self) -> Expression:
        node = self.atom()
        if self.current.kind == "op" and self.current.text == "^":
            self.advance()
            # right-associative; the exponent may carry a unary minus
            node = Binary("^", node, self.unary())
        return node

    def atom(self) -> Expression:
        tok = self.current
        if tok.kind == "num":
            self.advance()
            try:
                # isdigit() admits unicode digits that float() rejects
                value = float(tok.text)
            except ValueError:
                raise ExpressionError(f"bad number literal {tok.text!r}",
                                      (tok.start, tok.end)) from None
            if not math.isfinite(value):
                raise ExpressionError("number literal out of range", (tok.start, tok.end))
            return Num(value)
        if tok.kind == "lparen":
            self.advance()
            node = self.sum()
            self.expect("rparen", "')'")
            return node
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name in _FUNCTIONS:
                self.expect("lparen", f"'(' after {name}")
                args = [self.sum()]
                while self.current.kind == "comma":
                    self.advance()
                    args.append(self.sum())
                self.expect("rparen", "')'")
                arity = _FUNCTIONS[name]
                if len(args) != arity:
                    raise ExpressionError(
                        f"{name} takes {arity} argument{'s' if arity > 1 else ''}",
                        (tok.start, tok.end))
                return Call(name, tuple(args))
            if name in self.variables:
                return Var(name)
            if self.allow_builtins and name in _BUILTIN_MEANS:
                return BuiltinMean(name)
            raise ExpressionError(f"unknown identifier {name!r}", (tok.start, tok.end))
        raise ExpressionError(
            f"expected a number, name or '(', got {tok.text!r}" if tok.kind != "end"
            else "unexpected end of input", (tok.start, tok.end))


def parse_mean_expr(src: str) -> Expression:
    """Parse an expression over the variables x and y (builtins allowed)."""
    return _Parser(src, ("x", "y"), allow_builtins=True).parse()


def parse_weight_expr(src: str) -> Expression:
    """Parse an expression over the single variable t."""
    return _Parser(src, ("t",), allow_builtins=False).parse()


def format_expression(e: Expression) -> str:
    """Fully parenthesized source form; reparsing yields an identical tree."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, (Var, BuiltinMean)):
        return e.name
    if isinstance(e, Unary):
        return f"(-{format_expression(e.operand)})"
    if isinstance(e, Binary):
        return f"({format_expression(e.left)} {e.op} {format_expression(e.right)})"
    if isinstance(e, Call):
        return f"{e.func}({', '.join(format_expression(a) for a in e.args)})"
    raise TypeError(f"not an expression node: {e!r}")


@functools.cache
def _builtin(name: str) -> MeanFunction:
    return _BUILTIN_MEANS[name]()


def _builtin_value(name: str, x: float, y: float) -> float:
    """A built-in atom: the built-in's own kernel, without its domain check."""
    try:
        return _builtin(name).fn(x, y)
    except (ArithmeticError, ValueError) as exc:
        raise EvaluationError(f"{name} is undefined at ({x}, {y}): {exc}") from None


def evaluate(e: Expression, env: dict[str, float]) -> float:
    """Evaluate a tree at a variable binding; domain faults raise
    EvaluationError, and non-finite results count as faults."""
    v = _eval(e, env)
    if not math.isfinite(v):
        raise EvaluationError(f"expression produced a non-finite value at {env}")
    return v


def _eval(e: Expression, env: dict[str, float]) -> float:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, BuiltinMean):
        return _builtin_value(e.name, env["x"], env["y"])
    if isinstance(e, Unary):
        return -_eval(e.operand, env)
    if isinstance(e, Binary):
        a = _eval(e.left, env)
        b = _eval(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0.0:
                raise EvaluationError(f"division by zero at {env}")
            return a / b
        return _power(a, b, env)
    if isinstance(e, Call):
        args = [_eval(a, env) for a in e.args]
        return _call(e.func, args, env)
    raise TypeError(f"not an expression node: {e!r}")


def _power(a: float, b: float, env: dict) -> float:
    if a < 0.0 and b != math.floor(b):
        raise EvaluationError(f"negative base {a} with non-integer exponent {b} at {env}")
    if a == 0.0 and b < 0.0:
        raise EvaluationError(f"zero base with negative exponent at {env}")
    try:
        return a ** b
    except OverflowError:
        raise EvaluationError(f"overflow in power at {env}") from None


def _call(func: str, args: list[float], env: dict) -> float:
    if func == "sqrt":
        if args[0] < 0.0:
            raise EvaluationError(f"sqrt of negative value {args[0]} at {env}")
        return math.sqrt(args[0])
    if func == "exp":
        try:
            return math.exp(args[0])
        except OverflowError:
            raise EvaluationError(f"overflow in exp at {env}") from None
    if func == "log":
        if args[0] <= 0.0:
            raise EvaluationError(f"log of non-positive value {args[0]} at {env}")
        return math.log(args[0])
    if func == "abs":
        return abs(args[0])
    if func == "min":
        return min(args)
    if func == "max":
        return max(args)
    return _power(args[0], args[1], env)


class MeanBuild(NamedTuple):
    mean: MeanFunction
    report: Optional[AxiomReport]
    diagnostics: tuple[str, ...]


def expr_to_mean(e: Expression, domain: Interval, *, seed: int = DEFAULT_SEED) -> MeanBuild:
    """Wrap a parsed tree as a MeanFunction and sample the mean axioms.

    The axiom report is attached to the result; a failing report does not
    block construction but shows up in the diagnostics, as does a domain
    fault hit while sampling.
    """
    src = format_expression(e)

    def fn(x: float, y: float) -> float:
        return evaluate(e, {"x": x, "y": y})

    mean = MeanFunction(src, domain, fn)
    diagnostics = []
    report = None
    try:
        report = verify_axioms(mean, default_window(domain), _VERIFY_SAMPLES, seed)
        if not report.axiom_i_ok:
            diagnostics.append(f"symmetry (axiom i) fails for {src}")
        if not report.axiom_ii_ok:
            diagnostics.append(f"betweenness (axiom ii) fails for {src}")
        if not report.axiom_iii_ok:
            diagnostics.append(f"strictness (axiom iii) fails for {src}")
    except DomainError as exc:
        diagnostics.append(f"axiom sampling aborted: {exc}")
    return MeanBuild(mean, report, tuple(diagnostics))


def expr_to_weight(e: Expression, domain: Interval) -> WeightFunction:
    """Wrap a parsed single-variable tree as a weight function."""
    src = format_expression(e)

    def fn(t: float) -> float:
        return evaluate(e, {"t": t})

    return WeightFunction(domain, fn, name=src)


def mean_from_source(src: str, domain: Optional[Interval] = None, *,
                     seed: int = DEFAULT_SEED) -> MeanBuild:
    """Mean from source text; bare builtin names yield the exact built-ins."""
    name = src.strip()
    if name in _BUILTIN_MEANS:
        return MeanBuild(_builtin(name), None, ())
    tree = parse_mean_expr(src)
    return expr_to_mean(tree, domain or POSITIVE_REALS, seed=seed)


def weight_from_source(src: str, domain: Optional[Interval] = None) -> WeightFunction:
    """Weight function from source text over the variable t."""
    return expr_to_weight(parse_weight_expr(src), domain or POSITIVE_REALS)
