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
import operator
from typing import Callable, NamedTuple, Optional

from .core import _Frozen, _set
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
# bounds the parser's nesting and the height of the tree it builds; parsing costs up to
# five interpreter frames per level, formatting, compiling and calling a tree one or two,
# so every stage stays below the default recursion limit and deep input errors out
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


class Expression(_Frozen):
    """A node of a parsed tree: read-only, equal to a node of the same type with
    equal fields, so ``Var("G") != BuiltinMean("G")``, and hashable."""

    __slots__ = ()


class Num(Expression):
    __slots__ = ("value",)

    def __init__(self, value: float):
        _set(self, "value", value)


class Var(Expression):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class BuiltinMean(Expression):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class Unary(Expression):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expression):
        _set(self, "op", op)
        _set(self, "operand", operand)


class Binary(Expression):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


class Call(Expression):
    __slots__ = ("func", "args")

    def __init__(self, func: str, args: tuple[Expression, ...]):
        _set(self, "func", func)
        _set(self, "args", args)


_SINGLE_CHAR_TOKENS = {**dict.fromkeys("+-*/^", "op"), "(": "lparen", ")": "rparen", ",": "comma"}


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
        if c in _SINGLE_CHAR_TOKENS:
            tokens.append(_Token(_SINGLE_CHAR_TOKENS[c], c, i, i + 1))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {c!r}", (i, i + 1))
    tokens.append(_Token("end", "", n, n))
    return tokens


class _Parser:
    """Recursive descent with the fixed precedence ladder; each rule returns
    its node and that node's height. A parse error ends the parse, so the
    nesting depth is not restored on the error path."""

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
        tree, _ = self.sum()
        tok = self.current
        if tok.kind != "end":
            raise ExpressionError(f"unexpected {tok.text!r}", (tok.start, tok.end))
        return tree

    def _enter(self, tok: _Token) -> None:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ExpressionError("expression too deeply nested", (tok.start, tok.end))

    @staticmethod
    def _height(tok: _Token, *children: int) -> int:
        """Height of a node over children of these heights; tok is its operator."""
        height = 1 + max(children)
        if height > _MAX_DEPTH:
            raise ExpressionError("expression too deeply nested", (tok.start, tok.end))
        return height

    def sum(self) -> tuple[Expression, int]:
        self._enter(self.current)
        node, h = self.term()
        while self.current.kind == "op" and self.current.text in "+-":
            tok = self.advance()
            right, rh = self.term()
            node, h = Binary(tok.text, node, right), self._height(tok, h, rh)
        self.depth -= 1
        return node, h

    def term(self) -> tuple[Expression, int]:
        node, h = self.unary()
        while self.current.kind == "op" and self.current.text in "*/":
            tok = self.advance()
            right, rh = self.unary()
            node, h = Binary(tok.text, node, right), self._height(tok, h, rh)
        return node, h

    def unary(self) -> tuple[Expression, int]:
        if self.current.kind == "op" and self.current.text == "-":
            tok = self.advance()
            self._enter(tok)
            operand, h = self.unary()
            self.depth -= 1
            return Unary("-", operand), self._height(tok, h)
        return self.power()

    def power(self) -> tuple[Expression, int]:
        node, h = self.atom()
        if self.current.kind == "op" and self.current.text == "^":
            tok = self.advance()
            self._enter(tok)
            exponent, eh = self.unary()  # right-associative; may carry a unary minus
            self.depth -= 1
            node, h = Binary("^", node, exponent), self._height(tok, h, eh)
        return node, h

    def atom(self) -> tuple[Expression, int]:
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
            return Num(value), 1
        if tok.kind == "lparen":
            self.advance()
            parsed = self.sum()
            self.expect("rparen", "')'")
            return parsed
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
                nodes, heights = zip(*args)
                return Call(name, nodes), self._height(tok, *heights)
            if name in self.variables:
                return Var(name), 1
            if self.allow_builtins and name in _BUILTIN_MEANS:
                return BuiltinMean(name), 1
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
    """Source form with parentheses only where precedence or associativity needs them.

    Reparsing yields an identical tree. Every node adds at most one level of the
    parser's nesting, so the text nests no deeper than the tree is high.
    """
    return _format(e, _SUM)


# binding strength of each rule of the parser's ladder, loosest first
_SUM, _TERM, _UNARY, _POWER, _ATOM = range(5)
_OP_LEVEL = {"+": _SUM, "-": _SUM, "*": _TERM, "/": _TERM, "^": _POWER}


def _format(e: Expression, need: int) -> str:
    """``e`` as the operand of a rule that parses level ``need`` or tighter."""
    if isinstance(e, Num):
        text, level = repr(e.value), _ATOM
    elif isinstance(e, (Var, BuiltinMean)):
        text, level = e.name, _ATOM
    elif isinstance(e, Unary):
        text, level = f"-{_format(e.operand, _UNARY)}", _UNARY
    elif isinstance(e, Binary):
        level = _OP_LEVEL[e.op]
        # + - * / associate to the left; ^ to the right, over an atom as its base
        left, right = (_ATOM, _UNARY) if e.op == "^" else (level, level + 1)
        text = f"{_format(e.left, left)} {e.op} {_format(e.right, right)}"
    elif isinstance(e, Call):
        text, level = f"{e.func}({', '.join(_format(a, _SUM) for a in e.args)})", _ATOM
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return f"({text})" if level < need else text


@functools.cache
def _builtin(name: str) -> MeanFunction:
    return _BUILTIN_MEANS[name]()


class _Fault(Exception):
    """A domain fault inside a compiled tree; the root adds the variable binding."""


def _fail(message: str) -> float:
    raise _Fault(message)


def _power(a: float, b: float) -> float:
    if a < 0.0 and not (math.isfinite(b) and b == math.floor(b)):
        return _fail(f"negative base {a} with non-integer exponent {b}")
    if a == 0.0 and b < 0.0:
        return _fail("zero base with negative exponent")
    try:
        return a ** b
    except OverflowError:
        return _fail("overflow in power")


def _exp(a: float) -> float:
    try:
        return math.exp(a)
    except OverflowError:
        return _fail("overflow in exp")


# The operation of every operator and function, with its fault check; unary
# minus is "neg". This table is the only place where the grammar meets arithmetic.
_SCALAR_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "neg": operator.neg,
    "/": lambda a, b: _fail("division by zero") if b == 0.0 else a / b,
    "^": _power, "pow": _power, "exp": _exp,
    "sqrt": lambda a: _fail(f"sqrt of negative value {a}") if a < 0.0 else math.sqrt(a),
    "log": lambda a: _fail(f"log of non-positive value {a}") if a <= 0.0 else math.log(a),
    "abs": abs, "min": min, "max": max,
}


def _closure(e: Expression) -> Callable[[float, float], float]:
    """One closure per node, each calling its children's closures. Every closure
    takes x and y positionally; a weight tree's t takes the place of x."""
    if isinstance(e, Num):
        value = e.value
        return lambda x, y: value
    if isinstance(e, Var):
        return (lambda x, y: y) if e.name == "y" else (lambda x, y: x)
    if isinstance(e, BuiltinMean):
        name, mean = e.name, _builtin(e.name)

        def atom(x: float, y: float) -> float:
            try:
                return mean(x, y)
            except (ArithmeticError, ValueError) as exc:
                raise EvaluationError(f"{name} is undefined at ({x}, {y}): {exc}") from None
        return atom
    if isinstance(e, Unary):
        op, args = "neg", (e.operand,)
    elif isinstance(e, Binary):
        op, args = e.op, (e.left, e.right)
    elif isinstance(e, Call):
        op, args = e.func, e.args
    else:
        raise TypeError(f"not an expression node: {e!r}")
    kernel = _SCALAR_OPS[op]
    if len(args) == 1:
        a = _closure(args[0])
        return lambda x, y: kernel(a(x, y))
    a, b = map(_closure, args)
    return lambda x, y: kernel(a(x, y), b(x, y))


def _compile(e: Expression, binding: Callable[[float, float], dict]) -> Callable[..., float]:
    """Compile a tree once into ``fn(x, y)``, or ``fn(t)`` for a weight tree;
    ``binding(x, y)`` is the variable binding that fault messages show."""
    body = _closure(e)

    def fn(x: float, y: Optional[float] = None) -> float:
        try:
            v = body(x, y)
        except _Fault as fault:
            raise EvaluationError(f"{fault} at {binding(x, y)}") from None
        if not math.isfinite(v):
            raise EvaluationError(f"expression produced a non-finite value at {binding(x, y)}")
        return v
    return fn


def evaluate(e: Expression, env: dict[str, float]) -> float:
    """Compile a tree, then call it at a binding of x and y, or of t; domain
    faults raise EvaluationError, and non-finite results count as faults."""
    return _compile(e, lambda x, y: env)(env.get("x", env.get("t")), env.get("y"))


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
    mean = MeanFunction(src, domain, _compile(e, lambda x, y: {"x": x, "y": y}))
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
    return WeightFunction(domain, _compile(e, lambda t, _: {"t": t}), name=format_expression(e))


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
