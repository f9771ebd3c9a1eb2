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
import itertools
import math
import operator
from collections.abc import Callable

from .core import _BOX, _Frozen, _add, _corners, _generated, _kernel, _mul, _outward, _prefix
from .core import _Record, _sub
from .core import Block, Enclosure
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
# four interpreter frames per level, formatting a tree or generating its code one, and a
# compiled tree runs as one flat function in one frame, so every stage stays below the
# default recursion limit and deep input errors out
_MAX_DEPTH = 120
# the parentheses an expression may hold before a consumer sets a local to it: Python's
# parser nests them 200 deep at most, and a tree built by hand may be higher than _MAX_DEPTH
_NESTING = 100
_VERIFY_SAMPLES = 256  # seeded pairs on which a parsed mean's axioms are sampled
# the diagnostic's name of each axiom, in the order of AxiomReport's flags
_AXIOM_RULES = ("symmetry (axiom i)", "betweenness (axiom ii)", "strictness (axiom iii)")


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
    equal fields, so ``Var("G") != BuiltinMean("G")``, and hashable. Each node type
    names its fields, in order, in its docstring; none has a default."""

    __slots__ = ()


class Num(Expression):
    """A number literal. Fields: ``value``, a float."""

    __slots__ = ("value",)


class Var(Expression):
    """A variable. Fields: ``name``: x or y in a mean, t in a weight."""

    __slots__ = ("name",)


class BuiltinMean(Expression):
    """A built-in mean atom. Fields: ``name``: A, G, H or AGM."""

    __slots__ = ("name",)


class Unary(Expression):
    """A unary operation. Fields: ``op`` ("-"), ``operand``."""

    __slots__ = ("op", "operand")


class Binary(Expression):
    """A binary operation. Fields: ``op`` (one of + - * / ^), ``left``, ``right``."""

    __slots__ = ("op", "left", "right")


class Call(Expression):
    """A function call. Fields: ``func``, ``args``, a tuple of nodes."""

    __slots__ = ("func", "args")


_SINGLE_CHAR_TOKENS = {**dict.fromkeys("+-*/^", "op"), "(": "lparen", ")": "rparen", ",": "comma"}


class _Token(_Record):
    kind: str  # num ident op lparen rparen comma end
    text: str
    start: int
    end: int


def _digits(src: str, j: int) -> int:
    """The index past the run of digits that starts at ``j``."""
    while j < len(src) and src[j].isdigit():
        j += 1
    return j


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or c == "." and src[i + 1:i + 2].isdigit():
            kind, j = "num", _digits(src, i)
            if src[j:j + 1] == ".":
                j = _digits(src, j + 1)
            if src[j:j + 1] in ("e", "E"):
                k = j + 2 if src[j + 1:j + 2] in ("+", "-") else j + 1
                if src[k:k + 1].isdigit():  # else the exponent is not part of the literal
                    j = _digits(src, k)
        elif c.isalpha() or c == "_":  # a letter is alphanumeric too
            kind, j = "ident", i + 1
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
        elif c in _SINGLE_CHAR_TOKENS:
            kind, j = _SINGLE_CHAR_TOKENS[c], i + 1
        else:
            raise ExpressionError(f"unexpected character {c!r}", (i, i + 1))
        tokens.append(_Token(kind, src[i:j], i, j))
        i = j
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

    def take(self, kind: str, texts: str = "") -> _Token | None:
        """The next token, consumed, where it is of ``kind`` and, given ``texts``, one of
        those characters; else None, and nothing is consumed."""
        tok = self.tokens[self.pos]
        if tok.kind != kind or texts and tok.text not in texts:
            return None
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.take(kind) or self.tokens[self.pos]  # the token taken, or the one in its place
        if tok.kind != kind:
            raise ExpressionError(f"expected {what}", (tok.start, tok.end))
        return tok

    def parse(self) -> Expression:
        tree, _ = self.sum()
        tok = self.tokens[self.pos]
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
        self._enter(self.tokens[self.pos])
        node, h = self.term()
        while tok := self.take("op", "+-"):
            right, rh = self.term()
            node, h = Binary(tok.text, node, right), self._height(tok, h, rh)
        self.depth -= 1
        return node, h

    def term(self) -> tuple[Expression, int]:
        node, h = self.unary()
        while tok := self.take("op", "*/"):
            right, rh = self.unary()
            node, h = Binary(tok.text, node, right), self._height(tok, h, rh)
        return node, h

    def unary(self) -> tuple[Expression, int]:
        """A unary minus, or an atom with an optional power: both operators parse their
        right operand by this rule one level deeper, so ^ associates right and its
        exponent may carry a unary minus."""
        tok = self.take("op", "-")
        if tok is None:
            node, h = self.atom()
            tok = self.take("op", "^")
            if tok is None:
                return node, h
        self._enter(tok)
        right, rh = self.unary()
        self.depth -= 1
        if tok.text == "-":
            return Unary("-", right), self._height(tok, rh)
        return Binary("^", node, right), self._height(tok, h, rh)

    def atom(self) -> tuple[Expression, int]:
        tok = self.tokens[self.pos]
        self.pos += 1  # every atom consumes its first token, and an error ends the parse
        if tok.kind == "num":
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
            parsed = self.sum()
            self.expect("rparen", "')'")
            return parsed
        if tok.kind == "ident":
            name = tok.text
            if name in _FUNCTIONS:
                self.expect("lparen", f"'(' after {name}")
                args = [self.sum()]
                while self.take("comma"):
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

    Reparsing yields an identical tree for every tree the parser builds, whose
    numbers are finite with no minus sign: a parsed ``-1`` is
    ``Unary('-', Num(1.0))``. A hand-built tree need not round-trip: a number
    prints as its ``repr``, so ``Num(-1.0)`` prints ``-1.0``, which reparses as
    that ``Unary``, and ``Num(math.inf)`` prints ``inf``, an unknown identifier.
    Every node adds at most one level of the parser's nesting, so the text
    nests no deeper than the tree is high.
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


class _Test(_Record):
    """A comparison of one operand, ``a`` or ``b``, that a fault check is a conjunction of:
    its source, and whether it holds at a value. Where ``by_sign``, the sign of a finite
    value decides it (negative, zero or positive)."""

    source: str
    operand: str
    holds: Callable[[float], bool]
    by_sign: bool = True

    def decide(self, const: float | None, enclosure: Enclosure) -> bool | None:
        """Whether the test holds at every value of its operand (True), at none (False), or
        not known (None): at the constant ``const``, or else over ``enclosure``, which
        decides a test of the sign where it agrees at both ends and at 0 between them."""
        if const is not None:
            return self.holds(const)
        if enclosure is None or not self.by_sign:
            return None
        lo, hi = enclosure
        seen = {self.holds(lo), self.holds(hi), self.holds(0.0 if lo < 0.0 < hi else lo)}
        return seen.pop() if len(seen) == 1 else None


class _Op(_Record):
    """An operation: the expression of its value over its operands' values {a} and {b}, which
    raises nothing past its checks but an OverflowError; its interval rule, the enclosure of
    its value from theirs (``core._outward``); the fault checks, each ``(tests, message)``,
    raised before it where all its tests hold; and the name of the operation in the message
    of an OverflowError that it raises, "" where it raises none."""

    value: str
    enclose: Callable[..., Enclosure] | None
    checks: tuple[tuple[tuple[_Test, ...], str], ...] = ()
    overflow: str = ""


def _pow_rule(a: tuple[float, float], b: tuple[float, float]) -> Enclosure:
    if a[0] <= 0.0:
        return None
    try:  # over a positive base, a^b is monotone in each operand
        return _corners(a, b, operator.pow)
    except OverflowError:
        return None


def _exp_rule(a: tuple[float, float]) -> Enclosure:
    try:
        return _outward(math.exp(a[0]), math.exp(a[1]))
    except OverflowError:
        return None


def _sqrt_rule(a: tuple[float, float]) -> Enclosure:
    return None if a[1] < 0.0 else _outward(math.sqrt(max(a[0], 0.0)), math.sqrt(a[1]))


def _log_rule(a: tuple[float, float]) -> Enclosure:
    # past its check, the operand is a positive float: at least 5e-324
    return None if a[1] <= 0.0 else _outward(math.log(max(a[0], 5e-324)), math.log(a[1]))


def _abs_rule(a: tuple[float, float]) -> Enclosure:
    lo, hi = a
    return a if lo >= 0.0 else (-hi, -lo) if hi <= 0.0 else (0.0, max(-lo, hi))


_A_NEGATIVE = _Test("{a} < 0.0", "a", lambda v: v < 0.0)
_A_ZERO = _Test("{a} == 0.0", "a", lambda v: v == 0.0)
_A_NOT_POSITIVE = _Test("{a} <= 0.0", "a", lambda v: v <= 0.0)
_A_NOT_FINITE = _Test("not isfinite({a})", "a", lambda v: not math.isfinite(v))
_B_ZERO = _Test("{b} == 0.0", "b", lambda v: v == 0.0)
_B_NEGATIVE = _Test("{b} < 0.0", "b", lambda v: v < 0.0)
_B_FRACTIONAL = _Test("not (isfinite({b}) and {b} == floor({b}))", "b",
                      lambda v: not (math.isfinite(v) and v == math.floor(v)), by_sign=False)
_POW = _Op("{a} ** {b}", _pow_rule, (
    ((_A_NEGATIVE, _B_FRACTIONAL), "negative base {{{a}}} with non-integer exponent {{{b}}}"),
    ((_A_ZERO, _B_NEGATIVE), "zero base with negative exponent")), "power")
# Each operator and function: unary minus is "neg". This table is the only place where the
# grammar meets arithmetic. A fault raises EvaluationError, its message ending in the
# binding of the tree's input locals. As Python's min and max do, the statements keep the
# first argument unless the second is strictly smaller (larger), so NaN arguments give the
# same result.
_SCALAR_OPS = {
    "+": _Op("{a} + {b}", _add),
    "-": _Op("{a} - {b}", _sub),
    "*": _Op("{a} * {b}", _mul),
    "neg": _Op("-{a}", lambda a: (-a[1], -a[0])),
    "/": _Op("{a} / {b}",
             lambda a, b: None if b[0] <= 0.0 <= b[1] else _corners(a, b, operator.truediv),
             (((_B_ZERO,), "division by zero"),)),
    "^": _POW,
    "pow": _POW,
    "exp": _Op("exp({a})", _exp_rule, overflow="exp"),
    "sqrt": _Op("sqrt({a})", _sqrt_rule,
                (((_A_NEGATIVE,), "sqrt of negative value {{{a}}}"),)),
    "log": _Op("log({a})", _log_rule,
               (((_A_NOT_POSITIVE,), "log of non-positive value {{{a}}}"),)),
    "abs": _Op("abs({a})", _abs_rule),
    "min": _Op("{b} if {b} < {a} else {a}", lambda a, b: (min(a[0], b[0]), min(a[1], b[1]))),
    "max": _Op("{b} if {b} > {a} else {a}", lambda a, b: (max(a[0], b[0]), max(a[1], b[1]))),
}
# the check of a tree's value {a}, after its blocks
_FINITE = _Op("", None, (((_A_NOT_FINITE,), "expression produced a non-finite value"),))


def _trying(value: str, caught: str, message: str) -> str:
    """The statement ``value`` in a try whose handler of ``caught`` raises EvaluationError
    with the f-string ``message``."""
    return (f"try:\n    {value}\nexcept {caught}:\n"
            f"    raise EvaluationError({message}) from None")


# a built-in atom: the checked built-in {mean}, whose faults show its name {name}
_BUILTIN_ATOM = ("{v} = {mean}(x, y)", "(ArithmeticError, ValueError) as exc",
                 "f'{{{name}}} is undefined at ({{x}}, {{y}}): {{exc}}'")
# the helpers that the statements name, passed to every factory as its first arguments
_HELPERS = {"EvaluationError": EvaluationError, "isfinite": math.isfinite,
            "floor": math.floor, "sqrt": math.sqrt, "exp": math.exp, "log": math.log,
            "abs": abs}


class _Value(_Record):
    """A node's value while a form of a tree is rendered: its text, or None for a constant
    that has no argument yet; the constant; and its enclosure over the plain box. A text is a
    name, of the input, argument or local that holds the value, or an expression that raises
    nothing: in parentheses unless it is a call (``_bare``)."""

    text: str | None
    const: float | None
    enclosure: Enclosure


def _bare(text: str) -> str:
    """A value's text without the parentheses of an expression that is not a call."""
    return text[1:-1] if text[0] == "(" else text


def _checks(op: _Op, operands: dict[str, _Value], box: bool) -> list[str]:
    """``op``'s fault checks over the operands, still to be formatted: each that a constant
    operand does not decide against, without its tests that one decides for; in a box form
    also without those that the operands' enclosures decide."""
    lines = []
    for tests, message in op.checks:
        held = []
        for test in tests:
            operand = operands[test.operand]
            held.append(test.decide(operand.const, operand.enclosure if box else None))
        if False in held:
            continue
        kept = [t for t, h in zip(tests, held) if h is not True] or tests  # it always fires
        lines.append(f"if {' and '.join(t.source for t in kept)}:\n"
                     f'    raise EvaluationError(f"{message} at {{at}}")')
    return lines


def _statements(op: _Op, checks: list[str], proven: bool) -> str:
    """The statements that set the local {v} to ``op``'s value: its ``checks``, then the
    value, in its OverflowError handler unless ``proven`` leaves that out."""
    value = f"{{v}} = {op.value}"
    if op.overflow and not proven:
        value = _trying(value, "OverflowError", f'f"overflow in {op.overflow} at {{at}}"')
    return "\n".join([*checks, value])


@functools.cache
def _folded(op: str) -> Callable[..., float]:
    """The statements of ``op`` as ``fn(a, b)``, which folds its constant operands: it
    raises EvaluationError where one of its checks fires."""
    spec, unknown = _SCALAR_OPS[op], dict.fromkeys("ab", _Value(None, None, None))
    body = _statements(spec, _checks(spec, unknown, False), False)
    return _generated("a, b=None", f"{body.format(v='v', a='a', b='b', at='')}\nreturn v",
                      _HELPERS, "<expression>")


def _compile(e: Expression, variables: tuple[str, ...] = ("x", "y")) -> Callable[..., float]:
    """Compile a tree once into ``fn(x, y)``, or ``fn(t)`` for a weight tree, whose
    ``variables`` are ("t",); a fault message ends in the binding of ``variables``.

    The tree becomes the source of one straight-line function, children before parents and
    left before right. A node that keeps a fault check or an OverflowError handler is a block
    of statements that sets its own local; any other node raises nothing and is written inside
    its one consumer, with a local only where that consumer reads it twice: in a check, as an
    operand of min or max, or as the root that the non-finite check reads. So only the blocks
    raise, in the order of the nodes. Each variable is the input local of its name, so a
    normal mean can run a weight's statements at t = x and again at t = y. A subtree of
    constants that does not fault is computed once, by the same statements (``_folded``).
    Constants, built-in atoms and their names are arguments of the factory that returns
    ``fn``, so the source holds only the fixed templates and generated names, never text
    from the input. Every generated name carries the tree's own prefix, so the statements of
    two trees can run in one function: ``fn.inline`` is the tree's block and its box form
    (``core._kernel``). The tree is rendered once per form, by the same rule over the checks
    that the enclosures leave, which each node's interval rule gives with every variable in
    the plain box; both renderings bind each argument to the same name.
    """
    prefix = _prefix("t")
    namespace = dict(_HELPERS)
    # a dict display of the input locals, inside an f-string's braces
    at = "{ {" + ", ".join(f"'{v}': {v}" for v in variables) + "} }"
    numbers = itertools.count()  # of the locals

    def local() -> str:
        return f"{prefix}v{next(numbers)}"

    def constant(value: float) -> _Value:
        return _Value(None, value, (value, value) if math.isfinite(value) else None)

    def render(box: bool) -> tuple[Block, Enclosure]:
        """The tree's block, or with ``box`` its box form, and the enclosure of its value."""
        statements: list[str] = []
        arguments = itertools.count(len(_HELPERS))  # named in the same order by both forms

        def argument(value: object) -> str:
            name = f"{prefix}c{next(arguments)}"
            namespace[name] = value
            return name

        def held(text: str) -> str:
            """A name of the value ``text``: the name itself, or a new local set to the
            expression."""
            if text.isidentifier():
                return text
            v = local()
            statements.append(f"{v} = {_bare(text)}")
            return v

        def emit(op: _Op, operands: dict[str, _Value], enclosure: Enclosure) -> str:
            """Write ``op`` over ``operands``, its value's being ``enclosure``; return the
            text of its value."""
            checks = _checks(op, operands, box)
            proven = box and enclosure is not None
            reads = "\n".join([*checks, op.value])
            call = op.value[0].isalpha()  # a template that starts with a name is a call
            names = {}
            for k, a in operands.items():
                text = a.text
                if reads.count(f"{{{k}}}") > 1 or text.count("(") >= _NESTING:
                    text = held(text)
                names[k] = _bare(text) if call else text
            if checks or op.overflow and not proven:
                v = local()
                statements.append(_statements(op, checks, proven).format(v=v, at=at, **names))
                return v
            text = op.value.format(**names)
            return text if call else f"({text})"

        def value(node: Expression) -> _Value:
            """Write the statements that compute ``node``; return its value."""
            if isinstance(node, Num):
                return constant(node.value)
            if isinstance(node, Var):
                if node.name not in variables:  # no other name may reach the source
                    raise TypeError(f"variable {node.name!r} is not one of {variables}")
                return _Value(node.name, None, _BOX)
            if isinstance(node, BuiltinMean):
                mean = _builtin(node.name)
                atom, caught, message = _BUILTIN_ATOM
                fields = {"v": local(), "mean": argument(mean), "name": argument(node.name)}
                # where P lies in the built-in's domain, its check passes: a mean of x and y
                if not (box and mean.domain.contains(_BOX[0]) and mean.domain.contains(_BOX[1])):
                    atom = _trying(atom, caught, message)
                statements.append(atom.format(**fields))
                return _Value(fields["v"], None, _outward(*_BOX))
            if isinstance(node, Unary):
                op, args = "neg", (node.operand,)
            elif isinstance(node, Binary):
                op, args = node.op, (node.left, node.right)
            elif isinstance(node, Call):
                op, args = node.func, node.args
            else:
                raise TypeError(f"not an expression node: {node!r}")
            values = [value(a) for a in args]
            if all(a.const is not None for a in values):
                try:
                    return constant(_folded(op)(*[a.const for a in values]))
                except EvaluationError:
                    pass  # the subtree faults: it is left to raise at evaluation
            operands = {k: a if a.text else _Value(argument(a.const), a.const, a.enclosure)
                        for k, a in zip("ab", values)}
            enclosures = [a.enclosure for a in values]
            enclosure = _SCALAR_OPS[op].enclose(*enclosures) if None not in enclosures else None
            return _Value(emit(_SCALAR_OPS[op], operands, enclosure), None, enclosure)

        root = value(e)
        if root.text is None:
            root = _Value(argument(root.const), root.const, root.enclosure)
        checks = _checks(_FINITE, {"a": root}, box)
        text = held(root.text) if checks else root.text  # the result reads it too
        statements.extend(check.format(a=text, at=at) for check in checks)
        return ("\n".join(statements), _bare(text), namespace), root.enclosure

    block, enclosure = render(False)
    return _kernel(block, render(True)[0], enclosure, "<expression>", ", ".join(variables))


def evaluate(e: Expression, env: dict[str, float]) -> float:
    """Compile a tree, then call it at a binding of x and y, or of t; domain
    faults raise EvaluationError, and non-finite results count as faults. A fault
    message ends in the values of x, y and t that ``env`` binds, in that order.

    Compiling costs about 0.15-0.3 ms for ``(x+y)/2`` and 0.4-1.2 ms for a power or
    Lehmer mean (2-core Xeon, Python 3.11), so to evaluate many points build the mean
    or weight once (``expr_to_mean``, ``expr_to_weight``) and call it."""
    variables = tuple(v for v in ("x", "y", "t") if v in env)
    return _compile(e, variables)(*[env[v] for v in variables])


class MeanBuild(_Record):
    mean: MeanFunction
    report: AxiomReport | None
    diagnostics: tuple[str, ...]


def expr_to_mean(e: Expression, domain: Interval, *, seed: int = DEFAULT_SEED) -> MeanBuild:
    """Wrap a parsed tree as a MeanFunction and sample the mean axioms.

    The axiom report is attached to the result; a failing report does not
    block construction but shows up in the diagnostics, as does a domain
    fault hit while sampling.
    """
    src = format_expression(e)
    mean = MeanFunction(src, domain, _compile(e))
    diagnostics = []
    report = None
    try:
        report = verify_axioms(mean, default_window(domain), _VERIFY_SAMPLES, seed)
        diagnostics += [f"{rule} fails for {src}"
                        for rule, ok in zip(_AXIOM_RULES, report) if not ok]
    except DomainError as exc:
        diagnostics.append(f"axiom sampling aborted: {exc}")
    return MeanBuild(mean, report, tuple(diagnostics))


def expr_to_weight(e: Expression, domain: Interval) -> WeightFunction:
    """Wrap a parsed single-variable tree as a weight function."""
    return WeightFunction(domain, _compile(e, ("t",)),
                          name=format_expression(e))


def mean_from_source(src: str, domain: Interval | None = None, *,
                     seed: int = DEFAULT_SEED) -> MeanBuild:
    """Mean from source text; bare builtin names yield the exact built-ins."""
    name = src.strip()
    if name in _BUILTIN_MEANS:
        return MeanBuild(_builtin(name), None, ())
    tree = parse_mean_expr(src)
    return expr_to_mean(tree, domain or POSITIVE_REALS, seed=seed)


def weight_from_source(src: str, domain: Interval | None = None) -> WeightFunction:
    """Weight function from source text over the variable t."""
    return expr_to_weight(parse_weight_expr(src), domain or POSITIVE_REALS)
