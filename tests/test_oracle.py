"""A 50-digit oracle for the kernels of parsed trees.

``exact`` walks a tree in mpmath at 50 significant digits, the AGM through ``mpmath.agm``. It
shares no code with the compiler: not ``expressions._SCALAR_OPS``, no renderer, and not the
float walk ``oracle_evaluate`` of the expression tests. On well-conditioned means, the checked
kernel and the box form of each must lie within its family's ``BOUND`` of it, in ulps, at points
of [1e-100, 1e100]^2, inside the plain box P where the box form may run.
"""

import math

import mpmath
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import meanscape as ms
from meanscape.expressions import (
    Binary,
    BuiltinMean,
    Call,
    Num,
    Unary,
    Var,
    parse_mean_expr,
    parse_weight_expr,
)
from test_box import _box

_DIGITS = 50
_BUILTINS = {"A": lambda x, y: (x + y) / 2, "G": lambda x, y: mpmath.sqrt(x * y),
             "H": lambda x, y: 2 * x * y / (x + y), "AGM": mpmath.agm}
_BINARY = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
           "/": lambda a, b: a / b, "^": mpmath.power}
_CALLS = {"sqrt": mpmath.sqrt, "exp": mpmath.exp, "log": mpmath.log, "abs": abs,
          "pow": mpmath.power, "min": min, "max": max}


def exact(node, env):
    """The value of the tree ``node`` at the binding ``env``, computed in mpmath at 50 digits
    from the exact values of its float constants and inputs."""
    with mpmath.workdps(_DIGITS):
        return _walk(node, {k: mpmath.mpf(v) for k, v in env.items()})


def _walk(node, env):
    if isinstance(node, Num):
        return mpmath.mpf(node.value)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, BuiltinMean):
        return _BUILTINS[node.name](env["x"], env["y"])
    if isinstance(node, Unary):
        return -_walk(node.operand, env)
    if isinstance(node, Binary):
        return _BINARY[node.op](_walk(node.left, env), _walk(node.right, env))
    if isinstance(node, Call):
        return _CALLS[node.func](*[_walk(a, env) for a in node.args])
    raise TypeError(f"not an expression node: {node!r}")


def ulps(got: float, want) -> float:
    """How many ulps of ``want`` the float ``got`` lies from it."""
    return float(abs(mpmath.mpf(got) - want) / math.ulp(float(want)))


def power_src(p: float) -> str:
    return f"((x^{p!r}+y^{p!r})/2)^(1/{p!r})"


def lehmer_src(q: float) -> str:
    return f"(x^{q!r}+y^{q!r})/(x^({round(q - 1, 3)!r})+y^({round(q - 1, 3)!r}))"


# the means of README.md's examples, and the built-ins that every parsed tree may name
README_MEANS = ["(x+y)/2", "sqrt(x*y)", "min(x,y)", "((x^1.778+y^1.778)/2)^(1/1.778)",
                "((x^1.834+y^1.834)/2)^(1/1.834)"]
BUILTIN_SOURCES = ["A", "G", "H", "(A + G) / 2", "AGM"]
# the worst distance from the oracle seen for each family, in ulps of the exact value, over
# 20000 random points of each family (the AGM gave the built-ins' worst). A power mean folds
# its exponent 1/p to a float, which the oracle computes exactly: that moves a value M by up
# to ln(M) half-ulps of it, about 230 at M = 1e100.
BOUND = {"builtin": 2.9, "readme": 85.4, "power": 210.1, "lehmer": 2.8, "weight": 1.5}

_coordinate = st.floats(-100.0, 100.0).map(lambda e: 10.0 ** e)
_exponent = st.floats(0.0, 1.0).map(lambda u: round(u, 3))


def _assert_close(src, family, x, y):
    """The checked kernel and the box form of the mean ``src`` lie within the family's bound
    of the oracle at (x, y)."""
    fn = ms.mean_from_source(src).mean.fn
    want = exact(parse_mean_expr(src), {"x": x, "y": y})
    for got in (fn(x, y), _box(fn, "x, y")[0](x, y)):
        assert ulps(got, want) <= BOUND[family], (src, x, y, got, want)


@seed(50)
@settings(max_examples=150)
@given(st.sampled_from(README_MEANS + BUILTIN_SOURCES), _coordinate, _coordinate)
def test_builtins_and_the_readme_means_agree_with_the_oracle(src, x, y):
    _assert_close(src, "readme" if src in README_MEANS else "builtin", x, y)


@seed(51)
@settings(max_examples=150)
@given(_exponent.map(lambda u: round(0.25 + 2.25 * u, 3)), _coordinate, _coordinate)
def test_power_means_agree_with_the_oracle(p, x, y):
    _assert_close(power_src(p), "power", x, y)


@seed(52)
@settings(max_examples=150)
@given(_exponent.map(lambda u: round(0.2 + 1.6 * u, 3)), _coordinate, _coordinate)
def test_lehmer_means_agree_with_the_oracle(q, x, y):
    _assert_close(lehmer_src(q), "lehmer", x, y)


@seed(53)
@settings(max_examples=100)
@given(st.floats(-100.0, 100.0).map(lambda e: 10.0 ** e))
def test_the_readme_weight_agrees_with_the_oracle(t):
    fn = ms.weight_from_source("1/sqrt(t)").fn
    want = exact(parse_weight_expr("1/sqrt(t)"), {"t": t})
    for got in (fn(t), _box(fn, "t")[0](t)):
        assert ulps(got, want) <= BOUND["weight"]


def test_the_oracle_reads_each_float_exactly_and_keeps_50_digits():
    # (1 + 2^-60) / 2 is not a float, and the AGM keeps its invariance at 50 digits
    agm = parse_mean_expr("AGM")
    with mpmath.workdps(_DIGITS):
        half = exact(parse_mean_expr("(x+y)/2"), {"x": 1.0, "y": 2.0 ** -60})
        assert half == mpmath.mpf(0.5) + mpmath.mpf(2.0 ** -61)
        assert exact(parse_mean_expr("x - 0.1"), {"x": 0.1, "y": 1.0}) == 0
        assert exact(agm, {"x": 2.0, "y": 2.0}) == 2
        step = {"x": mpmath.mpf(1.5), "y": mpmath.sqrt(2)}
        assert abs(exact(agm, {"x": 1.0, "y": 2.0}) - exact(agm, step)) < mpmath.mpf(10) ** -48
