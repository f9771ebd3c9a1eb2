"""A 50-digit oracle for the kernels of parsed trees.

``exact`` walks a tree in mpmath at 50 significant digits, the AGM through ``mpmath.agm``. It
shares no code with the compiler: not ``expressions._SCALAR_OPS``, no renderer, and not the
float walk ``oracle_evaluate`` of the expression tests. On well-conditioned means, the checked
kernel and the box form of each must lie within its family's ``BOUND`` of it, in ulps, at points
of [1e-100, 1e100]^2, inside the plain box P where the box form may run. ``functional_symmetric``
through A, G and H must lie within ``SIGMA_BOUND`` of its closed forms at the exact M1, at points
of [1e-300, 1e300]^2.
"""

import math
import random

import mpmath
import pytest
from hypothesis import assume, given, seed, settings
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
from test_algebra import _Drawn
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


# m0 of the functional symmetric oracle, with sigma[m0](M1) in closed form: x + y - M1,
# xy/M1 and xyM1/((x+y)M1 - xy), each at the exact M1
SIGMA = {"A": (ms.make_arithmetic(), lambda x, y, m: x + y - m),
         "G": (ms.make_geometric(), lambda x, y, m: x * y / m),
         "H": (ms.make_harmonic(), lambda x, y, m: x * y * m / ((x + y) * m - x * y))}
# the worst distance of functional_symmetric from the closed form, in ulps of the exact value,
# over 80000 random cases (four seeds of 20000). The exponents keep H <= M1 <= A, where each
# closed form moves by at most M1's relative error. So sigma carries M1's own error: a few ulps
# for a Lehmer mean, and up to ln(M1) half-ulps for a power mean's folded exponent 1/p (see
# BOUND), some 690 at 1e300.
SIGMA_BOUND = {"power": 588.9, "lehmer": 5.9}


@st.composite
def sigma_cases(draw):
    """m0, the family and source of M1, and a point (x, y) of [1e-300, 1e300]^2 off the
    diagonal: nearer it than y/x = 10^0.001, M1's error can move it, and the root, out of
    [x, y]. For y >> x, sigma[H](M1) is about x(1 + x/M1 - x/y): within an ulp of x once x/M1
    falls below 1e-16, where the rounding of H's values can leave the bracket no sign change
    (BracketError). So H's points keep y/x within 1e12."""
    m0, family = draw(st.sampled_from(sorted(SIGMA))), draw(st.sampled_from(sorted(SIGMA_BOUND)))
    u = draw(_exponent)
    src = (power_src(round(0.25 + 0.75 * u, 3)) if family == "power"
           else lehmer_src(round(0.2 + 0.8 * u, 3)))
    e, f = draw(st.floats(-300.0, 300.0)), draw(st.floats(-300.0, 300.0))
    assume(abs(f - e) >= 0.05)
    if m0 == "H":
        f = e + (f - e) / 50.0
    return m0, family, src, 10.0 ** e, 10.0 ** f


@seed(54)
@settings(max_examples=150)
@given(sigma_cases())
def test_functional_symmetric_agrees_with_the_closed_forms(case):
    m0, family, src, x, y = case
    mean, closed = SIGMA[m0]
    got = ms.functional_symmetric(mean, ms.mean_from_source(src).mean, x, y)
    with mpmath.workdps(_DIGITS):
        want = closed(mpmath.mpf(x), mpmath.mpf(y), exact(parse_mean_expr(src), {"x": x, "y": y}))
    assert ulps(got, want) <= SIGMA_BOUND[family], (m0, src, x, y, got, want)


# Random normal means where a term x P(x) or y P(y) is subnormal and their sum is normal: the
# weights are normal floats, and the value is the plain formula. Each normal term, the two sums
# and the quotient round once, a relative error of at most about 2^-51, and the subnormal term
# loses at most half of 2^-1074, below 2^-53 of the sum; so the value lies within 4 ulps of
# (x P(x) + y P(y)) / (P(x) + P(y)) at the kernel's float weights. The worst seen over 30,000
# such points was 2.78 ulps, and the bound is that rounded up, as BOUND's are.
NORMAL_BOUND = 3.0
_MIN_NORMAL = 2.0 ** -1022


def _subnormal_term_points(draw, count):
    """``count`` points (a, b, x, y) of the weight t^a (1+t)^b with one term subnormal and the
    sum normal, drawn by the seed ``draw``: terms near the least normal float, and x, y from
    them by x P(x) ~ x^(1 + a), which holds for tiny x."""
    rng, points = random.Random(draw), []
    while len(points) < count:
        a, b = rng.uniform(-0.95, 1.0), rng.uniform(-1.0, 1.0)
        x, y = (math.exp(math.log(_MIN_NORMAL * rng.uniform(*span)) / (1.0 + a))
                for span in ((2.0 ** -30, 1.0), (1.0, 8.0)))
        if x == 0.0:  # a near -1 takes x below the floats
            continue
        px, py = x ** a * (1.0 + x) ** b, y ** a * (1.0 + y) ** b
        if (_MIN_NORMAL <= min(px, py) and max(px, py) < math.inf
                and _MIN_NORMAL <= x * px + y * py and min(x * px, y * py) < _MIN_NORMAL):
            points.append((a, b, x, y) if rng.random() < 0.5 else (a, b, y, x))
    return points


@pytest.mark.parametrize("draw", range(4))
def test_random_normal_means_with_a_subnormal_term_agree_with_the_oracle(draw):
    for a, b, x, y in _subnormal_term_points(draw, 100):
        m = ms.random_normal_mean(_Drawn(a, b))
        px, py = x ** a * (1.0 + x) ** b, y ** a * (1.0 + y) ** b
        assert min(x * px, y * py) < _MIN_NORMAL <= x * px + y * py
        with mpmath.workdps(_DIGITS):
            want = (x * mpmath.mpf(px) + y * mpmath.mpf(py)) / (mpmath.mpf(px) + py)
        assert ulps(m(x, y), want) <= NORMAL_BOUND, (a, b, x, y)
