"""Box forms and their enclosures over the plain box P = (2^-500, 2^500)^2.

Every generated kernel carries a box form: its block without the checks that cannot fire
when its inputs lie in P, with an enclosure of its value there (``core._splice`` with
``box=True``). At points of P the box form must give the kernel's value or exception, bit
for bit, and the value must lie in the enclosure. The interval rules of the expression
compiler are also checked alone, on enclosures anywhere in the floats, and so is its rule
for which nodes become locals.
"""

import ast
import math
import re
from unittest import mock

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import meanscape as ms
from meanscape import core, expressions, middle
from test_expressions import oracle_evaluate

LO, HI = 2.0 ** -500, 2.0 ** 500
INSIDE_LO, INSIDE_HI = math.nextafter(LO, 1.0), math.nextafter(HI, 1.0)


def _in_p(e: int, mantissa: float) -> float:
    v = math.ldexp(mantissa, e)
    return min(max(v, INSIDE_LO), INSIDE_HI)


# the floats of P's side: each binade, and both edges with their neighbours inside
coordinate = st.one_of(
    st.sampled_from([INSIDE_LO, INSIDE_HI, math.nextafter(INSIDE_LO, 1.0),
                     math.nextafter(INSIDE_HI, 1.0), 1.0]),
    st.builds(_in_p, st.integers(-500, 499), st.floats(1.0, 2.0, exclude_max=True)))


def _box(fn, inputs="x, y"):
    """The box form of the kernel ``fn`` as a function of ``inputs``, and its enclosure."""
    namespace: dict = {}
    text, enclosure = core._splice(namespace, fn, "return ", inputs, box=True)
    return core._generated(inputs, text, namespace, "<box>"), enclosure


def _box_text(fn):
    return core._splice({}, fn, "", box=True)[0]


def _outcome(f, *args):
    try:
        return "value", f(*args).hex()
    except Exception as exc:  # compared, never swallowed: both sides must raise alike
        return type(exc), str(exc)


def _assert_box_matches(fn, box, *point):
    """The box form ``box`` (from ``_box``) gives ``fn``'s outcome at ``point``, and its
    value lies in the enclosure."""
    box_fn, enclosure = box
    got = _outcome(box_fn, *point)
    assert got == _outcome(fn, *point)
    if got[0] == "value" and enclosure is not None:
        lo, hi = enclosure
        assert lo <= float.fromhex(got[1]) <= hi


# random trees over x and y, with constants of both signs and of any size
_leaves = st.one_of(
    st.builds(expressions.Num, st.floats(-1e3, 1e3) | st.sampled_from([0.0, 0.5, 2.0, 1e300])),
    st.sampled_from([expressions.Var("x"), expressions.Var("y"), expressions.BuiltinMean("G")]))


def _nodes(children):
    return st.one_of(
        st.builds(expressions.Unary, st.just("-"), children),
        st.builds(expressions.Binary, st.sampled_from(["+", "-", "*", "/", "^"]), children,
                  children),
        st.builds(lambda f, a: expressions.Call(f, (a,)),
                  st.sampled_from(["sqrt", "exp", "log", "abs"]), children),
        st.builds(lambda f, a, b: expressions.Call(f, (a, b)),
                  st.sampled_from(["min", "max", "pow"]), children, children))


def _mean(src, domain=ms.POSITIVE_REALS):
    return ms.mean_from_source(src, domain).mean


# every entry of expressions._SCALAR_OPS, over the plain box; each line keeps or drops its
# checks as the enclosures decide
MEAN_SOURCES = [
    "x + y", "x - y", "x * y", "-x", "x / y", "x / (x - y)", "x ^ 1.5", "x ^ y",
    "pow(x, -2)", "(x - y) ^ 0.5", "exp(-x)", "exp(x)", "sqrt(x * y)", "sqrt(x - y)",
    "log(x)", "log(x - y)", "abs(x - y)", "min(x, y)", "max(x, -y)",
    "((x^1.834+y^1.834)/2)^(1/1.834)", "exp((log(x-1)+log(y-1))/2)+1", "G + H / 2",
]
WEIGHT_SOURCES = ["t^(0.418)*(1+t)^(0.336)", "1/t", "exp(-t)", "sqrt(3 - t)", "max(3 - t, 0)"]


@pytest.fixture(scope="module")
def parsed():
    return [(_mean(src, ms.ALL_REALS).fn, "x, y") for src in MEAN_SOURCES] + \
           [(ms.weight_from_source(src).fn, "t") for src in WEIGHT_SOURCES]


@pytest.fixture(scope="module")
def composites():
    A, G, H = ms.make_arithmetic(), ms.make_geometric(), ms.make_harmonic()
    means = [A, G, H, ms.group_inverse(G), ms.group_inverse(_mean("log(x) + y")),
             ms.group_inverse(ms.MeanFunction("K", ms.POSITIVE_REALS, lambda x, y: x))]
    means += [ms.make_normal_mean(ms.weight_from_source(src)) for src in WEIGHT_SOURCES]
    return [m.fn for m in means]


class TestBoxFormsMatchTheirKernels:
    @given(x=coordinate, y=coordinate)
    @example(x=INSIDE_LO, y=INSIDE_HI)
    def test_parsed_means_and_weights(self, parsed, x, y):
        for fn, inputs in parsed:
            point = (x, y) if inputs == "x, y" else (x,)
            _assert_box_matches(fn, _box(fn, inputs), *point)

    @given(x=coordinate, y=coordinate)
    @example(x=INSIDE_LO, y=INSIDE_HI)
    @example(x=INSIDE_HI, y=math.nextafter(INSIDE_HI, 1.0))
    def test_builtins_inverses_and_normal_means(self, composites, x, y):
        for fn in composites:
            _assert_box_matches(fn, _box(fn), x, y)

    @given(tree=st.recursive(_leaves, _nodes, max_leaves=12), x=coordinate, y=coordinate)
    def test_random_trees(self, tree, x, y):
        fn = expressions._compile(tree)
        box = _box(fn)
        _assert_box_matches(fn, box, x, y)
        # against a walk of the tree that shares no code with either rendering: where it
        # gives a value, the kernel and the box form each give its bits
        want = _outcome(oracle_evaluate, tree, {"x": x, "y": y})
        if want[0] == "value":
            assert _outcome(fn, x, y) == want and _outcome(box[0], x, y) == want

    def test_the_checks_that_cannot_fire_are_left_out(self):
        for src in ["x + y", "x / y", "x ^ 1.5", "pow(x, -2)", "exp(-x)", "sqrt(x * y)",
                    "log(x)", "((x^1.834+y^1.834)/2)^(1/1.834)", "G + H / 2"]:
            text = _box_text(_mean(src).fn)
            assert "raise" not in text and "try" not in text, src
        for src, kept in [("x / (x - y)", "division by zero"), ("exp(x)", "overflow in exp"),
                          ("sqrt(x - y)", "sqrt of negative"), ("log(x - y)", "log of non"),
                          ("(x - y) ^ 0.5", "negative base"), ("x ^ y", "overflow in power"),
                          ("x * y * y", "non-finite")]:
            assert kept in _box_text(_mean(src).fn), src

    def test_builtins_keep_only_their_plain_formulas(self):
        for make, plain in [(ms.make_arithmetic, "a_sum / 2.0"), (ms.make_geometric, "sqrt(x * y)"),
                            (ms.make_harmonic, "2.0 * x * y / (x + y)")]:
            statements = _box_text(make().fn).strip().splitlines()
            assert statements[-1] == plain

    def test_a_normal_mean_drops_its_weight_check_where_the_weight_is_positive(self):
        proven = _box_text(ms.make_normal_mean(ms.weight_from_source("1/t")).fn)
        assert "raise" not in proven and "endpoint_weighted" not in proven
        # e^-t underflows to 0 inside P, and its numerator leaves the normal floats
        kept = _box_text(ms.make_normal_mean(ms.weight_from_source("exp(-t)")).fn)
        assert "is not positive and finite" in kept and "endpoint_weighted" in kept

    def test_an_operand_without_a_block_is_called_and_has_no_enclosure(self):
        def kernel(x, y):
            return x

        text, enclosure = core._splice({}, kernel, "v = ", box=True)
        assert enclosure is None and "kernel(x, y)" in text


def _step(v: float, k: int) -> float:
    """``v`` moved ``k`` floats, up for k > 0 and down for k < 0."""
    for _ in range(abs(k)):
        v = math.nextafter(v, math.inf if k > 0 else 0.0)
    return v


# significands just below a power of two: 2^e less one to four ulps, all in P
_below_a_power = st.builds(lambda e, k: _step(math.ldexp(1.0, e), -k), st.integers(-499, 500),
                           st.integers(1, 4))


@st.composite
def between_points(draw):
    """Points of P: adjacent floats and floats two to four apart, significands just below a
    power of two, and ratios up to 2^998."""
    x = draw(coordinate | _below_a_power)
    kind = draw(st.sampled_from(["near", "ratio", "any"]))
    if kind == "near":
        y = _step(x, draw(st.integers(-4, 4).filter(bool)))
    elif kind == "ratio":
        mantissa, e = math.frexp(x)
        y = math.ldexp(mantissa, min(max(e + draw(st.integers(-998, 998)), -500), 501))
    else:
        y = draw(coordinate | _below_a_power)
    return x, min(max(y, INSIDE_LO), INSIDE_HI)


# a pair where the harmonic mean's formula rounds above both arguments
_H_ABOVE = (2.182546028937988e-76, 2.1825460289379884e-76)


@pytest.fixture(scope="module")
def declared(composites, parsed):
    """The box form of every kernel here that declares ``fn.between``."""
    return {fn: _box(fn)[0] for fn in composites + [fn for fn, _ in parsed]
            if getattr(fn, "between", False)}


class TestBetweenness:
    """A kernel declares ``fn.between`` where its box form's value lies in [min(x, y),
    max(x, y)] at every point of P: a box loop takes that value with no clamp."""

    def test_a_and_g_declare_it(self, declared):
        assert set(declared) == {core._arithmetic_eval, core._geometric_eval}

    @seed(35)
    @settings(max_examples=1500)
    @given(point=between_points())
    @example(point=_H_ABOVE)
    @example(point=(INSIDE_LO, math.nextafter(INSIDE_LO, 1.0)))
    @example(point=(INSIDE_HI, math.nextafter(INSIDE_HI, 0.0)))
    @example(point=(INSIDE_LO, INSIDE_HI))
    @example(point=(math.ldexp(INSIDE_LO, 998), INSIDE_LO))
    @example(point=(_step(2.0, -1), _step(2.0, -2)))
    def test_a_declared_value_lies_between_the_arguments(self, declared, point):
        x, y = point
        for fn, box in declared.items():
            assert min(x, y) <= box(x, y) <= max(x, y), fn

    def test_the_harmonic_mean_does_not_declare_it(self):
        x, y = _H_ABOVE
        assert _box(core._harmonic_eval)[0](x, y) == 2.1825460289379887e-76 > max(x, y)
        assert not getattr(core._harmonic_eval, "between", False)


def _forms(src):
    """The statement lines and the result of a parsed mean's block and of its box form."""
    return [(statements.splitlines(), result) for statements, result, _ in _mean(src).fn.inline[:2]]


def _workload_loops():
    """The bodies of the kernel and of the trace from P of the four compound-iter compounds,
    and of a compound whose operand reads two expressions twice, as ``min`` does."""
    A, G = ms.make_arithmetic(), ms.make_geometric()
    normal = ms.make_normal_mean(ms.weight_from_source("t^(0.418)*(1+t)^(0.336)"))
    pairs = [(A, G), (_mean("(x+y)/2"), _mean("sqrt(x*y)")), (G, ms.group_inverse(G)),
             (_mean("((x^1.778+y^1.778)/2)^(1/1.778)"), normal),
             (A, _mean("min(sqrt(x*y), (x+y)/2)"))]
    bodies = []
    for m1, m2 in pairs:
        with mock.patch.object(middle, "_generated", wraps=middle._generated) as generate:
            ms.compound(m1, m2)
            middle._trace_loop.__wrapped__(m1.fn, m2.fn, True)
        bodies += [call.args[1] for call in generate.call_args_list]
    return bodies


class TestANodeGetsALocalOnlyWhereItIsReadTwice:
    """A node with no check and no handler is an expression inside its one consumer, in
    both forms; it gets a local where a check of its consumer reads it, where the template
    of min or max does, and as the root that the non-finite check reads."""

    @pytest.mark.parametrize("src, same_as", [
        ("((x^1.778+y^1.778)/2)^(1/1.778)", "((x ** {0} + y ** {1}) / {2}) ** {3}"),
        ("sqrt(x*y)", "sqrt(x * y)"),
    ])
    def test_a_box_form_with_no_check_is_one_expression(self, src, same_as):
        statements, result, namespace = _mean(src).fn.inline[1]
        assert statements == ""
        constants = [k for k in namespace if k not in expressions._HELPERS]
        # the operations of the formula, and no other
        assert ast.dump(ast.parse(result)) == ast.dump(ast.parse(same_as.format(*constants)))

    def test_the_operands_of_min_get_locals(self):
        for lines, result in _forms("min(x*y, x+y)"):
            (a, product), (b, total) = (line.split(" = ") for line in lines[:2])
            assert (product, total) == ("x * y", "x + y")
            # the box form returns the minimum; the block sets the root's local, and checks it
            minimum = f"{b} if {b} < {a} else {a}"
            assert result == minimum or lines[2] == f"{result} = {minimum}"

    def test_an_operand_that_a_check_reads_gets_a_local(self):
        for lines, _ in _forms("sqrt(x - y)"):
            v, difference = lines[0].split(" = ")
            assert difference == "x - y" and lines[1] == f"if {v} < 0.0:"

    def test_a_root_that_the_non_finite_check_reads_gets_a_local(self):
        for lines, result in _forms("x * y * y"):
            assert lines[0] == f"{result} = (x * y) * y"
            assert lines[1] == f"if not isfinite({result}):"

    def test_every_local_of_the_workload_loops_is_read_twice(self):
        seen = set()
        for body in _workload_loops():
            names = [n for n in ast.walk(ast.parse(body)) if isinstance(n, ast.Name)]
            stored = {n.id for n in names if isinstance(n.ctx, ast.Store)
                      and re.fullmatch(r"\w+_v\d+", n.id)}
            reads = [n.id for n in names if isinstance(n.ctx, ast.Load)]
            assert all(reads.count(v) >= 2 for v in stored), body
            seen |= stored
        assert seen  # the min operand's two locals

    @pytest.mark.parametrize("height", [250, 400])
    def test_a_tree_higher_than_the_parser_allows_still_compiles(self, height):
        # Python's parser nests parentheses 200 deep at most: a long chain of expressions
        # is cut into locals
        tree = expressions.Var("x")
        for i in range(height):
            tree = expressions.Binary("+", tree, expressions.Var("y")) if i % 2 else \
                expressions.Unary("-", tree)
        fn = expressions._compile(tree)
        assert _outcome(fn, 1.0, 2.0) == _outcome(oracle_evaluate, tree, {"x": 1.0, "y": 2.0})
        _assert_box_matches(fn, _box(fn), 1.0, 2.0)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def enclosed(draw):
    """An enclosure (lo, hi) anywhere in the floats and a point of it."""
    lo, p, hi = sorted(draw(_finite) for _ in range(3))
    return (lo, hi), p


@pytest.mark.parametrize("op", sorted(expressions._SCALAR_OPS))
@given(a=enclosed(), b=enclosed())
@example(a=((-1.0, 2.0), 0.0), b=((0.0, 0.0), 0.0))
@example(a=((0.5, 2.0), 1.0), b=((1e300, 1e308), 1e308))
def test_interval_rules_enclose_their_operations(op, a, b):
    """At a point of the operands' enclosures, the operation's value lies in its rule's
    enclosure, and a test that an enclosure decides agrees with the point."""
    spec = expressions._SCALAR_OPS[op]
    operands = {"a": a, "b": b}
    arity = 2 if "{b}" in spec.value else 1
    points = [v[1] for v in (a, b)][:arity]
    for tests, _ in spec.checks:
        for test in tests:
            decided = test.decide(None, operands[test.operand][0])
            if decided is not None:
                assert decided == test.holds(operands[test.operand][1])
    try:
        value = expressions._folded(op)(*points)
    except ms.EvaluationError:
        return  # a check fired or the value overflowed: no value to enclose
    enclosure = spec.enclose(*[v[0] for v in (a, b)][:arity])
    if enclosure is not None:
        assert enclosure[0] <= value <= enclosure[1]
