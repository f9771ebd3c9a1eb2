import math

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import meanscape as ms
from meanscape.expressions import (
    _MAX_DEPTH,
    Binary,
    BuiltinMean,
    Call,
    EvaluationError,
    ExpressionError,
    Num,
    Unary,
    Var,
    _HELPERS,
    _builtin,
    _compile,
    evaluate,
    expr_to_mean,
    expr_to_weight,
    format_expression,
    parse_mean_expr,
    parse_weight_expr,
)


def ev(src, x, y):
    return evaluate(parse_mean_expr(src), {"x": x, "y": y})


class TestParsing:
    def test_arithmetic_expression(self):
        tree = parse_mean_expr("(x+y)/2")
        assert tree == Binary("/", Binary("+", Var("x"), Var("y")), Num(2.0))

    def test_harmonic_value(self):
        assert ev("2*x*y/(x+y)", 2.0, 3.0) == pytest.approx(2.4)

    def test_precedence_power_tightest_right_assoc(self):
        assert ev("2^3^2", 0, 0) == 512.0
        assert ev("-x^2", 3.0, 0.0) == -9.0
        assert ev("2^-2", 0, 0) == 0.25

    def test_left_associative_subtraction_division(self):
        assert ev("x-y-1", 10.0, 3.0) == 6.0
        assert ev("x/y/2", 12.0, 3.0) == 2.0

    def test_whitespace_insensitive(self):
        assert parse_mean_expr(" ( x + y ) / 2 ") == parse_mean_expr("(x+y)/2")

    def test_functions(self):
        assert ev("sqrt(x*y)", 4.0, 9.0) == 6.0
        assert ev("min(x,y)+max(x,y)", 3.0, 8.0) == 11.0
        assert ev("pow(x,y)", 2.0, 10.0) == 1024.0
        assert ev("abs(x-y)", 1.0, 5.0) == 4.0
        assert ev("log(exp(x))", 2.5, 0.0) == pytest.approx(2.5)

    def test_scientific_notation(self):
        assert ev("1e3 + 2.5E-2", 0, 0) == pytest.approx(1000.025)
        assert ev(".5*x", 4.0, 0.0) == 2.0

    def test_weight_variable(self):
        tree = parse_weight_expr("1/sqrt(t)")
        assert evaluate(tree, {"t": 4.0}) == 0.5


class TestParseErrors:
    def test_unbalanced_paren_position(self):
        with pytest.raises(ExpressionError) as err:
            parse_mean_expr("log(x")
        assert err.value.position == 6

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionError, match="unknown identifier 'z'"):
            parse_mean_expr("x + z")

    def test_weight_rejects_mean_variables(self):
        with pytest.raises(ExpressionError, match="unknown identifier 'x'") as err:
            parse_weight_expr("t^2 + x")
        assert err.value.span == (6, 7)

    def test_unexpected_character(self):
        with pytest.raises(ExpressionError, match="unexpected character"):
            parse_mean_expr("x $ y")

    def test_empty_input(self):
        with pytest.raises(ExpressionError, match="unexpected end of input"):
            parse_mean_expr("")

    def test_wrong_arity(self):
        with pytest.raises(ExpressionError, match="min takes 2 arguments"):
            parse_mean_expr("min(x)")
        with pytest.raises(ExpressionError, match="sqrt takes 1 argument"):
            parse_mean_expr("sqrt(x, y)")

    def test_huge_literal_rejected(self):
        with pytest.raises(ExpressionError, match="out of range"):
            parse_mean_expr("1e999")

    def test_deep_nesting_is_an_error_not_a_crash(self):
        src = "(" * 5000 + "x" + ")" * 5000
        with pytest.raises(ExpressionError, match="deeply nested"):
            parse_mean_expr(src)

    def test_long_power_chain_is_an_error_not_a_crash(self):
        with pytest.raises(ExpressionError, match="deeply nested"):
            parse_mean_expr("2" + "^1" * 600)

    def test_long_sum_chain_is_rejected_at_the_operator_past_the_bound(self):
        # the k-th "+" builds a node of height k + 1
        with pytest.raises(ExpressionError, match="deeply nested") as err:
            parse_mean_expr("x" + "+x" * 1200)
        assert err.value.span == (2 * _MAX_DEPTH - 1, 2 * _MAX_DEPTH)

    def test_tree_at_the_bound_evaluates_inside_a_compound_inside_distance(self):
        src = "(x+y)/2" + "*1" * (_MAX_DEPTH - 3)  # (x+y)/2 has height 3
        with pytest.raises(ExpressionError, match="deeply nested"):
            parse_mean_expr(src + "*1")
        tree = parse_mean_expr(src)
        assert parse_mean_expr(format_expression(tree)) == tree
        mean = expr_to_mean(tree, ms.POSITIVE_REALS).mean
        window = ms.Interval.closed(1.0, 4.0)
        est = ms.distance(ms.compound(mean, ms.make_arithmetic()), ms.make_geometric(),
                          window, 8)
        # the compound is A itself; d(A, G) on [1, r] is (sqrt(r)-1) / (2 (sqrt(r)+1))
        assert 0.0 < est.value <= 1.0 / 6.0 + 1e-15

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError):
            parse_mean_expr("x + y )")


class TestEvaluationFaults:
    def test_sqrt_of_negative(self):
        with pytest.raises(EvaluationError):
            ev("sqrt(x-y)", 1.0, 2.0)

    def test_log_of_zero(self):
        with pytest.raises(EvaluationError):
            ev("log(x-y)", 2.0, 2.0)

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            ev("x/(x-y)", 3.0, 3.0)

    def test_negative_base_fractional_power(self):
        with pytest.raises(EvaluationError):
            ev("(x-y)^0.5", 1.0, 2.0)

    def test_overflow_is_a_fault(self):
        with pytest.raises(EvaluationError):
            ev("exp(x)", 1e4, 0.0)

    # nan and inf are not integers: the same fault as any other fractional exponent
    @pytest.mark.parametrize("src, exponent", [("(0-x)^(x*1e300*1e300-y*1e300*1e300)", "nan"),
                                               ("(0-x)^(1e300*1e300)", "inf")])
    def test_negative_base_non_finite_exponent(self, src, exponent):
        with pytest.raises(EvaluationError) as err:
            ev(src, 2.0, 3.0)
        assert str(err.value).startswith(f"negative base -2.0 with non-integer exponent {exponent} at")
        build = ms.mean_from_source(src)
        assert build.report is None
        assert "non-integer exponent" in build.diagnostics[0]

    def test_builtin_atom_faults(self):
        for src, x, y in [("H", 1.0, -1.0), ("G", -1.0, 2.0), ("AGM", -1.0, 2.0)]:
            with pytest.raises(EvaluationError):
                ev(src, x, y)

    # the G and H kernels answer at these points (1.414 and -4); the atoms refuse them,
    # and AGM's as its own, not as an operand's
    @pytest.mark.parametrize("src, x, y", [("G", -2.0, -1.0), ("H", -1.0, 2.0),
                                           ("G", 0.0, 1.0), ("AGM", -2.0, -1.0)])
    def test_builtin_atom_checks_the_builtin_domain(self, src, x, y):
        mean = expr_to_mean(parse_mean_expr(f"{src}+0*x"), ms.ALL_REALS).mean
        for f in (lambda: ev(src, x, y), lambda: mean(x, y)):
            with pytest.raises(EvaluationError) as err:
                f()
            assert str(err.value) == (f"{src} is undefined at ({x}, {y}): "
                                      f"({x}, {y}) is outside the domain (0, inf) of {src}")


class TestNotATree:
    def test_format_and_compile_refuse_what_is_not_a_node(self):
        with pytest.raises(TypeError, match="^not an expression node: 3$"):
            format_expression(3)
        with pytest.raises(TypeError, match="^not an expression node: 'x'$"):
            _compile("x")

    def test_a_binding_without_y_is_refused(self):
        with pytest.raises(TypeError) as err:
            evaluate(parse_mean_expr("x + y"), {"x": 1.0})
        assert str(err.value) == "variable 'y' is not one of ('x',)"


class TestBuiltinsInExpressions:
    def test_bare_names(self):
        assert ev("A", 2.0, 4.0) == 3.0
        assert ev("G", 1.0, 4.0) == 2.0
        assert ev("H", 1.0, 3.0) == 1.5
        assert ev("AGM", 1.0, 2.0) == pytest.approx(1.4567910310469069, abs=1e-13)

    def test_composed(self):
        assert ev("(A+H)/2", 1.0, 3.0) == pytest.approx((2.0 + 1.5) / 2)

    @pytest.mark.parametrize("src", ["A", "G", "H", "AGM"])
    def test_diagonal_is_exact(self, src):
        # the checked built-in returns x there; (x + x) / 2 would overflow
        assert ev(src, 1.5e308, 1.5e308) == 1.5e308
        assert ev(src, 0.1, 0.1) == 0.1

    def test_not_available_in_weights(self):
        with pytest.raises(ExpressionError, match="unknown identifier"):
            parse_weight_expr("A")


# strategy for random well-formed trees over x, y
_leaves = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
    st.sampled_from([Var("x"), Var("y"), BuiltinMean("A"), BuiltinMean("G")]),
)


def _compound_exprs(children):
    unary = st.builds(Unary, st.just("-"), children)
    binary = st.builds(Binary, st.sampled_from(["+", "-", "*", "/", "^"]),
                       children, children)
    one_arg = st.builds(lambda f, a: Call(f, (a,)),
                        st.sampled_from(["sqrt", "exp", "log", "abs"]), children)
    two_arg = st.builds(lambda f, a, b: Call(f, (a, b)),
                        st.sampled_from(["min", "max", "pow"]), children, children)
    return st.one_of(unary, binary, one_arg, two_arg)


_trees = st.recursive(_leaves, _compound_exprs, max_leaves=25)


def _height(e):
    if isinstance(e, Unary):
        return 1 + _height(e.operand)
    if isinstance(e, Binary):
        return 1 + max(_height(e.left), _height(e.right))
    if isinstance(e, Call):
        return 1 + max(map(_height, e.args))
    return 1


@st.composite
def _trees_at_the_bound(draw):
    """A random tree grown one level at a time, by a random kind of node, to height _MAX_DEPTH."""
    tree = draw(_trees)
    for _ in range(_MAX_DEPTH - _height(tree)):  # over a leaf, each new node adds one level
        kind, other = draw(st.sampled_from(["-", "+", "*", "/", "^", "pow", "sqrt"])), draw(_leaves)
        if kind == "-" and draw(st.booleans()):
            tree = Unary("-", tree)
        elif kind in ("pow", "sqrt"):
            tree = Call(kind, (tree, other) if kind == "pow" else (tree,))
        else:
            tree = Binary(kind, *((tree, other) if draw(st.booleans()) else (other, tree)))
    return tree


class TestTreeValues:
    def test_equality_is_type_strict(self):
        assert Var("G") != BuiltinMean("G") and BuiltinMean("G") != Var("G")
        assert parse_mean_expr("G") == BuiltinMean("G") and parse_mean_expr("x") == Var("x")
        assert Num(2.0) == Num(2) and Num(2.0) != Num(3.0)
        assert Unary("-", Var("x")) != Binary("-", Num(0.0), Var("x"))
        assert Call("min", (Var("x"), Var("y"))) != Call("max", (Var("x"), Var("y")))
        assert Var("x") != "x" and Num(2.0) != 2.0

    @given(_trees)
    def test_equal_trees_hash_equal(self, tree):
        again = parse_mean_expr(format_expression(tree))
        assert again == tree and hash(again) == hash(tree)
        assert len({tree, again}) == 1

    def test_nodes_are_read_only(self):
        tree = parse_mean_expr("-min(x, y) + sqrt(A) * 2.0 ^ G")
        nodes = [tree, tree.left, tree.left.operand, tree.right, tree.right.left,
                 tree.right.left.args[0], tree.right.right.left, tree.right.right.right]
        assert [type(n) for n in nodes] == [Binary, Unary, Call, Binary, Call, BuiltinMean,
                                            Num, BuiltinMean]
        for node in nodes:
            for name in node._fields:
                with pytest.raises(AttributeError):
                    setattr(node, name, Var("y"))
        assert tree == parse_mean_expr("-min(x, y) + sqrt(A) * 2.0 ^ G")


class TestRoundTrip:
    @given(_trees)
    def test_print_then_parse_is_identity(self, tree):
        assert parse_mean_expr(format_expression(tree)) == tree

    @given(_trees_at_the_bound())
    @settings(phases=[Phase.explicit, Phase.generate])  # shrinking 120-level trees takes minutes
    def test_print_then_parse_is_identity_at_the_height_bound(self, tree):
        assert _height(tree) == _MAX_DEPTH
        assert parse_mean_expr(format_expression(tree)) == tree

    @pytest.mark.parametrize("src", ["-" * (_MAX_DEPTH - 1) + "x",
                                     "x" + "^x" * (_MAX_DEPTH - 1),
                                     "(" * (_MAX_DEPTH - 1) + "x" + ")^x" * (_MAX_DEPTH - 1),
                                     "x" + "^-x" * (_MAX_DEPTH // 2 - 1)],
                             ids=["unary", "power", "power-of-power", "power-of-minus"])
    def test_unary_and_power_chains_at_the_bound_round_trip(self, src):
        tree = parse_mean_expr(src)
        assert parse_mean_expr(format_expression(tree)) == tree

    @given(st.text(max_size=80))
    def test_parser_never_crashes(self, src):
        try:
            parse_mean_expr(src)
        except ExpressionError:
            pass

    @given(st.text(alphabet="xy+-*/^()0123456789. eEtminaxsqrtlogp,_", max_size=60))
    @settings(max_examples=200)
    def test_parser_never_crashes_on_plausible_input(self, src):
        try:
            parse_mean_expr(src)
        except ExpressionError:
            pass

    def test_unicode_digits_error_instead_of_crashing(self):
        # these pass str.isdigit() but are not float literals
        for src in ["²", ".²", "x+①"]:
            with pytest.raises(ExpressionError):
                parse_mean_expr(src)

    def test_tokens_follow_the_unicode_classes_of_str(self):
        # a digit that float() reads is a number; a numeric character that is no digit is
        # not a token; a digit that float() rejects is a bad literal
        assert parse_mean_expr("٣+x") == Binary("+", Num(3.0), Var("x"))
        with pytest.raises(ExpressionError, match="unexpected character '½' at position 1$"):
            parse_mean_expr("½")
        with pytest.raises(ExpressionError, match="bad number literal '²' at position 1$"):
            parse_mean_expr("²")


def _oracle_power(a, b, env):
    if a < 0.0 and (math.isnan(b) or math.isinf(b) or b != math.floor(b)):
        raise EvaluationError(f"negative base {a} with non-integer exponent {b} at {env}")
    if a == 0.0 and b < 0.0:
        raise EvaluationError(f"zero base with negative exponent at {env}")
    try:
        return a ** b
    except OverflowError:
        raise EvaluationError(f"overflow in power at {env}") from None


def _oracle_call(func, args, env):
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
    return _oracle_power(args[0], args[1], env)


def _oracle_walk(e, env):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, BuiltinMean):
        x, y = env["x"], env["y"]
        mean = _builtin(e.name)
        try:
            if not (mean.domain.contains(x) and mean.domain.contains(y)):
                raise ms.DomainError(f"({x}, {y}) is outside the domain {mean.domain} "
                                     f"of {e.name}")
            return x if x == y else mean.fn(x, y)
        except (ArithmeticError, ValueError) as exc:
            raise EvaluationError(f"{e.name} is undefined at ({x}, {y}): {exc}") from None
    if isinstance(e, Unary):
        return -_oracle_walk(e.operand, env)
    if isinstance(e, Binary):
        a = _oracle_walk(e.left, env)
        b = _oracle_walk(e.right, env)
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
        return _oracle_power(a, b, env)
    return _oracle_call(e.func, [_oracle_walk(a, env) for a in e.args], env)


def oracle_evaluate(e, env):
    """The reference semantics: a recursive walk of the tree at each call."""
    v = _oracle_walk(e, env)
    if not math.isfinite(v):
        raise EvaluationError(f"expression produced a non-finite value at {env}")
    return v


def _outcome(f, *args):
    """The value's exact bits, or the exception's type and message."""
    try:
        return f(*args).hex()
    except Exception as exc:
        return type(exc), str(exc)


_weight_trees = st.recursive(
    st.one_of(st.builds(Num, st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
              st.just(Var("t"))),
    _compound_exprs, max_leaves=25)
# zeros, both signs, and magnitudes from 1e-300 to 1e300
_coords = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.builds(lambda sign, m, k: sign * m * 10.0 ** k, st.sampled_from([1.0, -1.0]),
              st.floats(min_value=1.0, max_value=9.99), st.integers(-300, 299)))


class TestCompiledAgainstTreeWalk:
    @given(_trees, _coords, _coords)
    @settings(max_examples=300)
    def test_mean_trees(self, tree, x, y):
        env = {"x": x, "y": y}
        assert _outcome(evaluate, tree, env) == _outcome(oracle_evaluate, tree, env)

    @given(_weight_trees, _coords)
    @settings(max_examples=300)
    def test_weight_trees(self, tree, t):
        want = _outcome(oracle_evaluate, tree, {"t": t})
        assert _outcome(evaluate, tree, {"t": t}) == want
        assert _outcome(expr_to_weight(tree, ms.ALL_REALS).fn, t) == want

    def test_fault_messages_show_the_binding(self):
        tree = parse_mean_expr("log(x-y)")
        for f in (lambda: evaluate(tree, {"x": 2.0, "y": 2.5}),
                  lambda: expr_to_mean(tree, ms.ALL_REALS).mean(2.0, 2.5)):
            with pytest.raises(EvaluationError) as err:
                f()
            assert str(err.value) == "log of non-positive value -0.5 at {'x': 2.0, 'y': 2.5}"


class TestGeneratedCode:
    """Cases of the code generator that the random trees above rarely or never reach."""

    _inf, _nan = Num(math.inf), Num(math.nan)

    @pytest.mark.parametrize("tree", [
        Binary("*", Var("x"), _inf),  # x*1e999, had the parser taken the literal
        Binary("/", Var("x"), _inf),
        Binary("^", Var("x"), Unary("-", _inf)),
        Call("exp", (Unary("-", _inf),)),
        Call("min", (Var("x"), _inf)),
        Call("max", (Var("x"), _nan)),
        Call("max", (_nan, Var("x"))),
        Call("min", (_nan, Var("y"))),
        Binary("+", Var("x"), _nan),
    ], ids=format_expression)
    def test_constants_without_a_python_literal(self, tree):
        for x, y in [(2.0, 3.0), (0.5, -1.0), (0.0, 0.0)]:
            env = {"x": x, "y": y}
            assert _outcome(evaluate, tree, env) == _outcome(oracle_evaluate, tree, env)

    def test_constants_and_atoms_are_arguments_not_source(self):
        mean = expr_to_mean(parse_mean_expr("x*1234.5 + G"), ms.POSITIVE_REALS).mean
        assert mean(1.0, 4.0) == 1236.5
        code = mean.fn.__code__
        assert 1234.5 not in code.co_consts and "G" not in code.co_consts

    def test_min_and_max_of_signed_zeros_keep_pythons_choice(self):
        for x, y in [(0.0, -0.0), (-0.0, 0.0)]:
            for func, python in [("min", min), ("max", max)]:
                got = ev(f"{func}(x, y)", x, y)
                assert math.copysign(1.0, got) == math.copysign(1.0, python(x, y))

    @pytest.mark.parametrize("src, x, y, first", [
        ("log(x-y)+sqrt(y-x)", 1.0, 1.0, "log of non-positive value 0.0"),
        ("log(x-y)+sqrt(x-y)", 1.0, 2.0, "log of non-positive value -1.0"),
        ("sqrt(x-y)+log(x-y)", 1.0, 2.0, "sqrt of negative value -1.0"),
        ("log(sqrt(x-y))", 1.0, 2.0, "sqrt of negative value -1.0"),
        ("(x-y)^0.5/(x-x)", 1.0, 2.0, "negative base -1.0 with non-integer exponent 0.5"),
        ("1/(x-x) + exp(y)", 1.0, 1e4, "division by zero"),
        ("G + log(x)", -1.0, 2.0, "G is undefined at (-1.0, 2.0)"),
    ])
    def test_the_first_fault_in_evaluation_order_is_named(self, src, x, y, first):
        env = {"x": x, "y": y}
        tree = parse_mean_expr(src)
        with pytest.raises(EvaluationError) as err:
            evaluate(tree, env)
        assert str(err.value).startswith(first)
        assert _outcome(evaluate, tree, env) == _outcome(oracle_evaluate, tree, env)

    def test_longest_sum_chain_matches_the_tree_walk(self):
        src = "+".join(["x", "y", "0.1", "sqrt(x)"][i % 4] for i in range(_MAX_DEPTH - 1))
        tree = parse_mean_expr(src)
        assert _height(tree) == _MAX_DEPTH - 1
        for x, y in [(2.0, 3.0), (1e300, 1e-300), (-1.0, 4.0)]:
            env = {"x": x, "y": y}
            assert _outcome(evaluate, tree, env) == _outcome(oracle_evaluate, tree, env)

    def test_nested_calls_at_the_bound_match_the_tree_walk(self):
        tree = parse_mean_expr("sqrt(" * (_MAX_DEPTH - 1) + "x" + ")" * (_MAX_DEPTH - 1))
        assert _height(tree) == _MAX_DEPTH
        for x in (0.0, 2.0, 1e308, -1.0):
            env = {"x": x, "y": 1.0}
            assert _outcome(evaluate, tree, env) == _outcome(oracle_evaluate, tree, env)

    @given(_trees_at_the_bound(), _coords, _coords)
    @settings(max_examples=50, phases=[Phase.explicit, Phase.generate])
    def test_trees_at_the_bound_match_the_tree_walk(self, tree, x, y):
        env = {"x": x, "y": y}
        assert _outcome(evaluate, tree, env) == _outcome(oracle_evaluate, tree, env)


class TestConstantFolding:
    """A subtree of constants is computed once, at build, where it does not fault, and a
    constant operand decides the fault tests it can in the checked form too."""

    @staticmethod
    def _checked(src):
        """The statements of the parsed mean's checked block, and the values of its constants."""
        mean = expr_to_mean(parse_mean_expr(src), ms.ALL_REALS).mean
        statements, _, namespace = mean.fn.inline[0]
        return statements, [v for k, v in namespace.items() if k not in _HELPERS]

    def test_a_subtree_of_constants_is_one_argument(self):
        src = "((x^1.778+y^1.778)/2)^(1/1.778)"
        statements, constants = self._checked(src)
        assert constants == [1.778, 1.778, 2.0, 1 / 1.778]
        for x, y in [(1.0, 3.0), (1e-300, 2.0), (-1.0, 2.0)]:
            env = {"x": x, "y": y}
            tree = parse_mean_expr(src)
            assert _outcome(evaluate, tree, env) == _outcome(oracle_evaluate, tree, env)

    @pytest.mark.parametrize("src, kept, left_out", [
        ("x / 2", [], ["division by zero"]),
        ("x / (1 - 1 + y)", ["division by zero"], []),
        ("x ^ 2", ["overflow in power"], ["negative base", "zero base", "floor"]),
        ("x ^ 0.5", ["if x < 0.0:", "negative base"], ["zero base", "floor"]),
        ("x ^ -1", ["if x == 0.0:", "zero base"], ["negative base"]),
        ("pow(x, y)", ["floor", "zero base"], []),
    ])
    def test_a_constant_operand_decides_its_tests(self, src, kept, left_out):
        statements, _ = self._checked(src)
        assert all(text in statements for text in kept)
        assert not any(text in statements for text in left_out)
        tree = parse_mean_expr(src)
        for x, y in [(2.0, 3.0), (0.0, 1.0), (-2.0, 0.0), (1e300, -1.0)]:
            env = {"x": x, "y": y}
            assert _outcome(evaluate, tree, env) == _outcome(oracle_evaluate, tree, env)

    @pytest.mark.parametrize("src, message", [
        ("x + log(0)", "log of non-positive value 0.0"),
        ("x + exp(1000)", "overflow in exp"),
        ("x * (-8)^(1/3)", "negative base -8.0 with non-integer exponent 0.3333333333333333"),
        ("y / (1 - 1)", "division by zero"),
        ("0^-1 + y", "zero base with negative exponent"),
        ("10^400 - x", "overflow in power"),
    ])
    def test_a_subtree_of_constants_that_faults_raises_with_its_binding(self, src, message):
        tree = parse_mean_expr(src)
        env = {"x": 1.0, "y": 2.0}
        with pytest.raises(EvaluationError) as err:
            evaluate(tree, env)
        assert str(err.value) == f"{message} at {{'x': 1.0, 'y': 2.0}}"
        assert _outcome(evaluate, tree, env) == _outcome(oracle_evaluate, tree, env)


class TestExprToMean:
    def test_valid_mean_reports_clean(self):
        build = expr_to_mean(parse_mean_expr("(x+y)/2"), ms.ALL_REALS)
        assert build.report is not None and build.report.all_ok
        assert build.diagnostics == ()
        assert build.mean(2.0, 4.0) == 3.0

    def test_min_flagged_but_constructed(self):
        build = expr_to_mean(parse_mean_expr("min(x,y)"), ms.POSITIVE_REALS)
        assert build.report is not None and not build.report.axiom_iii_ok
        assert any("axiom iii" in d for d in build.diagnostics)
        assert build.mean(2.0, 5.0) == 2.0

    def test_projection_flagged(self):
        build = expr_to_mean(parse_mean_expr("x"), ms.POSITIVE_REALS)
        assert not build.report.axiom_i_ok
        assert any("axiom i" in d for d in build.diagnostics)

    def test_partial_expression_surfaces_fault(self):
        # sqrt(x - y) faults on half the square; construction still succeeds
        build = expr_to_mean(parse_mean_expr("sqrt(x-y)+y"), ms.POSITIVE_REALS)
        assert build.report is None
        assert any("sampling aborted" in d for d in build.diagnostics)

    def test_canonical_sources_match_builtins(self, builtins, unit_window):
        A, G, H = builtins
        for src, ref in [("(x+y)/2", A), ("sqrt(x*y)", G), ("2*x*y/(x+y)", H)]:
            build = expr_to_mean(parse_mean_expr(src), ms.POSITIVE_REALS)
            for x, y in ms.sample_pairs(unit_window, 100, seed=33):
                got = build.mean(x, y)
                assert abs(got - ref(x, y)) <= 1e-15 * max(1.0, abs(got))
