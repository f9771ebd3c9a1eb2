import ast
import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import meanscape as ms
from meanscape import core
from meanscape.algebra import (_DIAG_GUARD, OrderRelation, _classify_ratio, _endpoint_weighted,
                               _linspace)
from meanscape.core import common_domain

scaled = st.floats(min_value=1e-300, max_value=1e300)
_any_positive = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
                          st.integers(-1073, 1024))
points = st.tuples(st.floats(min_value=0.1, max_value=10.0),
                   st.floats(min_value=0.1, max_value=10.0))


def off_diagonal(pair, margin=1e-3):
    x, y = pair
    return abs(x - y) > margin


class TestPhi:
    def test_phi_of_arithmetic_is_zero(self, unit_window):
        f = ms.phi(ms.make_arithmetic())
        for x, y in ms.sample_pairs(unit_window, 100, seed=1):
            assert abs(f(x, y)) < 1e-13

    def test_phi_of_geometric(self):
        f = ms.phi(ms.make_geometric())
        assert f(4.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-14)
        # half the log ratio everywhere
        assert f(9.0, 1.0) == pytest.approx(0.5 * math.log(9.0), abs=1e-13)

    def test_phi_of_harmonic(self):
        f = ms.phi(ms.make_harmonic())
        assert f(math.e, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert f(5.0, 2.0) == pytest.approx(math.log(5.0) - math.log(2.0), abs=1e-13)

    @given(points.filter(off_diagonal))
    def test_asymmetry(self, pair):
        x, y = pair
        for m in (ms.make_geometric(), ms.make_harmonic()):
            f = ms.phi(m)
            assert f(x, y) + f(y, x) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_guard(self):
        f = ms.phi(ms.make_geometric())
        assert f(1.0, 1.0) == 0.0
        assert f(1.0, 1.0 + 1e-14) == 0.0

    @given(st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 1023)))
    @example(0.0)
    def test_kernel_is_zero_on_the_diagonal_without_a_mean_call(self, x):
        # the distance grids call phi's kernel at x == y, where its diagonal band answers
        def kernel(x, y):
            raise AssertionError("mean kernel called")

        f = ms.phi(ms.MeanFunction("M", ms.ALL_REALS, kernel)).fn
        assert f(x, x) == 0.0 and f(-x, -x) == 0.0

    def test_invalid_mean_detected(self):
        fake = ms.MeanFunction("min", ms.ALL_REALS, lambda x, y: min(x, y))
        with pytest.raises(ms.InvalidMeanError):
            ms.phi(fake)(1.0, 2.0)

    @pytest.mark.parametrize("x, y", [(1e300, 1e-300), (1e-300, 1e300), (1e160, 1e-160),
                                      (1e308, 5e-324), (1e-10, 1e300)])
    def test_ratio_out_of_float_range(self, x, y):
        # -(H - x)/(H - y) over- or underflows here; the log is the difference of the logs
        H = ms.make_harmonic()
        f = ms.phi(H)
        v = H(x, y)
        want = math.log(abs(v - x)) - math.log(abs(v - y))
        assert math.isfinite(want) and f(x, y) == want
        assert f(y, x) == -want
        # mpmath at 50 digits, from the same value of H
        exact = mpmath.log(-(mpmath.mpf(v) - x) / (mpmath.mpf(v) - y))
        assert f(x, y) == pytest.approx(float(exact), rel=1e-15)

    @given(st.floats(min_value=1e-300, max_value=1e300), st.floats(min_value=1e-300, max_value=1e300))
    def test_normal_ratio_keeps_its_bits(self, x, y):
        for m in (ms.make_geometric(), ms.make_harmonic()):
            if math.isclose(x, y, rel_tol=_DIAG_GUARD):
                continue
            v = m(x, y)
            r = -(v - x) / (v - y)
            if 2.2250738585072014e-308 <= r < math.inf:
                assert ms.phi(m)(x, y) == math.log(r)


class TestCallsOutsideTheDomain:
    def test_an_asymmetric_function_names_the_point_and_itself(self):
        with pytest.raises(ms.DomainError) as err:
            ms.phi(ms.make_geometric())(-1.0, 2.0)
        assert str(err.value) == "(-1.0, 2.0) is outside the domain (0, inf) of phi(G)"

    def test_a_weight_names_the_point_and_itself(self):
        weight = ms.WeightFunction(ms.Interval(0.0, 1.0), lambda t: t, "P")
        with pytest.raises(ms.DomainError) as err:
            weight(2.0)
        assert str(err.value) == "2.0 is outside the domain (0, 1) of weight P"


class TestPhiInverse:
    def test_zero_map_gives_arithmetic(self):
        zero = ms.AsymmetricFunction(ms.ALL_REALS, lambda x, y: 0.0, "0")
        m = ms.phi_inverse(zero)
        for x, y in [(1.0, 4.0), (-3.0, 7.0), (0.5, 2.5)]:
            assert m(x, y) == pytest.approx((x + y) / 2, rel=1e-15)

    def test_log_ratio_gives_harmonic(self, unit_window):
        f = ms.AsymmetricFunction(ms.POSITIVE_REALS,
                                  lambda x, y: math.log(x) - math.log(y), "logratio")
        m = ms.phi_inverse(f)
        H = ms.make_harmonic()
        for x, y in ms.sample_pairs(unit_window, 100, seed=2):
            assert m(x, y) == pytest.approx(H(x, y), rel=1e-12)

    @given(points.filter(off_diagonal))
    def test_round_trip_on_builtins(self, pair):
        x, y = pair
        for m in (ms.make_geometric(), ms.make_harmonic()):
            back = ms.phi_inverse(ms.phi(m))
            assert back(x, y) == pytest.approx(m(x, y), rel=1e-12)

    def test_round_trip_on_random_normal_means(self, mean_family, unit_window):
        for m in mean_family[3:]:
            back = ms.phi_inverse(ms.phi(m))
            for x, y in ms.sample_pairs(unit_window, 60, seed=9, min_gap=1e-6):
                assert back(x, y) == pytest.approx(m(x, y), rel=1e-12)

    def test_overflow_guard(self):
        big = ms.AsymmetricFunction(ms.ALL_REALS,
                                    lambda x, y: 1000.0 if x > y else -1000.0, "big")
        m = ms.phi_inverse(big)
        assert m(5.0, 2.0) == 2.0  # f -> +inf selects y
        assert m(2.0, 5.0) == 2.0


class TestStar:
    def test_neutral_element(self, mean_family, unit_window):
        A = ms.make_arithmetic()
        for m in mean_family:
            composed = ms.star(A, m)
            for x, y in ms.sample_pairs(unit_window, 40, seed=3):
                assert composed(x, y) == pytest.approx(m(x, y), rel=1e-12)

    def test_gg_is_harmonic(self, unit_window):
        G, H = ms.make_geometric(), ms.make_harmonic()
        gg = ms.star(G, G)
        for x, y in ms.sample_pairs(unit_window, 200, seed=4):
            assert abs(gg(x, y) - H(x, y)) <= 1e-12 * max(1.0, H(x, y))

    def test_gh_value(self):
        got = ms.star(ms.make_geometric(), ms.make_harmonic())(1.0, 4.0)
        assert got == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_closed_form_matches_phi_route(self, mean_family, unit_window):
        # the rational form and the transform route must agree tightly
        for m1, m2 in [(mean_family[1], mean_family[2]), (mean_family[3], mean_family[4])]:
            direct = ms.star(m1, m2)
            via_phi = ms.phi_inverse(ms.phi(m1) + ms.phi(m2))
            for x, y in ms.sample_pairs(unit_window, 60, seed=5, min_gap=1e-6):
                assert direct(x, y) == pytest.approx(via_phi(x, y), rel=1e-12)

    @given(points.filter(off_diagonal))
    def test_commutative(self, pair):
        x, y = pair
        G, H = ms.make_geometric(), ms.make_harmonic()
        assert ms.star(G, H)(x, y) == pytest.approx(ms.star(H, G)(x, y), rel=1e-12)

    def test_associative(self, mean_family, unit_window):
        m1, m2, m3 = mean_family[1], mean_family[3], mean_family[4]
        left = ms.star(ms.star(m1, m2), m3)
        right = ms.star(m1, ms.star(m2, m3))
        for x, y in ms.sample_pairs(unit_window, 60, seed=6):
            assert left(x, y) == pytest.approx(right(x, y), rel=1e-9)

    def test_homomorphism(self, mean_family, unit_window):
        m1, m2 = mean_family[1], mean_family[3]
        lhs = ms.phi(ms.star(m1, m2))
        f1, f2 = ms.phi(m1), ms.phi(m2)
        for x, y in ms.sample_pairs(unit_window, 60, seed=7, min_gap=1e-3):
            expect = f1(x, y) + f2(x, y)
            assert abs(lhs(x, y) - expect) <= 1e-9 * max(1.0, abs(expect))

    def test_domain_mismatch(self):
        left = ms.MeanFunction("L", ms.Interval.closed(0.0, 1.0), lambda x, y: (x + y) / 2)
        right = ms.MeanFunction("R", ms.Interval.closed(5.0, 6.0), lambda x, y: (x + y) / 2)
        with pytest.raises(ms.DomainError):
            ms.star(left, right)


class TestGroupInverse:
    def test_arithmetic_self_inverse(self, unit_window):
        A = ms.make_arithmetic()
        inv = ms.group_inverse(A)
        for x, y in ms.sample_pairs(unit_window, 50, seed=8):
            assert inv(x, y) == pytest.approx(A(x, y), rel=1e-15)

    def test_geometric_value(self):
        assert ms.group_inverse(ms.make_geometric())(1.0, 4.0) == pytest.approx(3.0)

    def test_inverse_law(self, mean_family, unit_window):
        A = ms.make_arithmetic()
        for m in mean_family:
            prod = ms.star(m, ms.group_inverse(m))
            for x, y in ms.sample_pairs(unit_window, 40, seed=9):
                assert prod(x, y) == pytest.approx(A(x, y), rel=1e-12)

    @given(_any_positive, _any_positive, st.sampled_from(["A", "G", "H", "min", "max"]))
    @example(1.6e308, 1.5e308, "G")  # x + y overflows
    @example(1e-300, 1e300, "max")  # M is y, and x + y - M cancelled to 0
    def test_within_an_ulp_of_the_exact_value(self, x, y, which):
        m = {"A": ms.make_arithmetic(), "G": ms.make_geometric(), "H": ms.make_harmonic(),
             "min": ms.MeanFunction("min", ms.POSITIVE_REALS, min),
             "max": ms.MeanFunction("max", ms.POSITIVE_REALS, max)}[which]
        v = m(x, y)
        with mpmath.workprec(2200):  # x + y - M of the same float M, exact, rounded once
            exact = float(mpmath.mpf(x) + y - v)
        assert abs(ms.group_inverse(m)(x, y) - exact) <= math.ulp(exact)


class TestGroupSymmetry:
    def test_classical_reflections(self):
        A, G, H = ms.make_arithmetic(), ms.make_geometric(), ms.make_harmonic()
        assert ms.group_symmetry(A, G)(1.0, 4.0) == pytest.approx(3.0, rel=1e-14)
        assert ms.group_symmetry(G, A)(1.0, 4.0) == pytest.approx(1.6, rel=1e-14)
        assert ms.group_symmetry(H, A)(1.0, 2.0) == pytest.approx(1.2, rel=1e-14)

    def test_shortcut_matches_general_formula(self, mean_family, unit_window):
        # built-in m0 takes the closed form; a wrapped copy takes the
        # rational formula; they must agree
        G = ms.make_geometric()
        g_clone = ms.MeanFunction("Gc", G.domain, lambda x, y: math.sqrt(x * y))
        m1 = mean_family[3]
        short = ms.group_symmetry(G, m1)
        general = ms.group_symmetry(g_clone, m1)
        for x, y in ms.sample_pairs(unit_window, 60, seed=10, min_gap=1e-6):
            assert short(x, y) == pytest.approx(general(x, y), rel=1e-10)

    def test_matches_phi_route(self, mean_family, unit_window):
        m0, m1 = mean_family[3], mean_family[1]
        direct = ms.group_symmetry(m0, m1)
        via_phi = ms.phi_inverse(2.0 * ms.phi(m0) - ms.phi(m1))
        for x, y in ms.sample_pairs(unit_window, 60, seed=11, min_gap=1e-6):
            assert direct(x, y) == pytest.approx(via_phi(x, y), rel=1e-10)

    def test_harmonic_decomposition(self, mean_family, unit_window):
        # reflection through H composes from reflections through G and A
        A, G, H = ms.make_arithmetic(), ms.make_geometric(), ms.make_harmonic()
        for m in mean_family:
            lhs = ms.group_symmetry(H, m)
            rhs = ms.group_symmetry(G, ms.group_symmetry(A, ms.group_symmetry(G, m)))
            for x, y in ms.sample_pairs(unit_window, 40, seed=12):
                assert abs(lhs(x, y) - rhs(x, y)) <= 1e-9 * max(1.0, abs(lhs(x, y)))


def _oracle_reflection(which, x, y, v1):
    """phi_inverse(2 phi(M0) - phi(M1)) at 60 digits, M0 exact, M1 = v1."""
    with mpmath.workdps(60):
        x, y, v1 = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(v1)
        v0 = {"A": (x + y) / 2, "G": mpmath.sqrt(x * y), "H": 2 * x * y / (x + y)}[which]
        e = mpmath.exp(2 * mpmath.log(-(v0 - x) / (v0 - y))
                       - mpmath.log(-(v1 - x) / (v1 - y)))
        return float((x + y * e) / (e + 1))


def _oracle_points(seed):
    """Wide-ratio pairs on [1e-6, 1e6], wide-ratio pairs on [1e-150, 1e-12]
    and pairs at relative gaps 1e-11..1e-3 at magnitudes 1e-150..1e6.

    Below about 1e-150 the products in the G and H kernels leave the normal
    range, so smaller magnitudes would test the kernels, not the reflection.
    """
    rng = np.random.default_rng(seed)
    wide = 10.0 ** rng.uniform(-6.0, 6.0, size=(120, 2))
    low = rng.uniform(-144.0, -18.0, size=(80, 1))
    small = 10.0 ** (low + rng.uniform(-6.0, 6.0, size=(80, 2)))
    x = 10.0 ** rng.uniform(-150.0, 6.0, size=120)
    gap = rng.choice([-1.0, 1.0], size=120) * 10.0 ** rng.uniform(-11.0, -3.0, size=120)
    near = np.column_stack([x, x * (1.0 + gap)])
    return [(float(p), float(q)) for p, q in np.vstack([wide, small, near])]


class TestReflectionOracle:
    """Reflections through the built-ins against a 60-digit evaluation of
    the defining formula, fed the same M1 value the code computed."""

    # on (0, inf), so that sigma_closed_form accepts them for G and H too
    M1S = [
        ms.MeanFunction("A", ms.POSITIVE_REALS, lambda x, y: (x + y) / 2),
        ms.make_geometric(), ms.make_harmonic(),
        ms.MeanFunction("C", ms.POSITIVE_REALS, lambda x, y: (x * x + y * y) / (x + y)),
        ms.MeanFunction("Q", ms.POSITIVE_REALS, lambda x, y: math.sqrt((x * x + y * y) / 2)),
        ms.MeanFunction("P", ms.POSITIVE_REALS,
                        lambda x, y: ((math.sqrt(x) + math.sqrt(y)) / 2) ** 2),
    ]

    @pytest.mark.parametrize("which", ["A", "G", "H"])
    def test_group_symmetry_and_sigma(self, which):
        m0 = {"A": ms.make_arithmetic, "G": ms.make_geometric, "H": ms.make_harmonic}[which]()
        for m1 in self.M1S:
            reflected = ms.group_symmetry(m0, m1)
            sigma = ms.sigma_closed_form(which, m1)
            for x, y in _oracle_points(seed=13):
                want = _oracle_reflection(which, x, y, m1(x, y))
                tol = 1e-14 * abs(want) + 4.0 * math.ulp(want)
                assert abs(reflected(x, y) - want) <= tol, (m1.name, x, y)
                assert abs(sigma(x, y) - want) <= tol, (m1.name, x, y)

    # from 2^-1074 up: ldexp(0.5, -1074) rounds to 0, outside the domain of G and H
    @given(st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1073, 1023)),
           st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1073, 1023)),
           st.sampled_from("AGH"), st.sampled_from("AGH"))
    @example(1e-200, 1e200, "H", "G")
    @example(1e-300, 1e300, "H", "G")
    @example(3e-320, 1e300, "H", "G")
    @example(1e-160, 1e160, "H", "G")
    @example(1e-160, 1e160, "G", "H")
    @example(1e-115, 5e235, "H", "H")
    @example(2e-323, 1.5e-323, "A", "G")  # A rounds to x and G to y: the form is x
    @example(2e-323, 1.5e-323, "A", "A")  # A rounds to x: both weights are 0
    def test_arguments_far_apart_in_scale(self, x, y, which0, which1):
        # a scaled product or a numerator term leaves the normal range here, mostly
        builtins = {"A": ms.make_arithmetic, "G": ms.make_geometric, "H": ms.make_harmonic}
        m0, m1 = builtins[which0](), builtins[which1]()
        if math.isclose(x, y, rel_tol=_DIAG_GUARD):
            return
        for p, q in ((x, y), (y, x)):
            v0, v1 = m0(p, q), m1(p, q)
            if (v1 == p or v0 == q) and (v0 == p or v1 == q):
                # both products are 0 where both means round to an argument: 0/0
                with pytest.raises(ms.InvalidMeanError, match=r"is 0/0: both endpoint"):
                    ms.group_symmetry(m0, m1)(p, q)
                continue
            with mpmath.workdps(50):  # the rational form, from the same values of M0 and M1
                p_, q_, v0_, v1_ = map(mpmath.mpf, (p, q, v0, v1))
                a, b = (v1_ - p_) * (v0_ - q_) ** 2, (v0_ - p_) ** 2 * (v1_ - q_)
                want = float((p_ * a - q_ * b) / (a - b))
            got = ms.group_symmetry(m0, m1)(p, q)
            assert abs(got - want) <= 1e-14 * abs(want) + 4.0 * math.ulp(want), (p, q, got, want)

    def test_large_arguments_stay_finite(self):
        A, G, H = ms.make_arithmetic(), ms.make_geometric(), ms.make_harmonic()
        for scale in (1e80, 1e150):
            x, y = scale, 4.0 * scale
            assert ms.group_symmetry(A, G)(x, y) == pytest.approx(3.0 * scale, rel=1e-14)
            assert ms.group_symmetry(G, A)(x, y) == pytest.approx(1.6 * scale, rel=1e-14)
            assert ms.group_symmetry(H, G)(x, y) == pytest.approx(4.0 / 3.0 * scale, rel=1e-14)

    def test_small_arguments_keep_relative_accuracy(self):
        A, G, H = ms.make_arithmetic(), ms.make_geometric(), ms.make_harmonic()
        for scale in (1e-13, 1e-100, 1e-110):
            x, y = scale, 4.0 * scale
            assert ms.group_symmetry(G, A)(x, y) == pytest.approx(1.6 * scale, rel=1e-14, abs=0.0)
            assert ms.group_symmetry(A, G)(x, y) == pytest.approx(3.0 * scale, rel=1e-14, abs=0.0)
            assert ms.group_symmetry(H, G)(x, y) == pytest.approx(4.0 / 3.0 * scale,
                                                                  rel=1e-14, abs=0.0)
            sigma = ms.sigma_closed_form("G", self.M1S[0])
            assert sigma(x, y) == pytest.approx(1.6 * scale, rel=1e-14, abs=0.0)
            # star and phi share the relative diagonal band: G*G is H here
            assert ms.star(G, G)(x, y) == pytest.approx(1.6 * scale, rel=1e-14, abs=0.0)
            assert ms.star(A, A)(x, y) == pytest.approx(2.5 * scale, rel=1e-14, abs=0.0)
            assert ms.phi(G)(x, y) == pytest.approx(-math.log(2.0), rel=1e-14)
            assert ms.phi(G)(x, x * (1.0 + 1e-14)) == 0.0
        # below 1e-155 the unscaled star weights would underflow to 0/0
        x, y = 1e-170, 4e-170
        assert ms.star(A, A)(x, y) == pytest.approx(2.5e-170, rel=1e-14, abs=0.0)

    def test_builtins_where_the_product_leaves_the_float_range(self):
        # x*y underflows at 1e-170 and overflows at 1e200 and 1e300
        G, H = ms.make_geometric(), ms.make_harmonic()
        for scale in (1e-170, 1e200, 1e300):
            x, y = scale, 4.0 * scale
            assert G(x, y) == pytest.approx(2.0 * scale, rel=1e-15, abs=0.0)
            assert H(x, y) == pytest.approx(1.6 * scale, rel=1e-15, abs=0.0)
            assert ms.star(G, G)(x, y) == pytest.approx(1.6 * scale, rel=1e-14, abs=0.0)
            assert ms.group_symmetry(H, G)(x, y) == pytest.approx(4.0 / 3.0 * scale,
                                                                  rel=1e-14, abs=0.0)


# the exponents of a random normal mean, weight t^0.146 (1+t)^0.057, whose numerator
# x P(x) + y P(y) underflowed to 0 at (5.59e-291, 5.99e-291) in a coincidence probe
_PROBE_EXPONENTS = (0.1462613138950113, 0.056982290340405584)


# points near the ends of the float range, where a weight t^a (1+t)^b may leave the normal floats
_FLOAT_ENDS = [(1e300, 1.7e308), (1.6e308, 1.79e308), (1e-300, 1e300), (5e-324, 1e-300),
               (3e-320, 1e-310), (2.0, 1.7e308), (1e-310, 0.5)]


class _Drawn:
    """A stand-in generator whose ``uniform`` returns the given values in turn."""

    def __init__(self, *values):
        self.values = iter(values)

    def uniform(self, low, high):
        return next(self.values)


def _probe_weight():
    """The weight t^0.146 (1+t)^0.057 of that probe mean."""
    a, b = _PROBE_EXPONENTS
    return ms.WeightFunction(ms.POSITIVE_REALS, lambda t: t ** a * (1.0 + t) ** b, "probe")


def _form_cases():
    """Each composite that evaluates the endpoint-weighted form (x U + y V)/(U + V), with
    its weights at mpmath's working precision from the operand values the composite
    computes, and those of the values that must lie between x and y."""
    A, G, H = ms.make_arithmetic(), ms.make_geometric(), ms.make_harmonic()
    weight = _probe_weight()
    N = ms.make_normal_mean(weight, "N")
    mpf = mpmath.mpf

    def star_weights(m1, m2):
        def weights(x, y):
            a, b = mpf(m1(x, y)), mpf(m2(x, y))
            return (a, b), (a - y) * (b - y), (a - x) * (b - x)
        return weights

    def reflection_weights(m0, m1):
        def weights(x, y):
            a, b = mpf(m0(x, y)), mpf(m1(x, y))
            return (a, b), (a - y) ** 2 * (b - x), (a - x) ** 2 * (y - b)
        return weights

    def transform_weights(f):
        return lambda x, y: ((), mpf(1), mpmath.exp(f(x, y)))

    cases = {f"star({m1.name},{m2.name})": (ms.star(m1, m2), star_weights(m1, m2))
             for m1, m2 in ((A, H), (G, G), (H, N), (N, A))}
    cases.update({f"S[{m0.name}]({m1.name})": (ms.group_symmetry(m0, m1),
                                               reflection_weights(m0, m1))
                  for m0, m1 in ((A, N), (G, A), (H, G), (N, H))})
    cases["N"] = (N, lambda x, y: ((), mpf(weight(x)), mpf(weight(y))))
    for name, f in (("phi(G)", ms.phi(G)), ("-phi(H)", -ms.phi(H)),
                    ("phi(G)-phi(H)", ms.phi(G) - ms.phi(H)), ("1.02*phi(G)", 1.02 * ms.phi(G)),
                    ("-1.0*phi(G)", -1.0 * ms.phi(G))):
        cases[f"phi_inv({name})"] = (ms.phi_inverse(f), transform_weights(f))
    return cases


def _form_points():
    """8000 seeded points, log-uniform on [1e-307, 1e307]^2 and within 3 decades of a
    scale log-uniform on [1e-8, 1e8], and points that were faults at extreme scales."""
    rng = np.random.default_rng(16)
    wide = 10.0 ** rng.uniform(-307.0, 307.0, size=(4000, 2))
    scale = rng.uniform(-8.0, 8.0, size=(4000, 1))
    close = 10.0 ** (scale + rng.uniform(-3.0, 3.0, size=(4000, 2)))
    quoted = [(1e-300, 1e300), (1e300, 1e-300), (1e307, 1e-307), (6.07e110, 2.9e86)]
    return [(float(p), float(q)) for p, q in np.vstack([wide, close])] + quoted


def _assert_form(m, weights, x, y):
    """m(x, y) is within 4 ulps of the form at 60 digits, 4 * 2^-1074 where that is
    subnormal, wherever the operand values lie between x and y; both weights 0 raise,
    and so does a fault of an operand."""
    if math.isclose(x, y, rel_tol=_DIAG_GUARD):
        return
    with mpmath.workdps(60):
        try:
            values, u, v = weights(x, y)
        except ms.InvalidMeanError as exc:  # an operand's own fault, which the composite raises
            assert _value_or_error(m, x, y) == (ms.InvalidMeanError, str(exc))
            return
        if not all(min(x, y) <= t <= max(x, y) for t in values):
            return
        if u == 0 and v == 0:
            with pytest.raises(ms.InvalidMeanError, match=r"is 0/0: both endpoint weights vanish"):
                m(x, y)
            return
        want = float((x * u + y * v) / (u + v))
    got = m(x, y)
    assert abs(got - want) <= 4.0 * math.ulp(want), (m.name, x, y, got, want)


_FORM_CASES = _form_cases()


class TestEndpointWeightedForm:
    """star, group_symmetry, the normal mean and phi_inverse against the 60-digit value
    of the form they evaluate, from the same operand values."""

    @pytest.mark.parametrize("case", sorted(_FORM_CASES))
    def test_seeded_sweep(self, case):
        m, weights = _FORM_CASES[case]
        for x, y in _form_points():
            _assert_form(m, weights, x, y)

    @given(st.sampled_from(sorted(_FORM_CASES)), _any_positive, _any_positive)
    @example("star(G,G)", 1e-300, 1e300)  # differences scaled by 2^k underflow here
    @example("phi_inv(-1.0*phi(G))", 1e-300, 1e300)  # e^f overflows here
    @example("phi_inv(1.02*phi(G))", 1e300, 1e-300)  # |f| > 700, yet e^-f is not negligible
    def test_property(self, case, x, y):
        m, weights = _FORM_CASES[case]
        _assert_form(m, weights, x, y)
        _assert_form(m, weights, y, x)

    def test_zero_weight_gives_the_endpoint_exactly(self):
        assert _endpoint_weighted("M", 1.0, 2.0, 0.0, 3.0, 1.0, 5.0, 7.0, 1.0) == 2.0
        assert _endpoint_weighted("M", 1.0, 2.0, 5.0, 7.0, 1.0, 3.0, 0.0, 1.0) == 1.0
        assert _endpoint_weighted("M", 1e-300, 1e300, 1e-300, 1e-300, 1.0, 0.0, 1.0, 1.0) == 1e-300
        with pytest.raises(ms.InvalidMeanError) as err:
            _endpoint_weighted("M", 1.0, 2.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0)
        assert str(err.value) == "M(1.0, 2.0) is 0/0: both endpoint weights vanish"


class TestNormalMeans:
    def test_constant_weight_is_arithmetic(self, unit_window):
        w = ms.WeightFunction(ms.ALL_REALS, lambda t: 1.0, "1")
        m = ms.make_normal_mean(w)
        A = ms.make_arithmetic()
        for x, y in ms.sample_pairs(unit_window, 60, seed=13):
            assert m(x, y) == pytest.approx(A(x, y), rel=1e-15)

    def test_reciprocal_weight_is_harmonic(self):
        w = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: 1.0 / t, "1/t")
        m = ms.make_normal_mean(w)
        assert m(1.0, 3.0) == pytest.approx(1.5, rel=1e-15)

    def test_inverse_sqrt_weight_is_geometric(self, unit_window):
        w = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: 1.0 / math.sqrt(t), "1/sqrt(t)")
        m = ms.make_normal_mean(w)
        G = ms.make_geometric()
        for x, y in ms.sample_pairs(unit_window, 100, seed=14):
            assert m(x, y) == pytest.approx(G(x, y), rel=1e-12)

    def test_normal_means_pass_axioms(self, mean_family, unit_window):
        for m in mean_family[3:]:
            assert ms.verify_axioms(m, unit_window, 400, seed=15).all_ok

    def test_nonpositive_weight_rejected(self):
        w = ms.WeightFunction(ms.ALL_REALS, lambda t: t, "t")  # negative below 0
        m = ms.make_normal_mean(w)
        with pytest.raises(ms.InvalidMeanError):
            m(-2.0, 1.0)
        for t in (math.inf, math.nan, 0.0):
            flat = ms.make_normal_mean(ms.WeightFunction(ms.ALL_REALS, lambda _, t=t: t, "c"))
            with pytest.raises(ms.InvalidMeanError) as err:
                flat(1.0, 2.0)
            assert str(err.value) == "weight c is not positive and finite at 1.0"

    @pytest.mark.parametrize("x, y", [(1e-300, 2e-300), (1e300, 2e300), (2e300, 1e300),
                                      (5.59158320477008e-291, 5.988338143126397e-291),
                                      (5e-324, 1.5e-323), (1e-300, 1e300)])
    def test_numerator_past_the_float_range(self, x, y):
        # x P(x) + y P(y) under- or overflows here; the kernel scales x and y first
        for w in (ms.WeightFunction(ms.POSITIVE_REALS, lambda t: t ** 0.5, "t^0.5"),
                  _probe_weight()):
            px, py = w(x), w(y)
            with mpmath.workdps(50):
                exact = (x * mpmath.mpf(px) + y * mpmath.mpf(py)) / (mpmath.mpf(px) + py)
            v = ms.make_normal_mean(w)(x, y)
            assert min(x, y) <= v <= max(x, y)
            # one ulp where the value is subnormal
            assert v == pytest.approx(float(exact), rel=4e-16, abs=5e-324)

    @pytest.mark.parametrize("seed", [*range(12), None])
    def test_random_normal_means_at_the_ends_of_the_float_range(self, seed):
        # where a weight t^a (1+t)^b leaves the normal floats, the log ratio gives the value;
        # without a seed, 5e-324^-0.99 raises OverflowError
        rng = core._seeded(seed) if seed is not None else _Drawn(-0.99, 0.5)
        a, b = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        m = ms.random_normal_mean(_Drawn(a, b))
        for x, y in _FLOAT_ENDS:
            with mpmath.workdps(60):
                px, py = (mpmath.mpf(t) ** a * (1 + mpmath.mpf(t)) ** b for t in (x, y))
                exact = float((x * px + y * py) / (px + py))
            v = m(x, y)
            assert x <= v <= y
            assert v == pytest.approx(exact, rel=2e-12, abs=5e-324)

    def test_probe_mean_at_the_probe_point(self):
        # the probe mean, built as random_normal_mean builds it; its numerator underflows here
        x, y = 5.59158320477008e-291, 5.988338143126397e-291
        probe = ms.random_normal_mean(_Drawn(*_PROBE_EXPONENTS))
        assert probe.name == "N[0.146,0.057]"
        assert probe(x, y) == ms.make_normal_mean(_probe_weight())(x, y)
        assert x < probe(x, y) < y

    @given(scaled, scaled)
    def test_plain_form_inside_the_normal_range(self, x, y):
        # where the numerator is a normal float the kernel is the plain formula, bit for bit
        w = _probe_weight()
        px, py = w(x), w(y)
        num = x * px + y * py
        if x != y and 2.2250738585072014e-308 <= num < math.inf:
            assert ms.make_normal_mean(w)(x, y) == num / (px + py)


def _checked_compare_normal(p1, p2, window, samples=256):
    """compare_normal with every grid point through the weights' checked calls, as it ran
    before it called their kernels: the reference for results and messages. A weight value
    that is not positive and finite is refused, first p1's, as a normal mean refuses it, and
    so is a ratio below the least normal float or infinite, which no order can be read from."""
    if samples < 2:
        raise ValueError("need at least two samples to compare")
    core.check_window(window, (p1.domain, f"weight {p1.name}"), (p2.domain, f"weight {p2.name}"))
    ratios = []
    for t in _linspace(window.lo, window.hi, samples):
        values = p1(t), p2(t)
        for p, v in zip((p1, p2), values):
            if not 0.0 < v < math.inf:
                raise ms.InvalidMeanError(f"weight {p.name} is not positive and finite at {t}")
        ratio = values[0] / values[1]
        if not sys.float_info.min <= ratio < math.inf:
            raise ms.NumericalError(f"the ratio of weights {p1.name} / {p2.name} is {ratio} at "
                                    f"{t}, outside the positive normal floats")
        ratios.append(ratio)
    return _classify_ratio(ratios)


def _value_or_error(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # compared, never swallowed: both sides must raise alike
        return type(exc), str(exc)


def _compare_weights():
    """Weights on (0, inf), on [1, 2] and on all of R, one of them 0 at 0."""
    pos, reals = ms.POSITIVE_REALS, ms.ALL_REALS
    return [ms.WeightFunction(pos, lambda t: t ** -0.5, "t^-0.5"),
            ms.WeightFunction(ms.Interval.closed(1.0, 2.0), lambda t: 3.0 - t, "3-t"),
            ms.WeightFunction(reals, lambda t: 1.0 + t * t, "1+t^2"),
            ms.WeightFunction(reals, lambda t: t * t, "t^2")]


class TestCompare:
    def test_classical_chain(self, unit_window):
        one = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: 1.0, "1")
        inv_sqrt = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: 1.0 / math.sqrt(t), "1/sqrt")
        inv = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: 1.0 / t, "1/t")
        assert ms.compare_normal(one, inv_sqrt, unit_window) is OrderRelation.STRICTLY_GREATER
        assert ms.compare_normal(inv_sqrt, inv, unit_window) is OrderRelation.STRICTLY_GREATER
        assert ms.compare_normal(inv, one, unit_window) is OrderRelation.STRICTLY_LESS

    def test_one_sample_is_refused(self, unit_window):
        one = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: 1.0, "1")
        with pytest.raises(ValueError, match="^need at least two samples to compare$"):
            ms.compare_normal(one, one, unit_window, samples=1)

    def test_scaling_invariance(self, unit_window):
        one = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: 1.0, "1")
        two = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: 2.0, "2")
        assert ms.compare_normal(one, two, unit_window) is OrderRelation.EQUAL
        inv = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: 1.0 / t, "1/t")
        scaled = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: 17.0 / t, "17/t")
        one_vs_inv = ms.compare_normal(one, inv, unit_window)
        assert ms.compare_normal(one, scaled, unit_window) is one_vs_inv

    def test_flat_sections_give_weak_order(self, unit_window):
        # ratio falls then stays constant: non-increasing but not strict
        step = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: max(1.0, 2.0 - t), "step")
        one = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: 1.0, "1")
        assert ms.compare_normal(step, one, unit_window) is OrderRelation.LESS_OR_EQUAL

    def test_incomparable(self, unit_window):
        vee = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: t + 1.0 / t, "t+1/t")
        one = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: 1.0, "1")
        assert ms.compare_normal(vee, one, unit_window) is OrderRelation.INCOMPARABLE

    def test_classify_vs_arithmetic(self, unit_window):
        inv = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: 1.0 / t, "1/t")
        ident = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: t, "t")
        one = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: 1.0, "1")
        assert ms.classify_vs_arithmetic(inv, unit_window) is OrderRelation.STRICTLY_LESS
        assert ms.classify_vs_arithmetic(ident, unit_window) is OrderRelation.STRICTLY_GREATER
        assert ms.classify_vs_arithmetic(one, unit_window) is OrderRelation.EQUAL

    def test_order_matches_sampled_means(self, unit_window):
        # the predicted strict order shows up pointwise
        inv_sqrt = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: 1.0 / math.sqrt(t), "1/sqrt")
        one = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: 1.0, "1")
        rel = ms.compare_normal(one, inv_sqrt, unit_window)
        assert rel is OrderRelation.STRICTLY_GREATER
        m1 = ms.make_normal_mean(one)
        m2 = ms.make_normal_mean(inv_sqrt)
        for x, y in ms.sample_pairs(unit_window, 50, seed=16, min_gap=1e-6):
            assert m1(x, y) > m2(x, y)

    def test_window_outside_domain(self):
        inv = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: 1.0 / t, "1/t")
        one = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: 1.0, "1")
        with pytest.raises(ms.DomainError):
            ms.compare_normal(inv, one, ms.Interval.closed(-1.0, 1.0))

    @given(st.sampled_from([(0.1, 10.0), (0.0, 1.0), (1.0, 2.0), (-1.0, 1.0), (1e-300, 1e-290),
                            (0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308)]),
           st.booleans(), st.booleans(), st.sampled_from([0, 1, 2, 3]),
           st.sampled_from([0, 1, 2, 3]), st.sampled_from([2, 3, 64]))
    def test_matches_the_checked_form(self, ends, lo_closed, hi_closed, i, j, samples):
        lo, hi = ends
        window = ms.Interval(lo, hi, lo_closed and math.isfinite(lo),
                             hi_closed and math.isfinite(hi))
        weights = _compare_weights()
        fast = _value_or_error(ms.compare_normal, weights[i], weights[j], window, samples)
        assert fast == _value_or_error(_checked_compare_normal, weights[i], weights[j],
                                       window, samples)

    def test_open_window_end_is_rejected_before_any_weight_call(self):
        calls = []
        inv = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: calls.append(t) or 1.0 / t, "1/t")
        one = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: calls.append(t) or 1.0, "1")
        for window, message in (
                (ms.Interval(0.0, 1.0), "window (0, 1) is not inside the domain (0, inf) of weight 1"),
                (ms.Interval(0.0, math.inf), "window (0, inf) has no finite width"),
                (ms.Interval.closed(-1e308, 1e308), "window [-1e+308, 1e+308] has no finite width")):
            assert _value_or_error(ms.compare_normal, one, inv, window, 8) == (ms.DomainError, message)
            assert _value_or_error(_checked_compare_normal, one, inv, window, 8) == (
                ms.DomainError, message)
        assert calls == []

    def test_checked_call_is_not_used_inside_the_domain(self, unit_window):
        class Unchecked(ms.WeightFunction):
            __slots__ = ()

            def __call__(self, t):
                raise AssertionError("checked call")

        inv = Unchecked(ms.POSITIVE_REALS, lambda t: 1.0 / t, "1/t")
        one = Unchecked(ms.POSITIVE_REALS, lambda t: 1.0, "1")
        assert ms.compare_normal(inv, one, unit_window) is OrderRelation.STRICTLY_LESS

    @given(st.floats(-1e300, 1e300), st.floats(0, 1e300), st.integers(2, 300))
    def test_grid_is_numpy_linspace(self, lo, width, n):
        hi = lo + width
        if lo < hi:
            assert _linspace(lo, hi, n) == np.linspace(lo, hi, n).tolist()

    @pytest.mark.parametrize("lo, hi, n", [(0.1, 10.0, 256), (-3.0, 1e5, 7), (1e-323, 5e-322, 256),
                                           (0.0, 5e-324, 3), (1e300, 1.0000000001e300, 256)])
    def test_grid_is_numpy_linspace_at_fixed_windows(self, lo, hi, n):
        # the subnormal windows take numpy's branch for a step that underflows to 0
        assert _linspace(lo, hi, n) == np.linspace(lo, hi, n).tolist()

    @given(st.lists(st.sampled_from([1.0, 1.0 + 1e-12, 1.0 + 1e-9, 2.0, 0.5, 0.0, -1.0, 1e-300,
                                     math.inf, -math.inf, math.nan]), min_size=2, max_size=8))
    def test_classify_ratio_matches_numpy_oracle(self, values):
        arr, rel_tol = np.array(values), 1e-10
        with np.errstate(invalid="ignore"):
            diffs = np.diff(arr)
            scale = np.maximum(1e-300, np.maximum(np.abs(arr[1:]), np.abs(arr[:-1])))
            up = bool(np.any(diffs > rel_tol * scale))
            down = bool(np.any(diffs < -rel_tol * scale))
            flat = bool(np.any(np.abs(diffs) <= rel_tol * scale))
        if up and down:
            expect = OrderRelation.INCOMPARABLE
        elif not up and not down:
            expect = OrderRelation.EQUAL
        elif down:
            expect = OrderRelation.LESS_OR_EQUAL if flat else OrderRelation.STRICTLY_LESS
        else:
            expect = OrderRelation.GREATER_OR_EQUAL if flat else OrderRelation.STRICTLY_GREATER
        assert _classify_ratio(values) is expect


# The composites as they were before they called their operands' kernels: every
# operand goes through its checked __call__, and the endpoint-weighted form gets the
# weights' factors as the composite's kernel passes them. The kernels must give the
# same bits and raise alike; the numerics are pinned against mpmath elsewhere.
def _checked_star(m1, m2):
    name = f"({m1.name}*{m2.name})"

    def fn(x, y):
        if math.isclose(x, y, rel_tol=_DIAG_GUARD):
            return ms.make_arithmetic()(x, y)
        a, b = m1(x, y), m2(x, y)
        return _endpoint_weighted(name, x, y, a - y, b - y, 1.0, a - x, b - x, 1.0)

    return ms.MeanFunction(name, common_domain(m1.domain, m2.domain), fn)


def _checked_group_symmetry(m0, m1):
    name = f"S[{m0.name}]({m1.name})"

    def fn(x, y):
        if math.isclose(x, y, rel_tol=_DIAG_GUARD):
            return ms.make_arithmetic()(x, y)
        v0, v1 = m0(x, y), m1(x, y)
        return _endpoint_weighted(name, x, y, v0 - y, v0 - y, v1 - x, v0 - x, v0 - x, y - v1)

    return ms.MeanFunction(name, common_domain(m0.domain, m1.domain), fn)


def _checked_group_inverse(m):
    def fn(x, y):
        v = m(x, y)
        d, e = y - v, x - v
        return x + d if abs(d) <= abs(e) else y + e

    return ms.MeanFunction("inv", m.domain, fn)


def _checked_phi(m):
    def fn(x, y):
        if math.isclose(x, y, rel_tol=_DIAG_GUARD):
            return 0.0
        v = m(x, y)
        p, q = v - x, v - y
        if p == 0.0 or q == 0.0 or (p > 0.0) == (q > 0.0):
            raise ms.InvalidMeanError(
                f"{m.name}({x}, {y}) = {v} is not strictly between its arguments")
        r = -p / q
        if 2.2250738585072014e-308 <= r < math.inf:
            return math.log(r)
        return math.log(abs(p)) - math.log(abs(q))  # the ratio left the normal range

    return ms.AsymmetricFunction(m.domain, fn, name=f"phi({m.name})")


def _checked_phi_inverse(f, name):
    def fn(x, y):
        v = f(x, y)
        if v > 0.0:  # mirrored, so that e <= 1
            x, y, v = y, x, -v
        e = math.exp(v)
        if e >= 2.2250738585072014e-308:
            return _endpoint_weighted(name, x, y, 1.0, 1.0, 1.0, e, 1.0, 1.0)
        h = math.exp(0.5 * v)  # e lost digits to underflow: V is h squared
        return _endpoint_weighted(name, x, y, 1.0, 1.0, 1.0, h, h, 1.0)

    return ms.MeanFunction("phi_inv", f.domain, fn)


def _checked_normal(p):
    name = f"normal({p.name})"

    def fn(x, y):
        px, py = p(x), p(y)
        if not (px > 0.0 and py > 0.0) or math.isinf(px) or math.isinf(py):
            bad = x if not (px > 0.0 and math.isfinite(px)) else y
            raise ms.InvalidMeanError(f"weight {p.name} is not positive and finite at {bad}")
        num = x * px + y * py
        if 2.2250738585072014e-308 <= abs(num) < math.inf:
            return num / (px + py)
        return _endpoint_weighted(name, x, y, px, 1.0, 1.0, py, 1.0, 1.0)

    return ms.MeanFunction("normal", p.domain, fn)


def _checked_random_normal_mean(a, b, name):
    """random_normal_mean's kernel as the closure it was before it was a block, with the
    normal mean's formula and the log ratio's written out."""
    least = sys.float_info.min

    def fn(x, y):
        try:
            px = x ** a * (1.0 + x) ** b
            py = y ** a * (1.0 + y) ** b
        except OverflowError:  # a subnormal point to a power near -1
            px = py = math.inf
        if least <= px < math.inf and least <= py < math.inf:
            num = x * px + y * py
            if least <= abs(num) < math.inf:
                return num / (px + py)
            return _endpoint_weighted(name, x, y, px, 1.0, 1.0, py, 1.0, 1.0)
        v = a * (math.log(y) - math.log(x)) + b * (math.log1p(y) - math.log1p(x))
        if v > 0.0:  # mirrored, so that e <= 1
            x, y, v = y, x, -v
        e, h = math.exp(v), 1.0
        if e < least:  # e lost digits to underflow: V is h squared
            e = h = math.exp(0.5 * v)
        return _endpoint_weighted(name, x, y, 1.0, 1.0, 1.0, e, h, 1.0)

    return fn


def _checked_combine(f, g, cx, co):
    return ms.AsymmetricFunction(common_domain(f.domain, g.domain),
                                 lambda x, y: cx * f(x, y) + co * g(x, y))


def _checked_neg(f):
    return ms.AsymmetricFunction(f.domain, lambda x, y: -f(x, y))


def _checked_scale(c, f):
    return ms.AsymmetricFunction(f.domain, lambda x, y: c * f(x, y))


def _outcome(m, x, y):
    """The value as a hex string (bit for bit), or the exception's type and message."""
    try:
        return m(x, y).hex()
    except Exception as exc:  # compared, never swallowed: both sides must raise alike
        return type(exc), str(exc)


def _composite_pairs(family):
    """(kernel form, checked form) of each composite, on the built-ins, seeded normal
    means, a parsed power mean and a weight that is not positive everywhere; on operands
    whose kernels carry no block, a compound, a random normal mean and ``min``, whose phi
    raises InvalidMeanError; and nested composites. The checked star and reflection carry
    their composite's name, which a nested composite's fault message shows."""
    A, G, H, N0, N1, N2 = family
    power = ms.mean_from_source("((x^1.778+y^1.778)/2)^(1/1.778)").mean
    weight = ms.weight_from_source("t^(0.371)*(1+t)^(0.471)")
    signed = ms.WeightFunction(ms.ALL_REALS, lambda t: t, "t")
    agm, drawn = ms.compound(A, G), ms.random_normal_mean(random.Random(3))
    lower = ms.MeanFunction("mn", ms.POSITIVE_REALS, min)
    return [
        (ms.star(agm, H), _checked_star(agm, H)),
        (ms.group_symmetry(drawn, power), _checked_group_symmetry(drawn, power)),
        (ms.group_inverse(agm), _checked_group_inverse(agm)),
        (ms.star(lower, G), _checked_star(lower, G)),
        (ms.phi_inverse(ms.phi(lower), "L"), _checked_phi_inverse(_checked_phi(lower), "L")),
        (ms.phi_inverse(ms.phi(drawn) + ms.phi(agm), "C"),
         _checked_phi_inverse(_checked_combine(_checked_phi(drawn), _checked_phi(agm),
                                               1.0, 1.0), "C")),
        (ms.phi_inverse(ms.phi(ms.star(G, power)), "F"),
         _checked_phi_inverse(_checked_phi(_checked_star(G, power)), "F")),
        (ms.star(ms.group_symmetry(G, H), N0),
         _checked_star(_checked_group_symmetry(G, H), N0)),
        (ms.phi_inverse(ms.phi(G) - ms.phi(N1), "D"),
         _checked_phi_inverse(_checked_combine(_checked_phi(G), _checked_phi(N1),
                                               1.0, -1.0), "D")),
        (ms.star(G, N0), _checked_star(G, N0)),
        (ms.star(power, H), _checked_star(power, H)),
        (ms.star(A, ms.star(N1, G)), _checked_star(A, _checked_star(N1, G))),
        (ms.group_symmetry(N1, H), _checked_group_symmetry(N1, H)),
        (ms.group_symmetry(G, power), _checked_group_symmetry(G, power)),
        (ms.group_inverse(N2), _checked_group_inverse(N2)),
        (ms.make_normal_mean(weight), _checked_normal(weight)),
        (ms.make_normal_mean(signed), _checked_normal(signed)),
        (ms.phi_inverse(ms.phi(N0), "P0"), _checked_phi_inverse(_checked_phi(N0), "P0")),
        (ms.phi_inverse(0.5 * ms.phi(G) - 2.0 * ms.phi(power), "P"),
         _checked_phi_inverse(_checked_combine(_checked_scale(0.5, _checked_phi(G)),
                                               _checked_scale(2.0, _checked_phi(power)),
                                               1.0, -1.0), "P")),
        (ms.phi_inverse(-ms.phi(H) + ms.phi(N2), "Q"),
         _checked_phi_inverse(_checked_combine(_checked_neg(_checked_phi(H)),
                                               _checked_phi(N2), 1.0, 1.0), "Q")),
    ]



class TestKernelCompositesMatchCheckedForms:
    @given(st.data())
    def test_values_and_exceptions_bit_for_bit(self, mean_family, data):
        x = data.draw(scaled)
        y = data.draw(st.one_of(scaled, st.just(x), st.just(math.nextafter(x, math.inf)),
                                st.floats(min_value=-1e3, max_value=0.0)))
        for fast, slow in _composite_pairs(tuple(mean_family)):
            slow = slow.replace(name=fast.name)
            assert _outcome(fast, x, y) == _outcome(slow, x, y)
            assert _outcome(fast, y, x) == _outcome(slow, y, x)


# the draws of random normal means whose kernels are held to the closure: seeded draws, one
# whose weight raises OverflowError at 5e-324, and a numpy generator
_RANDOM_DRAWS = [*(lambda seed=seed: core._seeded(seed) for seed in range(12)),
                 lambda: _Drawn(-0.99, 0.5), lambda: np.random.default_rng(7)]


def _random_mean_points(a, rng):
    """Points for the weight t^a (1+t)^b: the ends of the float range, both ways round; pairs
    with a term x P(x) subnormal, drawn from x P(x) ~ x^(1 + a) for tiny x, the other term
    normal or subnormal too; adjacent floats; and pairs log-uniform on [1e-300, 1e300]."""
    points = _FLOAT_ENDS + [(y, x) for x, y in _FLOAT_ENDS]
    for _ in range(300):
        term, other = (sys.float_info.min * rng.uniform(*span)
                       for span in ((2.0 ** -50, 1.0), (2.0 ** -8, 8.0)))
        x, y = (math.exp(math.log(t) / (1.0 + a)) for t in (term, other))
        points += [(x, y), (y, x)] if 0.0 < x < y else []
    for _ in range(300):
        x = 10.0 ** rng.uniform(-300.0, 300.0)
        points += [(x, math.nextafter(x, math.inf)), (10.0 ** rng.uniform(-300.0, 300.0), x)]
    return points


class TestRandomNormalMeanMatchesItsClosure:
    @pytest.mark.parametrize("draw", range(len(_RANDOM_DRAWS)))
    def test_values_and_exceptions_bit_for_bit(self, draw):
        m, twin = ms.random_normal_mean(_RANDOM_DRAWS[draw]()), _RANDOM_DRAWS[draw]()
        a, b = float(twin.uniform(-1.0, 1.0)), float(twin.uniform(-1.0, 1.0))
        assert m.name == f"N[{a:.3f},{b:.3f}]"
        closure = _checked_random_normal_mean(a, b, m.name)
        points = _random_mean_points(a, random.Random(draw))
        for x, y in points:
            assert _outcome(m.fn, x, y) == _outcome(closure, x, y), (x, y)
        if a > 0.0:  # then a term x P(x) ~ x^(1 + a) is subnormal at points with a normal sum
            terms = [(x * x ** a * (1.0 + x) ** b, y * y ** a * (1.0 + y) ** b)
                     for x, y in points]
            assert any(min(t) < sys.float_info.min <= sum(t) < math.inf for t in terms)


class TestGroupLayerIsBuiltFromBlocks:
    @staticmethod
    def _constructed(family):
        """The kernel of each algebra constructor, by name, on blocks and on a compound, and a
        random normal mean's."""
        A, G, H, N0, *_ = family
        agm = ms.compound(A, G)
        f = ms.phi(G)
        return {
            "phi": f.fn, "phi_inverse": ms.phi_inverse(f).fn, "star": ms.star(G, agm).fn,
            "group_inverse": ms.group_inverse(agm).fn,
            "group_symmetry": ms.group_symmetry(agm, H).fn,
            "normal": ms.make_normal_mean(ms.WeightFunction(ms.POSITIVE_REALS, math.sqrt)).fn,
            "+": (f + ms.phi(agm)).fn, "-": (f - ms.phi(N0)).fn, "neg": (-f).fn,
            "scale": (0.5 * f).fn, "random": ms.random_normal_mean(random.Random(3)).fn,
        }

    def test_every_kernel_carries_its_block(self, mean_family):
        for name, fn in self._constructed(mean_family).items():
            # generated from its block, no closure of the module
            assert fn.__code__.co_filename == "<algebra>", name
            block, box, _ = fn.inline
            assert len(block) == len(box) == 3, name

    def test_only_the_inverse_keeps_an_enclosure_in_the_group_layer(self, mean_family):
        G = mean_family[1]
        assert ms.group_inverse(G).fn.inline[2] is not None
        assert ms.group_inverse(ms.compound(mean_family[0], G)).fn.inline[2] is None
        for name, fn in self._constructed(mean_family).items():
            if name not in ("group_inverse", "normal"):
                assert fn.inline[2] is None, name

    def test_a_composite_splices_its_operands_and_calls_a_kernel_with_no_block(self):
        G, H = ms.make_geometric(), ms.make_harmonic()
        agm = ms.compound(ms.make_arithmetic(), G)
        for form in ms.star(ms.star(G, H), agm).fn.inline[:2]:
            statements, result, namespace = form
            calls = [n for n in ast.walk(ast.parse(f"{statements}\n{result}"))
                     if isinstance(n, ast.Call)]
            called = {ast.unparse(call.func) for call in calls} & namespace.keys()
            # the compound is called, and every kernel that has a block runs as statements
            assert [name for name in called if hasattr(namespace[name], "inline")] == []
            assert [name for name in called if namespace[name] is agm.fn] != []
            assert "sqrt(x * y)" in statements and "2.0 * x * y / (x + y)" in statements

    def test_constants_are_namespace_values(self):
        f = ms.phi(ms.make_geometric())
        for g, constant in ((0.37 * f, 0.37), (f - f, -1.0)):
            assert constant not in g.fn.__code__.co_consts
            assert constant in g.fn.inline[0][2].values()

    @pytest.mark.parametrize("operand", [ms.make_geometric(), 1, 2.5, None])
    def test_combinators_refuse_an_operand_that_is_not_asymmetric(self, operand):
        f = ms.phi(ms.make_harmonic())
        with pytest.raises(TypeError):
            f + operand
        with pytest.raises(TypeError):
            f - operand
        assert f._combine(operand, 1.0, 1.0, "+") is NotImplemented

