import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import meanscape as ms
from meanscape.algebra import _DIAG_GUARD, _EXP_CLIP, OrderRelation, _classify_ratio, _linspace
from meanscape.core import common_domain, near

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
            if near(x, y, _DIAG_GUARD):
                continue
            v = m(x, y)
            r = -(v - x) / (v - y)
            if 2.2250738585072014e-308 <= r < math.inf:
                assert ms.phi(m)(x, y) == math.log(r)


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


class TestCompare:
    def test_classical_chain(self, unit_window):
        one = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: 1.0, "1")
        inv_sqrt = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: 1.0 / math.sqrt(t), "1/sqrt")
        inv = ms.WeightFunction(ms.POSITIVE_REALS, lambda t: 1.0 / t, "1/t")
        assert ms.compare_normal(one, inv_sqrt, unit_window) is OrderRelation.STRICTLY_GREATER
        assert ms.compare_normal(inv_sqrt, inv, unit_window) is OrderRelation.STRICTLY_GREATER
        assert ms.compare_normal(inv, one, unit_window) is OrderRelation.STRICTLY_LESS

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
# operand goes through its checked __call__. The kernels must give the same bits.
def _checked_star(m1, m2):
    def fn(x, y):
        if near(x, y, _DIAG_GUARD):
            return 0.5 * (x + y)
        a, b = m1(x, y), m2(x, y)
        k = -math.frexp(y - x)[1]
        w_y = math.ldexp(a - y, k) * math.ldexp(b - y, k)
        w_x = math.ldexp(a - x, k) * math.ldexp(b - x, k)
        return (x * w_y + y * w_x) / (w_y + w_x)

    return ms.MeanFunction("star", common_domain(m1.domain, m2.domain), fn)


def _checked_group_symmetry(m0, m1):
    def fn(x, y):
        if near(x, y, _DIAG_GUARD):
            return 0.5 * (x + y)
        v0, v1 = m0(x, y), m1(x, y)
        k = -math.frexp(y - x)[1]
        a = math.ldexp(v1 - x, k) * math.ldexp(v0 - y, k) ** 2
        b = math.ldexp(v0 - x, k) ** 2 * math.ldexp(v1 - y, k)
        if a == b:  # both underflow: each difference on its own scale, then one scale
            (mp, ep), (mq, eq), (mr, er), (ms_, es) = (
                math.frexp(d) for d in (v1 - x, v0 - y, v0 - x, v1 - y))
            top = max(ep + 2 * eq, 2 * er + es)
            a = math.ldexp(mp * mq ** 2, ep + 2 * eq - top)
            b = math.ldexp(mr ** 2 * ms_, 2 * er + es - top)
        return (x * a - y * b) / (a - b)

    return ms.MeanFunction("S", common_domain(m0.domain, m1.domain), fn)


def _checked_group_inverse(m):
    return ms.MeanFunction("inv", m.domain, lambda x, y: x + y - m(x, y))


def _checked_phi(m):
    def fn(x, y):
        if near(x, y, _DIAG_GUARD):
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


def _checked_phi_inverse(f):
    def fn(x, y):
        v = f(x, y)
        if v > _EXP_CLIP:
            return y
        if v < -_EXP_CLIP:
            return x
        e = math.exp(v)
        return (x + y * e) / (e + 1.0)

    return ms.MeanFunction("phi_inv", f.domain, fn)


def _checked_normal(p):
    def fn(x, y):
        px, py = p(x), p(y)
        if not (px > 0.0 and py > 0.0) or math.isinf(px) or math.isinf(py):
            bad = x if not (px > 0.0 and math.isfinite(px)) else y
            raise ms.InvalidMeanError(f"weight {p.name} is not positive and finite at {bad}")
        return (x * px + y * py) / (px + py)

    return ms.MeanFunction("normal", p.domain, fn)


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
    means, a parsed power mean and a weight that is not positive everywhere."""
    A, G, H, N0, N1, N2 = family
    power = ms.mean_from_source("((x^1.778+y^1.778)/2)^(1/1.778)").mean
    weight = ms.weight_from_source("t^(0.371)*(1+t)^(0.471)")
    signed = ms.WeightFunction(ms.ALL_REALS, lambda t: t, "t")
    return [
        (ms.star(G, N0), _checked_star(G, N0)),
        (ms.star(power, H), _checked_star(power, H)),
        (ms.star(A, ms.star(N1, G)), _checked_star(A, _checked_star(N1, G))),
        (ms.group_symmetry(N1, H), _checked_group_symmetry(N1, H)),
        (ms.group_symmetry(G, power), _checked_group_symmetry(G, power)),
        (ms.group_inverse(N2), _checked_group_inverse(N2)),
        (ms.make_normal_mean(weight), _checked_normal(weight)),
        (ms.make_normal_mean(signed), _checked_normal(signed)),
        (ms.phi_inverse(ms.phi(N0)), _checked_phi_inverse(_checked_phi(N0))),
        (ms.phi_inverse(0.5 * ms.phi(G) - 2.0 * ms.phi(power)),
         _checked_phi_inverse(_checked_combine(_checked_scale(0.5, _checked_phi(G)),
                                               _checked_scale(2.0, _checked_phi(power)),
                                               1.0, -1.0))),
        (ms.phi_inverse(-ms.phi(H) + ms.phi(N2)),
         _checked_phi_inverse(_checked_combine(_checked_neg(_checked_phi(H)),
                                               _checked_phi(N2), 1.0, 1.0))),
    ]


scaled = st.floats(min_value=1e-300, max_value=1e300)


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
