import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import meanscape as ms
from meanscape.metric import _axis_points, _sup2d, golden_section_max

# Frozen reference values, computed beforehand with 60-digit arithmetic
# (stationary point of the ratio profile and its exact elimination).
D_GH = 0.150141553000388  # sqrt((5*sqrt(5) - 11)/8)
T_GH = 2.8900536382639638
WIDE = ms.Interval.closed(1e-6, 1e6)


class TestGoldenSection:
    def test_interior_max(self):
        x, v = golden_section_max(lambda t: -(t - 2.0) ** 2, 0.0, 5.0, rel_tol=1e-12)
        assert x == pytest.approx(2.0, abs=1e-8)
        assert v == pytest.approx(0.0, abs=1e-15)

    def test_endpoint_max(self):
        x, v = golden_section_max(lambda t: t, 0.0, 3.0)
        assert v == 3.0  # endpoints are evaluated, so the bound is exact

    def test_reversed_ends_search_the_same_interval(self):
        def f(t):
            return -(t - 1.0) ** 2

        assert golden_section_max(f, 3.0, 0.0) == golden_section_max(f, 0.0, 3.0)


class TestSup2d:
    def test_argmax_attains_value_inside_window(self):
        # kinked objectives defeat golden-section refinement, and their
        # maxima often sit on the window edge, where exp(log(lo)) can
        # round outside the window
        rng = np.random.default_rng(2024)
        for _ in range(400):
            a, b, c = rng.uniform(-2, 2), rng.uniform(-3, 3), rng.uniform(0, 2)
            window = ms.Interval.closed(10 ** rng.uniform(-3, 0), 10 ** rng.uniform(0.3, 3))

            def f(x, y, a=a, b=b, c=c):
                return -abs(math.log(x) - a * math.log(y) - b) - c * abs(math.log(y) - 0.3)

            value, (x, y) = _sup2d(f, window, 32)
            assert f(x, y) == value
            assert window.contains(x) and window.contains(y)


@st.composite
def log_windows(draw):
    """Windows in [1e-300, 1e300], from a ratio hi/lo of about 1.002 up to 1e600."""
    lo = draw(st.floats(1e-300, 1e299))
    span = draw(st.floats(1e-3, 600.0))  # log10(hi / lo) before the cap
    return ms.Interval.closed(lo, 10.0 ** min(math.log10(lo) + span, 300.0))


class TestAxisPoints:
    # numpy is the oracle here, in the tests only
    @given(log_windows(), st.integers(8, 512))
    def test_log_grid_is_numpy_geomspace(self, window, n):
        pts, step, to_point = _axis_points(window, n)
        assert len(pts) == n
        assert pts[0] == window.lo and pts[-1] == window.hi
        assert all(type(p) is float and window.contains(p) for p in pts)
        assert all(a < b for a, b in zip(pts, pts[1:]))
        ref = np.geomspace(window.lo, window.hi, n)
        assert all(abs(p - r) <= 1e-12 * r for p, r in zip(pts, ref.tolist()))
        # refinement's coordinates pass through the grid: log2 units from lo
        assert [to_point(i * step) for i in range(n - 1)] == pts[:-1]
        span = math.log2(window.hi) - math.log2(window.lo)
        assert step == pytest.approx(span / (n - 1), rel=1e-13)

    @given(st.floats(-1e300, 0.0), st.floats(1e-300, 1e300), st.integers(8, 512))
    def test_linear_grid_is_numpy_linspace(self, lo, width, n):
        assume(lo < lo + width)
        window = ms.Interval.closed(lo, lo + width)
        pts, step, to_point = _axis_points(window, n)
        assert pts == np.linspace(window.lo, window.hi, n).tolist()
        assert [to_point(i * step) for i in range(n - 1)] == pts[:-1]

    @pytest.mark.parametrize("lo, hi", [
        # inner t round up to log10(hi), and np.geomspace's points leave the window
        (1.839803268078821e158, 1.8398032680788835e158),
        (3.4196045280945803e-228, 3.419604528094919e-228),
        # 10 ** log10(hi) overflows; np.geomspace gives inf there
        (1.79769313486231e308, 1.7976931348623157e308),
    ])
    def test_narrow_windows_keep_every_point_inside(self, lo, hi):
        window = ms.Interval.closed(lo, hi)
        pts, _, _ = _axis_points(window, 8)
        assert pts[0] == lo and pts[-1] == hi
        assert all(window.contains(p) for p in pts)

    @pytest.mark.parametrize("lo, hi", [(1e-3, 1e3), (0.25, 4.0), (1e-300, 1e-290)])
    def test_ag_closed_form(self, lo, hi):
        # (A - G)/(x - y) = (sqrt x - sqrt y)/(2(sqrt x + sqrt y)), largest at a corner
        est = ms.distance(ms.make_arithmetic(), ms.make_geometric(),
                          ms.Interval.closed(lo, hi), 16)
        exact = (math.sqrt(hi) - math.sqrt(lo)) / (2.0 * (math.sqrt(hi) + math.sqrt(lo)))
        assert abs(est.value - exact) <= 1e-12
        assert est.argmax == (hi, lo)

    @pytest.mark.parametrize("lo, hi, grid", [(1e-3, 1e3, 8), (0.1, 10.0, 64),
                                              (1e-300, 1e-290, 16)])
    def test_gh_closed_form(self, lo, hi, grid):
        window = ms.Interval.closed(lo, hi)
        G, H = ms.make_geometric(), ms.make_harmonic()
        est = ms.distance(G, H, window, grid)
        assert abs(est.value - math.sqrt((5.0 * math.sqrt(5.0) - 11.0) / 8.0)) <= 1e-12
        x, y = est.argmax
        assert window.contains(x) and window.contains(y)
        assert (G(x, y) - H(x, y)) / (x - y) == est.value


class TestDistance:
    def test_identical_means_have_distance_zero(self, mean_family, unit_window):
        for m in mean_family:
            est = ms.distance(m, m, unit_window, 32)
            assert est.value == 0.0
            x, y = est.argmax
            assert x != y and unit_window.contains(x) and unit_window.contains(y)

    def test_a_window_inside_the_diagonal_band_has_no_grid_point(self):
        # every pair of the grid is math.isclose(x, y, rel_tol=1e-9), so the quotient is read
        # nowhere
        window = ms.Interval.closed(1.0, 1.0 + 1e-12)
        with pytest.raises(ms.DomainError, match="^no admissible grid points in the window$"):
            ms.distance(ms.make_arithmetic(), ms.make_geometric(), window, 8)

    def test_equal_means_give_positive_zero(self):
        parsed = ms.mean_from_source("(x+y)/2", ms.ALL_REALS).mean
        est = ms.distance(ms.make_arithmetic(), parsed, ms.default_window(ms.ALL_REALS), 48)
        assert est.value == 0.0 and math.copysign(1.0, est.value) == 1.0

    def test_gh_against_oracle(self):
        est = ms.distance(ms.make_geometric(), ms.make_harmonic(), WIDE, 512)
        assert est.value == pytest.approx(D_GH, abs=1e-12)
        x, y = est.argmax
        assert x != y and WIDE.contains(x) and WIDE.contains(y)
        # the reported point attains the reported value
        g, h = ms.make_geometric(), ms.make_harmonic()
        assert (g(x, y) - h(x, y)) / (x - y) == pytest.approx(est.value, rel=1e-9)

    def test_gh_generic_estimator_agrees(self, unit_window):
        # hand-written operands, so the estimate does not rest on the core kernels
        g = ms.MeanFunction("g", ms.POSITIVE_REALS, lambda x, y: math.sqrt(x * y))
        h = ms.MeanFunction("h", ms.POSITIVE_REALS, lambda x, y: 2 * x * y / (x + y))
        est = ms.distance(g, h, unit_window, 64)
        assert est.value == pytest.approx(D_GH, abs=1e-9)

    def test_ag_approaches_half_from_below(self):
        est = ms.distance(ms.make_arithmetic(), ms.make_geometric(),
                          ms.Interval.closed(1e-8, 1e8), 128)
        assert 0.49 < est.value < 0.5

    def test_grid_too_small(self, unit_window):
        with pytest.raises(ValueError):
            ms.distance(ms.make_geometric(), ms.make_harmonic(), unit_window, 4)

    def test_window_outside_domain(self):
        with pytest.raises(ms.DomainError):
            ms.distance(ms.make_geometric(), ms.make_harmonic(),
                        ms.Interval.closed(-1.0, 1.0), 16)


class TestMetricAxioms:
    def test_symmetry_identity_triangle(self, mean_family, unit_window):
        n = len(mean_family)
        d = {}
        for i in range(n):
            for j in range(n):
                if i < j:
                    d[i, j] = ms.distance(mean_family[i], mean_family[j],
                                          unit_window, 64).value
        get = lambda i, j: 0.0 if i == j else d[min(i, j), max(i, j)]
        # symmetry of the signed estimator over a square window
        for (i, j), val in d.items():
            rev = ms.distance(mean_family[j], mean_family[i], unit_window, 64).value
            assert rev == pytest.approx(val, abs=1e-9)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert get(i, k) <= get(i, j) + get(j, k) + 1e-9

    def test_ball_bound(self, mean_family, unit_window):
        A = ms.make_arithmetic()
        for m in mean_family:
            for window in (unit_window, WIDE):
                assert ms.distance(m, A, window, 48).value <= 0.5 + 1e-12

    def test_universal_bound(self, mean_family, unit_window):
        for m1 in mean_family:
            for m2 in mean_family:
                assert ms.distance(m1, m2, unit_window, 32).value <= 1.0 + 1e-12


class TestAgreement:
    def test_distance_vs_via_phi(self, mean_family, unit_window):
        pairs = [(a, b) for i, a in enumerate(mean_family[:3])
                 for b in mean_family[:3][i + 1:]]
        for m1, m2 in pairs:
            plain = ms.distance(m1, m2, unit_window, 64).value
            transformed = ms.distance_via_phi(m1, m2, unit_window, 64).value
            assert abs(plain - transformed) < 1e-6

    def test_via_phi_gh(self, unit_window):
        est = ms.distance_via_phi(ms.make_geometric(), ms.make_harmonic(),
                                  unit_window, 64)
        assert est.value == pytest.approx(D_GH, abs=1e-9)

    def test_via_phi_identical(self, unit_window):
        est = ms.distance_via_phi(ms.make_arithmetic(), ms.make_arithmetic(),
                                  unit_window, 32)
        assert est.value == pytest.approx(0.0, abs=1e-15)

    def test_both_phi_estimators_refuse_a_non_mean(self, unit_window):
        # min is not strictly between its arguments: its quotient over A is defined, but
        # phi is not, so an estimator that swept the quotient would return a value here
        low = ms.MeanFunction("min", ms.POSITIVE_REALS, min)
        a = ms.make_arithmetic()
        assert ms.distance(low, a, unit_window, 16).value == pytest.approx(0.5, abs=1e-15)
        with pytest.raises(ms.InvalidMeanError):
            ms.distance_via_phi(low, a, unit_window, 16)
        with pytest.raises(ms.InvalidMeanError):
            ms.distance_to_arithmetic(low, unit_window, 16)


class TestDistanceToArithmetic:
    def test_arithmetic_itself(self, unit_window):
        est = ms.distance_to_arithmetic(ms.make_arithmetic(), unit_window, 32)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_known_sup_gives_quarter(self):
        # clamp the transform of G to [-log 3, log 3]: sup is exactly log 3
        # and the distance formula gives (3 - 1)/(2 (3 + 1)) = 0.25
        c = math.log(3.0)
        base = ms.phi(ms.make_geometric())
        clamped = ms.AsymmetricFunction(ms.POSITIVE_REALS,
                                        lambda x, y: max(-c, min(c, base(x, y))),
                                        "clamped")
        m = ms.phi_inverse(clamped)
        est = ms.distance_to_arithmetic(m, WIDE, 64)
        assert est.value == pytest.approx(0.25, abs=1e-10)

    def test_geometric_monotone_toward_half(self):
        values = []
        for a in (1e-2, 1e-4, 1e-6, 1e-8):
            win = ms.Interval.closed(a, 1.0 / a)
            values.append(ms.distance_to_arithmetic(ms.make_geometric(), win, 48).value)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.49
        assert all(v <= 0.5 for v in values)

    def test_matches_direct_estimate(self, mean_family, unit_window):
        A = ms.make_arithmetic()
        for m in mean_family[:3]:
            via_sup = ms.distance_to_arithmetic(m, unit_window, 64).value
            direct = ms.distance(m, A, unit_window, 64).value
            assert abs(via_sup - direct) < 1e-6


class TestBorderDiagnostic:
    def test_arithmetic_is_bounded(self):
        windows = [ms.Interval.closed(10.0 ** -k, 10.0 ** k) for k in (1, 2, 3)]
        diag = ms.border_diagnostic(ms.make_arithmetic(), windows)
        assert diag.trend == "bounded"
        assert diag.sup_f_estimate == pytest.approx(0.0, abs=1e-12)

    def test_geometric_grows(self):
        windows = [ms.Interval.closed(1.0, 10.0), ms.Interval.closed(0.1, 100.0),
                   ms.Interval.closed(0.01, 1e4)]
        diag = ms.border_diagnostic(ms.make_geometric(), windows)
        assert diag.trend == "growing"
        assert list(diag.sup_per_window) == sorted(diag.sup_per_window)

    def test_clamped_transform_is_bounded(self):
        base = ms.phi(ms.make_geometric())
        clamped = ms.AsymmetricFunction(ms.POSITIVE_REALS,
                                        lambda x, y: max(-1.0, min(1.0, base(x, y))),
                                        "clamped")
        m = ms.phi_inverse(clamped)
        windows = [ms.Interval.closed(0.1, 10.0), ms.Interval.closed(0.01, 100.0),
                   ms.Interval.closed(1e-3, 1e3)]
        diag = ms.border_diagnostic(m, windows)
        assert diag.trend == "bounded"
        assert diag.sup_f_estimate == pytest.approx(1.0, abs=1e-9)

    def test_every_window_is_checked_before_sampling(self):
        G, inner = ms.make_geometric(), ms.Interval.closed(1.0, 2.0)
        with pytest.raises(ValueError, match="grid must be >= 8"):
            ms.border_diagnostic(G, [inner], 1)
        wide = ms.Interval.closed(-1.0, 5.0)
        with pytest.raises(ms.DomainError) as err:
            ms.border_diagnostic(G, [inner, wide], 8)
        assert str(err.value) == "window [-1, 5] is not inside the domain (0, inf) of G"

    def test_estimates_that_rise_after_a_flat_step_are_inconclusive(self):
        windows = [ms.Interval.closed(0.5, 2.0), ms.Interval.closed(0.5, 2.0),
                   ms.Interval.closed(0.1, 10.0)]
        diag = ms.border_diagnostic(ms.make_geometric(), windows)
        assert diag.trend == "inconclusive"
        assert diag.sup_per_window == pytest.approx((math.log(2.0), math.log(2.0), math.log(10.0)))

    def test_no_window_is_refused(self):
        with pytest.raises(ValueError, match="^need at least one window$"):
            ms.border_diagnostic(ms.make_geometric(), [])

    def test_non_nested_windows_rejected(self):
        with pytest.raises(ms.DomainError):
            ms.border_diagnostic(ms.make_geometric(),
                                 [ms.Interval.closed(0.1, 10), ms.Interval.closed(5, 20)])


class TestGhCertificate:
    def test_value_and_argmax(self):
        cert = ms.distance_gh_certificate()
        assert cert.value == pytest.approx(D_GH, abs=1e-12)
        assert cert.argmax_t == pytest.approx(T_GH, abs=1e-6)
        assert 0.149 <= cert.value <= 0.152

    def test_value_is_algebraic_of_degree_four(self):
        # the max satisfies 16 v^4 + 44 v^2 - 1 = 0, i.e. v^2 = (5 sqrt 5 - 11)/8
        v = ms.distance_gh_certificate().value
        assert abs(16.0 * v ** 4 + 44.0 * v ** 2 - 1.0) < 1e-12
        assert v == pytest.approx(math.sqrt((5.0 * math.sqrt(5.0) - 11.0) / 8.0), abs=1e-14)

    def test_reported_quartic_residual(self):
        # the polynomial x^4 + 10x^3 + 3x^2 - 14x + 2 does not vanish at the
        # true maximum; its nearest root is ~4e-8 away, leaving a residual
        # near 4.8e-7
        cert = ms.distance_gh_certificate()
        assert cert.quartic_residual == pytest.approx(4.8205e-7, rel=1e-3)
