import ast
import collections
import copy
import math
import pathlib
import pickle
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import meanscape as ms
from meanscape import cli, core, expressions, metric, middle
from meanscape.algebra import _linspace
from meanscape.core import _halton_block, _seeded
from meanscape.metric import _axis_points


class TestInterval:
    def test_membership_respects_flags(self):
        open_iv = ms.Interval(0.0, 1.0)
        closed_iv = ms.Interval.closed(0.0, 1.0)
        assert not open_iv.contains(0.0) and not open_iv.contains(1.0)
        assert closed_iv.contains(0.0) and closed_iv.contains(1.0)
        assert open_iv.contains(0.5)
        assert not open_iv.contains(float("nan"))

    @given(st.sampled_from([(-math.inf, math.inf), (0.0, math.inf), (-1.0, 2.0),
                            (5e-324, 1e-300), (-math.inf, -1e300)]),
           st.booleans(), st.booleans(), st.data())
    def test_membership_is_the_flag_formula(self, ends, lo_closed, hi_closed, data):
        lo, hi = ends
        iv = ms.Interval(lo, hi, lo_closed and math.isfinite(lo), hi_closed and math.isfinite(hi))
        t = data.draw(st.one_of(st.floats(), st.sampled_from(
            [lo, hi, math.nextafter(lo, 0.0), math.nextafter(hi, 0.0), -0.0, math.nan])))
        want = not math.isnan(t) and (t > iv.lo or (iv.lo_closed and t == iv.lo)) and (
            t < iv.hi or (iv.hi_closed and t == iv.hi))
        assert iv.contains(t) is want

    def test_point_interval_rejected(self):
        with pytest.raises(ValueError):
            ms.Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            ms.Interval(2.0, 1.0)

    def test_infinite_endpoints_are_open(self):
        iv = ms.Interval(0.0, math.inf)
        assert not iv.contains(math.inf)
        with pytest.raises(ValueError):
            ms.Interval(0.0, math.inf, hi_closed=True)

    def test_contains_interval(self):
        assert ms.POSITIVE_REALS.contains_interval(ms.Interval.closed(0.1, 10))
        assert not ms.POSITIVE_REALS.contains_interval(ms.Interval.closed(0.0, 10))
        assert ms.ALL_REALS.contains_interval(ms.Interval.closed(-5, 5))

    def test_intersect(self):
        a = ms.Interval.closed(0.0, 2.0)
        b = ms.Interval(1.0, 3.0)
        got = a.intersect(b)
        assert got == ms.Interval(1.0, 2.0, lo_closed=False, hi_closed=True)
        assert a.intersect(ms.Interval.closed(5.0, 6.0)) is None

    def test_intersect_of_an_interval_that_starts_and_ends_after_the_other(self):
        assert ms.Interval(1.0, 3.0).intersect(ms.Interval(0.0, 2.0)) == ms.Interval(1.0, 2.0)
        got = ms.Interval(1.0, 3.0, lo_closed=True).intersect(
            ms.Interval(0.0, 2.0, hi_closed=True))
        assert got == ms.Interval.closed(1.0, 2.0)

    def test_a_closed_infinite_lower_end_is_refused(self):
        with pytest.raises(ValueError, match="^-inf endpoint cannot be closed$"):
            ms.Interval(-math.inf, 0.0, lo_closed=True)

    def test_the_key_ordering_is_the_flag_formulas(self):
        # every interval over these ends, with every flag an end may have: infinite ends,
        # shared ends, the adjacent ends 1 and 1 + 2^-52, and -0.0 beside 0.0
        ends = [-math.inf, -1e308, -1.0, -0.0, 0.0, 5e-324, 1.0, math.nextafter(1.0, 2.0),
                2.0, math.inf]
        ivs = [ms.Interval(lo, hi, lc, hc) for lo in ends for hi in ends if lo < hi
               for lc in (False, True) for hc in (False, True)
               if not (lc and math.isinf(lo) or hc and math.isinf(hi))]
        points = ends + [math.nan, math.nextafter(-1.0, 0.0), math.nextafter(1.0, 0.0), 0.5]
        for a in ivs:
            for t in points:
                assert a.contains(t) is _flag_contains(a, t), (a, t)
            for b in ivs:
                assert a.contains_interval(b) is _flag_contains_interval(a, b), (a, b)
                got, want = a.intersect(b), _flag_intersect(a, b)
                # the same operand where one lies inside the other, and -0.0 kept as it is
                assert (got is a, got is b, repr(got)) == (want is a, want is b, repr(want))


# The flag formulas of ``Interval`` before its ends became comparison keys: the reference that
# ``contains``, ``contains_interval`` and ``intersect`` are held to.
def _flag_contains(iv, t):
    if iv.lo < t < iv.hi:
        return True
    lo_ok = t > iv.lo or (iv.lo_closed and t == iv.lo)
    hi_ok = t < iv.hi or (iv.hi_closed and t == iv.hi)
    return lo_ok and hi_ok


def _flag_contains_interval(iv, other):
    if other.lo < iv.lo or (other.lo == iv.lo and other.lo_closed and not iv.lo_closed):
        return False
    if other.hi > iv.hi or (other.hi == iv.hi and other.hi_closed and not iv.hi_closed):
        return False
    return True


def _flag_intersect(iv, other):
    if _flag_contains_interval(other, iv):
        return iv
    if _flag_contains_interval(iv, other):
        return other
    if iv.lo > other.lo or (iv.lo == other.lo and not iv.lo_closed):
        lo, lo_closed = iv.lo, iv.lo_closed
    else:
        lo, lo_closed = other.lo, other.lo_closed
    if iv.hi < other.hi or (iv.hi == other.hi and not iv.hi_closed):
        hi, hi_closed = iv.hi, iv.hi_closed
    else:
        hi, hi_closed = other.hi, other.hi_closed
    if not lo < hi:
        return None
    return ms.Interval(lo, hi, lo_closed, hi_closed)


# positive floats of every binade, subnormals included, and the neighbours of the ends
# 2^-500 and 2^500 of the G and H kernels' plain range
_PLAIN_ENDS = [2.0 ** -500, 2.0 ** 500]
_mantissas = st.floats(min_value=0.5, max_value=1.0, exclude_max=True)
_kernel_floats = st.one_of(
    st.builds(math.ldexp, _mantissas, st.integers(min_value=-1073, max_value=1024)),
    st.sampled_from(_PLAIN_ENDS + [math.nextafter(e, d) for e in _PLAIN_ENDS
                                   for d in (0.0, math.inf)]),
    st.floats(min_value=2.0 ** -500, max_value=2.0 ** 500),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]))


def _harmonic_weighted(x, y):
    """H's range-safe form: the endpoint-weighted form with U = y and V = x."""
    return core._endpoint_weighted("H", x, y, y, 1.0, 1.0, x, 1.0, 1.0)


class TestBuiltins:
    def test_textbook_values(self, builtins):
        A, G, H = builtins
        assert A(2, 4) == 3
        assert A(-1, 5) == 2
        assert G(1, 4) == 2
        assert G(2, 8) == 4
        assert H(1, 3) == 1.5
        assert H(2, 6) == 3

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_diagonal_is_exact(self, x):
        for make in (ms.make_arithmetic, ms.make_geometric, ms.make_harmonic):
            assert make()(x, x) == x

    @given(st.floats(min_value=1e-150, max_value=1e150),
           st.floats(min_value=1e-150, max_value=1e150))
    def test_scaled_kernels_give_the_textbook_bits(self, x, y):
        # G and H scale their arguments by a power of two; where x*y is a
        # normal float that is exact and rounds like the textbook formulas
        G, H = ms.make_geometric(), ms.make_harmonic()
        for a, b in ((x, y), (3e-308, 1.5e308)):  # the second: exponents 2045 apart
            assert G.fn(a, b) == math.sqrt(a * b)
            assert H.fn(a, b) == 2.0 * a * b / (a + b)

    @given(_kernel_floats, _kernel_floats)
    def test_plain_range_gives_the_scaled_bits(self, x, y):
        # inside (2^-500, 2^500) the kernels take the plain formulas, elsewhere the
        # range-safe forms: both must give the same bits everywhere
        for kernel, scaled in ((core._geometric_eval, core._geometric_scaled),
                               (core._harmonic_eval, _harmonic_weighted)):
            assert kernel(x, y).hex() == scaled(x, y).hex()
            assert kernel(y, x).hex() == scaled(y, x).hex()

    @given(st.sampled_from([-1, 1]), st.integers(min_value=-8, max_value=30),
           st.integers(min_value=-2, max_value=2), _mantissas, _mantissas)
    @example(1, 13, 0, 0.7512345678, 0.8712345)
    @example(-1, 13, 0, 0.7512345678, 0.8712345)
    def test_plain_range_ends_give_the_scaled_bits(self, side, d, dy, mx, my):
        # both arguments on one scale near an end of the plain range, mostly past it,
        # where a product of the plain formulas would leave the normal range
        x, y = math.ldexp(mx, side * (500 + d)), math.ldexp(my, side * (500 + d) + dy)
        for kernel, scaled in ((core._geometric_eval, core._geometric_scaled),
                               (core._harmonic_eval, _harmonic_weighted)):
            assert kernel(x, y).hex() == scaled(x, y).hex()

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    @example(1.6e308, 1.5e308)
    @example(-1.7976931348623157e308, -1e308)
    def test_arithmetic_is_the_rounded_midpoint(self, x, y):
        # x + y overflows near the float maximum, where A halves first
        assert ms.make_arithmetic()(x, y) == float((Fraction(x) + Fraction(y)) / 2)

    def test_domain_enforced(self, builtins):
        _, G, H = builtins
        with pytest.raises(ms.DomainError):
            G(-1.0, 4.0)
        with pytest.raises(ms.DomainError):
            H(0.0, 2.0)

    @given(st.floats(min_value=0.01, max_value=100), st.floats(min_value=0.01, max_value=100))
    def test_betweenness_and_symmetry(self, x, y):
        for make in (ms.make_arithmetic, ms.make_geometric, ms.make_harmonic):
            m = make()
            v = m(x, y)
            assert min(x, y) - 1e-12 <= v <= max(x, y) + 1e-12
            assert v == m(y, x)

    @given(st.floats(min_value=0.01, max_value=100), st.floats(min_value=0.01, max_value=100))
    def test_classical_ordering(self, x, y):
        # A > G > H off the diagonal
        if abs(x - y) < 1e-6 * max(x, y):
            return
        A, G, H = ms.make_arithmetic(), ms.make_geometric(), ms.make_harmonic()
        assert A(x, y) > G(x, y) > H(x, y)


class TestVerifyAxioms:
    def test_builtins_pass(self, builtins):
        window = ms.Interval.closed(0.5, 20.0)
        for m in builtins:
            report = ms.verify_axioms(m, window, 1000, seed=7)
            assert report.all_ok
            assert report.samples_used == 1000
            assert report.counterexamples == ()

    def test_arithmetic_on_wide_window(self):
        report = ms.verify_axioms(ms.make_arithmetic(), ms.Interval.closed(0, 10), 1000, 7)
        assert report.all_ok

    def test_min_fails_strictness(self):
        fake = ms.MeanFunction("min", ms.ALL_REALS, lambda x, y: min(x, y))
        report = ms.verify_axioms(fake, ms.Interval.closed(0, 10), 200, 7)
        assert not report.axiom_iii_ok
        assert report.axiom_i_ok and report.axiom_ii_ok
        assert any(c[0] == "iii" for c in report.counterexamples)

    def test_an_infinite_value_fails_betweenness_only(self):
        # inf is close to no finite argument, so strictness holds; betweenness flags it
        fake = ms.MeanFunction("inf", ms.POSITIVE_REALS, lambda x, y: math.inf)
        report = ms.verify_axioms(fake, ms.Interval.closed(1.0, 4.0), 8)
        assert report.axiom_iii_ok and not report.axiom_ii_ok
        assert not any(c[0] == "iii" for c in report.counterexamples)

    def test_max_fails_strictness(self):
        fake = ms.MeanFunction("max", ms.ALL_REALS, lambda x, y: max(x, y))
        report = ms.verify_axioms(fake, ms.Interval.closed(0, 10), 200, 7)
        assert not report.axiom_iii_ok

    def test_projection_fails_symmetry(self):
        fake = ms.MeanFunction("left", ms.ALL_REALS, lambda x, y: x)
        report = ms.verify_axioms(fake, ms.Interval.closed(0, 10), 200, 7)
        assert not report.axiom_i_ok
        assert any(c[0] == "i" for c in report.counterexamples)

    def test_outside_betweenness_flagged(self):
        fake = ms.MeanFunction("sum", ms.ALL_REALS, lambda x, y: x + y)
        report = ms.verify_axioms(fake, ms.Interval.closed(1, 10), 200, 7)
        assert not report.axiom_ii_ok

    def test_window_outside_domain(self):
        with pytest.raises(ms.DomainError):
            ms.verify_axioms(ms.make_geometric(), ms.Interval.closed(-1, 1), 10, 7)

    def test_deterministic_for_seed(self, builtins):
        A = builtins[0]
        w = ms.Interval.closed(0, 5)
        r1 = ms.verify_axioms(A, w, 50, seed=3)
        r2 = ms.verify_axioms(A, w, 50, seed=3)
        assert r1 == r2


def _checked_verify_axioms(m, window, samples, seed=ms.DEFAULT_SEED):
    """``verify_axioms`` with every sample through the checked call, as it was before it
    called kernels; the oracle of its values, counterexamples and messages."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    core.check_window(window, (m.domain, m.name))
    pairs = core.sample_pairs(window, samples, seed)
    i_ok = ii_ok = iii_ok = True
    counterexamples = []

    def note(axiom, x, y, observed):
        if sum(1 for c in counterexamples if c[0] == axiom) < 8:
            counterexamples.append((axiom, x, y, observed))

    for x, y in pairs:
        mxy = m(x, y)
        myx = m(y, x)
        scale = max(abs(x), abs(y))
        if abs(mxy - myx) > core._SYMMETRY_TOL * scale:
            i_ok = False
            note("i", x, y, mxy - myx)
        lo, hi = min(x, y), max(x, y)
        if (mxy < lo - core._BETWEENNESS_SLACK * scale
                or mxy > hi + core._BETWEENNESS_SLACK * scale):
            ii_ok = False
            note("ii", x, y, mxy)
        if not math.isclose(x, y, rel_tol=100.0 * core._STRICT_EPS):
            if (math.isclose(mxy, x, rel_tol=core._STRICT_EPS)
                    or math.isclose(mxy, y, rel_tol=core._STRICT_EPS)):
                iii_ok = False
                note("iii", x, y, mxy)
    return ms.AxiomReport(i_ok, ii_ok, iii_ok, tuple(counterexamples), len(pairs))


def _bits(v):
    """Floats as hex strings, through tuples, so == compares bit patterns."""
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, tuple):
        return tuple(_bits(u) for u in v)
    return v


def _report_outcome(verify, m, window, samples, seed):
    try:
        return _bits(verify(m, window, samples, seed))
    except Exception as exc:
        return type(exc), str(exc)


def _positive_means(mean_family):
    parsed = [ms.mean_from_source(src).mean for src in (
        "sqrt(x*y)", "((x^1.5+y^1.5)/2)^(1/1.5)", "x", "min(x,y)", "x+y", "x*y",
        "log(x-1)+y", "1/(x-y)", "(x+y)/2+1e-9*x", "x/y")]
    return list(mean_family) + parsed + [ms.make_agm(), ms.compound(*mean_family[1:3])]


def _real_means():
    fakes = [ms.MeanFunction(name, ms.ALL_REALS, fn) for name, fn in (
        ("min", min), ("max", max), ("left", lambda x, y: x), ("sum", lambda x, y: x + y),
        ("nan", lambda x, y: math.nan))]
    return [ms.make_arithmetic(), ms.mean_from_source("(x+y)/2", ms.ALL_REALS).mean] + fakes


class TestVerifyAxiomsMatchesCheckedReference:
    """verify_axioms calls kernels; the checked form above is its oracle, bit for bit."""

    @pytest.mark.parametrize("window", [(0.1, 10.0), (1e-6, 1e6), (1e-300, 1e300),
                                        (1e-300, 1e-290), (1e300, 1.7e308), (1.0, 2.0)])
    def test_positive_means(self, mean_family, window):
        window = ms.Interval.closed(*window)
        for m in _positive_means(mean_family):
            for seed, samples in ((7, 256), (15, 40), (3, 1)):
                assert (_report_outcome(ms.verify_axioms, m, window, samples, seed)
                        == _report_outcome(_checked_verify_axioms, m, window, samples, seed))

    @pytest.mark.parametrize("window", [(-1e3, 1e3), (0.0, 10.0), (-5e-324, 5e-324),
                                        (-1e308, 1e308), (-1.7e308, 1.7e308)])
    def test_means_on_the_reals(self, window):
        # a width past the float range is rejected before any sample
        window = ms.Interval.closed(*window)
        for m in _real_means():
            for seed, samples in ((7, 256), (15, 40)):
                assert (_report_outcome(ms.verify_axioms, m, window, samples, seed)
                        == _report_outcome(_checked_verify_axioms, m, window, samples, seed))

    @given(st.floats(min_value=1e-300, max_value=1e300),
           st.floats(min_value=1e-300, max_value=1e300),
           st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=64))
    def test_random_windows(self, mean_family, a, b, seed, samples):
        if a == b:
            return
        window = ms.Interval.closed(min(a, b), max(a, b))
        for m in _positive_means(mean_family)[::3]:
            assert (_report_outcome(ms.verify_axioms, m, window, samples, seed)
                    == _report_outcome(_checked_verify_axioms, m, window, samples, seed))

    def test_sample_that_rounds_past_hi_is_hi(self, monkeypatch):
        # lo + (hi - lo) * 1.0 rounds past hi here; the closed domain ends at hi
        lo, hi = -0.9601064608346761, 3.0164058039938824
        assert lo + (hi - lo) * 1.0 > hi
        monkeypatch.setattr(core, "_halton_block", lambda *args: ((1.0, 0.5), (0.25, 1.0)) * 32)
        window = ms.Interval.closed(lo, hi)
        assert ms.sample_pairs(window, 2) == [(hi, lo + (hi - lo) * 0.5), (lo + (hi - lo) * 0.25, hi)]
        calls = []
        m = ms.MeanFunction("M", window, lambda x, y: calls.append((x, y)) or (x + y) / 2)
        report = ms.verify_axioms(m, window, 2, 7)
        assert report.all_ok and len(calls) == 4
        assert all(lo <= t <= hi for pair in calls for t in pair)
        assert _report_outcome(_checked_verify_axioms, m, window, 2, 7) == _bits(report)

    def test_checked_call_is_not_used_inside_the_domain(self):
        class Unchecked(ms.MeanFunction):
            __slots__ = ()

            def __call__(self, x, y):
                raise AssertionError("checked call")

        m = Unchecked("G", ms.POSITIVE_REALS, ms.make_geometric().fn)
        report = ms.verify_axioms(m, ms.Interval.closed(1e-6, 1e6), 256, 7)
        assert report.all_ok and report.samples_used == 256


def test_sample_pairs_deterministic_and_bounded():
    w = ms.Interval.closed(0.1, 10.0)
    a = ms.sample_pairs(w, 64, seed=5)
    b = ms.sample_pairs(w, 64, seed=5)
    assert a == b
    assert all(0.1 <= t <= 10.0 for pair in a for t in pair)
    gapped = ms.sample_pairs(w, 64, seed=5, min_gap=1e-3)
    assert all(abs(x - y) > 0 for x, y in gapped)


_TOP = sys.float_info.max


@st.composite
def finite_windows(draw):
    """Windows with a finite width: any ends, widths of a few ulps, ends near the float maximum."""
    kind = draw(st.sampled_from(["any", "ulps", "top"]))
    if kind == "ulps":
        lo = hi = draw(st.floats(allow_nan=False, allow_infinity=False))
        for _ in range(draw(st.integers(1, 4))):
            hi = math.nextafter(hi, math.inf)
    else:
        ends = st.floats(allow_nan=False, allow_infinity=False) if kind == "any" else \
            st.builds(math.copysign, st.floats(1e307, _TOP), st.sampled_from([-1.0, 1.0]))
        lo, hi = sorted((draw(ends), draw(ends)))
    assume(lo < hi and math.isfinite(hi - lo))
    return ms.Interval.closed(lo, hi)


@given(finite_windows(), st.integers(2, 70), st.integers(0, 2**32))
def test_samples_and_grid_points_lie_in_the_closed_window(window, n, seed):
    lo, hi = window.lo, window.hi
    points = [t for pair in ms.sample_pairs(window, n, seed) for t in pair]
    points += _axis_points(window, n)[0] + _linspace(lo, hi, n)
    assert all(lo <= t <= hi for t in points)


@pytest.mark.parametrize("window", [
    ms.Interval.closed(1.0, math.nextafter(1.0, 2.0)), ms.Interval.closed(0.0, 5e-324),
    ms.Interval.closed(0.1, 10.0)], ids=str)
def test_sample_pairs_draw_no_pair_on_the_diagonal(window):
    # verify_axioms hands every pair to the mean's kernel, which is never called on x == y
    pairs = ms.sample_pairs(window, 256, seed=3)
    assert len(pairs) == 256 and all(x != y for x, y in pairs)
    G = ms.make_geometric()

    def kernel(x, y):
        assert x != y
        return G.fn(x, y)

    if window.lo > 0.0:
        m = ms.MeanFunction("G", G.domain, kernel)
        assert ms.verify_axioms(m, window, 256, 3).samples_used == 256


def test_interval_text_reads_back_as_its_ends():
    # each end in :g form where that reads back, else its repr
    assert str(ms.Interval.closed(1.0000001, 2.0)) == "[1.0000001, 2]"
    assert str(ms.default_window(ms.Interval(0.0, 1.0))) == "[1e-06, 0.999999000001]"
    with pytest.raises(ms.DomainError) as err:
        core.check_window(ms.Interval.closed(1.0000001, 2.0),
                          (ms.Interval(1.0000002, 3.0), "(x + y) / 2.0"))
    assert str(err.value) == ("window [1.0000001, 2] is not inside the domain "
                              "(1.0000002, 3) of (x + y) / 2.0")


def test_check_window_wants_a_finite_width_and_both_ends_in_each_domain():
    G, A = ms.make_geometric(), ms.make_arithmetic()
    cases = [(ms.Interval.open(0.0, 1.0), "window (0, 1) is not inside the domain (0, inf) of G"),
             (ms.Interval.closed(1.0, 3.0), "window [1, 3] is not inside the domain [1, 2] of M"),
             (ms.Interval.closed(-1e308, 1e308), "window [-1e+308, 1e+308] has no finite width"),
             (ms.Interval.open(0.0, math.inf), "window (0, inf) has no finite width")]
    domains = [(A.domain, "A"), (G.domain, "G"), (ms.Interval.closed(1.0, 2.0), "M")]
    for window, message in cases:
        with pytest.raises(ms.DomainError) as err:
            core.check_window(window, *domains)
        assert str(err.value) == message
    # the flags of the window do not matter, only where its ends lie
    core.check_window(ms.Interval.open(1.0, 2.0), *domains)
    core.check_window(ms.Interval.closed(1e300, _TOP), (G.domain, "G"))


def test_halton_blocks_are_drawn_once_and_handed_out_as_fresh_lists():
    core._halton_block.cache_clear()
    first = ms.mean_from_source("sqrt(x*y)", seed=3)
    drawn = core._halton_block.cache_info().misses
    second = ms.mean_from_source("sqrt(x*y)", seed=3)
    assert drawn >= 1 and core._halton_block.cache_info().misses == drawn
    assert first.report == second.report and first.report.all_ok
    w = ms.Interval.closed(0.1, 10.0)
    pairs = ms.sample_pairs(w, 64, seed=5)
    want_pairs = list(pairs)
    pairs[0] = (0.0, 0.0)
    pairs.pop()
    assert ms.sample_pairs(w, 64, seed=5) == want_pairs
    assert type(_halton_block(5, 0, 64)) is tuple


def test_sample_pairs_golden():
    # the exact pairs of the seeded scrambled Halton sequence; any change to
    # the generator changes every seeded verify/coincide/counterexample output
    got = ms.sample_pairs(ms.Interval.closed(0.1, 10), 4, seed=7)
    assert got == [(8.780880458099784, 0.1983558688326798),
                   (3.830880458099783, 6.7983558688326795),
                   (6.305880458099783, 3.4983558688326792),
                   (1.355880458099783, 2.3983558688326796)]


def test_halton_golden_at_nonzero_start():
    # sample_pairs draws later blocks with start > 0 when it rejects pairs
    assert _halton_block(7, 100, 2) == ((0.775294111929271, 0.7465604506490174),
                                        (0.275294111929271, 0.41322711731568396))


def _numpy_halton(seed, start, n):
    """The ndarray form of ``_halton_block``, kept as its oracle for the digit weights and
    the summation: the same permutations, drawn from ``_seeded(seed)`` in the same order."""
    rng = _seeded(seed)
    out = np.zeros((2, n))
    for dim, base in enumerate((2, 3)):
        perms = [np.argsort([rng.random() for _ in range(base)], kind="stable")
                 for _ in range(math.ceil(54 / math.log2(base)) - 1)]
        index, weight = np.arange(start, start + n), 1.0
        for perm in perms:
            weight /= base
            out[dim] += perm[index % base] * weight
            index //= base
    return out.T


@pytest.mark.parametrize("seed", [0, 1, 7, 99, 2**40 + 3, 2**128])
@pytest.mark.parametrize("start, n", [(0, 64), (64, 64), (100, 2), (1000, 300)])
def test_halton_matches_numpy_oracle(seed, start, n):
    assert np.array_equal(_halton_block(seed, start, n), _numpy_halton(seed, start, n))


def _digit_by_digit_halton(seed, start, n):
    """``_halton_block`` adding every digit row past the top digit of the last index to
    each point in turn, kept as the oracle of its one add of the base-2 tail's sum."""
    rng = _seeded(seed)
    dims = []
    for base in (2, 3):
        rows, weight = [], 1.0
        for _ in range(math.ceil(54 / math.log2(base)) - 1):
            weight /= base
            rows.append([d * weight for d in sorted(range(base), key=lambda _: rng.random())])
        coords, indices, top = [0.0] * n, range(start, start + n), start + n - 1
        for row in rows:
            if top:
                coords = [acc + row[index % base] for acc, index in zip(coords, indices)]
                indices, top = [index // base for index in indices], top // base
            elif row[0]:
                coords = list(map(row[0].__add__, coords))
        dims.append(coords)
    return tuple(zip(*dims))


@pytest.mark.parametrize("seed", [0, 1, 7, 99, 2**40 + 3, 2**128])
def test_halton_tail_keeps_the_bits_of_the_digit_by_digit_draw(seed):
    for start in (0, 1, 63, 64, 100, 1000, 2**20 - 5, 2**40):
        for n in (1, 2, 3, 64, 256, 300):
            got, want = _halton_block.__wrapped__(seed, start, n), _digit_by_digit_halton(
                seed, start, n)
            assert [[u.hex() for u in p] for p in got] == [[u.hex() for u in p] for p in want], (
                start, n)


@given(st.integers(min_value=0, max_value=2**70))
def test_halton_is_a_net_for_every_seed(seed):
    # whatever the digit permutations, the first b^k points of base b put exactly one
    # coordinate in each cell [i/b^k, (i+1)/b^k)
    for dim, base, k in ((0, 2, 8), (1, 3, 5)):
        coords = [p[dim] for p in _halton_block(seed, 0, base ** k)]
        assert sorted(math.floor(u * base ** k) for u in coords) == list(range(base ** k))
    window = ms.Interval.closed(0.1, 10.0)
    G = ms.make_geometric()
    for bad, error in ((-1, ValueError), (1.5, TypeError)):
        for call in (lambda: ms.sample_pairs(window, 4, seed=bad),
                     lambda: ms.verify_axioms(G, window, 4, seed=bad),
                     lambda: ms.coincidence_probe(G, window, 4, seed=bad)):
            with pytest.raises(error):
                call()


def _frozen_values():
    """One instance of every read-only type of the package."""
    A, G = ms.make_arithmetic(), ms.make_geometric()
    w = ms.Interval.closed(0.5, 2.0)
    trace = ms.compound_trace(A, G, 1.0, 2.0, estimate_contraction=False)
    return [w, G, ms.make_agm(), ms.phi(G), ms.weight_from_source("1/t"),
            ms.verify_axioms(G, w, 8), ms.distance(A, G, w, 8),
            ms.border_diagnostic(G, [w], 8), trace, trace.steps[0],
            ms.parse_mean_expr("-min(x, y) + A ^ 2.0")]


class TestValueTypes:
    def test_every_field_is_read_only(self):
        for value in _frozen_values():
            for name in value._fields + ("new_attribute",):
                with pytest.raises(AttributeError):
                    setattr(value, name, 1.0)
                with pytest.raises(AttributeError):
                    delattr(value, name)

    def test_interval_equality_and_hash(self):
        iv = ms.Interval(1, 2)
        assert iv == ms.Interval(1.0, 2.0) and type(iv.lo) is float
        assert hash(iv) == hash(ms.Interval(1.0, 2.0)) == hash((1.0, 2.0, False, False))
        assert iv != ms.Interval.closed(1.0, 2.0) and iv != ms.Interval(1.0, 2.0, True)
        assert iv != (1.0, 2.0, False, False)
        assert {iv: "open"}[ms.Interval(1.0, 2.0)] == "open"
        assert ms.Interval(0.0, math.inf) == ms.POSITIVE_REALS
        assert repr(ms.Interval.closed(0, 1)) == (
            "Interval(lo=0.0, hi=1.0, lo_closed=True, hi_closed=True)")

    def test_replace_rebuilds_through_the_constructor(self):
        G = ms.make_geometric()
        named = G.replace(name="G2", is_monotone=None)
        assert (named.name, named.is_monotone, named.domain, named.fn) == (
            "G2", None, G.domain, G.fn)
        assert G.name == "G" and G.is_monotone is True
        assert G.replace() == G and G.replace() is not G and named != G
        with pytest.raises(TypeError):
            G.replace(colour="red")

        class Checked(ms.MeanFunction):
            __slots__ = ()

            def __init__(self, name, domain, fn, is_monotone=None, is_continuous=None):
                if not name:
                    raise ValueError("a mean needs a name")
                super().__init__(name, domain, fn, is_monotone, is_continuous)

        m = Checked("m", G.domain, G.fn)
        assert type(m.replace(name="n")) is Checked
        with pytest.raises(ValueError, match="needs a name"):
            m.replace(name="")

    def test_replace_refuses_a_new_kernel_or_domain(self):
        # G's kernel and its inverse's would run at (-1, -4) and return 2 and -7 there
        G = ms.make_geometric()
        for m in (G, ms.group_inverse(G)):
            for field, value in [("domain", ms.ALL_REALS), ("domain", ms.Interval(1.0, 2.0)),
                                 ("fn", ms.make_harmonic().fn)]:
                with pytest.raises(ValueError) as err:
                    m.replace(**{field: value})
                assert str(err.value) == (f"the kernel of {m.name} has {field} baked in; "
                                          f"build a new mean to change it")
            assert m.replace(domain=m.domain, fn=m.fn) == m
            with pytest.raises(ms.DomainError):
                m.replace(name="M")(-1.0, -4.0)

    def test_replace_keeps_a_compound(self):
        c = ms.m_arithmetic(ms.make_harmonic())
        named = c.replace(name="AHM")
        assert type(named) is ms.CompoundMean and named.name == "AHM"
        assert (named.m1, named.m2, named.d_upper, named.guaranteed_by) == (
            c.m1, c.m2, 0.5, "distance")
        assert named(1.0, 4.0) == c(1.0, 4.0)
        with pytest.raises(TypeError):
            c.replace(guaranteed=True)

    def test_compound_signature(self):
        A, G = ms.make_arithmetic(), ms.make_geometric()
        c = ms.CompoundMean("c", G.domain, G.fn, None, True, 1e-10, 50, m1=A, m2=G)
        assert (c.tolerance, c.max_iterations, c.d_upper, c.guaranteed) == (1e-10, 50, None, False)
        with pytest.raises(TypeError):
            ms.CompoundMean("c", G.domain, G.fn, None, True, 1e-10, 50, None, None, A, G)

    def test_a_kernel_that_declares_no_checked_call_keeps_the_full_check(self):
        # G's kernel does not check its point: the compound's call checks it first
        A, G = ms.make_arithmetic(), ms.make_geometric()
        c = ms.CompoundMean("c", G.domain, G.fn, m1=A, m2=G)
        with pytest.raises(ms.DomainError) as err:
            c(-1.0, 4.0)
        assert str(err.value) == "(-1.0, 4.0) is outside the domain (0, inf) of c"
        assert (c(4.0, 4.0), c("1", 4)) == (4.0, 2.0)
        # a compound's kernel checks the domain it was built for, not another one
        narrow = ms.CompoundMean("n", ms.Interval.closed(1.0, 2.0), ms.make_agm().fn, m1=A, m2=G)
        with pytest.raises(ms.DomainError) as err:
            narrow(3.0, 4.0)
        assert str(err.value) == "(3.0, 4.0) is outside the domain [1, 2] of n"

    def test_the_checked_call_is_no_field(self):
        agm = ms.make_agm()
        again = agm.replace()
        assert "__call__" not in ms.CompoundMean._fields and "__call__" not in repr(agm)
        assert again == agm and hash(again) == hash(agm) and again.__call__ is not agm.__call__
        assert repr(again) == repr(agm)

    def test_values_round_trip_through_pickle_and_copy(self):
        w = ms.Interval.closed(1.0, 4.0)
        A, G = ms.make_arithmetic(), ms.make_geometric()
        values = [cls(*args) for cls, args, _ in _value_types()
                  if cls is ms.Interval or issubclass(cls, expressions.Expression)]
        values += [ms.Interval(-math.inf, -0.0, False, False), ms.Interval(0.0, 1.0, True),
                   ms.parse_mean_expr("-min(x, y) + A ^ 2.0"), ms.distance(A, G, w, 16),
                   ms.border_diagnostic(G, [w, ms.Interval(0.5, 8.0, hi_closed=True)], 8)]
        copies = [copy.copy, copy.deepcopy]
        copies += [lambda v, p=p: pickle.loads(pickle.dumps(v, p))
                   for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for value in values:
            for copied in copies:
                back = copied(value)
                assert type(back) is type(value) and back == value and repr(back) == repr(value)
        # a copied interval derives its comparison keys again, as the constructor does
        back = pickle.loads(pickle.dumps(ms.Interval(0.0, 1.0, True)))
        assert back.contains(0.0) and not back.contains(1.0)
        assert back.intersect(ms.Interval.closed(0.5, 2.0)) == ms.Interval(0.5, 1.0, True)

    def test_copies_of_the_mean_types_are_equal_and_evaluate_equal(self):
        for value in _frozen_values()[1:5]:
            for copied in (copy.copy, copy.deepcopy):
                back = copied(value)
                assert type(back) is type(value) and back == value
        agm = ms.make_agm()
        for named in (agm, agm.replace(name="M")):
            deep = copy.deepcopy(named)
            assert deep == named and deep.__call__ is not named.__call__
            # in P, outside it, on the diagonal, and as strings
            for x, y in [(1.0, 4.0), (1e-300, 1e300), (2.0 ** -600, 3.0), (2.5, 2.5),
                         ("1", "4")]:
                assert _bits(deep(x, y)) == _bits(named(x, y))
            with pytest.raises(ms.DomainError) as err:
                deep(-1.0, 4.0)
            assert str(err.value) == f"(-1.0, 4.0) is outside the domain (0, inf) of {named.name}"


# Each record with its fields and defaults as its class body declares them: the namedtuple
# built from these is the oracle that every record must behave as.
_RECORDS = [
    (cli._Command, "help run flags least_grid", (1,)),
    (core.AxiomReport, "axiom_i_ok axiom_ii_ok axiom_iii_ok counterexamples samples_used", ()),
    (expressions._Token, "kind text start end", ()),
    (expressions.MeanBuild, "mean report diagnostics", ()),
    (metric.DistanceEstimate, "value argmax window grid_size", ()),
    (metric.BorderDiagnostic, "sup_f_estimate windows_tested sup_per_window trend", ()),
    (metric.GhCertificate, "value quartic_residual argmax_t", ()),
    (middle.TraceStep, "n x y gap", ()),
    (middle.IterationTrace, "steps converged limit iterations_used k_estimate", (None,)),
    (middle.CoincidenceResult, "max_discrepancy worst_point", ()),
    (middle.CounterexampleResult, "d_estimate compound_is_A", ()),
]


def _both_raise(error, make, oracle, *args, **kwargs):
    for build in (make, oracle):
        with pytest.raises(error):
            build(*args, **kwargs)


@pytest.mark.parametrize("cls, fields, defaults", _RECORDS, ids=[r[0].__name__ for r in _RECORDS])
class TestRecordsMatchNamedtuple:
    @staticmethod
    def _oracle(cls, fields, defaults):
        return collections.namedtuple(cls.__name__, fields, defaults=defaults)

    @staticmethod
    def _values(cls):
        # hashable, distinct and of several types, with a nested record
        kinds = [lambda i: 0.1 * i, lambda i: f"text {i}", lambda i: (i, -i / 3),
                 lambda i: middle.TraceStep(i, 1.5, 2.5, 1.0), lambda i: None]
        return tuple(kinds[i % len(kinds)](i) for i in range(len(cls._fields)))

    def test_construction(self, cls, fields, defaults):
        oracle, values = self._oracle(cls, fields, defaults), self._values(cls)
        r = cls(*values)
        assert type(r) is cls and tuple(r) == values
        assert cls(**dict(zip(oracle._fields, values))) == r
        assert cls(values[0], **dict(zip(oracle._fields[1:], values[1:]))) == r
        required = len(values) - len(defaults)
        assert tuple(cls(*values[:required])) == tuple(oracle(*values[:required]))
        _both_raise(TypeError, cls, oracle, *values[:required - 1])
        _both_raise(TypeError, cls, oracle, *values, 0)
        _both_raise(TypeError, cls, oracle, *values, colour=0)
        _both_raise(TypeError, cls, oracle, *values, **{oracle._fields[0]: 0})
        _both_raise(TypeError, cls, oracle, **dict(zip(oracle._fields[1:], values[1:])))

    def test_tuple_behaviour(self, cls, fields, defaults):
        oracle, values = self._oracle(cls, fields, defaults), self._values(cls)
        r, o = cls(*values), oracle(*values)
        assert repr(r) == repr(o)
        assert r == o == values and hash(r) == hash(o) == hash(values)
        assert r != values[:-1] and r != cls(*values[:-1], "other")
        first, *rest = r
        assert (first, *rest) == values and r[-1] == values[-1] and r[1:] == values[1:]
        assert isinstance(r, tuple) and len(r) == len(values)
        assert [getattr(r, f) for f in o._fields] == list(values)
        assert cls._fields == oracle._fields and cls.__match_args__ == oracle.__match_args__
        assert cls._field_defaults == oracle._field_defaults

    def test_helpers(self, cls, fields, defaults):
        oracle, values = self._oracle(cls, fields, defaults), self._values(cls)
        r, o = cls(*values), oracle(*values)
        made = cls._make(iter(values))
        assert type(made) is cls and made == r
        _both_raise(TypeError, cls._make, oracle._make, values[1:])
        change = {oracle._fields[-1]: "changed"}
        assert type(r._replace(**change)) is cls and r._replace(**change) == o._replace(**change)
        assert r._replace() == r
        _both_raise(ValueError, r._replace, o._replace, colour=0)
        assert r._asdict() == o._asdict() and list(r._asdict()) == list(o._fields)

    def test_copies(self, cls, fields, defaults):
        r = cls(*self._values(cls))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(r, protocol))
            assert type(back) is cls and back == r
        deep = copy.deepcopy(r)
        assert type(deep) is cls and deep == r and copy.copy(r) == r

    def test_read_only(self, cls, fields, defaults):
        r = cls(*self._values(cls))
        assert not hasattr(r, "__dict__") and cls.__slots__ == ()
        for name in cls._fields + ("new_attribute",):
            with pytest.raises(AttributeError):
                setattr(r, name, 0)
            with pytest.raises(AttributeError):
                delattr(r, name)


def _value_types():
    """Each value type with one full positional argument tuple and its declared defaults."""
    G, E = ms.make_geometric(), expressions
    return [
        (ms.MeanFunction, ("m", ms.POSITIVE_REALS, G.fn, True, False),
         {"is_monotone": None, "is_continuous": None}),
        (ms.AsymmetricFunction, (ms.POSITIVE_REALS, ms.phi(G).fn, "g"), {"name": "f"}),
        (ms.WeightFunction, (ms.POSITIVE_REALS, math.sqrt, "w"), {"name": "P"}),
        (ms.Interval, (1.0, 2.0, True, False), {"lo_closed": False, "hi_closed": False}),
        (E.Num, (2.5,), {}),
        (E.Var, ("x",), {}),
        (E.BuiltinMean, ("G",), {}),
        (E.Unary, ("-", E.Num(1.0)), {}),
        (E.Binary, ("+", E.Var("x"), E.Num(2.0)), {}),
        (E.Call, ("max", (E.Var("x"), E.Var("y"))), {}),
    ]


@pytest.mark.parametrize("cls, values, defaults", _value_types(),
                         ids=[t[0].__name__ for t in _value_types()])
class TestValueTypesBindAsRecords:
    # a value type's constructor binds its arguments by the records' rule (core._bind)
    def test_positional_keyword_and_mixed_calls_agree(self, cls, values, defaults):
        # Call(func=..., args=...) too: the constructor's own *args hides no field
        fields = cls._fields
        assert len(fields) == len(values)
        made = cls(*values)
        assert type(made) is cls and tuple(getattr(made, f) for f in fields) == values
        for built in (cls(**dict(zip(fields, values))),
                      cls(*values[:1], **dict(zip(fields[1:], values[1:]))),
                      cls(*values[:-1], **{fields[-1]: values[-1]})):
            assert type(built) is cls and built == made and hash(built) == hash(made)

    def test_an_omitted_default_takes_the_declared_value(self, cls, values, defaults):
        required = len(values) - len(defaults)
        assert tuple(cls._fields[required:]) == tuple(defaults)
        made = cls(*values[:required])
        assert {f: getattr(made, f) for f in defaults} == defaults

    def test_bad_calls_raise_type_error(self, cls, values, defaults):
        fields, required = cls._fields, len(values) - len(defaults)
        for args, kwargs in [(values + (0,), {}),  # too many
                             (values[:required - 1], {}),  # missing
                             (values, {"colour": 0}),  # unknown
                             (values, {fields[0]: values[0]}),  # repeated
                             ((), dict(zip(fields[1:], values[1:])))]:  # the first missing
            with pytest.raises(TypeError):
                cls(*args, **kwargs)

    def test_the_docstring_names_the_fields_in_order(self, cls, values, defaults):
        text = cls.__doc__.partition("Fields:")[2]
        places = [text.find(f"``{f}") for f in cls._fields]
        assert -1 not in places and places == sorted(places)


def test_a_bad_constructor_call_names_the_type_and_the_argument():
    G = ms.make_geometric()
    with pytest.raises(TypeError) as err:
        ms.MeanFunction("m")
    assert str(err.value) == "MeanFunction() missing required argument 'domain'"
    with pytest.raises(TypeError) as err:
        expressions.Num(1.0, value=1.0)
    assert str(err.value) == "Num() got an unexpected or repeated argument 'value'"
    with pytest.raises(TypeError) as err:
        ms.WeightFunction(G.domain, math.sqrt, "w", 0)
    assert str(err.value) == "WeightFunction() takes 3 arguments but 4 were given"


def test_replace_round_trips_the_mean_types():
    G = ms.make_geometric()
    for m in (ms.MeanFunction("m", G.domain, G.fn), G, ms.make_agm(), ms.group_inverse(G)):
        assert m.replace() == m and hash(m.replace()) == hash(m)
        assert m.replace(name="other", is_monotone=None).replace(
            name=m.name, is_monotone=m.is_monotone) == m


def test_records_of_a_run_print_as_namedtuples():
    oracles = {cls: collections.namedtuple(cls.__name__, fields, defaults=defaults)
               for cls, fields, defaults in _RECORDS}
    G = ms.make_geometric()
    w = ms.Interval.closed(0.5, 2.0)
    runs = [*_frozen_values(), cli._COMMANDS["eval"], expressions._tokenize("x+y")[0],
            ms.mean_from_source("(x+y)/2"), ms.distance_gh_certificate(),
            ms.coincidence_probe(G, w, 4), ms.counterexample_check(grid=8, samples=4)]
    records = [r for r in runs if isinstance(r, core._Record)]
    assert {type(r) for r in records} == set(oracles)
    for r in records:
        assert repr(r) == repr(oracles[type(r)]._make(r))


def test_default_window():
    assert ms.default_window(ms.POSITIVE_REALS) == ms.Interval.closed(1e-6, 1e6)
    assert ms.default_window(ms.ALL_REALS) == ms.Interval.closed(-1e3, 1e3)
    small = ms.Interval.closed(2.0, 3.0)
    assert ms.default_window(small) == small


@pytest.mark.parametrize("domain", [
    *(ms.Interval(lo, math.inf, lo_closed) for lo in (1e16, 1e17, 1e22, 1e300, 1e308)
      for lo_closed in (False, True)),
    *(ms.Interval(-math.inf, hi, False, hi_closed) for hi in (-1e16, -1e30, -1e308)
      for hi_closed in (False, True)),
], ids=str)
def test_default_window_far_from_zero(domain):
    # neither the inward nudge nor the width of 1e6 is lost to rounding at the finite end
    window = ms.default_window(domain)
    assert domain.contains_interval(window)
    assert window.lo < window.hi and math.isfinite(window.hi - window.lo)


@pytest.mark.parametrize("domain, lo, hi", [
    (ms.Interval(1e15, math.inf), 1000000000000001.0, 1000000001000000.0),
    (ms.Interval(5e21, math.inf, True), 5e21, 5.000000000000001e21),
    (ms.Interval(-math.inf, -1e5), -1100000.0, -100001.0),
    (ms.Interval(-math.inf, -8e15), -8000000001000000.0, -8000000000000001.0),
    (ms.Interval(1e16 + 2, math.inf), 1.0000000000000004e16, 1.0000000001000002e16),
    # the nudge at the open end leaves no window within the target range
    (ms.Interval(math.nextafter(1e6, 0.0), math.inf), 1000000.9999999999, 2e6),
    (ms.Interval(-math.inf, math.nextafter(-1e3, 0.0)), -1001000.0, -1000.9999999999999),
], ids=str)
def test_default_window_outside_the_target_range(domain, lo, hi):
    assert ms.default_window(domain) == ms.Interval.closed(lo, hi)


@pytest.mark.parametrize("domain", [
    ms.Interval(1.0, 1.0000000000000004),  # one float inside
    ms.Interval(1.0, 1.0000000000000002),  # none
    ms.Interval(0.0, 1e-323),
    ms.Interval(math.nextafter(1e3, 0.0), 1e3, True),
], ids=str)
def test_default_window_of_a_domain_that_holds_none(domain):
    with pytest.raises(ms.DomainError) as err:
        ms.default_window(domain)
    assert str(err.value) == f"domain {domain} holds no window"


class _CodeRunners(ast.NodeVisitor):
    """Each (enclosing definition, name) where a module names exec, compile or eval."""

    def __init__(self, module: str):
        self.scope, self.found = [module], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Name(self, node):
        if node.id in ("exec", "compile", "eval"):
            self.found.add((".".join(self.scope), node.id))


def test_only_core_generated_runs_generated_code():
    # every back end hands core._generated its signature, body and namespace
    found = set()
    for path in sorted(pathlib.Path(ms.__file__).parent.glob("*.py")):
        runners = _CodeRunners(path.stem)
        runners.visit(ast.parse(path.read_text(), str(path)))
        found |= runners.found
    assert found == {("core._generated", "exec"), ("core._generated", "compile")}


def test_no_module_imports_typing_or_namedtuple():
    # the records are built on core._Record; typing and namedtuple cost every process
    # milliseconds of import, and so does re, which no module needs
    found = []
    for path in sorted(pathlib.Path(ms.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0], *(a.name for a in node.names)]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            found += [(path.stem, name) for name in names
                      if name in ("typing", "NamedTuple", "namedtuple", "re")]
    assert found == []


def test_every_module_that_declares_a_record_defers_its_annotations():
    # _RecordType reads a record's fields from the class body's __annotations__, which a
    # body holds on Python 3.14 (PEP 749) only under the __future__ import
    declaring, deferred = set(), set()
    for path in sorted(pathlib.Path(ms.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(b, ast.Name) and b.id == "_Record" for b in node.bases):
                declaring.add(path.stem)
            elif isinstance(node, ast.ImportFrom) and node.module == "__future__" and any(
                    a.name == "annotations" for a in node.names):
                deferred.add(path.stem)
    assert {"core", "expressions", "cli"} <= declaring
    assert declaring <= deferred


class TestRefusedCounts:
    def test_sample_pairs_needs_a_sample(self):
        with pytest.raises(ValueError, match="^need at least one sample$"):
            ms.sample_pairs(ms.Interval.closed(1.0, 2.0), 0)

    def test_sample_pairs_gives_up_on_a_gap_that_rejects_every_pair(self):
        with pytest.raises(ValueError) as info:
            ms.sample_pairs(ms.Interval.closed(1.0, 2.0), 5, min_gap=10.0)
        assert str(info.value) == "min_gap=10.0 rejects almost every pair in [1, 2]"

    @pytest.mark.parametrize("lo, hi, min_gap", [
        (1.0, 2.0, 10.0), (1.0, 2.0, 1.0), (0.0, 1.0, 1.0), (-2.0, -1.0, 1.0),
        (-2.0, 0.0, 1.0), (-1.0, 2.0, 2.0), (-1e300, 1e300, 2.0), (1.0, 2.0, math.inf)])
    def test_sample_pairs_refuses_a_gap_that_rejects_every_pair_before_drawing(
            self, lo, hi, min_gap):
        # |x - y| <= max(|x|, |y|) for a window on one side of 0, and twice that on any
        window = ms.Interval.closed(lo, hi)
        with mock.patch.object(core, "_halton_block") as draw:
            with pytest.raises(ValueError) as info:
                ms.sample_pairs(window, 5, min_gap=min_gap)
        draw.assert_not_called()
        assert str(info.value) == f"min_gap={min_gap} rejects almost every pair in {window}"

    @pytest.mark.parametrize("min_gap", [-1.0, math.nan])
    def test_sample_pairs_refuses_a_negative_or_nan_gap_before_drawing(self, min_gap):
        with mock.patch.object(core, "_halton_block", side_effect=AssertionError("drew")):
            with pytest.raises(ValueError) as info:
                ms.sample_pairs(ms.Interval.closed(1.0, 2.0), 5, min_gap=min_gap)
        assert str(info.value) == f"min_gap must be non-negative, got {min_gap}"

    def test_sample_pairs_draws_for_a_gap_that_a_pair_across_zero_passes(self):
        # x and -x are 2 max(|x|, |y|) apart, so a gap below 2 keeps pairs across 0
        pairs = ms.sample_pairs(ms.Interval.closed(-1.0, 1.0), 5, seed=3, min_gap=1.5)
        assert len(pairs) == 5 and all(not math.isclose(x, y, rel_tol=1.5) for x, y in pairs)

    def test_verify_axioms_needs_a_sample(self):
        with pytest.raises(ValueError, match="^samples must be >= 1$"):
            ms.verify_axioms(ms.make_geometric(), ms.Interval.closed(1.0, 2.0), 0)
