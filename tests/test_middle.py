import ast
import functools
import math
import os
import pathlib
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import meanscape as ms
from meanscape import core, middle
from meanscape.core import common_domain

# Reference values frozen from a 60-digit run of the classical coupled
# iteration, independent of the code under test.
AGM_1_2 = 1.4567910310469069
AGM_3_7 = 4.789013583140952
AGM_GAP_1 = 0.08578643762690495  # |3/2 - sqrt(2)|


class TestFunctionalSymmetric:
    def test_known_values(self, builtins):
        A, G, H = builtins
        assert ms.functional_symmetric(A, G, 1, 4) == pytest.approx(3.0, abs=1e-10)
        assert ms.functional_symmetric(G, A, 1, 4) == pytest.approx(1.6, abs=1e-10)
        assert ms.functional_symmetric(H, A, 1, 2) == pytest.approx(1.2, abs=1e-10)

    def test_diagonal(self, builtins):
        A, G, _ = builtins
        assert ms.functional_symmetric(A, G, 3.0, 3.0) == 3.0

    def test_diagonal_is_checked(self, builtins):
        # the diagonal gets the domain check of every other point
        A, G, _ = builtins
        for m0, m1 in ((G, A), (A, G)):
            with pytest.raises(ms.DomainError) as err:
                ms.functional_symmetric(m0, m1, -1.0, -1.0)
            assert str(err.value) == "(-1.0, -1.0) is outside the domain (0, inf) of G"

    def test_defining_equation(self, builtins, mean_family, unit_window):
        for m0 in builtins:
            for m1 in mean_family[3:]:
                for x, y in ms.sample_pairs(unit_window, 25, seed=21):
                    t = ms.functional_symmetric(m0, m1, x, y)
                    assert m0(m1(x, y), t) == pytest.approx(m0(x, y), rel=1e-10)

    def test_involution(self, builtins, mean_family, unit_window):
        G = builtins[1]
        m1 = mean_family[4]
        sigma = ms.functional_symmetric_mean(G, m1)
        back = ms.functional_symmetric_mean(G, sigma)
        for x, y in ms.sample_pairs(unit_window, 30, seed=22):
            assert abs(back(x, y) - m1(x, y)) <= 1e-9 * max(1.0, abs(m1(x, y)))

    def test_monotone_flag_required(self, mean_family):
        not_flagged = mean_family[3]  # random normal mean, flag unknown
        assert not_flagged.is_monotone is not True
        with pytest.raises(ValueError):
            ms.functional_symmetric(not_flagged, mean_family[0], 1.0, 2.0)

    def test_bracket_failure_reported(self, builtins):
        A = builtins[0]
        # not a mean: pushes the target out of reach of the bracket
        bogus = ms.MeanFunction("sum", ms.ALL_REALS, lambda x, y: x + y)
        with pytest.raises(ms.BracketError):
            ms.functional_symmetric(A, bogus, 1.0, 2.0)


class TestSolvedToTheFloat:
    """The solve ends at adjacent floats, so a root far below max(x, y) keeps its digits."""

    @pytest.mark.parametrize("at", ["1e-6,1e6", "1e-300,1e300"])
    def test_sigma_of_a_through_g_is_its_closed_form(self, at):
        # sigma[G](A) is xy/A, which the group reflection of A through G computes directly
        solved = ms.cli_run(["sigma", "--m0", "G", "--m1", "A", "--at", at]).payload["value"]
        closed = ms.cli_run(["symmetry", "--m0", "G", "--m1", "A", "--at", at]).payload["value"]
        assert abs(solved - closed) <= 2 * math.ulp(closed)

    def test_coincide_through_g_on_a_wide_window(self):
        result = ms.cli_run(["coincide", "--m0", "G", "--window", "1e-6,1e6"])
        assert result.exit_code == 0 and result.payload["max_discrepancy"] < 1e-9

    def test_a_compound_with_a_sigma_operand_is_its_invariant_mean(self):
        # G(L3, sigma[G](L3)) = G, so the compound of L3 and sigma[G](L3) is G: 1 at (0.1, 10).
        # On the contraction estimate's grid sigma[G](L3) = xy/L3 is near min(x, y) where L3
        # is near max(x, y), so k is 1 up to rounding; where L3 rounds the root past
        # min(x, y) sigma returns that end.
        l3 = ms.mean_from_source("(x^3+y^3)/(x^2+y^2)").mean
        sigma = ms.functional_symmetric_mean(ms.make_geometric(), l3)
        trace = ms.compound_trace(l3, sigma, 0.1, 10.0, max_iterations=10000)
        assert (trace.converged, trace.limit) == (True, 1.0)
        assert trace.k_estimate == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("y, ulps", [(1e-6, 1), (1.1488747248658057e-06, 2)])
    def test_a_root_that_rounds_past_an_end_is_that_end(self, y, ulps):
        # sigma[G](L3) at (143.21361833097615, y): L3 rounds one ulp above x, which puts the
        # root just below y, and g(lo) = G(L3, y) - G(x, y) at +1 and +2 ulps of G(x, y), the
        # sign of g(hi): within the rounding of g's two G values
        src = "(x^3+y^3)/(x^2+y^2)"
        l3, G = ms.mean_from_source(src).mean, ms.make_geometric()
        x = 143.21361833097615
        target = G(x, y)
        assert l3(x, y) == math.nextafter(x, math.inf)
        assert G(l3(x, y), y) - target == ulps * math.ulp(target)
        assert ms.functional_symmetric(G, l3, x, y) == y
        result = ms.cli_run(["sigma", "--m0", "G", "--m1", src, "--at", f"{x!r},{y!r}"])
        assert (result.exit_code, result.payload["value"]) == (0, y)

    @pytest.mark.parametrize("ulps, want", [(2, 2.0), (3, None)])
    def test_an_end_past_the_rounding_of_g_is_no_root(self, ulps, want):
        # m1's value a = 1 - ulps 2^-51 puts g(hi) = A(a, 2) - 1.5 at -ulps ulps of 1.5, and
        # g(lo) at about -0.5: g's two A values round by an ulp each, so the hi end is the
        # root at 2 ulps, and none at 3
        a = 1.0 - ulps * 2.0 ** -51
        m1 = ms.MeanFunction("c", ms.ALL_REALS, lambda x, y: a)
        A = ms.make_arithmetic()
        assert A(a, 2.0) - 1.5 == -ulps * math.ulp(1.5)
        if want is not None:
            assert ms.functional_symmetric(A, m1, 1.0, 2.0) == want
        else:
            with pytest.raises(ms.BracketError, match="endpoints -5.000000e-01, -6.661338e-16"):
                ms.functional_symmetric(A, m1, 1.0, 2.0)

    def test_an_end_whose_g_is_nan_is_no_root(self):
        # g(lo) is -1 ulp of 1.5 and g(hi) is NaN: lo is the nearer end
        a = 2.0 - 2.0 ** -51
        m0 = ms.MeanFunction("m", ms.ALL_REALS, lambda x, y: math.nan if (x, y) == (a, 2.0)
                             else (x + y) / 2, is_monotone=True)
        m1 = ms.MeanFunction("c", ms.ALL_REALS, lambda x, y: a)
        assert ms.functional_symmetric(m0, m1, 1.0, 2.0) == 1.0

    def test_ends_whose_g_is_infinite_are_no_root(self):
        # m0(a, t) overflows at both ends, so g is +inf there: no rounding reaches it
        m0 = ms.MeanFunction("m", ms.ALL_REALS, lambda x, y: math.inf if x == 1.5
                             else (x + y) / 2, is_monotone=True)
        m1 = ms.MeanFunction("c", ms.ALL_REALS, lambda x, y: 1.5)
        with pytest.raises(ms.BracketError, match="endpoints inf, inf"):
            ms.functional_symmetric(m0, m1, 1.0, 2.0)


class TestSigmaClosedForm:
    def test_reflection_through_arithmetic(self, builtins):
        G = builtins[1]
        assert ms.sigma_closed_form("A", G)(1.0, 4.0) == pytest.approx(3.0)

    def test_self_fixed_points(self, builtins, unit_window):
        _, G, H = builtins
        for which, m in (("G", G), ("H", H)):
            fixed = ms.sigma_closed_form(which, m)
            for x, y in ms.sample_pairs(unit_window, 40, seed=24):
                assert fixed(x, y) == pytest.approx(m(x, y), rel=1e-12)

    def test_matches_solver(self, builtins, mean_family, unit_window):
        A, G, H = builtins
        m1 = mean_family[5]
        for which, m0 in (("A", A), ("G", G), ("H", H)):
            closed = ms.sigma_closed_form(which, m1)
            for x, y in ms.sample_pairs(unit_window, 20, seed=25):
                solved = ms.functional_symmetric(m0, m1, x, y)
                assert closed(x, y) == pytest.approx(solved, abs=1e-9)

    def test_domain_guard(self):
        m = ms.MeanFunction("m", ms.ALL_REALS, lambda x, y: (x + y) / 2)
        with pytest.raises(ms.DomainError):
            ms.sigma_closed_form("G", m)
        with pytest.raises(ValueError):
            ms.sigma_closed_form("Q", ms.make_geometric())


class TestCompound:
    def test_agm_reference_value(self):
        agm = ms.make_agm()
        assert agm(1.0, 2.0) == pytest.approx(AGM_1_2, abs=1e-13)
        assert agm(3.0, 7.0) == pytest.approx(AGM_3_7, abs=1e-12)

    def test_diagonal(self):
        assert ms.make_agm()(1.0, 1.0) == 1.0

    def test_arithmetic_harmonic_collapses_to_geometric(self, builtins, unit_window):
        A, G, H = builtins
        ah = ms.compound(A, H)
        for x, y in ms.sample_pairs(unit_window, 100, seed=26):
            assert abs(ah(x, y) - G(x, y)) <= 1e-10 * max(1.0, G(x, y))

    def test_compound_of_identical_mean_is_itself(self, builtins):
        A = builtins[0]
        c = ms.compound(A, A)
        assert c(1.0, 3.0) == 2.0

    def test_fixed_point_property(self, builtins, unit_window):
        A, G, _ = builtins
        c = ms.compound(A, G)
        for x, y in ms.sample_pairs(unit_window, 40, seed=27):
            shifted = c(A(x, y), G(x, y))
            assert abs(shifted - c(x, y)) <= 10 * c.tolerance * max(1.0, abs(c(x, y)))

    def test_passes_axiom_verifier(self, builtins, unit_window):
        A, G, _ = builtins
        c = ms.compound(A, G)
        assert ms.verify_axioms(c, unit_window, 300, seed=28).all_ok

    def test_tolerance_independence(self):
        A, G = ms.make_arithmetic(), ms.make_geometric()
        coarse = ms.compound(A, G, tolerance=1e-8)(1.0, 2.0)
        fine = ms.compound(A, G, tolerance=1e-13)(1.0, 2.0)
        assert abs(coarse - fine) <= 1e-7

    def test_m_arithmetic(self, builtins, unit_window):
        A, G, H = builtins
        ga = ms.m_arithmetic(G)
        assert ga.guaranteed and ga.guaranteed_by == "distance" and ga.d_upper == 0.5
        assert ga(1.0, 2.0) == pytest.approx(AGM_1_2, abs=1e-13)
        assert ms.m_arithmetic(A)(0.5, 7.5) == 4.0
        assert ms.m_arithmetic(H)(1.0, 4.0) == pytest.approx(2.0, abs=1e-10)

    def test_non_convergence_carries_trace(self, builtins):
        A, G, _ = builtins
        c = ms.compound(A, G, max_iterations=2)
        with pytest.raises(ms.ConvergenceError) as err:
            c(1.0, 1e6)
        trace = err.value.trace
        assert trace is not None and not trace.converged
        assert trace.iterations_used == 2

    def test_reals_domain_compound_at_a_zero(self):
        # the quartile means halve the gap around 0 on every step and never land on 0
        lower = ms.MeanFunction("L", ms.ALL_REALS, lambda x, y: (3 * min(x, y) + max(x, y)) / 4)
        upper = ms.MeanFunction("U", ms.ALL_REALS, lambda x, y: (min(x, y) + 3 * max(x, y)) / 4)
        c = ms.compound(lower, upper)
        for k in (-600, 0, 600):
            s = math.ldexp(1.0, k)
            assert c(-s, s) == 0.0
            assert c(-3 * s, 2 * s) == s * c(-3.0, 2.0)
        assert abs(c(-1.0, 1.0 + 2.0 ** -52)) <= 1e-13

    def test_domain_restriction(self, builtins):
        A, G, _ = builtins
        c = ms.compound(A, G)
        assert c.domain == ms.POSITIVE_REALS
        with pytest.raises(ms.DomainError):
            c(-1.0, 2.0)

    def test_guaranteed_flag_routes(self, builtins):
        A, G, H = builtins
        # distance route: every mean lies within 1/2 of A, an upper bound below 1
        for c in (ms.make_agm(), ms.m_arithmetic(G), ms.m_arithmetic(H)):
            assert c.d_upper == 0.5 and c.guaranteed_by == "distance" and c.guaranteed
        # continuity route: both operands flagged continuous, and no distance bound
        c = ms.compound(A, G)
        assert c.guaranteed_by == "continuity" and c.d_upper is None and c.guaranteed
        # a compound of continuous means is continuous, so nesting keeps the route
        assert c.is_continuous is True and ms.make_agm().is_continuous is True
        nested = ms.compound(c, H)
        assert nested.guaranteed_by == "continuity" and nested.is_continuous is True
        # neither route: an unflagged operand, or parsed operands, which declare nothing
        unflagged = ms.MeanFunction("g2", ms.POSITIVE_REALS,
                                    lambda x, y: math.sqrt(x * y))
        parsed = [ms.mean_from_source(src).mean for src in ("(x+y)/2", "sqrt(x*y)")]
        for c in (ms.compound(A, unflagged), ms.compound(*parsed)):
            assert c.guaranteed is False and c.guaranteed_by is None and c.d_upper is None
            assert c.is_continuous is None
        # guaranteed is derived from guaranteed_by and cannot be set apart from it
        with pytest.raises(TypeError):
            c.replace(guaranteed=True)

    def test_operands_are_required(self, builtins):
        A, G, _ = builtins
        c = ms.compound(A, G)
        with pytest.raises(TypeError):
            ms.CompoundMean("c", c.domain, c.fn, m1=A)
        with pytest.raises(TypeError):
            ms.CompoundMean("c", c.domain, c.fn, m2=G)

    def test_replace_keeps_what_the_kernel_has_baked_in(self, builtins):
        A, G, H = builtins
        agm = ms.make_agm()
        for field, value in [("fn", H.fn), ("domain", ms.ALL_REALS), ("m1", G), ("m2", H),
                             ("tolerance", 0.5), ("max_iterations", 1)]:
            with pytest.raises(ValueError) as err:
                agm.replace(**{field: value})
            assert str(err.value) == (f"the kernel of AGM has {field} baked in; "
                                      f"build a new compound to change it")
        # names and flags stay replaceable, and so does a baked-in field to its own value
        c = agm.replace(name="M", is_monotone=None, is_continuous=None, d_upper=None,
                        guaranteed_by=None, tolerance=agm.tolerance, m2=G)
        assert (c.name, c.is_monotone, c.is_continuous, c.d_upper, c.guaranteed_by) == (
            "M", None, None, None, None)
        assert c(1.0, 1e6) == agm(1.0, 1e6)

    def test_a_compound_keeps_its_own_loop_from_outside_p(self):
        # nine compounds, one more than the loops _trace_loop keeps: on its first start outside
        # P each compound compiles its own checked loop, no trace loop, and runs that loop
        # from then on, so nothing is compiled again
        code = (
            "import sys, meanscape as ms\n"
            "compiled = []\n"
            "def hook(event, args):\n"
            "    if event == 'compile' and sys._getframe(1).f_code.co_name == '_generated':\n"
            "        compiled.append(args[1])\n"
            "sys.addaudithook(hook)\n"
            "means = (ms.make_arithmetic(), ms.make_geometric(), ms.make_harmonic())\n"
            "built = [ms.compound(m1, m2) for m1 in means for m2 in means]\n"
            "for c in built:\n"
            "    c(1e-200, 3e-200)\n"
            "print(compiled.count('<compound>'), compiled.count('<trace>'))\n"
            "compiled.clear()\n"
            "for _ in range(3):\n"
            "    for c in built:\n"
            "        c(1e-200, 3e-200)\n"
            "print(compiled)\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ms.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == ["18 0", "[]"]

    def test_building_loads_no_numpy(self):
        # a fresh interpreter: the test session itself has numpy loaded
        code = (
            "import sys, meanscape as ms\n"
            "A, G = ms.make_arithmetic(), ms.make_geometric()\n"
            "def parse(src):\n"
            "    return ms.mean_from_source(src).mean\n"
            "normal = ms.make_normal_mean(ms.weight_from_source('t^(0.371)*(1+t)^(0.471)'))\n"
            "built = [ms.compound(A, G), ms.compound(parse('(x+y)/2'), parse('sqrt(x*y)')),\n"
            "         ms.compound(G, ms.group_inverse(G)),\n"
            "         ms.compound(parse('((x^1.778+y^1.778)/2)^(1/1.778)'), normal),\n"
            "         ms.make_agm(), ms.m_arithmetic(G)]\n"
            "assert all(1.0 < c(1.0, 2.0) < 2.0 for c in built)\n"
            "print('numpy' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ms.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestCompoundTrace:
    def test_agm_first_step(self):
        A, G = ms.make_arithmetic(), ms.make_geometric()
        trace = ms.compound_trace(A, G, 1.0, 2.0, estimate_contraction=False)
        assert trace.converged
        n0 = trace.steps[0]
        assert (n0.x, n0.y, n0.gap) == (1.0, 2.0, 1.0)
        n1 = trace.steps[1]
        assert n1.x == 1.5 and n1.y == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert n1.gap == pytest.approx(AGM_GAP_1, abs=1e-15)
        assert trace.limit == pytest.approx(AGM_1_2, abs=1e-13)

    def test_identical_operands_converge_in_one_step(self):
        A = ms.make_arithmetic()
        trace = ms.compound_trace(A, A, 2.0, 6.0, estimate_contraction=False)
        assert trace.iterations_used == 1
        assert trace.limit == 4.0

    def test_converged_final_gap_within_tolerance(self, unit_window):
        A, G = ms.make_arithmetic(), ms.make_geometric()
        for x, y in ms.sample_pairs(unit_window, 30, seed=34):
            trace = ms.compound_trace(A, G, float(x), float(y), tolerance=1e-13,
                                      estimate_contraction=False)
            last = trace.steps[-1]
            assert trace.converged
            assert last.gap <= 1e-13 * max(1.0, abs(last.x), abs(last.y))

    def test_gaps_non_increasing_and_iterates_bounded(self):
        A, G = ms.make_arithmetic(), ms.make_geometric()
        trace = ms.compound_trace(A, G, 1.0, 1e6, estimate_contraction=False)
        gaps = [s.gap for s in trace.steps]
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        assert all(b < a for a, b in zip(gaps, gaps[1:]) if a > 0)
        for s in trace.steps:
            assert 1.0 <= s.x <= 1e6 and 1.0 <= s.y <= 1e6

    def test_iteration_count_small_near_diagonal(self, unit_window):
        A, G = ms.make_arithmetic(), ms.make_geometric()
        for x, y in ms.sample_pairs(ms.Interval.closed(0.5, 2.0), 50, seed=29):
            trace = ms.compound_trace(A, G, x, y, estimate_contraction=False)
            assert trace.iterations_used <= 8

    def test_envelope_for_contracting_pair(self, mean_family):
        A = ms.make_arithmetic()
        for m in mean_family[3:]:
            for x, y in [(0.5, 9.0), (0.2, 3.0), (1.0, 7.7)]:
                trace = ms.compound_trace(A, m, x, y)
                k, gap0 = trace.k_estimate, trace.steps[0].gap
                assert k is not None and k < 1.0
                assert all(step.gap <= k ** step.n * gap0 * (1.0 + 1e-9)
                           for step in trace.steps[1:])

    def test_contraction_is_unknown_where_an_operand_faults_on_the_grid(self):
        # sqrt(x*y) on R faults on the grid's points of opposite signs, never on the run
        A = ms.make_arithmetic()
        root = ms.mean_from_source("sqrt(x*y)", ms.ALL_REALS).mean
        trace = ms.compound_trace(A, root, 1.0, 2.0)
        assert trace.converged and trace.k_estimate is None
        assert trace.limit == ms.compound(A, root)(1.0, 2.0) == 1.4567910310469068
        assert trace == ms.compound_trace(A, root, 1.0, 2.0, estimate_contraction=False)

    def test_envelope_math(self, mean_family):
        A = ms.make_arithmetic()
        m = mean_family[3]
        trace = ms.compound_trace(A, m, 0.5, 9.0)
        k, gap0 = trace.k_estimate, trace.steps[0].gap
        for step in trace.steps[1:]:
            assert step.gap <= k ** step.n * gap0 * (1.0 + 1e-9)

    # d(A, M) over [lo, hi]^2 in closed form, with r = hi/lo: (A - G)/(y - x) is
    # (t - 1)/(2(t + 1)) with t = sqrt(y/x), and (A - H)/(y - x) is (s - 1)/(2(s + 1)) with
    # s = y/x, each increasing in the ratio, so the sup is at the corner of the square
    @pytest.mark.parametrize("make, sup", [
        (ms.make_geometric, lambda r: (math.sqrt(r) - 1.0) / (2.0 * (math.sqrt(r) + 1.0))),
        (ms.make_harmonic, lambda r: (r - 1.0) / (2.0 * (r + 1.0))),
    ], ids=["G", "H"])
    def test_k_estimate_is_a_lower_bound_on_the_distance(self, make, sup):
        # k is a grid value over the default window [1e-6, 1e6] or the start's own quotient,
        # each a value of the quotient over the hull of that window and the start
        A, m = ms.make_arithmetic(), make()
        rng = np.random.default_rng(46)
        for x, y in 10.0 ** rng.uniform(-9.0, 9.0, size=(12, 2)):
            x, y = float(x), float(y)
            k = ms.compound_trace(A, m, x, y).k_estimate
            d = sup(max(1e6, x, y) / min(1e-6, x, y))
            assert abs(A(x, y) - m(x, y)) / abs(x - y) <= k <= d + 4 * math.ulp(d), (x, y)


class TestAgmFixedPoint:
    def test_known_pairs(self):
        assert ms.agm_fixed_point_check(1.0, 2.0, 1e-10)
        assert ms.agm_fixed_point_check(5.0, 5.0, 1e-15)
        assert ms.agm_fixed_point_check(3.0, 7.0, 1e-10)

    def test_random_pairs(self, unit_window):
        for x, y in ms.sample_pairs(unit_window, 100, seed=30):
            assert ms.agm_fixed_point_check(float(x), float(y), 1e-10)

    def test_positive_arguments_required(self):
        # the AGM's own check, before the tolerance's
        for tolerance in (1e-10, math.nan):
            with pytest.raises(ms.DomainError) as err:
                ms.agm_fixed_point_check(-1.0, 2.0, tolerance)
            assert str(err.value) == "(-1.0, 2.0) is outside the domain (0, inf) of AGM"

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0])
    def test_a_nan_infinite_or_negative_tolerance_is_refused_by_name(self, tolerance):
        # as a compound's tolerance is: NaN and inf would call every value close
        with pytest.raises(ValueError) as err:
            ms.agm_fixed_point_check(1.0, 4.0, tolerance)
        assert str(err.value) == f"tolerance must be finite and non-negative, got {tolerance}"

    def test_the_agm_is_built_once(self):
        # building an AGM compiles its kernel; a check after the first compiles nothing
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ms.__file__)))
        code = ("import sys\n"
                "import meanscape as ms\n"
                "compiled = []\n"
                "sys.addaudithook(lambda event, args: event == 'compile' and compiled.append(1))\n"
                "ms.agm_fixed_point_check(1.0, 2.0)\n"
                "first = len(compiled)\n"
                "ms.agm_fixed_point_check(3.0, 7.0)\n"
                "print(first > 0, len(compiled) - first)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "0"]


class TestCoincidence:
    @pytest.mark.parametrize("which", ["A", "G", "H"])
    def test_classical_means_coincide(self, which, unit_window):
        m0 = {"A": ms.make_arithmetic, "G": ms.make_geometric,
              "H": ms.make_harmonic}[which]()
        result = ms.coincidence_probe(m0, unit_window, 200, seed=31)
        assert result.max_discrepancy < 1e-9
        x, y = result.worst_point
        assert unit_window.contains(x) and unit_window.contains(y)

    def test_requires_monotone_flag(self, mean_family, unit_window):
        with pytest.raises(ValueError):
            ms.coincidence_probe(mean_family[3], unit_window, 10)

    @pytest.mark.parametrize("which", ["A", "G", "H"])
    def test_tiny_window(self, which):
        # a normal mean of the family once returned 0.0 at (5.59e-291, 5.99e-291), which
        # left no sign change for A and a point outside the domain for G and H; that mean
        # is pinned by its exponents in test_algebra's TestNormalMeans
        m0 = middle.BUILTIN_MEANS[which]()
        window = ms.Interval.closed(1e-300, 1e-290)
        result = ms.coincidence_probe(m0, window, 20, seed=45)
        assert result.max_discrepancy < 1e-11 * window.hi
        x, y = result.worst_point
        assert window.contains(x) and window.contains(y)

    def test_sample_that_rounds_past_hi_is_hi(self, monkeypatch):
        # lo + (hi - lo) * 1.0 rounds past hi here; the closed domain of M ends at hi
        lo, hi = 0.5208952119493915, 3.3361078431061473
        assert lo + (hi - lo) * 1.0 > hi
        monkeypatch.setattr(core, "_halton_block", lambda *args: ((0.5, 1.0), (1.0, 0.25)) * 32)
        window = ms.Interval.closed(lo, hi)
        spy = _ContractSpy()
        m = spy.mean("M", window, lambda x, y: (x + y) / 2)
        result = ms.coincidence_probe(m, window, 2)
        assert result == _checked_coincidence_probe(m, window, 2, ms.DEFAULT_SEED)
        assert result.max_discrepancy < 1e-9 and hi in result.worst_point
        assert spy.calls > 0 and spy.violations == []


class TestCounterexample:
    def test_distance_one_pair_still_compounds_to_arithmetic(self):
        result = ms.counterexample_check()
        assert result.d_estimate > 0.99
        assert result.compound_is_A

    def test_compound_value(self):
        G = ms.make_geometric()
        partner = ms.group_inverse(G)
        c = ms.compound(G, partner)
        assert c(1.0, 4.0) == pytest.approx(2.5, abs=1e-12)

    def test_estimate_grows_with_window(self):
        G = ms.make_geometric()
        partner = ms.group_inverse(G)
        narrow = ms.distance(G, partner, ms.Interval.closed(0.1, 10.0), 64).value
        wide = ms.distance(G, partner, ms.Interval.closed(1e-6, 1e6), 64).value
        assert narrow < wide < 1.0


@functools.cache
def _invariance_operands():
    """M0 candidates, each declared monotone, and M1 candidates of the invariance identity.

    No normal mean is an M0: with the normal mean of t^0.5 declared monotone, the
    functional symmetric raises BracketError at points of [0.1, 10] for M1 = A, G and H.
    No Lehmer mean past q = 2 is an M1: from (0.1, 10), q = 3 puts x(1) within 1e-4 of
    10 and y(1) near 0.1, so each step nearly swaps the pair, and it takes 5111 steps.
    """
    A, G, H = ms.make_arithmetic(), ms.make_geometric(), ms.make_harmonic()

    def parse(src):
        return ms.mean_from_source(src).mean

    powers = [parse(f"((x^{p}+y^{p})/2)^(1/{p})") for p in (-2, 0.5, 3)]
    lehmers = [parse(f"(x^{q}+y^{q})/(x^{q - 1}+y^{q - 1})") for q in (-1, 0.25, 2)]
    m0s = [A, G, H] + [m.replace(is_monotone=True) for m in powers]
    return m0s, [A, G, H] + powers + lehmers


@st.composite
def invariance_cases(draw):
    m0s, m1s = _invariance_operands()
    m0 = draw(st.sampled_from(m0s))
    normal_seed = draw(st.integers(0, 2 ** 16))
    m1 = draw(st.sampled_from(m1s + [ms.random_normal_mean(core._seeded(normal_seed))]))
    return m0, m1, draw(st.integers(0, 2 ** 16))


class TestInvarianceIdentity:
    """Gauss's invariance principle: T = sigma[M0](M1) solves M0(M1, T) = M0, so the
    compound of M1 and T, the one mean fixed by M(M1, T) = M, is M0. This checks the
    bisection of the functional symmetric, the coupled iteration and, for a built-in M0
    whose domain holds M1's, the group reflection of ``sigma_closed_form`` against each
    other."""

    @given(invariance_cases())
    def test_the_compound_of_m1_and_its_functional_symmetric_is_m0(self, case):
        m0, m1, seed = case
        symmetrics = [ms.functional_symmetric_mean(m0, m1)]
        if m0.name in core.BUILTIN_MEANS and m0.domain.contains_interval(m1.domain):
            symmetrics.append(ms.sigma_closed_form(m0.name, m1))
        # a normal mean near max(x, y), at most that of t (1 + t) at (0.1, 10), takes up to
        # 569 steps there, for the same near swap
        for c in [ms.compound(m1, t, max_iterations=1000) for t in symmetrics]:
            for x, y in ms.sample_pairs(ms.Interval.closed(0.1, 10.0), 8, seed, min_gap=1e-6):
                assert math.isclose(c(x, y), m0(x, y), rel_tol=1e-9), (c.name, x, y)


# The coupled iteration with every step calling both operands through their checked
# __call__, as compound and compound_trace ran before they called the kernels. It is
# the reference path: the kernels must give the same values, traces and exceptions.
# As in the kernels, a gap of at most 5e-324, the least two floats can have, stops it
# too: toward a limit of 0 from one side the relative test never holds.
def _checked_iteration(m1, m2, x, y, tol, max_iter, record):
    xn, yn = float(x), float(y)
    floor = (tol * max(abs(xn), abs(yn)) if min(xn, yn) < 0.0 < max(xn, yn) else 0.0) + 5e-324
    steps = [ms.TraceStep(0, xn, yn, abs(xn - yn))] if record else None
    n = 0
    while (not (done := math.isclose(xn, yn, rel_tol=tol) or abs(xn - yn) <= floor)
           and n < max_iter):
        lo, hi = min(xn, yn), max(xn, yn)
        nx = m1(xn, yn)
        ny = m2(xn, yn)
        xn = min(max(nx, lo), hi)
        yn = min(max(ny, lo), hi)
        n += 1
        if record:
            steps.append(ms.TraceStep(n, xn, yn, abs(xn - yn)))
    return done, xn, yn, n, steps


def _midpoint(x, y):
    """(x + y) / 2, halved first where x + y overflows, as the iteration's midpoint is."""
    s = x + y
    return 0.5 * s if math.isfinite(s) else 0.5 * x + 0.5 * y


def _checked_compound(m1, m2, tolerance=1e-13, max_iterations=200):
    def fn(x, y):
        ok, xn, yn, n, _ = _checked_iteration(m1, m2, x, y, tolerance, max_iterations, False)
        if not ok:
            _, _, _, _, steps = _checked_iteration(m1, m2, x, y, tolerance, max_iterations, True)
            trace = ms.IterationTrace(tuple(steps), False, _midpoint(xn, yn), n)
            raise ms.ConvergenceError(
                f"compound({m1.name},{m2.name}) did not converge at ({x}, {y}) "
                f"within {max_iterations} iterations (gap {abs(xn - yn):.3e})", trace)
        return _midpoint(xn, yn)

    return ms.MeanFunction(f"mid({m1.name},{m2.name})",
                           common_domain(m1.domain, m2.domain), fn)


def _checked_trace(m1, m2, x, y, tolerance=1e-13, max_iterations=200):
    dom = common_domain(m1.domain, m2.domain)
    if not (dom.contains(x) and dom.contains(y)):
        raise ms.DomainError(f"({x}, {y}) is outside the domain {dom} of "
                             f"mid({m1.name},{m2.name})")
    converged, xn, yn, n, steps = _checked_iteration(m1, m2, x, y, tolerance,
                                                     max_iterations, True)
    trace = ms.IterationTrace(tuple(steps), converged, _midpoint(xn, yn), n)
    if not converged:
        raise ms.ConvergenceError(
            f"compound({m1.name},{m2.name}) did not converge at ({x}, {y}) "
            f"within {max_iterations} iterations (gap {abs(xn - yn):.3e})", trace)
    return trace


def _kernel_compound(m1, m2, tolerance=1e-13, max_iterations=200):
    return ms.compound(m1, m2, tolerance, max_iterations)


def _bits(v):
    """Floats as hex strings, through tuples and traces, so == compares bit patterns."""
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, tuple):  # an IterationTrace is one, and so is each of its steps
        return tuple(_bits(u) for u in v)
    return v


def _outcome(f, *args):
    """The value's bits, or the exception's type, message and trace."""
    try:
        return "value", _bits(f(*args))
    except Exception as exc:  # compared, never swallowed: both sides must raise alike
        return type(exc), str(exc), _bits(getattr(exc, "trace", None))


def _quartile(lower: bool):
    if lower:
        return ms.MeanFunction("L", ms.ALL_REALS, lambda x, y: (3 * min(x, y) + max(x, y)) / 4)
    return ms.MeanFunction("U", ms.ALL_REALS, lambda x, y: (min(x, y) + 3 * max(x, y)) / 4)


def _nan_near_diagonal(x, y):
    # the lower quartile mean, until the gap is relatively small; then NaN
    return math.nan if math.isclose(x, y, rel_tol=1e-6) else (3 * min(x, y) + max(x, y)) / 4


@functools.cache
def _operand_pairs():
    """Operand pairs by kind: the four compound-iter compounds, a nested compound
    (built by the compound function under test), a reals pair, pairs with an
    operand that returns NaN or steps an ulp outside [min(x, y), max(x, y)], and
    parsed operands on all of R that raise EvaluationError inside the loop."""
    A, G, H = ms.make_arithmetic(), ms.make_geometric(), ms.make_harmonic()

    def parse(src, domain=ms.POSITIVE_REALS):
        return ms.mean_from_source(src, domain).mean

    power = parse("((x^1.778+y^1.778)/2)^(1/1.778)")
    # on all of R these fault inside the loop: a negative product, and a negative base
    # with a non-integer exponent, which the power template tests with its floor helper
    root = parse("sqrt(x*y)", ms.ALL_REALS)
    cube = parse("((x^3+y^3)/2)^(1/3)", ms.ALL_REALS)
    # a geometric mean shifted by 1: on (0, inf) its log faults inside P too
    shifted = parse("exp((log(x-1)+log(y-1))/2)+1")
    normal = ms.make_normal_mean(ms.weight_from_source("t^(0.371)*(1+t)^(0.471)"))
    nan_mean = ms.MeanFunction("Lnan", ms.ALL_REALS, _nan_near_diagonal)
    # an ulp past the envelope, as rounding may put a mean: the clamp takes it back
    over = ms.MeanFunction("over", ms.POSITIVE_REALS,
                           lambda x, y: math.nextafter(max(x, y), math.inf))
    under = ms.MeanFunction("under", ms.POSITIVE_REALS,
                            lambda x, y: math.nextafter(min(x, y), 0.0))
    return {
        "agm": (False, lambda c: (A, G)),
        "agm-parsed": (False, lambda c: (parse("(x+y)/2"), parse("sqrt(x*y)"))),
        "g-inverse": (False, lambda c: (G, ms.group_inverse(G))),
        "power-normal": (False, lambda c: (power, normal)),
        "nested": (False, lambda c: (c(A, G), H)),
        "reals": (True, lambda c: (_quartile(True), _quartile(False))),
        "nan-second": (True, lambda c: (A, nan_mean)),
        "nan-first": (True, lambda c: (nan_mean, A)),
        "drift-first": (False, lambda c: (over, G)),
        "drift-second": (False, lambda c: (G, under)),
        "fault-second": (True, lambda c: (A, root)),
        "fault-first": (True, lambda c: (cube, A)),
        "fault-in-box": (False, lambda c: (A, shifted)),
    }


positive = st.floats(min_value=1e-300, max_value=1e300)
# starts at the edges of the plain box P = (2^-500, 2^500)^2 and next to them, on both sides,
# and starts that straddle an edge: a compound runs its box loop only from a start in P
_P_LO, _P_HI = 2.0 ** -500, 2.0 ** 500
_EDGE_STARTS = [(_P_LO, 1.0), (math.nextafter(_P_LO, 1.0), 1.0),
                (math.nextafter(_P_LO, 0.0), 1.0), (1.0, _P_HI),
                (3.0, math.nextafter(_P_HI, 1.0)), (math.nextafter(_P_HI, 1e308), 3.0),
                (math.nextafter(_P_LO, 0.0), math.nextafter(_P_LO, 1.0)),
                (math.nextafter(_P_HI, 1.0), math.nextafter(_P_HI, 1e308))]
_POSITIVE_KINDS = ("agm", "agm-parsed", "g-inverse", "power-normal", "fault-in-box")


def _at_the_edges(cases):
    """The test with one explicit example for each case that ``cases(x, y)`` gives at each
    start of ``_EDGE_STARTS``."""
    def decorate(test):
        for x, y in _EDGE_STARTS:
            for case in cases(x, y):
                test = example(case)(test)
        return test

    return decorate


_compound_edges = _at_the_edges(lambda x, y: [(kind, x, y, 200) for kind in _POSITIVE_KINDS])
reals = st.one_of(positive, positive.map(lambda t: -t), st.just(0.0))


@st.composite
def compound_cases(draw, anywhere=False):
    kind = draw(st.sampled_from(sorted(_operand_pairs())))
    on_reals, _ = _operand_pairs()[kind]
    coordinate = reals if on_reals else positive
    if anywhere:
        coordinate = st.one_of(coordinate, st.floats())
    x, y = draw(coordinate), draw(coordinate)
    if on_reals and draw(st.booleans()):
        x, y = -abs(x), abs(y)  # opposite signs, which may converge to 0
    max_iterations = draw(st.sampled_from([200, 0, 1, 3]))
    return kind, x, y, max_iterations


class TestKernelIterationMatchesCheckedReference:
    @given(compound_cases())
    @_compound_edges
    def test_compound_values_and_exceptions(self, case):
        kind, x, y, max_iterations = case
        _, operands = _operand_pairs()[kind]
        fast = _kernel_compound(*operands(_kernel_compound), max_iterations=max_iterations)
        slow = _checked_compound(*operands(_checked_compound), max_iterations=max_iterations)
        assert _outcome(fast, x, y) == _outcome(slow, x, y)

    @given(compound_cases(anywhere=True))
    @_compound_edges
    def test_traces_and_exceptions(self, case):
        # compound_trace is a public entry: its start may lie outside the domain
        kind, x, y, max_iterations = case
        _, operands = _operand_pairs()[kind]
        m1, m2 = operands(_kernel_compound)
        r1, r2 = operands(_checked_compound)
        fast = _outcome(lambda: ms.compound_trace(m1, m2, x, y, max_iterations=max_iterations,
                                                  estimate_contraction=False))
        slow = _outcome(lambda: _checked_trace(r1, r2, x, y, max_iterations=max_iterations))
        assert fast == slow

    def test_nan_from_an_operand_is_the_checked_domain_error(self):
        nan_mean = ms.MeanFunction("nan", ms.ALL_REALS, lambda x, y: math.nan)
        A = ms.make_arithmetic()
        with pytest.raises(ms.DomainError) as err:
            _kernel_compound(A, nan_mean)(1.0, 2.0)
        assert str(err.value) == "(1.5, nan) is outside the domain (-inf, inf) of A"
        assert _outcome(_kernel_compound(A, nan_mean), 1.0, 2.0) == \
            _outcome(_checked_compound(A, nan_mean), 1.0, 2.0)

    def test_exhaustion_carries_the_same_trace(self):
        A, G = ms.make_arithmetic(), ms.make_geometric()
        fast = _outcome(_kernel_compound(A, G, max_iterations=2), 1.0, 1e6)
        assert fast[0] is ms.ConvergenceError and fast[2][3] == 2
        assert fast == _outcome(_checked_compound(A, G, max_iterations=2), 1.0, 1e6)

    def test_trace_from_outside_the_domain(self):
        # the start is checked first, equal coordinates included, as the compound checks it
        A, G = ms.make_arithmetic(), ms.make_geometric()
        for x, y in [(-1.0, 2.0), (2.0, -1.0), (-1.0, -1.0), (math.nan, 1.0), (math.inf, 1.0)]:
            fast = _outcome(lambda: ms.compound_trace(G, A, x, y, estimate_contraction=False))
            assert fast == _outcome(lambda: _checked_trace(G, A, x, y))
            assert fast == _outcome(ms.compound(G, A), x, y) == (
                ms.DomainError, f"({x}, {y}) is outside the domain (0, inf) of mid(G,A)", None)


    def test_parsed_agm_atom_outside_its_domain(self):
        # the atom calls the checked AGM, whose domain the parsed mean's need not lie in
        agm = ms.expr_to_mean(ms.parse_mean_expr("AGM"), ms.ALL_REALS).mean
        for x, y in [(-1.0, 2.0), (-2.0, -1.0), (2.0, -0.5), (0.0, 3.0)]:
            with pytest.raises(ms.EvaluationError) as err:
                agm(x, y)
            assert str(err.value) == (f"AGM is undefined at ({x}, {y}): "
                                      f"({x}, {y}) is outside the domain (0, inf) of AGM")
        assert agm(1.0, 2.0) == ms.make_agm()(1.0, 2.0)


class TestGeneratedCompoundKernel:
    def test_parsed_operands_are_spliced_with_their_constants_as_arguments(self):
        tilted = ms.mean_from_source("(1234.5*x + 1234.5*y)/2469").mean
        power = ms.mean_from_source("((x^1.778+y^1.778)/2)^(1/1.778)").mean
        # the block travels with the kernel through replace
        c = ms.compound(tilted.replace(name="T"), power)
        assert not {1234.5, 2469.0, 1.778} & set(c.fn.__code__.co_consts)
        # the loop runs both blocks itself: no expression kernel is called
        called = []
        sys.setprofile(lambda frame, event, _: called.append(frame.f_code.co_filename)
                       if event == "call" else None)
        try:
            value = _outcome(c, 1.0, 3.0)
        finally:
            sys.setprofile(None)
        assert "<compound>" in called and "<expression>" not in called
        assert value == _outcome(_checked_compound(tilted, power), 1.0, 3.0)

    def test_the_loop_hides_no_helper_of_a_block(self):
        # the log of this operand can fault inside P, so its box form keeps the check: the
        # loop reads the block's helpers, and none of its own locals has one's name
        shifted = _operand_pairs()["fault-in-box"][1](ms.compound)[1]
        code = ms.compound(ms.make_arithmetic(), shifted).fn.__code__
        assert set(code.co_varnames).isdisjoint(shifted.fn.inline[1][2])
        assert {"log", "exp", "EvaluationError"} <= set(code.co_freevars)

    def test_the_workload_compounds_enter_no_frame_but_their_loop(self):
        # the built-ins, the inverse, the normal mean and its weight run spliced, and so
        # does the midpoint: an evaluation enters the compound's own frame and no other, and
        # so does the compound's call, whose checks its kernel runs
        pairs = _operand_pairs()
        for kind in ("agm", "agm-parsed", "g-inverse", "power-normal"):
            c = ms.compound(*pairs[kind][1](ms.compound))
            for call in (c.fn, c):
                called = []
                sys.setprofile(lambda frame, event, _: called.append(frame.f_code.co_filename)
                               if event == "call" else None)
                try:
                    call(1.0, 3.0)
                finally:
                    sys.setprofile(None)
                assert called == ["<compound>"], kind

    def test_a_name_bound_to_two_values_is_refused(self):
        def kernel(x, y):
            return math.sqrt(x * y)

        mean = ms.MeanFunction("K", ms.POSITIVE_REALS, kernel)
        G = ms.make_geometric()
        # G's block names math.sqrt "sqrt"; this block, its own box form, names another
        # function so
        block = ("k_mean = sqrt(x * y)", "k_mean", {"sqrt": math.exp})
        kernel.inline = block, block, None
        with pytest.raises(ValueError) as err:
            ms.compound(G, mean)
        assert str(err.value) == "the generated name 'sqrt' is bound to two different values"
        block = ("k_mean = sqrt(x * y)", "k_mean", {"sqrt": math.sqrt})
        kernel.inline = block, block, None
        assert ms.compound(G, mean)(1.0, 4.0) == 2.0


@functools.cache
def _checked_call_compounds():
    """Compounds by kind whose call is their kernel's, with its checks: built by each entry
    point, renamed, nested, on all of R, on a domain inside P and on one across P's lower
    edge, and one that runs out of iterations."""
    A, G, H = ms.make_arithmetic(), ms.make_geometric(), ms.make_harmonic()
    inside = ms.mean_from_source("(x+y)/2", ms.Interval.closed(1.0, 4.0)).mean
    across = ms.mean_from_source("(x+y)/2", ms.Interval.closed(2.0 ** -520, 2.0 ** -490)).mean
    return {
        "agm": ms.make_agm(),
        "m-arithmetic": ms.m_arithmetic(H),
        "renamed": ms.compound(A, G).replace(name="renamed"),
        "nested": ms.compound(ms.compound(A, G), H),
        "reals": ms.compound(_quartile(True), _quartile(False)),
        "inside-p": ms.compound(inside, G),
        "across-p": ms.compound(G, across),
        "exhausted": ms.compound(A, G, max_iterations=2),
    }


_NUMBERS = st.one_of(st.floats(), reals, st.sampled_from(
    [t for start in _EDGE_STARTS for t in start]
    + [1.0, 4.0, 2.0 ** -520, 2.0 ** -490, 2.0 ** -495, 0.0, -0.0, math.inf, -math.inf, math.nan]))
# the arguments a call converts with float(), as the checked call does, and one it cannot
_ARGUMENTS = st.one_of(_NUMBERS, _NUMBERS.map(np.float64), _NUMBERS.map(repr),
                       st.integers(-2 ** 1100, 2 ** 1100), st.booleans(), st.just("one"))


@st.composite
def checked_call_cases(draw):
    kind = draw(st.sampled_from(sorted(_checked_call_compounds())))
    x = draw(_ARGUMENTS)
    return kind, x, draw(st.one_of(_ARGUMENTS, st.just(x)))  # the diagonal too


class TestCheckedCall:
    """A compound's call runs its kernel, which runs the checks of ``MeanFunction.__call__``
    itself: the values, exceptions and messages are the checked call's."""

    @seed(34)
    @settings(max_examples=400)
    @given(checked_call_cases())
    @_at_the_edges(lambda x, y: [(kind, x, y) for kind in ("agm", "nested", "across-p")])
    @example(("reals", -0.0, 0.0))
    @example(("reals", 0.0, -0.0))
    @example(("reals", -2.5, -2.5))
    @example(("reals", math.inf, math.inf))
    @example(("agm", 3, True))
    @example(("agm", "2.5", np.float64(4.0)))
    @example(("inside-p", 1.0, 4.0))
    @example(("inside-p", 4.0, 4.0))
    @example(("inside-p", 5.0, 5.0))
    @example(("across-p", 2.0 ** -510, 2.0 ** -495))
    @example(("across-p", 2.0 ** -497, 2.0 ** -495))
    @example(("renamed", -1.0, -1.0))
    @example(("exhausted", 1.0, 1e6))
    def test_the_call_is_the_checked_call(self, case):
        kind, x, y = case
        c = _checked_call_compounds()[kind]
        assert _outcome(c, x, y) == _outcome(functools.partial(ms.MeanFunction.__call__, c), x, y)

    def test_the_error_names_the_compound_that_is_called(self):
        agm = ms.make_agm()
        for c in (agm, agm.replace(name="other")):
            with pytest.raises(ms.DomainError) as err:
                c(-2.0, -1.0)
            assert str(err.value) == f"(-2.0, -1.0) is outside the domain (0, inf) of {c.name}"

    def test_a_third_argument_is_refused(self):
        with pytest.raises(TypeError):
            ms.make_agm()(1.0, 2.0, 3.0)


# middle._shared as it was written before it decided by assigned names: it read a value's
# names with a pattern, and the rewriting stopped at the first statement that assigned one
_REFERENCE_NAME = r"(?<![\w.])[A-Za-z_]\w*"
_REFERENCE_KEYWORDS = frozenset({"if", "else", "and", "or", "not", "is", "in", "None", "True",
                                 "False"})


def _reference_shared(first, second, namespace):
    value = first.rpartition("\nnx = ")[2]
    reads = set(re.findall(_REFERENCE_NAME, value)) - _REFERENCE_KEYWORDS
    if value not in second or not reads <= {"x", "y"} | namespace.keys():
        return second
    lines = second.split("\n")
    for i, line in enumerate(lines):
        name, _, rest = line.partition(" = ")
        if rest == value and name.isidentifier():
            lines[i] = f"{name} = nx"
        if name.strip() in reads:
            break
    return "\n".join(lines)


@functools.cache
def _shared_corpus():
    """Means by name: the built-ins, a normal mean, parsed means, a star, a random normal
    mean and the AGM, and the group inverse of each."""
    A, G, H = ms.make_arithmetic(), ms.make_geometric(), ms.make_harmonic()

    def parse(src):
        return ms.mean_from_source(src, ms.POSITIVE_REALS).mean

    means = {"A": A, "G": G, "H": H,
             "normal": ms.make_normal_mean(ms.weight_from_source("t^(0.371)*(1+t)^(0.471)")),
             "pA": parse("(x+y)/2"), "pG": parse("sqrt(x*y)"), "pH": parse("2*x*y/(x+y)"),
             "power": parse("((x^1.778+y^1.778)/2)^(1/1.778)"),
             "lehmer": parse("(x^2+y^2)/(x+y)"), "minabs": parse("min(x,y)+abs(x-y)/3"),
             "explog": parse("exp((log(x)+log(y))/2)"), "star": ms.star(G, H),
             "random": ms.random_normal_mean(np.random.default_rng(7)), "AGM": ms.make_agm()}
    return {**means, **{f"inv-{k}": ms.group_inverse(m) for k, m in means.items()}}


class TestSharedRule:
    """``middle._shared`` gives the text of the rule it replaced (``_reference_shared``) on
    every pair of a corpus, except where the reference took a word of a string literal for a
    name; the loops of those pairs give the same values and traces bit for bit."""

    @staticmethod
    def _splices(m1, m2, box):
        namespace = {}
        first, _ = core._splice(namespace, m1.fn, "nx = ", box=box)
        second, _ = core._splice(namespace, m2.fn, "ny = ", box=box)
        return first, second, namespace

    def test_the_rule_gives_the_reference_text_but_where_it_read_a_string_literal(self):
        means = _shared_corpus()
        differ = set()
        for n1, m1 in means.items():
            for n2, m2 in means.items():
                for box in (True, False):
                    first, second, namespace = self._splices(m1, m2, box)
                    shared = middle._shared(first, second)
                    if shared == _reference_shared(first, second, namespace):
                        continue
                    # the reference refused only for a word inside quotes
                    value = first.rpartition("\nnx = ")[2]
                    unquoted = re.sub(r'"[^"]*"', '""', value)
                    assert _reference_shared(first.replace(value, unquoted),
                                             second.replace(value, unquoted),
                                             namespace) == \
                        shared.replace(value, unquoted), (n1, n2, box)
                    differ.add((n1, n2, box))
        assert differ == {("H", "H", False), ("H", "inv-H", False)}

    @pytest.mark.parametrize("names", [("H", "H"), ("H", "inv-H")])
    def test_the_loops_that_differ_give_the_reference_values_bit_for_bit(self, names):
        m1, m2 = (_shared_corpus()[n] for n in names)
        _, _, namespace = self._splices(m1, m2, False)
        loop = middle._trace_loop.__wrapped__(m1.fn, m2.fn, False)
        with mock.patch.object(middle, "_shared",
                               lambda first, second: _reference_shared(first, second, namespace)):
            reference = middle._trace_loop.__wrapped__(m1.fn, m2.fn, False)

        def outcome(run, x, y):
            steps = [(0, x, y, abs(x - y))]
            try:
                result = run(m1, m2, x, y, middle.DEFAULT_TOLERANCE,
                             middle.DEFAULT_MAX_ITERATIONS, steps)
            except ms.DomainError as exc:
                result = str(exc)
            # repr tells every float apart, -0.0 from 0.0 too
            return repr((result, [tuple(step) for step in steps]))

        # starts over the whole positive range: a third far apart, which run out of
        # iterations, and the rest within a factor 1000, which converge
        rng = np.random.default_rng(43)
        xs = rng.uniform(-320.0, 308.0, 1200)
        ys = np.concatenate([rng.uniform(-320.0, 308.0, 400),
                             np.clip(xs[400:] + rng.uniform(-3.0, 3.0, 800), -320.0, 308.0)])
        outside = [(float(x), float(y)) for x, y in zip(10.0 ** xs, 10.0 ** ys)
                   if not (middle._P_LO < x < middle._P_HI and middle._P_LO < y < middle._P_HI)]
        assert len(outside) > 600
        for x, y in outside:
            assert outcome(loop, x, y) == outcome(reference, x, y), (x, y)


class TestBoxLoop:
    """From a start in P a compound's kernel runs its operands' box forms, and from any other
    start their checked blocks."""

    @staticmethod
    def _loop_source(m1, m2):
        """The body that building compound(m1, m2) hands ``core._generated`` for its kernel."""
        with mock.patch.object(middle, "_generated", wraps=middle._generated) as generate:
            ms.compound(m1, m2)
        (body,) = [call.args[1] for call in generate.call_args_list
                   if call.args[3] == "<compound>"]
        return body

    @staticmethod
    def _trace_source(m1, m2, box=True):
        """The body of the trace that ``compound_trace`` runs from a start in P, or with
        ``box`` false from any other start."""
        with mock.patch.object(middle, "_generated", wraps=middle._generated) as generate:
            middle._trace_loop.__wrapped__(m1.fn, m2.fn, box)
        (call,) = generate.call_args_list
        return call.args[1]

    @classmethod
    def _box_loops(cls, kind):
        """The kernel's and the trace's box loops of the operand pair ``kind``."""
        m1, m2 = _operand_pairs()[kind][1](ms.compound)
        return cls._loop_source(m1, m2), cls._trace_source(m1, m2)

    @staticmethod
    def _updates(source):
        """The statements of a loop that set the iterates x and y from nx and ny."""
        return [line.strip() for line in source.splitlines()
                if re.fullmatch(r"    [xy] = .*\bn[xy]\b.*", line)]

    _CLAMPS = [f"{v} = lo if n{v} < lo else hi if n{v} > hi else n{v}" for v in "xy"]

    def test_an_operand_that_declares_between_is_not_clamped_in_the_box(self):
        clamp_x, clamp_y = self._CLAMPS
        # A and G declare it; the parsed operands and the drifting ones keep their clamp
        for kind, updates in [("agm", ["x = nx", "y = ny"]),
                              ("g-inverse", ["x = nx", clamp_y]),
                              ("agm-parsed", [clamp_x, clamp_y]),
                              ("power-normal", [clamp_x, clamp_y]),
                              ("drift-first", [clamp_x, "y = ny"]),
                              ("drift-second", ["x = nx", clamp_y])]:
            for source in self._box_loops(kind):
                assert self._updates(source) == updates, kind

    def test_every_checked_loop_keeps_both_clamps(self):
        for kind, (_, pair) in _operand_pairs().items():
            m1, m2 = pair(ms.compound)
            assert self._updates(self._trace_source(m1, m2, box=False)) == self._CLAMPS, kind

    def test_a_value_both_operands_compute_is_computed_once(self):
        G = ms.make_geometric()
        m1, m2 = _operand_pairs()["g-inverse"][1](ms.compound)
        for source in (*self._box_loops("g-inverse"), self._trace_source(m1, m2, box=False)):
            calls = [n for n in ast.walk(ast.parse(source))
                     if isinstance(n, ast.Call) and ast.unparse(n.func) == "sqrt"]
            assert len(calls) == 1
            assert re.search(r"\n    i\d+_value = nx\n", source)
        assert "ny = nx" in self._loop_source(G, G)
        # A's value reads its local a_sum, so the inverse of A computes its own
        A = ms.make_arithmetic()
        assert self._loop_source(A, ms.group_inverse(A)).count("a_sum / 2.0") == 3

    def test_a_value_is_shared_only_where_no_splice_assigns_a_name_it_reads(self):
        # a statement of either splice that assigns a name the value reads leaves second
        # as it is
        value = "sqrt(x * y)"
        second = f"k_a = {value}\nsqrt = k_f\nk_b = {value}\nny = k_a + k_b"
        assert middle._shared(f"\nnx = {value}", second) == second
        assert middle._shared(f"sqrt = k_f\nnx = {value}", f"ny = {value}") == f"ny = {value}"
        assert middle._shared(f"\nnx = {value}", f"k_a = {value}\nny = k_a") == \
            "k_a = nx\nny = k_a"
        # a value that reads a local of its block is not shared
        assert middle._shared("a_s = x + y\nnx = a_s / 2.0", "a_s = x + y\nny = a_s / 2.0") == \
            "a_s = x + y\nny = a_s / 2.0"
        # a word of a string literal is no name: H's checked value is shared
        value = 'endpoint_weighted("H", x, y)'
        assert middle._shared(f"\nnx = {value}", f"ny = {value}") == "ny = nx"

    def test_the_workload_loops_check_nothing_that_cannot_fire(self):
        pairs = _operand_pairs()
        for kind in ("agm", "agm-parsed", "g-inverse", "power-normal"):
            m1, m2 = pairs[kind][1](ms.compound)
            # the start's two float() conversions, its test of P and the domain, then the
            # iteration: no raise, no handler, no range test
            _, _, start, *loop = ast.parse(self._loop_source(m1, m2)).body
            assert {n.id for n in ast.walk(start.test) if isinstance(n, ast.Name)} == {
                "start_lo", "start_hi", "x0", "y0"}
            # the trace's loop is the kernel's, recording every step
            for loop in (loop, ast.parse(self._trace_source(m1, m2)).body):
                nodes = [n for statement in loop for n in ast.walk(statement)]
                assert not [n for n in nodes if isinstance(n, (ast.Raise, ast.Try))], kind
                names = {n.id for n in nodes if isinstance(n, ast.Name)}
                assert not names & {"isfinite", "plain_lo", "plain_hi", "min_normal", "inf"}, kind
                # the P form of the stop test reads no floor, and no NaN probe calls m1
                assert not names & {"stop", "m1"}, kind
                assert not [n for n in nodes if isinstance(n, ast.NotEq)], kind

    def test_the_workload_loops_from_outside_p_call_no_kernel_that_has_a_block(self):
        pairs = _operand_pairs()
        for kind in ("agm", "agm-parsed", "g-inverse", "power-normal"):
            m1, m2 = pairs[kind][1](ms.compound)
            dom = common_domain(m1.domain, m2.domain)
            with mock.patch.object(middle, "_generated", wraps=middle._generated) as generate:
                middle._trace_loop.__wrapped__(m1.fn, m2.fn, False)
                middle._compound_kernel(m1, m2, dom, 1e-13, 200, box=False)
            loops = [call.args for call in generate.call_args_list]
            assert [filename for *_, filename in loops] == ["<trace>", "<compound>"], kind
            # the trace's loop takes m1 as an argument; the compound's checked loop names it
            for (_, body, namespace, _), free in zip(loops, ({"steps.append", "m1"}, set())):
                calls = [n for n in ast.walk(ast.parse(body)) if isinstance(n, ast.Call)]
                called = {ast.unparse(call.func) for call in calls}
                # the operands' checked blocks are spliced in: a call is of a namespace value
                # that carries no block, of a builtin, the step's append, or the NaN probe's m1
                assert not [f for f in called & namespace.keys()
                            if hasattr(namespace[f], "inline")], kind
                assert called - namespace.keys() - {"abs", "max"} == free, kind
                probes = [ast.unparse(c) for c in calls if ast.unparse(c.func) == "m1"]
                assert probes == ["m1(x, y)"], kind

    def test_the_last_eight_pairs_of_kernels_are_kept(self):
        # nine pairs from a start in P: the first pair's loop is dropped and compiled again
        means = (ms.make_arithmetic(), ms.make_geometric(), ms.make_harmonic())
        pairs = [(m1, m2) for m1 in means for m2 in means]
        traces = [ms.compound_trace(m1, m2, 1.0, 3.0, estimate_contraction=False)
                  for m1, m2 in pairs]
        misses = middle._trace_loop.cache_info().misses
        again = ms.compound_trace(*pairs[0], 1.0, 3.0, estimate_contraction=False)
        assert middle._trace_loop.cache_info().misses == misses + 1
        assert _bits(again) == _bits(traces[0])
        # the last pair is still kept
        ms.compound_trace(*pairs[-1], 1.0, 3.0, estimate_contraction=False)
        assert middle._trace_loop.cache_info().misses == misses + 1

    def test_compounds_from_outside_p_keep_the_traced_loops(self):
        # eight traced pairs fill the kept loops; nine compounds started outside P compile
        # loops of their own, so the same eight traces compile nothing again
        means = (ms.make_arithmetic(), ms.make_geometric(), ms.make_harmonic())
        pairs = [(m1, m2) for m1 in means for m2 in means]
        for m1, m2 in pairs[:8]:
            ms.compound_trace(m1, m2, 1.0, 3.0, estimate_contraction=False)
        for m1, m2 in pairs:
            ms.compound(m1, m2)(1e-200, 3e-200)
        misses = middle._trace_loop.cache_info().misses
        for m1, m2 in pairs[:8]:
            ms.compound_trace(m1, m2, 1.0, 3.0, estimate_contraction=False)
        assert middle._trace_loop.cache_info().misses == misses

    def test_a_kernel_with_no_block_keeps_the_nan_probe(self):
        A = ms.make_arithmetic()
        low = ms.MeanFunction("min", ms.ALL_REALS, min)
        for source in (self._loop_source(A, low), self._trace_source(A, low),
                       self._trace_source(low, A)):
            assert "if gap != gap:\n        m1(x, y)" in source

    def test_a_check_that_can_fire_in_the_box_is_kept(self):
        A, shifted = _operand_pairs()["fault-in-box"][1](ms.compound)
        assert "log of non-positive value" in self._loop_source(A, shifted)
        for x, y in [(0.5, 3.0), (3.0, 0.5)]:
            for outcome in TestSplicedBlocksMatchCheckedReference._outcomes(A, shifted, x, y):
                assert outcome[:2] == (ms.EvaluationError, f"log of non-positive value -0.5 "
                                                           f"at {{'x': {x}, 'y': {y}}}")
        assert TestSplicedBlocksMatchCheckedReference._outcomes(A, shifted, 2.0, 5.0)[0][0] \
            == "value"


class TestSplicedBlocksMatchCheckedReference:
    """Faults raised inside a spliced block, and the built-ins' scaled branches, against
    the iteration that calls every operand through its checked call."""

    @staticmethod
    def _outcomes(m1, m2, x, y):
        """The compound's call and trace, after asserting that they match the reference."""
        fast = _entry_outcomes(m1, m2, x, y, 1e-13, 200)
        assert fast == (_outcome(_checked_compound(m1, m2), x, y),
                        _outcome(lambda: _checked_trace(m1, m2, x, y)))
        return fast

    def test_a_weight_that_faults_at_y_names_that_t(self):
        normal = ms.make_normal_mean(ms.weight_from_source("sqrt(3 - t)"))
        for outcome in self._outcomes(ms.make_arithmetic(), normal, 1.0, 5.0):
            assert outcome[:2] == (ms.EvaluationError, "sqrt of negative value -2.0 at {'t': 5.0}")

    def test_a_weight_that_returns_zero_names_the_point(self):
        normal = ms.make_normal_mean(ms.weight_from_source("max(3 - t, 0)"))
        for outcome in self._outcomes(ms.make_arithmetic(), normal, 1.0, 5.0):
            assert outcome[:2] == (
                ms.InvalidMeanError, "weight max(3.0 - t, 0.0) is not positive and finite at 5.0")

    def test_the_inverse_of_a_parsed_mean_that_faults_on_all_of_r(self):
        root = ms.mean_from_source("sqrt(x*y)", ms.ALL_REALS).mean
        for outcome in self._outcomes(ms.make_arithmetic(), ms.group_inverse(root), -1.0, 2.0):
            assert outcome[:2] == (ms.EvaluationError,
                                   "sqrt of negative value -2.0 at {'x': -1.0, 'y': 2.0}")

    def test_starts_that_take_the_scaled_branches(self):
        pairs = _operand_pairs()
        operands = [pairs[k][1](ms.compound) for k in ("agm", "g-inverse", "power-normal")]
        operands.append((ms.make_geometric(), ms.make_harmonic()))
        for m1, m2 in operands:
            for x, y in [(5e-324, 1.0), (1.0, 5e-324), (1e300, 1.0), (5e-324, 1e300)]:
                self._outcomes(m1, m2, x, y)


def _near_iteration(m1, m2, x, y, tol, max_iter, steps):
    """The kernel iteration with ``math.isclose`` as its stop test, as it ran before the test was
    taken from the sorted envelope: the oracle of ``middle._trace_loop``, in its
    protocol, appending each step to ``steps`` where that is a list. A gap of at most 5e-324
    stops it too, as in ``_checked_iteration``."""
    f1, f2 = m1.fn, m2.fn
    xn, yn = x, y
    floor = (tol * max(abs(xn), abs(yn)) if min(xn, yn) < 0.0 < max(xn, yn) else 0.0) + 5e-324
    n = 0
    while (not (done := math.isclose(xn, yn, rel_tol=tol) or abs(xn - yn) <= floor)
           and n < max_iter):
        if xn != xn or yn != yn:
            m1(xn, yn)  # NaN: the checked call raises m1's DomainError
        lo, hi = (xn, yn) if xn < yn else (yn, xn)
        nx = f1(xn, yn)
        ny = f2(xn, yn)
        xn = lo if nx < lo else hi if nx > hi else nx
        yn = lo if ny < lo else hi if ny > hi else ny
        n += 1
        if steps is not None:
            steps.append(ms.TraceStep(n, xn, yn, abs(xn - yn)))
    return done, xn, yn, n


def _near_compound(m1, m2, tol, max_iterations):
    """compound's call as it ran on the near loop, before its kernel was generated: the
    reference of the call half of ``_entry_outcomes``."""
    def fn(x, y):
        ok, xn, yn, n = _near_iteration(m1, m2, x, y, tol, max_iterations, None)
        if not ok:
            steps = [ms.TraceStep(0, x, y, abs(x - y))]
            _near_iteration(m1, m2, x, y, tol, max_iterations, steps)
            trace = ms.IterationTrace(tuple(steps), False, core._arithmetic_eval(xn, yn), n)
            raise ms.ConvergenceError(
                f"compound({m1.name},{m2.name}) did not converge at ({x}, {y}) "
                f"within {max_iterations} iterations (gap {abs(xn - yn):.3e})", trace)
        return core._arithmetic_eval(xn, yn)

    return ms.MeanFunction(f"mid({m1.name},{m2.name})", common_domain(m1.domain, m2.domain), fn)


def _loop_outcome(run, m1, m2, x, y, tol, max_iter):
    """``_outcome`` of one run of an iteration loop from (x, y), with its steps as a tuple,
    the start first."""
    def loop():
        steps = [ms.TraceStep(0, x, y, abs(x - y))]
        return *run(m1, m2, x, y, tol, max_iter, steps), tuple(steps)

    return _outcome(loop)


@functools.cache
def _loop_operands():
    """Operand pairs by the kind of start they take: positive, of opposite signs or both
    negative (operands on all of R), NaN from an operand, and min/max, which swap the
    envelope's ends forever."""
    pairs = _operand_pairs()
    A, L, U = ms.make_arithmetic(), _quartile(True), _quartile(False)
    low = ms.MeanFunction("min", ms.ALL_REALS, min)
    high = ms.MeanFunction("max", ms.ALL_REALS, max)
    return {
        "positive": [pairs[k][1](ms.compound) for k in sorted(pairs) if not pairs[k][0]],
        "opposite": [(L, U), (A, L), (U, A), (A, A)],
        "nan": [pairs["nan-first"][1](ms.compound), pairs["nan-second"][1](ms.compound)],
        "min-max": [(low, high), (high, low)],
    }


@st.composite
def loop_cases(draw):
    kind = draw(st.sampled_from(sorted(_loop_operands())))
    m1, m2 = draw(st.sampled_from(_loop_operands()[kind]))
    x, y = draw(positive), draw(positive)
    if kind != "positive":
        x = -x  # opposite signs, which may converge to 0, or both negative
        y = -y if draw(st.booleans()) else y
        if draw(st.booleans()):
            x, y = y, x
    tol = draw(st.sampled_from([1e-13, 1e-8, 0.0]))
    max_iterations = draw(st.sampled_from([200, 0, 1, 3]))
    return kind, m1, m2, x, y, tol, max_iterations


def _entry_outcomes(m1, m2, x, y, tol, max_iterations, compound=ms.compound):
    """Outcomes of the compound's call and of its trace at one start."""
    return (_outcome(compound(m1, m2, tol, max_iterations), x, y),
            _outcome(lambda: ms.compound_trace(m1, m2, x, y, tol, max_iterations,
                                               estimate_contraction=False)))


def _near_outcomes(m1, m2, x, y, tol, max_iterations):
    """``_entry_outcomes`` with both halves on the near loop: the trace's too, from a start in
    P as from any other."""
    with mock.patch.object(middle, "_trace_loop", lambda f1, f2, box: _near_iteration):
        return _entry_outcomes(m1, m2, x, y, tol, max_iterations, _near_compound)


def _in_p(x, y):
    return _P_LO < x < _P_HI and _P_LO < y < _P_HI


# From opposite signs at tol 0 the quartiles' iterates close to a gap of one subnormal
# quantum near 0, where only the 5e-324 floor stops the loop.
_SUBNORMAL_GAP = ("opposite", _quartile(True), _quartile(False),
                  -1.0000000000000002e-300, 1e-300, 0.0, 200)


_loop_edges = _at_the_edges(lambda x, y: [("positive", m1, m2, x, y, 1e-13, 200)
                                          for m1, m2 in _loop_operands()["positive"]])


class TestIterationMatchesTheNearLoop:
    @given(loop_cases())
    @example(_SUBNORMAL_GAP)
    @_loop_edges
    def test_loop_results_and_exceptions(self, case):
        _, m1, m2, x, y, tol, max_iterations = case
        args = (m1, m2, x, y, tol, max_iterations)
        near_loop = _loop_outcome(_near_iteration, *args)
        anywhere = middle._trace_loop(m1.fn, m2.fn, False)
        recorded = _loop_outcome(anywhere, *args)
        assert recorded == near_loop

        def stopped():  # A's midpoint of the recorded loop's last pair, or its exception
            converged, xn, yn, _ = anywhere(*args, [])
            if not converged:
                ms.compound_trace(*args, estimate_contraction=False)
            return core._arithmetic_eval(xn, yn)

        # the compound's own checked loop returns that midpoint or raises alike
        own = middle._compound_kernel(m1, m2, common_domain(m1.domain, m2.domain), tol,
                                      max_iterations, box=False)
        assert _outcome(own, x, y) == _outcome(stopped)
        if _in_p(x, y):
            assert _loop_outcome(middle._trace_loop(m1.fn, m2.fn, True), *args) == near_loop

    @given(loop_cases())
    @example(_SUBNORMAL_GAP)
    @_loop_edges
    def test_compound_values_traces_and_messages(self, case):
        kind, m1, m2, x, y, tol, max_iterations = case
        fast = _entry_outcomes(m1, m2, x, y, tol, max_iterations)
        assert fast == _near_outcomes(m1, m2, x, y, tol, max_iterations)
        if kind == "min-max" and max_iterations == 200 and x != y:
            assert [f[0] for f in fast] == [ms.ConvergenceError] * 2

    def test_nan_and_exhaustion_raise_as_before(self):
        low, high = _loop_operands()["min-max"][0]
        nan_mean = ms.MeanFunction("nan", ms.ALL_REALS, lambda x, y: math.nan)
        A = ms.make_arithmetic()
        for m1, m2, want in [(low, high, ms.ConvergenceError), (A, nan_mean, ms.DomainError)]:
            fast = _entry_outcomes(m1, m2, -1.0, 2.0, 1e-13, 200)
            assert fast == _near_outcomes(m1, m2, -1.0, 2.0, 1e-13, 200)
            assert [f[0] for f in fast] == [want] * 2
        call, trace = _entry_outcomes(low, high, -1.0, 2.0, 1e-13, 200)
        assert call[1] == ("compound(min,max) did not converge at (-1.0, 2.0) within 200 "
                           "iterations (gap 3.000e+00)")
        assert len(trace[2][0]) == 201  # every step of the trace, the start included
        call, _ = _entry_outcomes(A, nan_mean, -1.0, 2.0, 1e-13, 200)
        assert call[1] == "(0.5, nan) is outside the domain (-inf, inf) of A"

    def test_a_hand_written_nan_from_a_start_in_p_is_the_domain_error(self):
        # the operand has no block, so the box loops keep the NaN probe
        nan_mean = ms.MeanFunction("nan", ms.ALL_REALS, lambda x, y: math.nan)
        A = ms.make_arithmetic()
        for m1, m2, point in [(A, nan_mean, "(1.5, nan)"), (nan_mean, A, "(nan, 1.5)")]:
            fast = _entry_outcomes(m1, m2, 1.0, 2.0, 1e-13, 200)
            assert fast == _near_outcomes(m1, m2, 1.0, 2.0, 1e-13, 200)
            message = f"{point} is outside the domain (-inf, inf) of {m1.name}"
            assert [f[:2] for f in fast] == [(ms.DomainError, message)] * 2


class TestOneExit:
    def test_an_exhausted_compound_raises_what_compound_trace_raises(self):
        low, high = _loop_operands()["min-max"][0]
        A, G = ms.make_arithmetic(), ms.make_geometric()
        for m1, m2, x, y, max_iterations in [(low, high, 1.0, 2.0, 200),
                                             (A, G, 1.0, 1e6, 2)]:
            call, trace = _entry_outcomes(m1, m2, x, y, 1e-13, max_iterations)
            assert call[0] is ms.ConvergenceError
            assert call == trace  # type, message and the trace's bits
        assert call[1] == ("compound(A,G) did not converge at (1.0, 1000000.0) within 2 "
                           "iterations (gap 2.281e+05)")


def test_the_coupled_iteration_is_written_once():
    # both renderings come from _COMPOUND, and each form of its stop test is written once
    sources = [path.read_text() for path in pathlib.Path(ms.__file__).parent.glob("*.py")]
    for stop in ("gap <= tol * (hi if hi > -lo else -lo)", "gap <= tol * hi"):
        assert sum(text.count(stop) for text in sources) == 1, stop
    assert sum(text.count("_COMPOUND.format(") for text in sources) == 2
    A, G = ms.make_arithmetic(), ms.make_geometric()
    for fn in (ms.compound(A, G).fn, middle._trace_loop(A.fn, G.fn, False),
               middle._trace_loop(A.fn, G.fn, True)):
        assert re.fullmatch(r"<\w+>", fn.__code__.co_filename)
    # the renderings are the compound's kernel and _trace_loop
    tree = ast.parse(pathlib.Path(middle.__file__).read_text())
    assert sorted(f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                  and "_COMPOUND.format(" in ast.unparse(f)) == ["_compound_kernel", "_trace_loop"]


def _stop_test(slots):
    """``stop(x, y, lo, hi, tol)``: whether the stop test of ``slots`` ends a loop started at
    (x, y) whose envelope is [lo, hi]."""
    return core._generated("x, y, lo, hi, tol",
                           f"{slots['floor']}gap = hi - lo\nreturn {slots['stop']}", {}, "<stop>")


_P_BOTTOM = math.nextafter(_P_LO, 1.0)  # the least float of P
_floats_in_p = st.floats(min_value=_P_BOTTOM, max_value=math.nextafter(_P_HI, 0.0))


@st.composite
def envelopes_in_p(draw):
    """A start in P and an envelope between its coordinates, equal or an ulp wide at times."""
    x = draw(_floats_in_p)
    y = draw(st.one_of(st.just(x), st.just(math.nextafter(x, 1.0)), _floats_in_p))
    lo, hi = min(x, y), max(x, y)
    if draw(st.booleans()):
        lo = draw(st.one_of(st.just(hi), st.floats(min_value=lo, max_value=hi)))
    return x, y, lo, hi, draw(st.sampled_from([0.0, 1e-13, 1e-8]))


_P_FORM, _GENERAL_FORM = _stop_test(middle._IN_P), _stop_test(middle._ANYWHERE)


@given(envelopes_in_p())
@example((1.0, 1.0, 1.0, 1.0, 0.0))
# the narrowest gap in P, 2^-552, at its bottom
@example((math.nextafter(_P_HI, 0.0), _P_BOTTOM, _P_BOTTOM, math.nextafter(_P_BOTTOM, 1.0), 0.0))
def test_the_p_form_of_the_stop_test_is_the_general_form_in_p(case):
    assert _P_FORM(*case) == _GENERAL_FORM(*case)


class TestIterationSettings:
    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1e-13])
    def test_tolerance_must_be_finite_and_non_negative(self, tolerance):
        A, G = ms.make_arithmetic(), ms.make_geometric()
        for build in (lambda: ms.compound(A, G, tolerance),
                      lambda: ms.compound_trace(A, G, 1.0, 2.0, tolerance),
                      lambda: ms.m_arithmetic(G, tolerance), lambda: ms.make_agm(tolerance)):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == f"tolerance must be finite and non-negative, got {tolerance}"

    def test_max_iterations_must_be_non_negative(self):
        A, G = ms.make_arithmetic(), ms.make_geometric()
        for build in (lambda: ms.compound(A, G, max_iterations=-1),
                      lambda: ms.compound_trace(A, G, 1.0, 2.0, max_iterations=-1)):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == "max_iterations must be non-negative, got -1"

    def test_max_iterations_must_be_an_integer(self):
        A, G = ms.make_arithmetic(), ms.make_geometric()
        for build in (lambda: ms.compound(A, G, max_iterations=2.5),
                      lambda: ms.compound_trace(A, G, 1.0, 2.0, max_iterations=2.5)):
            with pytest.raises(TypeError):
                build()



def _checked_functional_symmetric(m0, m1, x, y):
    """functional_symmetric with every m0 call through its checked __call__, as the bisection
    ran before it called the kernel: the reference for values and exceptions."""
    if m0.is_monotone is not True:
        raise ValueError(f"{m0.name} is not declared monotone (is_monotone=True required)")
    x, y = float(x), float(y)
    target = m0(x, y)
    a = m1(x, y)
    if x == y:
        return x
    lo, hi = min(x, y), max(x, y)

    def g(t):
        return m0(a, t) - target

    g_lo, g_hi = g(lo), g(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if (g_lo > 0.0) == (g_hi > 0.0):
        def near(g):  # within the rounding of g's two m0 values, each within one ulp
            return abs(g) <= math.ulp(target + g) + math.ulp(target) < math.inf

        if near(g_lo) and not abs(g_hi) < abs(g_lo):
            return lo
        if near(g_hi):
            return hi
        raise ms.BracketError(
            f"no sign change for the functional symmetric of {m1.name} with respect to "
            f"{m0.name} on [{lo}, {hi}]: endpoints {g_lo:.6e}, {g_hi:.6e}")
    increasing = g_hi > 0.0
    while lo < (mid := ms.make_arithmetic()(lo, hi)) < hi:
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm > 0.0) == increasing:
            hi = mid
        else:
            lo = mid
    return mid


@functools.cache
def _symmetric_operands():
    """m0 candidates (declared monotone) and m1 candidates, the latter with maps that are
    not means: a sum with no sign change, values outside (0, inf), NaN, and an int."""
    A, G, H = ms.make_arithmetic(), ms.make_geometric(), ms.make_harmonic()

    def monotone(m):
        return m.replace(is_monotone=True)

    power = monotone(ms.mean_from_source("((x^1.778+y^1.778)/2)^(1/1.778)").mean)
    normal = monotone(ms.make_normal_mean(ms.weight_from_source("t^(0.371)*(1+t)^(0.471)")))
    lower = monotone(_quartile(True))
    m0s = {"A": A, "G": G, "H": H, "power": power, "normal": normal, "L": lower}
    m1s = dict(m0s, U=_quartile(False),
               sum=ms.MeanFunction("sum", ms.ALL_REALS, lambda x, y: x + y),
               neg=ms.MeanFunction("neg", ms.ALL_REALS, lambda x, y: -abs(x) - 1.0),
               nan=ms.MeanFunction("nan", ms.ALL_REALS, lambda x, y: math.nan),
               int=ms.MeanFunction("int", ms.ALL_REALS, lambda x, y: 1))
    return m0s, m1s


@st.composite
def symmetric_cases(draw):
    m0s, m1s = _symmetric_operands()
    m0, m1 = draw(st.sampled_from(sorted(m0s))), draw(st.sampled_from(sorted(m1s)))
    x = draw(st.one_of(reals, st.floats()))
    # x * 1.5 near the top of the float range puts the bisection's lo + hi past it, where
    # the midpoint halves first
    y = draw(st.one_of(reals, st.floats(), st.just(x), st.just(math.nextafter(x, math.inf)),
                       st.just(x * 4.0), st.just(x * 1.5)))
    return m0s[m0], m1s[m1], x, y


class TestFunctionalSymmetricMatchesCheckedReference:
    @given(symmetric_cases())
    def test_values_and_exceptions(self, case):
        m0, m1, x, y = case
        assert (_outcome(lambda: ms.functional_symmetric(m0, m1, x, y))
                == _outcome(lambda: _checked_functional_symmetric(m0, m1, x, y)))

    def test_messages(self):
        m0s, m1s = _symmetric_operands()
        G = m0s["G"]
        cases = [(G, m1s["neg"], 1.0, 4.0), (G, m1s["nan"], 1.0, 4.0), (G, m1s["A"], -1.0, -1.0),
                 (m0s["A"], m1s["sum"], 1.0, 2.0), (m0s["L"], m1s["L"], -1e308, -1.5e308)]
        for m0, m1, x, y in cases:
            fast = _outcome(lambda: ms.functional_symmetric(m0, m1, x, y))
            assert fast == _outcome(lambda: _checked_functional_symmetric(m0, m1, x, y))
            assert fast[0] in (ms.DomainError, ms.BracketError)
        assert str(_outcome(lambda: ms.functional_symmetric(G, m1s["neg"], 1.0, 4.0))[1]) == \
            "(-2.0, 1.0) is outside the domain (0, inf) of G"
        # lo + hi of these brackets overflows, so the bisection's midpoint halves first:
        # sigma[M](M) is M
        for m, x, y in ((G, 1e308, 1.5e308), (m0s["H"], 1.5e308, 1e308)):
            fast = ms.functional_symmetric(m, m, x, y)
            assert _bits(fast) == _bits(_checked_functional_symmetric(m, m, x, y))
            assert fast == pytest.approx(m(x, y), rel=1e-12)

    @pytest.mark.parametrize("m0", ["A", "G", "H", "power"])
    def test_coincidence_probe(self, m0):
        m = _symmetric_operands()[0][m0]
        for window in ((0.1, 10.0), (1e-300, 1e-290), (1e300, 1e301)):
            window = ms.Interval.closed(*window)
            assert (_outcome(lambda: ms.coincidence_probe(m, window, 30, seed=5))
                    == _outcome(lambda: _checked_coincidence_probe(m, window, 30, seed=5)))


def _checked_coincidence_probe(m, window, samples, seed):
    """coincidence_probe with every reflection and every functional solve through checked
    calls, as it ran before it called kernels: the reference for values and messages."""
    if m.is_monotone is not True:
        raise ValueError(f"{m.name} must be declared monotone for the functional solve")
    family = middle._probe_family(seed)
    core.check_window(window, (m.domain, m.name), *[(t.domain, t.name) for t in family])
    worst, worst_point = 0.0, (window.lo, window.hi)
    pairs = ms.sample_pairs(window, samples, seed, min_gap=1e-9)
    for test_mean in family:
        reflected = ms.group_symmetry(m, test_mean)
        for x, y in pairs:
            gap = abs(reflected(x, y) - _checked_functional_symmetric(m, test_mean, x, y))
            if gap > worst:
                worst, worst_point = gap, (x, y)
    return middle.CoincidenceResult(worst, worst_point)


class _ContractSpy:
    """Kernels that record every call breaking the kernel contract of core.MeanFunction:
    an argument that is not a Python float or lies outside the domain, and, for a mean,
    two equal arguments."""

    def __init__(self):
        self.calls = 0
        self.violations = []

    def mean(self, name, domain, kernel):
        def fn(x, y):
            self.calls += 1
            if (type(x) is not float or type(y) is not float or x == y
                    or not (domain.contains(x) and domain.contains(y))):
                self.violations.append((name, x, y))
            return kernel(x, y)

        return ms.MeanFunction(name, domain, fn, is_monotone=True, is_continuous=True)

    def weight(self, name, domain, kernel):
        def fn(t):
            self.calls += 1
            if type(t) is not float or not domain.contains(t):
                self.violations.append((name, t))
            return kernel(t)

        return ms.WeightFunction(domain, fn, name)


def _spied_points(window, seed):
    pairs = ms.sample_pairs(window, 150, seed)
    x = pairs[0][0]
    # the diagonal and its neighbours, which the composites must not pass on
    return pairs + [(x, x), (x, math.nextafter(x, math.inf)), (math.nextafter(x, 0.0), x)]


class TestKernelContract:
    def test_composites_call_kernels_only_within_the_contract(self):
        spy = _ContractSpy()
        pos, reals = ms.POSITIVE_REALS, ms.ALL_REALS
        A = spy.mean("A", reals, ms.make_arithmetic().fn)
        G = spy.mean("G", pos, ms.make_geometric().fn)
        H = spy.mean("H", pos, ms.make_harmonic().fn)
        L = spy.mean("L", reals, _quartile(True).fn)
        U = spy.mean("U", reals, _quartile(False).fn)
        P = spy.weight("P", pos, lambda t: t ** -0.5)
        f = ms.phi(G)
        positive_means = [
            ms.compound(A, G), ms.compound(ms.compound(A, G), H),
            ms.compound(G, ms.group_inverse(G)), ms.star(G, H), ms.group_symmetry(G, A),
            ms.group_inverse(G), ms.phi_inverse(f), ms.make_normal_mean(P),
            ms.phi_inverse(f + ms.phi(H)), ms.phi_inverse(-f), ms.phi_inverse(2.0 * f),
        ]
        windows = [ms.Interval.closed(1e-3, 1e3), ms.Interval.closed(1e-300, 1e-290)]
        for seed, window in enumerate(windows, start=41):
            for x, y in _spied_points(window, seed):
                for m in positive_means:
                    m(x, y)
                f(x, y)
                ms.compound_trace(A, G, x, y, estimate_contraction=False)
        reals_compound = ms.compound(L, U)
        for x, y in _spied_points(ms.Interval.closed(-1e3, 1e3), 43):
            reals_compound(x, y)
            reals_compound(-abs(x), abs(y))
            ms.compound_trace(L, U, -abs(x), abs(y), estimate_contraction=False)
        assert spy.calls > 10_000
        assert spy.violations == []

    def test_functional_symmetric_calls_kernels_only_within_the_contract(self):
        spy = _ContractSpy()
        pos = ms.POSITIVE_REALS
        A = spy.mean("A", ms.ALL_REALS, ms.make_arithmetic().fn)
        G = spy.mean("G", pos, ms.make_geometric().fn)
        H = spy.mean("H", pos, ms.make_harmonic().fn)
        windows = [ms.Interval.closed(1e-3, 1e3), ms.Interval.closed(1e-300, 1e-290)]
        for seed, window in enumerate(windows, start=44):
            for x, y in _spied_points(window, seed):
                for m0 in (A, G, H):
                    for m1 in (A, G, H):
                        ms.functional_symmetric(m0, m1, x, y)
        for m0 in (A, G, H):
            ms.coincidence_probe(m0, windows[0], 20, seed=44)
        for x, y in _spied_points(ms.Interval.closed(-1e3, 1e3), 46):
            ms.functional_symmetric(A, A, x, y)
        for m0 in (G, H):  # lo + hi overflows here; the midpoints stay in the domain
            assert 1e308 <= ms.functional_symmetric(m0, G, 1e308, 1.5e308) <= 1.5e308
        assert spy.calls > 10_000
        assert spy.violations == []

    def test_grids_call_kernels_only_within_the_contract(self):
        spy = _ContractSpy()
        pos = ms.POSITIVE_REALS
        G = spy.mean("G", pos, ms.make_geometric().fn)
        H = spy.mean("H", pos, ms.make_harmonic().fn)
        agm = ms.compound(spy.mean("A", ms.ALL_REALS, ms.make_arithmetic().fn), G)
        windows = [ms.Interval.closed(1e-3, 1e3), ms.Interval.closed(1e-300, 1e-290)]
        for window in windows:
            for m1, m2 in ((G, H), (agm, G)):
                ms.distance(m1, m2, window, 8)
                ms.distance_via_phi(m1, m2, window, 8)
                ms.distance_to_arithmetic(m1, window, 8)
                ms.border_diagnostic(m1, [window], 8)
        assert spy.calls > 5_000
        assert spy.violations == []

    def test_verify_axioms_calls_kernels_only_within_the_contract(self):
        spy = _ContractSpy()
        pos = ms.POSITIVE_REALS
        A = spy.mean("A", ms.ALL_REALS, ms.make_arithmetic().fn)
        G = spy.mean("G", pos, ms.make_geometric().fn)
        edge = spy.mean("edge", ms.Interval.closed(1.0, 2.0), ms.make_geometric().fn)
        for window in (ms.Interval.closed(1e-3, 1e3), ms.Interval.closed(1e-300, 1e-290),
                       ms.Interval.closed(1e300, 1.7e308)):
            for m in (A, G, ms.compound(A, G)):
                ms.verify_axioms(m, window, 200, seed=47)
        ms.verify_axioms(edge, ms.Interval.closed(1.0, 2.0), 200, seed=47)
        assert spy.calls > 2_000
        assert spy.violations == []


def _sampled_entry_points(m1, m2, p1, p2, window):
    """Every sampled entry point on ``window``: the grids on m1 and m2, verify_axioms and
    coincidence_probe on m1, compare_normal on the weights p1 and p2."""
    return {
        "distance": lambda: ms.distance(m1, m2, window, 8),
        "distance_via_phi": lambda: ms.distance_via_phi(m1, m2, window, 8),
        "distance_to_arithmetic": lambda: ms.distance_to_arithmetic(m1, window, 8),
        "border_diagnostic": lambda: ms.border_diagnostic(m1, [window], 8),
        "verify_axioms": lambda: ms.verify_axioms(m1, window, 64, seed=48),
        "compare_normal": lambda: ms.compare_normal(p1, p2, window, 16),
        "coincidence_probe": lambda: ms.coincidence_probe(m1, window, 8, seed=48),
    }


_ONE_TWO = ms.Interval(1.0, 2.0)


def _spied_operands(spy, domain):
    """Two means and two weights on ``domain`` whose kernels report to ``spy``."""
    return (spy.mean("M", domain, ms.make_geometric().fn),
            spy.mean("N", domain, ms.make_harmonic().fn),
            spy.weight("P", domain, lambda t: 1.0 + t * t),
            spy.weight("Q", domain, lambda t: 2.0 + t * t))


class TestSampledEntryPointsCheckTheirWindow:
    """One window check in every sampled entry point: a window with a finite width and both
    ends in each domain is sampled on kernels only, inside the domain; any other window
    raises the check's DomainError before a kernel runs."""

    @pytest.mark.parametrize("domain, window, message", [
        # open windows at open domain ends: the grids sample the closed window
        (ms.POSITIVE_REALS, ms.Interval.open(0.0, 1.0), "is not inside the domain (0, inf) of"),
        (ms.Interval(-1.0, 0.0), ms.Interval.open(-1.0, 0.0), "is not inside the domain (-1, 0) of"),
        (_ONE_TWO, ms.Interval.open(1.0, math.nextafter(math.nextafter(1.0, 2.0), 2.0)),
         "is not inside the domain (1, 2) of"),
        (ms.ALL_REALS, ms.Interval.closed(-1e308, 1e308), "has no finite width"),
        (ms.POSITIVE_REALS, ms.Interval.open(1.0, math.inf), "has no finite width"),
    ], ids=["open-(0,1)", "open-(-1,0)", "open-(1,1+2ulp)", "width-overflow", "unbounded"])
    def test_rejected_windows_raise_before_any_kernel(self, domain, window, message):
        spy = _ContractSpy()
        m1, m2, p1, p2 = _spied_operands(spy, domain)
        for name, call in _sampled_entry_points(m1, m2, p1, p2, window).items():
            with pytest.raises(ms.DomainError) as err:
                call()
            owner = "weight P" if name == "compare_normal" else "M"
            want = f"window {window} {message}" + (f" {owner}" if "domain" in message else "")
            assert str(err.value) == want, name
        assert spy.calls == 0

    @pytest.mark.parametrize("domain, window", [
        (ms.POSITIVE_REALS, ms.Interval.closed(1e-300, 1e-290)),
        (ms.POSITIVE_REALS, ms.Interval.closed(1e300, 1.7e308)),
        (ms.POSITIVE_REALS, ms.Interval.open(1e-3, 1e3)),
        (ms.Interval.closed(1.0, 2.0), ms.Interval.closed(1.0, 2.0)),
        (_ONE_TWO, ms.Interval.open(math.nextafter(1.0, 2.0), math.nextafter(2.0, 1.0))),
    ], ids=["tiny", "huge", "open-inside", "closed-ends", "open-(1,2)-next-to-its-ends"])
    def test_accepted_windows_call_kernels_only_inside_the_domain(self, domain, window):
        spy = _ContractSpy()
        m1, m2, p1, p2 = _spied_operands(spy, domain)
        for name, call in _sampled_entry_points(m1, m2, p1, p2, window).items():
            try:
                call()
            except ms.DomainError as exc:
                # near the float maximum the functional solve's checked calls refuse the
                # inf of an overflowed bisection midpoint or value of A, by name
                assert name == "coincidence_probe" and "inf" in str(exc), str(exc)
                assert str(exc).endswith("is outside the domain (0, inf) of M")
            except ms.InvalidMeanError as exc:
                # there, too, the weight 1 + t^2 overflows, a value compare_normal refuses
                assert name == "compare_normal", str(exc)
                assert str(exc) == f"weight P is not positive and finite at {window.lo}"
        assert spy.calls > 1_000
        assert spy.violations == []
