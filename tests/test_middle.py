import math

import pytest

import meanscape as ms

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
        coarse = ms.compound(A, G, tolerance=1e-8, estimate_distance=False)(1.0, 2.0)
        fine = ms.compound(A, G, tolerance=1e-13, estimate_distance=False)(1.0, 2.0)
        assert abs(coarse - fine) <= 1e-7

    def test_m_arithmetic(self, builtins, unit_window):
        A, G, H = builtins
        ga = ms.m_arithmetic(G)
        assert ga.guaranteed and ga.d_estimate <= 0.5 + 1e-12
        assert ga(1.0, 2.0) == pytest.approx(AGM_1_2, abs=1e-13)
        assert ms.m_arithmetic(A)(0.5, 7.5) == 4.0
        assert ms.m_arithmetic(H)(1.0, 4.0) == pytest.approx(2.0, abs=1e-10)

    def test_non_convergence_carries_trace(self, builtins):
        A, G, _ = builtins
        c = ms.compound(A, G, max_iterations=2, estimate_distance=False)
        with pytest.raises(ms.ConvergenceError) as err:
            c(1.0, 1e6)
        trace = err.value.trace
        assert trace is not None and not trace.converged
        assert trace.iterations_used == 2

    def test_reals_domain_compound_at_a_zero(self):
        # the quartile means halve the gap around 0 on every step and never land on 0
        lower = ms.MeanFunction("L", ms.ALL_REALS, lambda x, y: (3 * min(x, y) + max(x, y)) / 4)
        upper = ms.MeanFunction("U", ms.ALL_REALS, lambda x, y: (min(x, y) + 3 * max(x, y)) / 4)
        c = ms.compound(lower, upper, estimate_distance=False)
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

    def test_guaranteed_flag_routes(self, builtins, mean_family):
        A, G, _ = builtins
        # distance route: the estimate sits below 1
        c = ms.compound(A, mean_family[3])
        assert c.guaranteed and c.d_estimate is not None and c.d_estimate < 1.0
        # continuity route: no estimate, both operands flagged continuous
        c = ms.compound(A, G, estimate_distance=False)
        assert c.d_estimate is None and c.guaranteed
        # neither route: unflagged operand and no estimate
        unflagged = ms.MeanFunction("g2", ms.POSITIVE_REALS,
                                    lambda x, y: math.sqrt(x * y))
        c = ms.compound(A, unflagged, estimate_distance=False)
        assert not c.guaranteed


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
                assert trace.k_estimate is not None and trace.k_estimate < 1.0
                assert trace.envelope_ok

    def test_envelope_math(self, mean_family):
        A = ms.make_arithmetic()
        m = mean_family[3]
        trace = ms.compound_trace(A, m, 0.5, 9.0)
        k, gap0 = trace.k_estimate, trace.steps[0].gap
        for step in trace.steps[1:]:
            assert step.gap <= k ** step.n * gap0 * (1.0 + 1e-9)


class TestAgmFixedPoint:
    def test_known_pairs(self):
        assert ms.agm_fixed_point_check(1.0, 2.0, 1e-10)
        assert ms.agm_fixed_point_check(5.0, 5.0, 1e-15)
        assert ms.agm_fixed_point_check(3.0, 7.0, 1e-10)

    def test_random_pairs(self, unit_window):
        for x, y in ms.sample_pairs(unit_window, 100, seed=30):
            assert ms.agm_fixed_point_check(float(x), float(y), 1e-10)

    def test_positive_arguments_required(self):
        with pytest.raises(ms.DomainError):
            ms.agm_fixed_point_check(-1.0, 2.0)


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


class TestCounterexample:
    def test_distance_one_pair_still_compounds_to_arithmetic(self):
        result = ms.counterexample_check()
        assert result.d_estimate > 0.99
        assert result.compound_is_A

    def test_compound_value(self):
        G = ms.make_geometric()
        partner = ms.group_inverse(G)
        c = ms.compound(G, partner, estimate_distance=False)
        assert c(1.0, 4.0) == pytest.approx(2.5, abs=1e-12)

    def test_estimate_grows_with_window(self):
        G = ms.make_geometric()
        partner = ms.group_inverse(G)
        narrow = ms.distance(G, partner, ms.Interval.closed(0.1, 10.0), 64).value
        wide = ms.distance(G, partner, ms.Interval.closed(1e-6, 1e6), 64).value
        assert narrow < wide < 1.0
