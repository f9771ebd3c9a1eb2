"""Scale equivariance: every mean here is homogeneous, M(sx, sy) = s M(x, y).

With s a power of two, scaling is exact in floating point, so every
closeness test, band and stopping rule that is relative to its arguments
gives bit-identical decisions at every scale, and so do the results.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import meanscape as ms

A, G, H = ms.make_arithmetic(), ms.make_geometric(), ms.make_harmonic()

HOMOGENEOUS = {
    "G": G,
    "H": H,
    "compound(A,G)": ms.compound(A, G),
    "compound(A,H)": ms.compound(A, H),
    "compound(G,2A-G)": ms.compound(G, ms.group_inverse(G)),
    "sigma[G](A)": lambda x, y: ms.functional_symmetric(G, A, x, y),
    "star(G,H)": ms.star(G, H),
    "S[G](A)": ms.group_symmetry(G, A),
    "S[H](A)": ms.group_symmetry(H, A),
}

unit = st.floats(min_value=0.1, max_value=10.0)


@pytest.mark.parametrize("name", sorted(HOMOGENEOUS))
@given(k=st.integers(min_value=-520, max_value=520), x=unit, y=unit)
def test_power_of_two_scaling_is_exact(name, k, x, y):
    f = HOMOGENEOUS[name]
    s = math.ldexp(1.0, k)
    assert f(s * x, s * y) == s * f(x, y)


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-12, 1e12, 1e150, 1e300])
@pytest.mark.parametrize("m1, m2", [(A, G), (G, H)], ids=["AG", "GH"])
def test_distances_do_not_depend_on_the_window_scale(scale, m1, m2):
    unit_window = ms.Interval.closed(0.01, 100.0)
    window = ms.Interval.closed(scale / 100.0, 100.0 * scale)
    # the values agree to rounding; the argmax is not compared, since a window
    # scaled by a power of ten has grid points that are not exactly scaled, and
    # the flat top of the quotient lets rounding pick where the search stops
    for estimate in (ms.distance, ms.distance_via_phi):
        want = estimate(m1, m2, unit_window, 32).value
        assert estimate(m1, m2, window, 32).value == pytest.approx(want, rel=1e-14, abs=0.0)
    want = ms.distance_to_arithmetic(m2, unit_window, 32).value
    assert ms.distance_to_arithmetic(m2, window, 32).value == pytest.approx(want, rel=1e-14,
                                                                            abs=0.0)


@pytest.mark.parametrize("grid", [16, 64])
def test_argmax_does_not_depend_on_a_power_of_two_scale(grid):
    # scaled by 2^e, the window's grid and refinement points are exactly scaled, and the
    # refinement's stop is relative in x, so the search ends at the same ratio y/x
    runs = []
    for e in (-900, 0, 900):
        s = math.ldexp(1.0, e)
        est = ms.distance(G, H, ms.Interval.closed(s * 1e-2, s * 1e2), grid)
        runs.append((est.value, math.log(est.argmax[1] / est.argmax[0])))
    value, ratio = runs[1]
    assert ratio == pytest.approx(-2.1225501, rel=1e-7)
    for v, r in runs:
        assert v == pytest.approx(value, rel=1e-15, abs=0.0)
        assert r == pytest.approx(ratio, rel=1e-12, abs=0.0)
