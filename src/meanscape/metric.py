"""A metric on means: the worst slope of the difference between two means.

    d(M1, M2) = sup over x != y of |M1(x,y) - M2(x,y)| / |x - y|.

Betweenness pins every mean within |x - y| of any other, so d <= 1, and
d(M, A) <= 1/2 for all M: the whole space is the closed ball of radius 1/2
around the arithmetic mean. A mean sits on the border of that ball exactly
when its log-ratio transform is unbounded above.

Sups over a continuum are not computable, so every estimator here reports
a lower bound: the best value actually evaluated on a coarse grid over a
bounded window, sharpened by coordinate-wise golden-section refinement
around the best cell. The window is always part of the result. It is a
lower bound up to the rounding of the value at the point where it was
attained, which can lie above the exact value there: ``distance`` of min
and A over [0.1, 10] at grid 16 reports 0.5000000000000004, 2 ulps above
d = 1/2.
Each entry point checks its window once (``core.check_window``); the grid,
which samples the closed window, then calls the kernels.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from .core import _Record, DomainError, Interval, MeanFunction, check_window, near
from .algebra import _linspace, phi

__all__ = [
    "DistanceEstimate",
    "BorderDiagnostic",
    "distance",
    "distance_via_phi",
    "distance_to_arithmetic",
    "border_diagnostic",
    "distance_gh_certificate",
    "golden_section_max",
]

# Relative half-width of the excluded band around the diagonal, where the
# difference quotient is 0/0.
_DIAG_BAND = 1e-9

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f: Callable[[float], float], a: float, b: float,
                       rel_tol: float = 1e-10, max_iter: int = 200) -> tuple[float, float]:
    """Maximize a unimodal function on [a, b] by golden-section search.

    Returns (x, f(x)) for the best point actually evaluated, endpoints
    included, so the value is a certified lower bound of the maximum.
    """
    if b < a:
        a, b = b, a
    best_x, best_v = a, f(a)
    fb = f(b)
    if fb > best_v:
        best_x, best_v = b, fb
    h = b - a
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if fc > best_v:
            best_x, best_v = c, fc
        if fd > best_v:
            best_x, best_v = d, fd
        if h <= rel_tol * max(1.0, abs(a), abs(b)):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INV_PHI * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_PHI * h
            fd = f(d)
    return best_x, best_v


class DistanceEstimate(_Record):
    """A lower bound, up to the rounding of its value, for a sup over a bounded window.

    ``value`` lies in [0, 1]; ``argmax`` is the off-diagonal point where it
    was attained; ``grid_size`` is the number of grid points per axis.
    """

    value: float
    argmax: tuple[float, float]
    window: Interval
    grid_size: int


class BorderDiagnostic(_Record):
    """Trend of sup phi(M) across nested windows.

    ``trend`` is "growing" only when the estimate strictly increased at
    every enlargement; border membership itself (sup = +inf) is not
    decidable numerically and is never asserted.
    """

    sup_f_estimate: float
    windows_tested: tuple[Interval, ...]
    sup_per_window: tuple[float, ...]
    trend: str


def _axis_points(window: Interval, n: int) -> tuple[list[float], float, Callable[[float], float]]:
    """Grid points over a window, the grid step, and the map from a coordinate to a point.

    A window in (0, inf) is log-spaced, with t in log2 units from lo = m 2^e
    giving ldexp(m 2^frac(t), e + floor(t)): no step under- or overflows, a
    window scaled by a power of two has exactly scaled points, and the points
    agree with ``numpy.geomspace``'s to about 1e-13. Other windows are
    ``numpy.linspace``'s points, with lo + t. Points are clamped into the window.
    """
    lo, hi = window.lo, window.hi
    if lo <= 0.0:
        return _linspace(lo, hi, n), (hi - lo) / (n - 1), lambda t: min(max(lo + t, lo), hi)
    (ml, el), (mh, eh) = math.frexp(lo), math.frexp(hi)
    step = (math.log2(mh / ml) + (eh - el)) / (n - 1)

    def to_point(t: float) -> float:
        k = math.floor(t)
        try:
            return min(max(math.ldexp(ml * 2.0 ** (t - k), el + k), lo), hi)
        except OverflowError:  # rounded past the float maximum, so past hi
            return hi

    return [lo] + [to_point(i * step) for i in range(1, n - 1)] + [hi], step, to_point


def _sup2d(f: Callable[[float, float], float], window: Interval,
           grid: int) -> tuple[float, tuple[float, float]]:
    """Grid + coordinate-wise golden-section estimate of sup f over window^2.

    ``f`` may return -inf to mask points (the diagonal band). Returns the
    best value actually evaluated and the point, inside the window, where
    it was evaluated; refinement replaces the grid maximum only on strict
    improvement.
    """
    pts, step, to_point = _axis_points(window, grid)
    best_v = -math.inf
    bi = bj = 0
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            v = f(x, y)
            if v > best_v:
                best_v, bi, bj = v, i, j
    if not math.isfinite(best_v):
        raise DomainError("no admissible grid points in the window")

    # refine around the best cell on offsets from the best grid point, so on a
    # log-spaced grid the search stops at a width relative to x, wherever the
    # window lies; offsets past an end of the window give that end
    best = (best_v, pts[bi], pts[bj])

    def eval_at(u: float, w: float) -> float:
        nonlocal best
        x, y = to_point(bi * step + u), to_point(bj * step + w)
        v = f(x, y)
        if v > best[0]:
            best = (v, x, y)
        return v

    u = w = 0.0
    for _ in range(3):
        u, _ = golden_section_max(lambda s: eval_at(s, w), -step, step)
        w, _ = golden_section_max(lambda s: eval_at(u, s), -step, step)
    # + 0.0 turns a zero sup into +0: equal means give 0 / (x - y), signed by x - y
    return best[0] + 0.0, (best[1], best[2])


def _check_window(window: Interval, grid: int, *means: MeanFunction) -> None:
    if grid < 8:
        raise ValueError("grid must be >= 8")
    check_window(window, *[(m.domain, m.name) for m in means])


def distance(m1: MeanFunction, m2: MeanFunction, window: Interval,
             grid: int = 64) -> DistanceEstimate:
    """Lower-bound estimate of d(m1, m2) over a bounded window.

    The signed quotient (M1 - M2)/(x - y) suffices: it is asymmetric, so
    its sup over the square window equals the sup of its absolute value.
    Points with ``near(x, y, 1e-9)`` are excluded, a band relative to the
    arguments, so the estimate does not depend on the scale of the window.
    """
    _check_window(window, grid, m1, m2)
    f1, f2 = m1.fn, m2.fn

    def quotient(x: float, y: float) -> float:
        if near(x, y, _DIAG_BAND):
            return -math.inf
        return (f1(x, y) - f2(x, y)) / (x - y)

    value, arg = _sup2d(quotient, window, grid)
    return DistanceEstimate(value, arg, window, grid)


def distance_via_phi(m1: MeanFunction, m2: MeanFunction, window: Interval,
                     grid: int = 64) -> DistanceEstimate:
    """Distance estimate through the log-ratio transforms of the operands.

    Each mean's quotient over A is (A - M)/(x - y) = tanh(phi(M)/2)/2, the map that
    ``distance_to_arithmetic`` applies too, so the difference quotient
    (M2 - M1)/(x - y) of two means rewrites exactly as

        (tanh(f1/2) - tanh(f2/2)) / 2 = 1/(1 + e^f2) - 1/(1 + e^f1),

    with f1, f2 the transforms of the operands; the sup of this expression
    over the square window is the same distance, with no diagonal
    singularity to dodge.
    """
    _check_window(window, grid, m1, m2)
    # phi's kernel returns 0.0 in its diagonal band, as the checked call does on x == y
    f1, f2 = phi(m1).fn, phi(m2).fn

    def integrand(x: float, y: float) -> float:
        # f2 is evaluated first, so where both operands fault its error is the one raised;
        # -t2 + t1 has the bits of t1 - t2
        return 0.5 * (-math.tanh(0.5 * f2(x, y)) + math.tanh(0.5 * f1(x, y)))

    value, arg = _sup2d(integrand, window, grid)
    return DistanceEstimate(value, arg, window, grid)


def distance_to_arithmetic(m: MeanFunction, window: Interval,
                           grid: int = 64) -> DistanceEstimate:
    """d(M, A) through the bound s = sup phi(M): the distance is
    (e^s - 1) / (2(e^s + 1)) = tanh(s/2) / 2, which rounds to 1/2 for s above 39."""
    _check_window(window, grid, m)
    s, arg = _sup2d(phi(m).fn, window, grid)
    return DistanceEstimate(0.5 * math.tanh(0.5 * s), arg, window, grid)


def border_diagnostic(m: MeanFunction, windows: Sequence[Interval],
                      grid: int = 48) -> BorderDiagnostic:
    """sup phi(M) across nested, increasing windows, with a trend verdict.

    Windows must be nested (each contains the previous), so checking the
    last one checks them all before any is sampled. The verdict is
    "growing" when every enlargement strictly increased the estimate,
    "bounded" when the estimates are flat, and "inconclusive" otherwise.
    """
    if len(windows) < 1:
        raise ValueError("need at least one window")
    for small, large in zip(windows, windows[1:]):
        if not large.contains_interval(small):
            raise DomainError(f"windows are not nested: {large} does not contain {small}")
    _check_window(windows[-1], grid, m)

    f = phi(m).fn
    sups = [_sup2d(f, w, grid)[0] for w in windows]
    eps = 1e-9 * max(1.0, abs(sups[-1]))
    diffs = [b - a for a, b in zip(sups, sups[1:])]
    if diffs and all(d > eps for d in diffs):
        trend = "growing"
    elif all(abs(d) <= eps for d in diffs):
        trend = "bounded"
    else:
        trend = "inconclusive"
    return BorderDiagnostic(sups[-1], tuple(windows), tuple(sups), trend)


class GhCertificate(_Record):
    value: float
    quartic_residual: float
    argmax_t: float


def distance_gh_certificate() -> GhCertificate:
    """Certified estimate of d(G, H) with an algebraic cross-check.

    Maximizes the ratio-coordinate slope profile (t^2 - t)/((t+1)(t^2+1))
    over t > 0 by golden-section on log t, and evaluates the degree-4
    polynomial v^4 + 10v^3 + 3v^2 - 14v + 2 at the maximum as a residual.
    """
    def slope(s: float) -> float:
        t = math.exp(s)
        return (t * t - t) / ((t + 1.0) * (t * t + 1.0))

    u, value = golden_section_max(slope, 0.0, math.log(1e6), 1e-12)
    t = math.exp(u)
    v = value
    residual = abs(v ** 4 + 10.0 * v ** 3 + 3.0 * v ** 2 - 14.0 * v + 2.0)
    return GhCertificate(value, residual, t)
