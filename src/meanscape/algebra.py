"""The abelian group of means and its transport to asymmetric maps.

Every mean ``M`` determines an asymmetric map through the log-ratio
transform

    phi(M)(x, y) = log(-(M(x,y) - x) / (M(x,y) - y)),   phi(M)(x, x) = 0,

and this transform is a bijection onto the asymmetric maps, with inverse

    phi_inverse(f)(x, y) = (x + y * e^f(x,y)) / (e^f(x,y) + 1).

Pulling pointwise addition of asymmetric maps back through ``phi`` makes
the means an abelian group whose neutral element is the arithmetic mean.
This module implements the transform, the group law ``star``, group
inverses and reflections, and the normal means built from positive weight
functions, together with the weight-ratio comparison test.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import Callable, Optional

from .core import (
    _Frozen,
    _set,
    DomainError,
    Interval,
    InvalidMeanError,
    MeanFunction,
    POSITIVE_REALS,
    common_domain,
    make_arithmetic,
    near,
)

__all__ = [
    "AsymmetricFunction",
    "WeightFunction",
    "OrderRelation",
    "phi",
    "phi_inverse",
    "star",
    "group_inverse",
    "group_symmetry",
    "make_normal_mean",
    "random_normal_mean",
    "compare_normal",
    "classify_vs_arithmetic",
]

# Relative half-width of the diagonal band of phi and of the closed forms
# whose factors vanish on the diagonal.
_DIAG_GUARD = 1e-12

# Beyond this magnitude e^f saturates the mean at an endpoint.
_EXP_CLIP = 700.0

# The smallest positive normal float; a ratio below it has lost digits to underflow.
_MIN_NORMAL = sys.float_info.min


class AsymmetricFunction(_Frozen):
    """An evaluable map with f(x, y) = -f(y, x) on a square domain.

    Calling it checks the point and returns 0.0 on the diagonal. ``fn`` keeps
    the kernel contract of ``core.MeanFunction``: Python floats inside
    ``domain``, never x == y. The combinators call their operands' ``fn``.
    """

    __slots__ = ("domain", "fn", "name")

    def __init__(self, domain: Interval, fn: Callable[[float, float], float], name: str = "f"):
        _set(self, "domain", domain)
        _set(self, "fn", fn)
        _set(self, "name", name)

    def __call__(self, x: float, y: float) -> float:
        x, y = float(x), float(y)
        if not (self.domain.contains(x) and self.domain.contains(y)):
            raise DomainError(f"({x}, {y}) is outside the domain {self.domain} of {self.name}")
        if x == y:
            return 0.0
        return self.fn(x, y)

    def _combine(self, other: "AsymmetricFunction", cx: float, co: float,
                 name: str) -> "AsymmetricFunction":
        dom = common_domain(self.domain, other.domain)
        f, g = self.fn, other.fn
        return AsymmetricFunction(dom, lambda x, y: cx * f(x, y) + co * g(x, y), name)

    def __add__(self, other: "AsymmetricFunction") -> "AsymmetricFunction":
        return self._combine(other, 1.0, 1.0, f"({self.name}+{other.name})")

    def __sub__(self, other: "AsymmetricFunction") -> "AsymmetricFunction":
        return self._combine(other, 1.0, -1.0, f"({self.name}-{other.name})")

    def __neg__(self) -> "AsymmetricFunction":
        f = self.fn
        return AsymmetricFunction(self.domain, lambda x, y: -f(x, y), f"(-{self.name})")

    def __rmul__(self, c: float) -> "AsymmetricFunction":
        f = self.fn
        c = float(c)
        return AsymmetricFunction(self.domain, lambda x, y: c * f(x, y), f"({c:g}*{self.name})")


class WeightFunction(_Frozen):
    """A positive function of one variable; defines a normal mean.

    Calling it checks the point. ``fn`` keeps the kernel contract of
    ``core.MeanFunction``: it is only called with a Python float inside
    ``domain``, and a normal mean calls it directly.
    """

    __slots__ = ("domain", "fn", "name")

    def __init__(self, domain: Interval, fn: Callable[[float], float], name: str = "P"):
        _set(self, "domain", domain)
        _set(self, "fn", fn)
        _set(self, "name", name)

    def __call__(self, t: float) -> float:
        t = float(t)
        if not self.domain.contains(t):
            raise DomainError(f"{t} is outside the domain {self.domain} of weight {self.name}")
        return self.fn(t)


class OrderRelation(enum.Enum):
    LESS_OR_EQUAL = "<="
    STRICTLY_LESS = "<"
    GREATER_OR_EQUAL = ">="
    STRICTLY_GREATER = ">"
    EQUAL = "=="
    INCOMPARABLE = "incomparable"


def phi(m: MeanFunction) -> AsymmetricFunction:
    """Log-ratio transform of a mean into an asymmetric map.

    Off the diagonal the mean axioms make -(M - x)/(M - y) strictly
    positive; a value of M equal to x or y (or outside [min, max]) is an
    axiom violation and raises InvalidMeanError. Within a relative band of
    1e-12 around the diagonal the value 0 is returned without evaluating M.
    Where the ratio leaves the normal float range, which takes M - x and M - y
    far apart in scale, the log is log|M - x| - log|M - y|.
    """
    kernel = m.fn

    def fn(x: float, y: float) -> float:
        if near(x, y, _DIAG_GUARD):
            return 0.0
        v = kernel(x, y)
        p = v - x
        q = v - y
        if p == 0.0 or q == 0.0 or (p > 0.0) == (q > 0.0):
            raise InvalidMeanError(
                f"{m.name}({x}, {y}) = {v} is not strictly between its arguments")
        r = -p / q
        if _MIN_NORMAL <= r < math.inf:
            return math.log(r)
        # p and q differ by more than the float range, so the ratio over- or underflowed
        return math.log(abs(p)) - math.log(abs(q))

    return AsymmetricFunction(m.domain, fn, name=f"phi({m.name})")


def phi_inverse(f: AsymmetricFunction, name: Optional[str] = None) -> MeanFunction:
    """Mean with log-ratio transform ``f``.

    For |f| > 700 the exponential saturates and the exact limit value
    (y for +inf, x for -inf) is returned.
    """
    kernel = f.fn

    def fn(x: float, y: float) -> float:
        v = kernel(x, y)
        if v > _EXP_CLIP:
            return y
        if v < -_EXP_CLIP:
            return x
        e = math.exp(v)
        return (x + y * e) / (e + 1.0)

    return MeanFunction(name or f"phi_inv({f.name})", f.domain, fn)


def star(m1: MeanFunction, m2: MeanFunction) -> MeanFunction:
    """Group law on means: phi_inverse(phi(m1) + phi(m2)).

    Evaluated through the equivalent closed form

        [x (M1-y)(M2-y) + y (M1-x)(M2-x)] / [(M1-y)(M2-y) + (M1-x)(M2-x)],

    whose two denominator terms are both positive off the diagonal, so no
    cancellation occurs. Both operands are evaluated once per point; the
    differences are scaled by an exact power of two, as in group_symmetry.
    """
    dom = common_domain(m1.domain, m2.domain)
    f1, f2 = m1.fn, m2.fn

    def fn(x: float, y: float) -> float:
        if near(x, y, _DIAG_GUARD):
            return 0.5 * (x + y)
        a = f1(x, y)
        b = f2(x, y)
        k = -math.frexp(y - x)[1]
        w_y = math.ldexp(a - y, k) * math.ldexp(b - y, k)
        w_x = math.ldexp(a - x, k) * math.ldexp(b - x, k)
        return (x * w_y + y * w_x) / (w_y + w_x)

    return MeanFunction(f"({m1.name}*{m2.name})", dom, fn)


def group_inverse(m: MeanFunction) -> MeanFunction:
    """Inverse for the group law: the mean x + y - M with phi = -phi(M)."""
    kernel = m.fn

    def fn(x: float, y: float) -> float:
        return x + y - kernel(x, y)

    return MeanFunction(f"(2A-{m.name})", m.domain, fn)


def group_symmetry(m0: MeanFunction, m1: MeanFunction) -> MeanFunction:
    """Reflection of m1 through m0 in the group: phi_inverse(2 phi(m0) - phi(m1)).

    Evaluated for every m0 through the equivalent rational form

        [x (M1-x)(M0-y)^2 - y (M0-x)^2 (M1-y)] / [(M1-x)(M0-y)^2 - (M0-x)^2 (M1-y)],

    whose two denominator terms have the same sign off the diagonal, so no
    cancellation occurs. With m0 = A, G or H it reduces to x + y - M,
    xy/M and xyM/((x+y)M - xy). The differences are scaled by one power of
    two before they are cubed, which is exact. Where both products still
    underflow, because x and y span the float range, each difference is
    scaled by its own power of two and the products are brought back to
    one scale. Where |x - y| is within 1e-12 of max(|x|, |y|) the midpoint
    is returned.
    """
    dom = common_domain(m0.domain, m1.domain)
    f0, f1 = m0.fn, m1.fn

    def fn(x: float, y: float) -> float:
        if near(x, y, _DIAG_GUARD):
            return 0.5 * (x + y)
        v0 = f0(x, y)
        v1 = f1(x, y)
        k = -math.frexp(y - x)[1]
        a = math.ldexp(v1 - x, k) * math.ldexp(v0 - y, k) ** 2
        b = math.ldexp(v0 - x, k) ** 2 * math.ldexp(v1 - y, k)
        if a == b:  # both products underflow where x and y span the float range
            a, b = _renormalized(v1 - x, v0 - y, v0 - x, v1 - y)
        return (x * a - y * b) / (a - b)

    return MeanFunction(f"S[{m0.name}]({m1.name})", dom, fn)


def _renormalized(p: float, q: float, r: float, s: float) -> tuple[float, float]:
    """``p q^2`` and ``r^2 s`` times one power of two: each factor is scaled by its own
    exact power of two, and the smaller product is brought to the larger one's scale."""
    (mp, ep), (mq, eq), (mr, er), (ms, es) = map(math.frexp, (p, q, r, s))
    ea, eb = ep + 2 * eq, 2 * er + es
    top = max(ea, eb)
    return math.ldexp(mp * mq ** 2, ea - top), math.ldexp(mr ** 2 * ms, eb - top)


def make_normal_mean(p: WeightFunction, name: Optional[str] = None) -> MeanFunction:
    """Normal mean (x P(x) + y P(y)) / (P(x) + P(y)) for a positive weight."""
    weight = p.fn

    def fn(x: float, y: float) -> float:
        px = weight(x)
        py = weight(y)
        if not (px > 0.0 and py > 0.0) or math.isinf(px) or math.isinf(py):
            bad = x if not (px > 0.0 and math.isfinite(px)) else y
            raise InvalidMeanError(f"weight {p.name} is not positive and finite at {bad}")
        return (x * px + y * py) / (px + py)

    return MeanFunction(name or f"normal({p.name})", p.domain, fn)


def random_normal_mean(rng, name: Optional[str] = None) -> MeanFunction:
    """A seeded random normal mean on (0, inf), weight t^a (1+t)^b.

    ``rng`` is any generator with ``uniform(low, high)``, such as numpy's ``default_rng``;
    ``coincidence_probe`` draws from ``core._PCG64``, which gives the same numbers per seed.
    """
    a = float(rng.uniform(-1.0, 1.0))
    b = float(rng.uniform(-1.0, 1.0))
    weight = WeightFunction(POSITIVE_REALS, lambda t: t ** a * (1.0 + t) ** b,
                            name=f"t^{a:.3f}(1+t)^{b:.3f}")
    return make_normal_mean(weight, name=name or f"N[{a:.3f},{b:.3f}]")


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """``numpy.linspace(lo, hi, n)`` point for point, n >= 2: lo + i*step, then hi.

    Once the step underflows to 0, numpy scales i/(n-1) by the width instead.
    """
    delta, div = hi - lo, n - 1
    step = delta / div
    return [lo + (i * step if step else i / div * delta) for i in range(div)] + [hi]


def _classify_ratio(values: list[float], rel_tol: float = 1e-10) -> OrderRelation:
    """Monotonicity class of a sampled sequence, with a flatness band.

    Consecutive differences within rel_tol (relative to the larger
    neighbour) count as flat; mixed rising and falling beyond the band is
    INCOMPARABLE. The sequence is read as the weight ratio P1/P2, so a
    falling ratio means the first mean is the smaller one.
    """
    up = down = flat = False
    for a, b in zip(values, values[1:]):
        diff, band = b - a, rel_tol * max(1e-300, abs(a), abs(b))
        up |= diff > band
        down |= diff < -band
        flat |= abs(diff) <= band
    if up and down:
        return OrderRelation.INCOMPARABLE
    if not up and not down:
        return OrderRelation.EQUAL
    if down:
        return OrderRelation.LESS_OR_EQUAL if flat else OrderRelation.STRICTLY_LESS
    return OrderRelation.GREATER_OR_EQUAL if flat else OrderRelation.STRICTLY_GREATER


def compare_normal(p1: WeightFunction, p2: WeightFunction, window: Interval,
                   samples: int = 256) -> OrderRelation:
    """Order of the normal means of p1 and p2, from the ratio p1/p2.

    The ratio is sampled on a sorted grid over ``window``; a non-increasing
    ratio means M1 <= M2 everywhere, strictly decreasing means M1 < M2 off
    the diagonal, and symmetrically for the other direction. A constant
    ratio means the means are equal (weights are defined up to a positive
    factor), and mixed behavior returns INCOMPARABLE.
    """
    if samples < 2:
        raise ValueError("need at least two samples to compare")
    for p in (p1, p2):
        if not p.domain.contains_interval(window):
            raise DomainError(f"window {window} is not inside the domain of weight {p.name}")
    grid = _linspace(window.lo, window.hi, samples)
    return _classify_ratio([p1(t) / p2(t) for t in grid])


def classify_vs_arithmetic(p: WeightFunction, window: Interval,
                           samples: int = 256) -> OrderRelation:
    """Position of the normal mean of ``p`` relative to the arithmetic mean.

    The arithmetic mean has constant weight, so this is compare_normal
    against the weight 1: a decreasing p gives a strictly sub-arithmetic
    mean, an increasing p a strictly super-arithmetic one.
    """
    one = WeightFunction(make_arithmetic().domain, lambda t: 1.0, name="1")
    return compare_normal(p, one, window, samples)
