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
import functools
import math
import sys
from collections.abc import Callable

from .core import (
    _BOX,
    _Frozen,
    _add,
    _arithmetic_eval,
    _generated,
    _guarded,
    _kernel,
    _mul,
    _outside_domain,
    _outward,
    _prefix,
    _set,
    _splice,
    _sub,
    DomainError,
    Interval,
    InvalidMeanError,
    MeanFunction,
    NumericalError,
    POSITIVE_REALS,
    check_window,
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

# The smallest positive normal float; a ratio below it has lost digits to underflow.
_MIN_NORMAL = sys.float_info.min
_INF = math.inf


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
            raise _outside_domain(x, y, self.domain, self.name)
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


def phi_inverse(f: AsymmetricFunction, name: str | None = None) -> MeanFunction:
    """Mean with log-ratio transform ``f``.

    The endpoint-weighted form with U = 1 and V = e^f, mirrored where f > 0
    (x and y swap, f changes sign), so e^f <= 1 and nothing overflows. An e^f
    that is not a normal float goes in as e^(f/2) squared, which keeps its digits.
    """
    kernel = f.fn
    name = name or f"phi_inv({f.name})"
    return MeanFunction(name, f.domain, lambda x, y: _log_ratio_value(name, x, y, kernel(x, y)))


def _log_ratio_value(name: str, x: float, y: float, v: float) -> float:
    """(x + y e^v) / (1 + e^v), the mean ``name`` whose log weight ratio at (x, y) is v."""
    if v > 0.0:
        x, y, v = y, x, -v
    e = math.exp(v)
    h = 1.0
    if e < _MIN_NORMAL:
        e = h = math.exp(0.5 * v)
    return _endpoint_weighted(name, x, y, 1.0, 1.0, 1.0, e, h, 1.0)


def star(m1: MeanFunction, m2: MeanFunction) -> MeanFunction:
    """Group law on means: phi_inverse(phi(m1) + phi(m2)).

    Evaluated as the endpoint-weighted form with the weights

        U = (M1-y)(M2-y),   V = (M1-x)(M2-x),

    which are both positive off the diagonal, so no cancellation occurs.
    Both operands are evaluated once per point.
    """
    dom = common_domain(m1.domain, m2.domain)
    f1, f2 = m1.fn, m2.fn
    name = f"({m1.name}*{m2.name})"

    def fn(x: float, y: float) -> float:
        if near(x, y, _DIAG_GUARD):
            return _arithmetic_eval(x, y)
        a = f1(x, y)
        b = f2(x, y)
        return _endpoint_weighted(name, x, y, a - y, b - y, 1.0, a - x, b - x, 1.0)

    return MeanFunction(name, dom, fn)


# x + (y - M) or y + (x - M), whichever adds the difference of at most |x - y| / 2, from the
# value {p}value of M at (x, y): the statements and the result of group_inverse's block
_INVERSE = ("{p}d = y - {p}value\n{p}e = x - {p}value",
            "x + {p}d if abs({p}d) <= abs({p}e) else y + {p}e")


def group_inverse(m: MeanFunction) -> MeanFunction:
    """Inverse for the group law: the mean x + y - M with phi = -phi(M).

    Evaluated as x + (y - M) or y + (x - M), whichever adds the difference of at
    most |x - y| / 2: it overflows nowhere and cancels nowhere near an endpoint.
    The kernel's block splices ``m``'s kernel (``core._splice``), then forms that sum;
    its box form splices ``m``'s box form, and checks nothing of its own.
    """
    p = _prefix("i")
    own, result = (part.format(p=p) for part in _INVERSE)
    forms = []
    for box in (False, True):
        namespace: dict = {}
        value, enclosure = _splice(namespace, m.fn, f"{p}value = ", box=box)
        forms.append((f"{value}\n{own}", result, namespace))
    if enclosure is not None:  # both sums lie in x + y - M
        enclosure = _add(_BOX, _sub(_BOX, enclosure))
    return MeanFunction(f"(2A-{m.name})", m.domain, _kernel(*forms, enclosure, "<algebra>"))


def group_symmetry(m0: MeanFunction, m1: MeanFunction) -> MeanFunction:
    """Reflection of m1 through m0 in the group: phi_inverse(2 phi(m0) - phi(m1)).

    Evaluated for every m0 as the endpoint-weighted form with the weights

        U = (M0-y)^2 (M1-x),   V = (M0-x)^2 (y-M1),

    which have the same sign off the diagonal, so no cancellation occurs.
    With m0 = A, G or H it reduces to x + y - M, xy/M and
    xyM/((x+y)M - xy). Where |x - y| is within 1e-12 of max(|x|, |y|) the
    midpoint is returned.
    """
    dom = common_domain(m0.domain, m1.domain)
    f0, f1 = m0.fn, m1.fn
    name = f"S[{m0.name}]({m1.name})"

    def fn(x: float, y: float) -> float:
        if near(x, y, _DIAG_GUARD):
            return _arithmetic_eval(x, y)
        v0 = f0(x, y)
        v1 = f1(x, y)
        return _endpoint_weighted(name, x, y, v0 - y, v0 - y, v1 - x, v0 - x, v0 - x, y - v1)

    return MeanFunction(name, dom, fn)


def _endpoint_weighted(name: str, x: float, y: float, u1: float, u2: float, u3: float,
                       v1: float, v2: float, v3: float) -> float:
    """(x U + y V) / (U + V) for the weights U = u1 u2 u3 and V = v1 v2 v3 of one sign.

    The plain formula where every product, both terms and both sums are normal
    floats. Elsewhere every factor is split into mantissa and exponent, so no
    product under- or overflows, and each sum is formed on the scale of its
    larger term. U = 0 gives y and V = 0 gives x, exactly; both 0 is 0/0, and
    InvalidMeanError names the mean ``name`` and the point. So it does where
    U + V is 0 or the value overflows, which weights of one sign cannot give.
    """
    uu, vv = u1 * u2, v1 * v2
    u, v = uu * u3, vv * v3
    xu, yv = x * u, y * v
    num, den = xu + yv, u + v
    if (_MIN_NORMAL <= min(abs(uu), abs(u), abs(vv), abs(v), abs(xu), abs(yv), abs(num))
            and abs(num) < _INF and 0.0 < abs(den) < _INF):
        return num / den
    (mx, ex), (my, ey), (a, ea), (b, eb), (c, ec), (d, ed), (g, eg), (h, eh) = map(
        math.frexp, (x, y, u1, u2, u3, v1, v2, v3))
    mu, eu, mv, ev = a * b * c, ea + eb + ec, d * g * h, ed + eg + eh
    if not (mu and mv):
        if mu or mv:
            return x if mu else y
        raise InvalidMeanError(f"{name}({x}, {y}) is 0/0: both endpoint weights vanish")
    tx, ty, ex, ey = mx * mu, my * mv, ex + eu, ey + ev
    # a zero term has no scale; the other one sets it
    top = max(ex, ey) if tx and ty else ex if tx else ey
    num = math.ldexp(tx, ex - top) + math.ldexp(ty, ey - top)
    top_den = max(eu, ev)
    den = math.ldexp(mu, eu - top_den) + math.ldexp(mv, ev - top_den)
    try:
        value = math.ldexp(num / den, top - top_den)
    except (ZeroDivisionError, OverflowError):
        value = _INF
    if abs(value) < _INF:
        return value
    raise InvalidMeanError(f"{name}({x}, {y}) is undefined: its endpoint weights differ in sign")


# (x {px} + y {py}) / ({px} + {py}) for the positive finite weights {px} and {py} of the
# mean {name}: the statement that sets the numerator {num}, then ``core._guarded``'s parts of
# the value, the plain formula where {num} is a normal float and else the endpoint-weighted
# form with U = {px}, V = {py}
_WEIGHTED = ("{num} = x * {px} + y * {py}", "{num} / ({px} + {py})",
             "min_normal <= {num} < inf or -inf < {num} <= -min_normal",
             "endpoint_weighted({name}, x, y, {px}, 1.0, 1.0, {py}, 1.0, 1.0)")
_WEIGHTED_NAMES = {"min_normal": _MIN_NORMAL, "inf": _INF, "endpoint_weighted": _endpoint_weighted}


@functools.cache
def _weighted_value() -> Callable[[str, float, float, float, float], float]:
    """``_WEIGHTED`` as ``fn(name, x, y, px, py)``, generated on first use."""
    numerator, *value = (part.format(num="num", px="px", py="py", name="name")
                         for part in _WEIGHTED)
    return _generated("name, x, y, px, py", f"{numerator}\nreturn {_guarded(*value)}",
                      _WEIGHTED_NAMES, "<algebra>")


# the statements of a normal mean's block: {px} and {py} splice the weight's kernel at
# t = x and at t = y, each keeping its value; then the check of those values, which a box
# form leaves out where the weight's enclosure over P is positive
_NORMAL = "t = x\n{px}\nt = y\n{py}"
_POSITIVE = """\
if not (0.0 < {p}px < inf and 0.0 < {p}py < inf):
    raise InvalidMeanError(f'weight {{{p}weight}} is not positive and finite at '
                           f'{{x if not 0.0 < {p}px < inf else y}}')"""


def make_normal_mean(p: WeightFunction, name: str | None = None) -> MeanFunction:
    """Normal mean (x P(x) + y P(y)) / (P(x) + P(y)) for a positive weight.

    Where the numerator is a normal float the plain formula is the value.
    Elsewhere, which takes x and y near either end of the float range, it is
    the endpoint-weighted form with U = P(x) and V = P(y). The kernel's block
    splices the weight's kernel (``core._splice``) at x and at y. Its box form splices
    the weight's box form, and leaves out the weight check where the weight's enclosure
    over P is positive, and the endpoint-weighted form where the numerator's is normal.
    """
    name = name or f"normal({p.name})"
    q = _prefix("n")
    numerator, *value = (part.format(num=f"{q}num", px=f"{q}px", py=f"{q}py", name=f"{q}name")
                         for part in _WEIGHTED)
    forms = []
    for box in (False, True):
        namespace = {**_WEIGHTED_NAMES, "InvalidMeanError": InvalidMeanError,
                     f"{q}weight": p.name, f"{q}name": name}
        px, weight = _splice(namespace, p.fn, f"{q}px = ", "t", box)
        py, _ = _splice(namespace, p.fn, f"{q}py = ", "t", box)
        # over P, the weight may be positive, and then x P(x) + y P(y) may be normal
        positive = box and weight is not None and weight[0] > 0.0
        term = _mul(_BOX, weight) if positive else None
        num = None if term is None else _add(term, term)
        check = "" if positive else _POSITIVE.format(p=q) + "\n"
        forms.append((f"{_NORMAL.format(px=px, py=py)}\n{check}{numerator}",
                      _guarded(*value, holds=num is not None and num[0] >= _MIN_NORMAL),
                      namespace))
    # a mean of x and y with positive weights: over P it lies in P, up to its rounding
    return MeanFunction(name, p.domain, _kernel(*forms, _outward(*_BOX), "<algebra>"))


def random_normal_mean(rng, name: str | None = None) -> MeanFunction:
    """A seeded random normal mean on (0, inf), weight t^a (1+t)^b.

    Where both weights are normal floats the value is ``make_normal_mean``'s. Where
    one under- or overflows, at either end of the float range, the value comes from
    the log ratio a (log y - log x) + b (log1p y - log1p x), as ``phi_inverse`` takes it.
    ``rng`` is any generator with ``uniform(low, high)``; ``coincidence_probe`` passes
    ``core._seeded(seed)``, a ``random.Random``.
    """
    a = float(rng.uniform(-1.0, 1.0))
    b = float(rng.uniform(-1.0, 1.0))
    name = name or f"N[{a:.3f},{b:.3f}]"
    weighted = _weighted_value()

    def fn(x: float, y: float) -> float:
        try:
            px = x ** a * (1.0 + x) ** b
            py = y ** a * (1.0 + y) ** b
        except OverflowError:  # a subnormal point to a power near -1
            px = py = _INF
        if _MIN_NORMAL <= px < _INF and _MIN_NORMAL <= py < _INF:
            return weighted(name, x, y, px, py)
        # a weight past the normal floats: the log of P(y)/P(x) stays in range
        f = a * (math.log(y) - math.log(x)) + b * (math.log1p(y) - math.log1p(x))
        return _log_ratio_value(name, x, y, f)

    return MeanFunction(name, POSITIVE_REALS, fn)


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
    factor), and mixed behavior returns INCOMPARABLE. The window is checked
    once (``core.check_window``), and the grid goes to the weights' kernels; a weight
    value that is not positive and finite raises InvalidMeanError, as in a normal mean.
    A ratio that is not a positive normal float, where it overflows to inf or underflows
    toward 0, could not be classified and raises NumericalError.
    """
    if samples < 2:
        raise ValueError("need at least two samples to compare")
    check_window(window, (p1.domain, f"weight {p1.name}"), (p2.domain, f"weight {p2.name}"))
    w1, w2 = p1.fn, p2.fn
    ratios = []
    for t in _linspace(window.lo, window.hi, samples):
        v1, v2 = w1(t), w2(t)
        if not (0.0 < v1 < _INF and 0.0 < v2 < _INF):
            weight = p2 if 0.0 < v1 < _INF else p1
            raise InvalidMeanError(f"weight {weight.name} is not positive and finite at {t}")
        ratio = v1 / v2
        if not _MIN_NORMAL <= ratio < _INF:
            raise NumericalError(f"the ratio of weights {p1.name} / {p2.name} is {ratio} at "
                                 f"{t}, outside the positive normal floats")
        ratios.append(ratio)
    return _classify_ratio(ratios)


def classify_vs_arithmetic(p: WeightFunction, window: Interval,
                           samples: int = 256) -> OrderRelation:
    """Position of the normal mean of ``p`` relative to the arithmetic mean.

    The arithmetic mean has constant weight, so this is compare_normal
    against the weight 1: a decreasing p gives a strictly sub-arithmetic
    mean, an increasing p a strictly super-arithmetic one.
    """
    one = WeightFunction(make_arithmetic().domain, lambda t: 1.0, name="1")
    return compare_normal(p, one, window, samples)
