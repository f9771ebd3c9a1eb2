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
from collections.abc import Callable

from .core import (
    _BOX,
    _Frozen,
    _INF,
    _MIN_NORMAL,
    _add,
    _arithmetic_eval,
    _endpoint_weighted,
    _guarded,
    _indent,
    _kernel,
    _mul,
    _outside_domain,
    _outward,
    _prefix,
    _splice,
    _sub,
    ALL_REALS,
    DomainError,
    Interval,
    InvalidMeanError,
    MeanFunction,
    NumericalError,
    POSITIVE_REALS,
    check_window,
    common_domain,
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


class AsymmetricFunction(_Frozen):
    """An evaluable map with f(x, y) = -f(y, x) on a square domain.

    Fields: ``domain``, ``fn``, ``name="f"``. Calling it checks the point and
    returns 0.0 on the diagonal. ``fn`` keeps the kernel contract of
    ``core.MeanFunction``: Python floats inside ``domain``, never x == y. The
    combinators ``+``, ``-``, unary ``-`` and ``c * f`` build their kernels from blocks that
    splice their operands' kernels (``_group_kernel``); ``+`` and ``-`` refuse an operand
    that is not an AsymmetricFunction, so Python raises TypeError.
    """

    __slots__ = ("domain", "fn", "name")
    _field_defaults = {"name": "f"}

    def __call__(self, x: float, y: float) -> float:
        x, y = float(x), float(y)
        if not (self.domain.contains(x) and self.domain.contains(y)):
            raise _outside_domain(x, y, self.domain, self.name)
        if x == y:
            return 0.0
        return self.fn(x, y)

    def _combine(self, other: "AsymmetricFunction", cx: float, co: float, op: str):
        if not isinstance(other, AsymmetricFunction):
            return NotImplemented
        dom = common_domain(self.domain, other.domain)
        fn = _group_kernel("c", ("", "{p}cx * {p}f + {p}co * {p}g", {}),
                           {"f": self.fn, "g": other.fn}, cx=cx, co=co)
        return AsymmetricFunction(dom, fn, f"({self.name}{op}{other.name})")

    def __add__(self, other: "AsymmetricFunction") -> "AsymmetricFunction":
        return self._combine(other, 1.0, 1.0, "+")

    def __sub__(self, other: "AsymmetricFunction") -> "AsymmetricFunction":
        return self._combine(other, 1.0, -1.0, "-")

    def __neg__(self) -> "AsymmetricFunction":
        fn = _group_kernel("c", ("", "-{p}f", {}), {"f": self.fn})
        return AsymmetricFunction(self.domain, fn, f"(-{self.name})")

    def __rmul__(self, c: float) -> "AsymmetricFunction":
        c = float(c)
        fn = _group_kernel("c", ("", "{p}c * {p}f", {}), {"f": self.fn}, c=c)
        return AsymmetricFunction(self.domain, fn, f"({c:g}*{self.name})")


class WeightFunction(_Frozen):
    """A positive function of one variable; defines a normal mean.

    Fields: ``domain``, ``fn``, ``name="P"``. Calling it checks the point.
    ``fn`` keeps the kernel contract of ``core.MeanFunction``: it is only
    called with a Python float inside ``domain``, and a normal mean calls it
    directly.
    """

    __slots__ = ("domain", "fn", "name")
    _field_defaults = {"name": "P"}

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


def _log_ratio_value(name: str, x: float, y: float, v: float) -> float:
    """(x + y e^v) / (1 + e^v), the mean ``name`` whose log weight ratio at (x, y) is v."""
    if v > 0.0:
        x, y, v = y, x, -v
    e = math.exp(v)
    h = 1.0
    if e < _MIN_NORMAL:
        e = h = math.exp(0.5 * v)
    return _endpoint_weighted(name, x, y, 1.0, 1.0, 1.0, e, h, 1.0)


# the namespace values that the own blocks of phi, phi_inverse, star and group_symmetry name,
# with the two that their diagonal band reads
_HELPERS = dict(isclose=math.isclose, diag_guard=_DIAG_GUARD, log=math.log, inf=_INF,
                min_normal=_MIN_NORMAL, InvalidMeanError=InvalidMeanError,
                endpoint_weighted=_endpoint_weighted, log_ratio_value=_log_ratio_value)
# The near and the far side of the diagonal band of a block that ``_group_kernel`` builds with
# ``near``: each sets the block's value {p}result. Its test reads ``isclose`` and ``diag_guard``,
# which the operation's own names bring (``_HELPERS``).
_NEAR = "if isclose(x, y, rel_tol=diag_guard):\n{near}\nelse:\n{far}\n    {p}result = {result}"


def _group_kernel(kind: str, own: tuple, operands: dict, near: Callable | str | None = None,
                  enclose: Callable = lambda *enclosures: None, **values) -> Callable:
    """The kernel of a group operation, generated from its statement block (``core._kernel``).

    The block's names carry a prefix ``p`` of ``kind`` (``core._prefix``). The block splices
    each kernel of ``operands`` (``core._splice``), whose value it keeps as ``{p}<key>``, then
    runs the operation's own ``(statements, result, names)``: templates over ``{p}``, and the
    namespace values the templates name. Each of ``values`` is the namespace value
    ``{p}<key>``, so no constant is written into the source. Given ``near``, the value within
    the relative band _DIAG_GUARD of the diagonal is instead ``near``'s: A's kernel, spliced,
    or a template over ``{p}`` that reads a value. The box form splices the operands' box
    forms. Where every operand's value has an enclosure over the plain box, ``enclose`` maps
    them to the value's; by default, and elsewhere, it is unknown.
    """
    p = _prefix(kind)
    statements, result = (part.format(p=p) for part in own[:2])
    forms = []
    for box in (False, True):
        namespace = {**own[2], **{p + key: value for key, value in values.items()}}
        splices, enclosures = zip(*[_splice(namespace, fn, f"{p}{key} = ", box=box)
                                    for key, fn in operands.items()])
        block = ("\n".join([*splices, statements]), result, namespace)
        if near is not None:
            diag = (_splice(namespace, near, f"{p}result = ", box=box)[0] if callable(near)
                    else f"{p}result = {near.format(p=p)}")
            block = (_NEAR.format(near=_indent(diag, 4), far=_indent(block[0], 4), p=p,
                                  result=result), f"{p}result", namespace)
        forms.append(block)
    return _kernel(*forms, None if None in enclosures else enclose(*enclosures), "<algebra>")


# phi's own block, from the value {p}v of M at (x, y): M - x and M - y, which must have
# opposite signs, their ratio, and its log, or the difference of the logs where the ratio
# leaves the normal floats
_PHI = ("""\
{p}p = {p}v - x
{p}q = {p}v - y
if {p}p == 0.0 or {p}q == 0.0 or ({p}p > 0.0) == ({p}q > 0.0):
    raise InvalidMeanError(f'{{{p}name}}({{x}}, {{y}}) = {{{p}v}} is not strictly between '
                           'its arguments')
{p}r = -{p}p / {p}q""",
        "log({p}r) if min_normal <= {p}r < inf else log(abs({p}p)) - log(abs({p}q))", _HELPERS)


def phi(m: MeanFunction) -> AsymmetricFunction:
    """Log-ratio transform of a mean into an asymmetric map.

    Off the diagonal the mean axioms make -(M - x)/(M - y) strictly
    positive; a value of M equal to x or y (or outside [min, max]) is an
    axiom violation and raises InvalidMeanError. Within a relative band of
    1e-12 around the diagonal the value 0 is returned without evaluating M.
    Where the ratio leaves the normal float range, which takes M - x and M - y
    far apart in scale, the log is log|M - x| - log|M - y|. The kernel's block
    splices M's kernel (``_group_kernel``).
    """
    fn = _group_kernel("h", _PHI, {"v": m.fn}, near="{p}zero", name=m.name, zero=0.0)
    return AsymmetricFunction(m.domain, fn, name=f"phi({m.name})")


def phi_inverse(f: AsymmetricFunction, name: str | None = None) -> MeanFunction:
    """Mean with log-ratio transform ``f``.

    The endpoint-weighted form with U = 1 and V = e^f, mirrored where f > 0
    (x and y swap, f changes sign), so e^f <= 1 and nothing overflows. An e^f
    that is not a normal float goes in as e^(f/2) squared, which keeps its digits.
    The kernel's block splices f's kernel (``_group_kernel``).
    """
    name = name or f"phi_inv({f.name})"
    own = ("", "log_ratio_value({p}name, x, y, {p}f)", _HELPERS)
    return MeanFunction(name, f.domain, _group_kernel("r", own, {"f": f.fn}, name=name))


def _pair_mean(name: str, m1: MeanFunction, m2: MeanFunction, factors: str) -> MeanFunction:
    """The mean ``name`` on the common domain of ``m1`` and ``m2`` whose block splices both
    kernels, their values {p}a and {p}b, and passes ``factors``, the three factors of each
    weight U and V, to one call of the endpoint-weighted form; A's value in the diagonal band
    (``_group_kernel``). The form of ``star`` and ``group_symmetry``."""
    own = ("", f"endpoint_weighted({{p}}name, x, y, {factors})", _HELPERS)
    fn = _group_kernel("s", own, {"a": m1.fn, "b": m2.fn}, near=_arithmetic_eval, name=name)
    return MeanFunction(name, common_domain(m1.domain, m2.domain), fn)


def star(m1: MeanFunction, m2: MeanFunction) -> MeanFunction:
    """Group law on means: phi_inverse(phi(m1) + phi(m2)).

    Evaluated as the endpoint-weighted form with the weights

        U = (M1-y)(M2-y),   V = (M1-x)(M2-x),

    which are both positive off the diagonal, so no cancellation occurs.
    Both operands are evaluated once per point, by their blocks (``_pair_mean``).
    """
    return _pair_mean(f"({m1.name}*{m2.name})", m1, m2,
                      "{p}a - y, {p}b - y, 1.0, {p}a - x, {p}b - x, 1.0")


# x + (y - M) or y + (x - M), whichever adds the difference of at most |x - y| / 2, from the
# value {p}value of M at (x, y): the statements and the result of group_inverse's block
_INVERSE = ("{p}d = y - {p}value\n{p}e = x - {p}value",
            "x + {p}d if abs({p}d) <= abs({p}e) else y + {p}e", {})


def group_inverse(m: MeanFunction) -> MeanFunction:
    """Inverse for the group law: the mean x + y - M with phi = -phi(M).

    Evaluated as x + (y - M) or y + (x - M), whichever adds the difference of at
    most |x - y| / 2: it overflows nowhere and cancels nowhere near an endpoint.
    The kernel's block splices ``m``'s kernel (``_group_kernel``), then forms that sum;
    its box form splices ``m``'s box form, and checks nothing of its own. Both sums lie
    in x + y - M, which gives its enclosure over the plain box from ``m``'s.
    """
    fn = _group_kernel("i", _INVERSE, {"value": m.fn}, enclose=lambda e: _add(_BOX, _sub(_BOX, e)))
    return MeanFunction(f"(2A-{m.name})", m.domain, fn)


def group_symmetry(m0: MeanFunction, m1: MeanFunction) -> MeanFunction:
    """Reflection of m1 through m0 in the group: phi_inverse(2 phi(m0) - phi(m1)).

    Evaluated for every m0 as the endpoint-weighted form with the weights

        U = (M0-y)^2 (M1-x),   V = (M0-x)^2 (y-M1),

    which have the same sign off the diagonal, so no cancellation occurs.
    With m0 = A, G or H it reduces to x + y - M, xy/M and
    xyM/((x+y)M - xy). Where |x - y| is within 1e-12 of max(|x|, |y|) the
    midpoint is returned. Both operands are evaluated by their blocks (``_pair_mean``).
    """
    return _pair_mean(f"S[{m0.name}]({m1.name})", m0, m1,
                      "{p}a - y, {p}a - y, {p}b - x, {p}a - x, {p}a - x, y - {p}b")


# (x {q}px + y {q}py) / ({q}px + {q}py) for the positive finite weights {q}px and {q}py of the
# mean {q}name: the statement that sets the numerator {q}num, then ``core._guarded``'s parts of
# the value, the plain formula where {q}num is a normal float and else the endpoint-weighted
# form with U = {q}px, V = {q}py
_WEIGHTED = ("{q}num = x * {q}px + y * {q}py", "{q}num / ({q}px + {q}py)",
             "min_normal <= {q}num < inf or -inf < {q}num <= -min_normal",
             "endpoint_weighted({q}name, x, y, {q}px, 1.0, 1.0, {q}py, 1.0, 1.0)")
_WEIGHTED_NAMES = {"min_normal": _MIN_NORMAL, "inf": _INF, "endpoint_weighted": _endpoint_weighted}


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
    numerator, *value = (part.format(q=q) for part in _WEIGHTED)
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


# the block of a random normal mean, weight t^{q}a (1+t)^{q}b: its weights at x and at y, then
# where both are normal floats _WEIGHTED's {numerator} and {value}, and elsewhere the log ratio's
_RANDOM = """\
try:
    {q}px = x ** {q}a * (1.0 + x) ** {q}b
    {q}py = y ** {q}a * (1.0 + y) ** {q}b
except OverflowError:  # a subnormal point to a power near -1
    {q}px = {q}py = inf
if min_normal <= {q}px < inf and min_normal <= {q}py < inf:
    {numerator}
    {q}value = {value}
else:  # a weight past the normal floats: the log of P(y)/P(x) stays in range
    {q}value = log_ratio_value({q}name, x, y, {q}a * (log(y) - log(x))
                               + {q}b * (log1p(y) - log1p(x)))"""


def random_normal_mean(rng, name: str | None = None) -> MeanFunction:
    """A seeded random normal mean on (0, inf), weight t^a (1+t)^b.

    Where both weights are normal floats the value is ``make_normal_mean``'s. Where
    one under- or overflows, at either end of the float range, the value comes from
    the log ratio a (log y - log x) + b (log1p y - log1p x), as ``phi_inverse`` takes it.
    ``rng`` is any generator with ``uniform(low, high)``; ``coincidence_probe`` passes
    ``core._seeded(seed)``, a ``random.Random``. The kernel is generated from its block
    (``core._kernel``), which a composite splices; a, b and the name are namespace values.
    The block is its own box form, and its value has no enclosure.
    """
    a = float(rng.uniform(-1.0, 1.0))
    b = float(rng.uniform(-1.0, 1.0))
    name = name or f"N[{a:.3f},{b:.3f}]"
    q = _prefix("n")
    numerator, *value = (part.format(q=q) for part in _WEIGHTED)
    block = (_RANDOM.format(q=q, numerator=numerator, value=_guarded(*value)), f"{q}value",
             {**_HELPERS, "log1p": math.log1p, f"{q}a": a, f"{q}b": b, f"{q}name": name})
    return MeanFunction(name, POSITIVE_REALS, _kernel(block, block, None, "<algebra>"))


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """``numpy.linspace(lo, hi, n)`` point for point, n >= 2: lo + i*step, then hi.

    Once the step underflows to 0, numpy scales i/(n-1) by the width instead.
    """
    delta, div = hi - lo, n - 1
    step = delta / div
    return [lo + (i * step if step else i / div * delta) for i in range(div)] + [hi]


# relative width of the band within which two consecutive weight ratios count as flat
_FLAT_BAND = 1e-10


def _classify_ratio(values: list[float]) -> OrderRelation:
    """Monotonicity class of a sampled sequence, with a flatness band.

    Consecutive differences within _FLAT_BAND (relative to the larger
    neighbour) count as flat; mixed rising and falling beyond the band is
    INCOMPARABLE. The sequence is read as the weight ratio P1/P2, so a
    falling ratio means the first mean is the smaller one.
    """
    up = down = flat = False
    for a, b in zip(values, values[1:]):
        diff, band = b - a, _FLAT_BAND * max(1e-300, abs(a), abs(b))
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
    one = WeightFunction(ALL_REALS, lambda t: 1.0, name="1")
    return compare_normal(p, one, window, samples)
