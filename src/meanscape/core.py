"""Two-variable mean functions and a sampled verifier for the mean axioms.

A mean on an interval ``I`` is a map ``M : I x I -> R`` that is symmetric,
lies between its arguments, and touches an argument only on the diagonal:

    i)   M(x, y) == M(y, x)
    ii)  min(x, y) <= M(x, y) <= max(x, y)
    iii) M(x, y) == x  implies  x == y

Means are represented behaviorally: an evaluation callable plus metadata.
All values in this package are immutable and evaluation is pure, so means
are safe to share across threads.

The sampled entry points (``verify_axioms``, ``algebra.compare_normal``,
``middle.coincidence_probe`` and the distance grids of ``metric``) work on a
window inside the domain. A window is accepted when its width ``hi - lo`` is
a finite float and both of its ends lie in the domain of every mean or weight
it is sampled for. Its open or closed flags do not matter: every sample and
grid point lies in the closed window [lo, hi]. ``check_window`` is that test;
each entry point runs it once, before any kernel, and then calls kernels only.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from typing import Callable, NamedTuple, Optional

DEFAULT_SEED = 7

# Floating-point slack of the sampled axiom checks in verify_axioms.
_STRICT_EPS, _SYMMETRY_TOL, _BETWEENNESS_SLACK = 1e-10, 1e-9, 1e-12

__all__ = [
    "DEFAULT_SEED",
    "DomainError",
    "InvalidMeanError",
    "NumericalError",
    "ConvergenceError",
    "BracketError",
    "Interval",
    "POSITIVE_REALS",
    "ALL_REALS",
    "common_domain",
    "near",
    "diagonal_safe",
    "check_window",
    "MeanFunction",
    "AxiomReport",
    "make_arithmetic",
    "make_geometric",
    "make_harmonic",
    "verify_axioms",
    "default_window",
    "sample_pairs",
]


class DomainError(ValueError):
    """An evaluation point or window lies outside the declared domain."""


class InvalidMeanError(ValueError):
    """A claimed mean violated the mean axioms where validity was required."""


class NumericalError(RuntimeError):
    """Base class for runtime numerical failures (exit code 2 in the CLI)."""


class ConvergenceError(NumericalError):
    """An iteration did not converge; carries the recorded trace."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class BracketError(NumericalError):
    """A bracketing solver found no sign change over its bracket."""


_set = object.__setattr__  # how a constructor sets the fields of a _Frozen


class _Frozen:
    """Base of the read-only value types.

    The fields are the ``__slots__`` of the class and of its bases, in that
    order; each constructor sets them once with ``_set``. Assigning or deleting
    an attribute raises AttributeError. Two instances are equal when they have
    the same type and equal fields, and equal instances hash equal.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += cls.__dict__.get("__slots__", ())

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        # a kernel is a closure and prints no value, so ``fn`` is left out
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields if f != "fn")
        return f"{type(self).__name__}({fields})"


class Interval(_Frozen):
    """A nonempty, non-degenerate real interval with per-endpoint flags.

    ``lo``/``hi`` may be ``-inf``/``+inf``; infinite endpoints must be open.
    Point intervals are rejected at construction.
    """

    __slots__ = ("lo", "hi", "lo_closed", "hi_closed")

    def __init__(self, lo: float, hi: float, lo_closed: bool = False, hi_closed: bool = False):
        lo, hi = float(lo), float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if not lo < hi:
            raise ValueError(f"empty or degenerate interval [{lo}, {hi}]")
        if math.isinf(lo) and lo_closed:
            raise ValueError("-inf endpoint cannot be closed")
        if math.isinf(hi) and hi_closed:
            raise ValueError("+inf endpoint cannot be closed")
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "lo_closed", lo_closed)
        _set(self, "hi_closed", hi_closed)

    @staticmethod
    def closed(lo: float, hi: float) -> "Interval":
        return Interval(lo, hi, lo_closed=True, hi_closed=True)

    @staticmethod
    def open(lo: float, hi: float) -> "Interval":
        return Interval(lo, hi)

    def contains(self, t: float) -> bool:
        if self.lo < t < self.hi:
            return True
        if math.isnan(t):
            return False
        lo_ok = t > self.lo or (self.lo_closed and t == self.lo)
        hi_ok = t < self.hi or (self.hi_closed and t == self.hi)
        return lo_ok and hi_ok

    def contains_interval(self, other: "Interval") -> bool:
        """Whether every point of ``other`` lies in this interval."""
        if other.lo < self.lo or (other.lo == self.lo and other.lo_closed and not self.lo_closed):
            return False
        if other.hi > self.hi or (other.hi == self.hi and other.hi_closed and not self.hi_closed):
            return False
        return True

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        """Intersection, or None when it is empty or a single point."""
        if self.lo > other.lo or (self.lo == other.lo and not self.lo_closed):
            lo, lo_closed = self.lo, self.lo_closed
        else:
            lo, lo_closed = other.lo, other.lo_closed
        if self.hi < other.hi or (self.hi == other.hi and not self.hi_closed):
            hi, hi_closed = self.hi, self.hi_closed
        else:
            hi, hi_closed = other.hi, other.hi_closed
        if not lo < hi:
            return None
        return Interval(lo, hi, lo_closed, hi_closed)

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"


POSITIVE_REALS = Interval(0.0, math.inf)
ALL_REALS = Interval(-math.inf, math.inf)


def common_domain(a: Interval, b: Interval) -> Interval:
    """Intersection of two domains; DomainError when they do not overlap."""
    dom = a.intersect(b)
    if dom is None:
        raise DomainError(f"domains {a} and {b} do not overlap")
    return dom


def near(x: float, y: float, rel: float) -> bool:
    """|x - y| <= rel * max(|x|, |y|): the closeness test of every band.

    The coupled iteration of ``middle`` does not call it: it writes the same test out
    from its sorted envelope, as gap <= rel * max(hi, -lo).
    """
    a, b = abs(x), abs(y)
    return abs(x - y) <= rel * (b if b > a else a)  # max(a, b), NaN too, without a call


def diagonal_safe(fn: Callable[[float, float], float]) -> Callable[[float, float], float]:
    """A mean kernel for points that are already checked, with the diagonal the checked call
    gives: x == y returns x, as ``MeanFunction.__call__`` does; elsewhere ``fn`` is called."""
    return lambda x, y: x if x == y else fn(x, y)


def check_window(window: Interval, *domains: tuple[Interval, str]) -> None:
    """The window check of every sampled entry point, run once before any kernel.

    ``window`` must have a finite width ``hi - lo`` and both of its ends inside each
    ``(domain, name)`` given; the samples and grids then lie in [lo, hi], inside
    every domain. ``sample_pairs`` passes no domain and checks the width only.
    """
    if not math.isfinite(window.hi - window.lo):
        raise DomainError(f"window {window} has no finite width")
    for domain, name in domains:
        if not (domain.contains(window.lo) and domain.contains(window.hi)):
            raise DomainError(f"window {window} is not inside the domain {domain} of {name}")


def _outside_domain(x: float, y: float, domain: Interval, name: str) -> DomainError:
    return DomainError(f"({x}, {y}) is outside the domain {domain} of {name}")


class MeanFunction(_Frozen):
    """An evaluable symmetric two-variable function on a square domain.

    Calling the mean checks the point once: both arguments become floats and
    must lie in ``domain``, and exactly equal arguments return ``x`` without
    calling ``fn``, which keeps the diagonal exact. ``fn`` is the kernel
    behind that check. Its contract, which ``algebra.AsymmetricFunction`` and
    ``algebra.WeightFunction`` share, has no exceptions:

    - ``fn`` is only called with Python floats inside ``domain`` and, for the
      two-variable types, never with x == y. It returns a float.
    - A composite (compound, ``star``, ``group_symmetry``, ``group_inverse``,
      ``phi``, ``phi_inverse``, a normal mean) runs only at points its own
      check has passed, and calls its operands' ``fn`` there. That relies on
      ``common_domain`` keeping the composite's domain inside each operand's.
    - The sampled entry points (the grids of ``metric``, ``verify_axioms``,
      ``algebra.compare_normal``, ``middle.coincidence_probe``) run
      ``check_window`` once and then call kernels, at points of the closed
      window. ``middle.functional_symmetric`` checks its point and the value
      of m1 there, then bisects on m0's kernel. Where such a call can land on
      the diagonal, ``diagonal_safe`` returns there what the checked call would;
      the grids pass ``phi``'s kernel on as it is, since its diagonal band
      returns 0.0 there without calling the mean.
    - A parsed expression's ``A``, ``G``, ``H`` or ``AGM`` atom calls the
      checked built-in, whose domain the parsed mean's need not lie in.
    - No code may widen a domain with ``replace``; only names and flags are
      replaced.

    Metadata flags use None for "unknown".
    """

    __slots__ = ("name", "domain", "fn", "is_monotone", "is_continuous")

    def __init__(self, name: str, domain: Interval, fn: Callable[[float, float], float],
                 is_monotone: Optional[bool] = None, is_continuous: Optional[bool] = None):
        _set(self, "name", name)
        _set(self, "domain", domain)
        _set(self, "fn", fn)
        _set(self, "is_monotone", is_monotone)
        _set(self, "is_continuous", is_continuous)

    def replace(self, **changes) -> "MeanFunction":
        """A copy with ``changes`` applied, built by this type's constructor, so its
        checks run and an unknown or derived field raises TypeError."""
        fields = {f: getattr(self, f) for f in self._fields}
        fields.update(changes)
        return type(self)(**fields)

    def __call__(self, x: float, y: float) -> float:
        x = float(x)
        y = float(y)
        if not (self.domain.contains(x) and self.domain.contains(y)):
            raise _outside_domain(x, y, self.domain, self.name)
        if x == y:
            return x
        return self.fn(x, y)


# Where both arguments lie in (2^-500, 2^500), every product, sum and quotient of the G and
# H kernels is a normal float, so the plain formulas round exactly as the scaled forms do.
# Elsewhere the scaled forms run. ``_sqrt`` and ``_INF`` spare the hot paths a lookup.
_PLAIN_LO, _PLAIN_HI = 2.0 ** -500, 2.0 ** 500
_sqrt, _INF = math.sqrt, math.inf


def _arithmetic_eval(x: float, y: float) -> float:
    s = x + y  # halved first only where it overflows, where the halves are exact
    return s / 2.0 if -_INF < s < _INF else x / 2.0 + y / 2.0


def _geometric_eval(x: float, y: float) -> float:
    if _PLAIN_LO < x < _PLAIN_HI and _PLAIN_LO < y < _PLAIN_HI:
        return _sqrt(x * y)
    return _geometric_scaled(x, y)


def _harmonic_eval(x: float, y: float) -> float:
    if _PLAIN_LO < x < _PLAIN_HI and _PLAIN_LO < y < _PLAIN_HI:
        return 2.0 * x * y / (x + y)
    return _harmonic_scaled(x, y)


def _geometric_scaled(x: float, y: float) -> float:
    # exactly x = mx 2^ex, y = my 2^ey, mx and my in [0.5, 1): mx*my cannot under- or
    # overflow and, where x*y is normal, rounds as x*y does (an odd ex+ey moves a 2 into it)
    mx, ex = math.frexp(x)
    my, ey = math.frexp(y)
    e = ex + ey
    return math.ldexp(math.sqrt(math.ldexp(mx * my, e & 1)), e >> 1)


def _harmonic_scaled(x: float, y: float) -> float:
    # as in _geometric_scaled; the sum, scaled by the larger exponent, rounds as x + y does
    mx, ex = math.frexp(x)
    my, ey = math.frexp(y)
    e = max(ex, ey)
    return math.ldexp(2.0 * mx * my / (math.ldexp(mx, ex - e) + math.ldexp(my, ey - e)),
                      ex + ey - e)


def make_arithmetic() -> MeanFunction:
    """The arithmetic mean (x + y)/2 on all of R."""
    return MeanFunction("A", ALL_REALS, _arithmetic_eval,
                        is_monotone=True, is_continuous=True)


def make_geometric() -> MeanFunction:
    """The geometric mean sqrt(x*y) on (0, +inf)."""
    return MeanFunction("G", POSITIVE_REALS, _geometric_eval,
                        is_monotone=True, is_continuous=True)


def make_harmonic() -> MeanFunction:
    """The harmonic mean 2xy/(x + y) on (0, +inf)."""
    return MeanFunction("H", POSITIVE_REALS, _harmonic_eval,
                        is_monotone=True, is_continuous=True)


BUILTIN_MEANS = {"A": make_arithmetic, "G": make_geometric, "H": make_harmonic}


def default_window(domain: Interval) -> Interval:
    """Bounded sampling window for a domain.

    Positive domains get [1e-6, 1e6]; domains reaching below zero get
    [-1e3, 1e3]; both are clipped into the domain, nudging inward at open
    finite endpoints.
    """
    if domain.lo >= 0.0:
        lo, hi = 1e-6, 1e6
    else:
        lo, hi = -1e3, 1e3
    lo = max(lo, domain.lo)
    hi = min(hi, domain.hi)
    if not lo < hi:
        # domain lies outside the target range; fall back to the domain itself
        lo = domain.lo if math.isfinite(domain.lo) else hi - 1e6
        hi = domain.hi if math.isfinite(domain.hi) else lo + 1e6
    if lo == domain.lo and not domain.lo_closed:
        lo += 1e-6 * (hi - lo)
    if hi == domain.hi and not domain.hi_closed:
        hi -= 1e-6 * (hi - lo)
    return Interval.closed(lo, hi)


def _seeded(seed: int) -> random.Random:
    """The generator of every seeded draw, for an int seed >= 0. Callers read only ``random()``
    and ``uniform()``, whose stream Python keeps across versions for an int seed."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return random.Random(seed)


# every parsed mean built in a process samples the same seeded block
@functools.lru_cache(maxsize=8)
def _halton_block(seed: int, start: int, n: int) -> tuple[tuple[float, float], ...]:
    """Points start..start+n-1 of the 2D Halton sequence, digits scrambled per seed.

    Owen's random permutations (arXiv:1706.02808), one per digit position, each the digits
    sorted on keys drawn from ``_seeded(seed)``; weights b^-(j+1) by repeated division.
    Drawn once per (seed, start, n) and returned as a tuple, which no caller can change.
    """
    rng = _seeded(seed)
    dims = []
    for base in (2, 3):
        # one row per digit: the permuted digit values times b^-(j+1)
        rows, weight = [], 1.0
        for _ in range(math.ceil(54 / math.log2(base)) - 1):
            weight /= base
            rows.append([d * weight for d in sorted(range(base), key=lambda _: rng.random())])
        coords = []
        for index in range(start, start + n):
            acc = 0.0
            for row in rows:
                index, digit = divmod(index, base)
                acc += row[digit]
            coords.append(acc)
        dims.append(coords)
    return tuple(zip(*dims))


def sample_pairs(window: Interval, n: int, seed: int = DEFAULT_SEED,
                 min_gap: float = 0.0) -> list[tuple[float, float]]:
    """Deterministic quasi-random pairs in [lo, hi]^2: a list of n ``(x, y)`` tuples.

    The pairs are a Halton sequence with seeded digit permutations (``_halton_block``),
    scaled into the window; a coordinate that rounds past hi is hi. The window's
    width must be finite (``check_window``). ``min_gap`` discards pairs with
    ``near(x, y, min_gap)``, which identity tests use to stay clear of diagonal
    cancellation at any scale.
    """
    check_window(window)
    if n < 1:
        raise ValueError("need at least one sample")
    lo, hi, span = window.lo, window.hi, window.hi - window.lo
    out, drawn = [], 0
    while len(out) < n:
        if drawn > 1000 * (n + 64):
            raise ValueError(f"min_gap={min_gap} rejects almost every pair in {window}")
        block = _halton_block(seed, drawn, max(n, 64))
        drawn += len(block)
        for u, v in block:
            x, y = lo + span * u, lo + span * v  # never below lo, as u, v >= 0
            if x > hi or y > hi:
                x, y = min(x, hi), min(y, hi)
            if not near(x, y, min_gap):
                out.append((x, y))
                if len(out) == n:
                    break
    return out


class AxiomReport(NamedTuple):
    """Outcome of sampling the three mean axioms.

    Counterexamples are (axiom, x, y, observed) tuples; a false flag always
    comes with at least one counterexample for its axiom.
    """

    axiom_i_ok: bool
    axiom_ii_ok: bool
    axiom_iii_ok: bool
    counterexamples: tuple
    samples_used: int

    @property
    def all_ok(self) -> bool:
        return self.axiom_i_ok and self.axiom_ii_ok and self.axiom_iii_ok


def verify_axioms(m: MeanFunction, window: Interval, samples: int,
                  seed: int = DEFAULT_SEED) -> AxiomReport:
    """Check the three mean axioms on seeded quasi-random pairs in ``window``^2.

    This is a sampled verifier, not a proof: the betweenness and symmetry
    checks allow slack relative to max(|x|, |y|), and the strictness check
    flags ``near(M(x,y), x, _STRICT_EPS)`` only off ``near(x, y, 100 * _STRICT_EPS)``.
    Results are deterministic for a fixed seed. The window is checked once
    (``check_window``) and the samples go to ``m``'s kernel through ``diagonal_safe``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    check_window(window, (m.domain, m.name))
    pairs = sample_pairs(window, samples, seed)
    mean = diagonal_safe(m.fn)
    i_ok = ii_ok = iii_ok = True
    counterexamples: list = []
    cap = 8  # per axiom, keeps reports small

    def note(axiom: str, x: float, y: float, observed: float) -> None:
        if sum(1 for c in counterexamples if c[0] == axiom) < cap:
            counterexamples.append((axiom, x, y, observed))

    for x, y in pairs:
        mxy = mean(x, y)
        myx = mean(y, x)
        scale = max(abs(x), abs(y))
        if abs(mxy - myx) > _SYMMETRY_TOL * scale:
            i_ok = False
            note("i", x, y, mxy - myx)
        lo, hi = min(x, y), max(x, y)
        if mxy < lo - _BETWEENNESS_SLACK * scale or mxy > hi + _BETWEENNESS_SLACK * scale:
            ii_ok = False
            note("ii", x, y, mxy)
        if not near(x, y, 100.0 * _STRICT_EPS):
            if near(mxy, x, _STRICT_EPS) or near(mxy, y, _STRICT_EPS):
                iii_ok = False
                note("iii", x, y, mxy)
    return AxiomReport(i_ok, ii_ok, iii_ok, tuple(counterexamples), len(pairs))
