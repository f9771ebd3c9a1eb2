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
import itertools
import math
import operator
import random
from collections.abc import Callable

DEFAULT_SEED = 7

# Floating-point slack of the sampled axiom checks in verify_axioms and _between.
_STRICT_EPS, _SYMMETRY_TOL, _BETWEENNESS_SLACK = 1e-10, 1e-9, 1e-12

# The smallest positive normal float; a product or ratio below it has lost digits to underflow.
_MIN_NORMAL = 2.0 ** -1022
_INF = math.inf

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


_set = object.__setattr__  # how ``_Frozen.__init__`` sets a field


def _bind(cls, args: tuple, kwargs: dict) -> list:
    """The values of a call to the constructor of ``cls`` that is not fully positional, in
    the order of ``cls._fields``, each from ``args``, ``kwargs`` or ``cls._field_defaults``."""
    fields = cls._fields
    if len(args) > len(fields):
        raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments "
                        f"but {len(args)} were given")
    values = list(args)
    for f in fields[len(args):]:
        if f in kwargs:
            values.append(kwargs.pop(f))
        elif f in cls._field_defaults:
            values.append(cls._field_defaults[f])
        else:
            raise TypeError(f"{cls.__name__}() missing required argument {f!r}")
    if kwargs:
        raise TypeError(f"{cls.__name__}() got an unexpected or repeated "
                        f"argument {next(iter(kwargs))!r}")
    return values


class _Frozen:
    """Base of the read-only value types.

    The fields are the ``__slots__`` of the class and of its bases, in that
    order, and ``_field_defaults`` maps a field to its default. A slot whose
    name starts with '_' is not a field: it holds a value that the constructor
    derives from the fields. The constructor binds its arguments as a record's
    does: a fully positional call sets the fields in order, and any other call
    is bound by ``_bind``. A type writes ``__init__`` only to check or convert
    its values, and passes them on to this one. Assigning or deleting an
    attribute raises AttributeError. Two instances are equal when they have
    the same type and equal fields, and equal instances hash equal. A copy,
    deep copy or unpickled value is built by the constructor from the fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _field_defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(s for s in cls.__dict__.get("__slots__", ()) if s[0] != "_")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = _bind(type(self), args, kwargs)
        for f, value in zip(self._fields, args):
            _set(self, f, value)

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

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild by the constructor, which derives the '_' slots
        return _rebuilt, (type(self), dict(zip(self._fields, self._values())))

    def __repr__(self) -> str:
        # a kernel is a function and prints no value, so ``fn`` is left out
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields if f != "fn")
        return f"{type(self).__name__}({fields})"


def _rebuilt(cls, fields: dict):
    """The value of type ``cls`` with ``fields``, built by its constructor (``__reduce__``)."""
    return cls(**fields)


_tuple_new = tuple.__new__  # how a record is built from its values


class _RecordType(type):
    """Makes a ``_Record`` type from its class body: the annotated names, in order, are its
    fields, and a value assigned to one is its default. The annotations are strings, read as
    names and never evaluated. They are in the body's namespace, as ``__annotations__``,
    because every module that declares a record imports ``annotations`` from ``__future__``
    (a test checks this): under PEP 749 (Python 3.14) a body without that import holds only
    a lazy ``__annotate__`` function there, which would have to be read through
    ``annotationlib.get_annotate_from_class_namespace``, and every record would have no
    fields."""

    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        defaults = {f: ns.pop(f) for f in fields if f in ns}
        for i, f in enumerate(fields):
            ns[f] = property(operator.itemgetter(i), doc=f"Alias for field number {i}")
        n = len(fields)

        def __new__(cls, *args, **kwargs):
            # a full positional call, the form the package makes, is one length check
            if kwargs or len(args) != n:
                args = _bind(cls, args, kwargs)
            return _tuple_new(cls, args)

        return super().__new__(mcls, name, bases, {
            **ns, "__new__": __new__, "__slots__": (), "_fields": fields,
            "_field_defaults": defaults, "__match_args__": fields})


class _Record(tuple, metaclass=_RecordType):
    """Base of the result records: a tuple with named, read-only fields that behaves as
    ``collections.namedtuple`` with the same fields and defaults does, built with no
    generated code. A call that is not fully positional is bound by ``_bind``, as a
    ``_Frozen`` constructor's is."""

    @classmethod
    def _make(cls, iterable):
        record = _tuple_new(cls, iterable)
        if len(record) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(record)}")
        return record

    def _replace(self, /, **changes):
        record = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return record

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"


class Interval(_Frozen):
    """A nonempty, non-degenerate real interval with per-endpoint flags.

    Fields: ``lo``, ``hi``, ``lo_closed=False``, ``hi_closed=False``. The ends
    become floats. ``lo``/``hi`` may be ``-inf``/``+inf``; infinite endpoints
    must be open. Point intervals are rejected at construction. Each end is
    also kept as a comparison key, ``_lo = (lo, 0 or 1)`` and ``_hi = (hi, 0 or
    -1)`` with 0 for a closed end, so that t lies in the interval exactly where
    ``_lo <= (t, 0) <= _hi``: one ordering decides membership, containment and
    the ends of an intersection.
    """

    __slots__ = ("lo", "hi", "lo_closed", "hi_closed", "_lo", "_hi")

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
        super().__init__(lo, hi, lo_closed, hi_closed)
        _set(self, "_lo", (lo, 0 if lo_closed else 1))
        _set(self, "_hi", (hi, 0 if hi_closed else -1))

    @staticmethod
    def closed(lo: float, hi: float) -> "Interval":
        return Interval(lo, hi, lo_closed=True, hi_closed=True)

    @staticmethod
    def open(lo: float, hi: float) -> "Interval":
        return Interval(lo, hi)

    def contains(self, t: float) -> bool:
        return self.lo < t < self.hi or self._lo <= (t, 0) <= self._hi

    def contains_interval(self, other: "Interval") -> bool:
        """Whether every point of ``other`` lies in this interval."""
        return self._lo <= other._lo and other._hi <= self._hi

    def intersect(self, other: Interval) -> Interval | None:
        """Intersection, or None when it is empty or a single point; an operand that lies
        inside the other is the intersection itself."""
        if other.contains_interval(self):
            return self
        if self.contains_interval(other):
            return other
        (lo, lo_open), (hi, hi_open) = max(self._lo, other._lo), min(self._hi, other._hi)
        if not lo < hi:
            return None
        return Interval(lo, hi, not lo_open, not hi_open)

    def __str__(self) -> str:
        # each end in :g form where that reads back as the same float, else its repr
        lo, hi = (f"{t:g}" if float(f"{t:g}") == t else repr(t) for t in (self.lo, self.hi))
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{lo}, {hi}{right}"


POSITIVE_REALS = Interval(0.0, math.inf)
ALL_REALS = Interval(-math.inf, math.inf)


def common_domain(a: Interval, b: Interval) -> Interval:
    """Intersection of two domains; DomainError when they do not overlap."""
    dom = a.intersect(b)
    if dom is None:
        raise DomainError(f"domains {a} and {b} do not overlap")
    return dom


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


def _generated(signature: str, body: str, namespace: dict, filename: str) -> Callable:
    """The function ``fn({signature})`` that runs the generated ``body``, in which the keys of
    ``namespace`` name its values. ``fn`` is defined inside a factory whose parameters are
    those keys, so values reach the code as arguments, never as text."""
    source = (f"def factory({', '.join(namespace)}):\n"
              f"    def fn({signature}):\n{_indent(body, 8)}\n"
              f"    return fn\n")
    scope: dict = {}
    exec(compile(source, filename, "exec"), scope)
    return scope["factory"](**namespace)


def _indent(text: str, spaces: int) -> str:
    return "\n".join(" " * spaces + line for line in text.splitlines())


# A statement block is the one written form of a generated kernel: ``(statements, result,
# namespace)``, statements over the input locals (x and y for a mean, t for a weight), the
# expression ``result`` over those locals that gives the value, and the values that the keys
# of ``namespace`` name. A parsed tree's block (``expressions._compile``) sets a local only
# where a name is needed: it writes a node that raises nothing inside its one consumer, and
# gives it a local where a check or the template of that consumer reads it twice, so its
# ``result`` may be a whole formula. ``_splice`` is the one place that runs a block in another
# function. Every name a block makes up carries a prefix of its own (``_prefix``), so the
# blocks of several kernels can run in one function; each reads only its inputs and its
# own names.
#
# Every generated kernel also has a box form: its block without the fault checks and range
# guards that cannot fire where every input local lies in the plain box P = (2^-500, 2^500),
# the range of G's and H's plain formulas. The block's builder shows which these are by
# evaluating it once over P in interval arithmetic with outward rounding (Moore, Kearfott &
# Cloud, *Introduction to Interval Analysis*, SIAM 2009). An enclosure is a pair (lo, hi) of
# finite floats with lo <= v <= hi for every value v that the block can return there, or
# None where none is known. A parsed tree is rendered once per form, its block and then its
# box form, by the same rules (``expressions._compile``). A compound whose start lies in P runs
# its operands' box forms: its clamp keeps every iterate between the start's coordinates.
Block = tuple[str, str, dict]
Enclosure = tuple[float, float] | None
_BLOCKS = itertools.count()  # numbers each block, whose names it prefixes
_PLAIN = "plain_lo < {x} < plain_hi and plain_lo < {y} < plain_hi"  # the point (x, y) lies in P
_PLAIN_NAMES = {"plain_lo": 2.0 ** -500, "plain_hi": 2.0 ** 500}
_BOX = (math.nextafter(2.0 ** -500, 1.0), math.nextafter(2.0 ** 500, 1.0))  # the floats of P's side
_SLACK = 2.0 ** -40  # the relative outward step of an enclosure's ends


def _outward(lo: float, hi: float) -> Enclosure:
    """The ends ``lo`` and ``hi`` of an operation's enclosure, computed in floats, each moved
    outward by a relative 2^-40 and one float more: that covers its rounding, and the error
    of a libm function, both a few ulps. None where an end is not finite."""
    lo = math.nextafter(lo - abs(lo) * _SLACK, -math.inf)
    hi = math.nextafter(hi + abs(hi) * _SLACK, math.inf)
    return (lo, hi) if -math.inf < lo and hi < math.inf else None


def _add(a: tuple[float, float], b: tuple[float, float]) -> Enclosure:
    return _outward(a[0] + b[0], a[1] + b[1])


def _sub(a: tuple[float, float], b: tuple[float, float]) -> Enclosure:
    return _outward(a[0] - b[1], a[1] - b[0])


def _corners(a: tuple[float, float], b: tuple[float, float], op: Callable) -> Enclosure:
    """The enclosure of ``op`` over ``a`` and ``b``, for an operation that is monotone in each
    operand, so that its extremes lie at corners."""
    ends = [op(p, q) for p in a for q in b]
    return _outward(min(ends), max(ends))


def _mul(a: tuple[float, float], b: tuple[float, float]) -> Enclosure:
    return _corners(a, b, operator.mul)


def _prefix(kind: str) -> str:
    """A fresh prefix for the names of one block: ``kind``, a number and '_'."""
    return f"{kind}{next(_BLOCKS)}_"


def _kernel(block: Block, box: Block, enclosure: Enclosure, filename: str,
            signature: str = "x, y") -> Callable:
    """The kernel ``fn({signature})`` that runs ``block`` and returns its result. It carries
    ``(block, box, enclosure)`` as ``fn.inline``, so a composite can run the same statements in
    place of a call: ``box`` is the block's box form and ``enclosure`` encloses its value where
    every input local lies in the plain box (``_BOX``)."""
    statements, result, namespace = block
    fn = _generated(signature, f"{statements}\nreturn {result}", namespace, filename)
    fn.inline = block, box, enclosure
    return fn


def _splice(namespace: dict, fn: Callable, assign: str, inputs: str = "x, y",
            box: bool = False) -> tuple[str, Enclosure]:
    """The statements that run the kernel ``fn`` over the locals ``inputs``, then
    ``{assign}<its value>``, and the enclosure of that value over the plain box: its block, or
    with ``box`` its box form, which may run only where every input local lies in the plain box;
    or one call of ``fn``, with no enclosure, where it carries no block. The block's names join
    ``namespace``; a name already bound to another value raises ValueError, as one of the two
    blocks that name it would read the other's value."""
    forms = getattr(fn, "inline", None)
    if forms is None:
        p = _prefix("f")
        call = "", f"{p}kernel({inputs})", {f"{p}kernel": fn}
        forms = call, call, None
    checked, boxed, enclosure = forms
    statements, result, names = boxed if box else checked
    for name, value in names.items():
        if namespace.setdefault(name, value) is not value:
            raise ValueError(f"the generated name {name!r} is bound to two different values")
    return f"{statements}\n{assign}{result}", enclosure


def _outside_domain(x: float, y: float, domain: Interval, name: str) -> DomainError:
    return DomainError(f"({x}, {y}) is outside the domain {domain} of {name}")


class MeanFunction(_Frozen):
    """An evaluable symmetric two-variable function on a square domain.

    Fields: ``name``, ``domain``, ``fn``, ``is_monotone=None``,
    ``is_continuous=None``. Calling the mean checks the point once: both
    arguments become floats and must lie in ``domain``, and exactly equal
    arguments return ``x`` without calling ``fn``, which keeps the diagonal
    exact. ``fn`` is the kernel behind that check. A compound's kernel, when
    the compound calls it, passes a start in the plain box P by its own range
    test, so that call enters no frame of this class, and hands any other start
    to this check (``middle.CompoundMean``); called as a kernel, it skips the
    check.
    Its contract, which ``algebra.AsymmetricFunction`` and
    ``algebra.WeightFunction`` share, has no exceptions:

    - ``fn`` is only called with Python floats inside ``domain`` and, for the
      two-variable types, never with x == y. It returns a float.
    - A composite (compound, ``star``, ``group_symmetry``, ``group_inverse``,
      ``phi``, ``phi_inverse``, a combinator of asymmetric maps, a normal mean)
      runs only at points its own check has passed, and runs its operands'
      kernels there, by a call or by their blocks (below). That relies on
      ``common_domain`` keeping the composite's domain inside each operand's.
    - The sampled entry points (the grids of ``metric``, ``verify_axioms``,
      ``algebra.compare_normal``, ``middle.coincidence_probe``) run
      ``check_window`` once and then call kernels, at points of the closed
      window, none of them on the diagonal: ``sample_pairs`` drops every pair
      with x == y, and the grids pass ``phi``'s kernel on as it is, since its
      diagonal band returns 0.0 there without calling the mean.
      ``middle.functional_symmetric`` checks its point and the value a of m1
      there, then bisects on m0's kernel at (a, t), returning a itself at
      t == a, as the checked call would.
    - A parsed expression's ``A``, ``G``, ``H`` or ``AGM`` atom calls the
      checked built-in, whose domain the parsed mean's need not lie in.
    - The kernels of the built-in A, G and H, of the group layer (``phi``,
      ``phi_inverse``, ``star``, ``group_inverse``, ``group_symmetry`` and the
      combinators, all built by ``algebra._group_kernel``), of a normal mean
      (``make_normal_mean`` and ``random_normal_mean``) and of a parsed mean or
      weight are generated from their statement block (``_kernel``) and carry
      it, with its box form, as ``fn.inline``. Only a compound's kernel and a
      hand-written function carry none. The group layer, a normal mean and
      ``middle.compound`` splice their operands' blocks in place of a call, or
      one call of a kernel that carries none (``_splice``). A box form splices
      its operands' box forms, and only a compound runs box forms, from a start
      in the plain box P. A parsed block raises its own EvaluationError.
    - ``replace`` changes names and flags only: it refuses a new ``fn`` or
      ``domain``, so no copy calls a kernel outside the domain it was built for.

    Metadata flags use None for "unknown".
    """

    __slots__ = ("name", "domain", "fn", "is_monotone", "is_continuous")
    _field_defaults = {"is_monotone": None, "is_continuous": None}
    _baked = ("fn", "domain")  # the fields that ``replace`` refuses to change
    _kind = "mean"

    def replace(self, **changes) -> "MeanFunction":
        """A copy with ``changes`` applied, built by this type's constructor, so its
        checks run and an unknown or derived field raises TypeError. A change to a field
        that the kernel has baked in raises ValueError: the copy would report one setting
        and evaluate by another, or call the kernel outside the domain it was built for."""
        for field in self._baked:
            if field in changes and changes[field] != getattr(self, field):
                raise ValueError(f"the kernel of {self.name} has {field} baked in; "
                                 f"build a new {self._kind} to change it")
        fields = {f: getattr(self, f) for f in self._fields}
        fields.update(changes)
        return type(self)(**fields)

    def __call__(self, x: float, y: float) -> float:
        x = float(x)
        y = float(y)
        d = self.domain
        # the open window first; ``contains`` settles the ends and NaN
        if not (d.lo < x < d.hi and d.lo < y < d.hi or d.contains(x) and d.contains(y)):
            raise _outside_domain(x, y, d, self.name)
        if x == y:
            return x
        return self.fn(x, y)


def _geometric_scaled(x: float, y: float) -> float:
    # exactly x = mx 2^ex, y = my 2^ey, mx and my in [0.5, 1): mx*my cannot under- or
    # overflow and, where x*y is normal, rounds as x*y does (an odd ex+ey moves a 2 into it)
    mx, ex = math.frexp(x)
    my, ey = math.frexp(y)
    e = ex + ey
    return math.ldexp(math.sqrt(math.ldexp(mx * my, e & 1)), e >> 1)


def _endpoint_weighted(name: str, x: float, y: float, u1: float, u2: float, u3: float,
                       v1: float, v2: float, v3: float) -> float:
    """(x U + y V) / (U + V) for the weights U = u1 u2 u3 and V = v1 v2 v3 of one sign.

    The plain formula where every product, both terms and both sums are normal
    floats. Elsewhere every factor is split into mantissa and exponent, so no
    product under- or overflows, and each sum is formed on the scale of its
    larger term. U = 0 gives y and V = 0 gives x, exactly; both 0 is 0/0, and
    InvalidMeanError names the mean ``name`` and the point. So it does where
    U + V is 0 or the value overflows, which weights of one sign cannot give.
    H = 2xy/(x + y) is this form with U = y and V = x: its plain formula is H's,
    as doubling is exact, and it is the built-in H's range-safe form.
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


# The built-in kernels, each written once as ``(statements, plain, guard, fallback)``: the
# formula ``plain`` where ``guard`` holds, else ``fallback``. Where both arguments lie in P,
# every product, sum and quotient of the G and H formulas is a normal float, so the plain
# formulas round exactly as the range-safe forms do (``_geometric_scaled``, and for H
# ``_endpoint_weighted`` with U = y, V = x); elsewhere those are called. The blocks' own
# names have no number: each built-in block exists once.
# A kernel declares ``fn.between`` where its box form returns a float in [lo, hi] =
# [min(x, y), max(x, y)] at every point of P, with no rounding past either end, so a loop that
# splices it needs no clamp. Correct rounding is monotone, which gives it for A and G: fl(lo +
# hi) lies in [2 lo, 2 hi], and halving is exact in P; fl(x y) lies in [fl(lo lo), fl(hi hi)],
# and fl(sqrt(fl(a a))) = a wherever a a is normal, as it is for every a in P. H does not:
# at the adjacent floats 2.182546028937988e-76 and 2.1825460289379884e-76 its formula returns
# 2.1825460289379887e-76, above both.
_BUILTIN_NAMES = {"inf": math.inf, **_PLAIN_NAMES, "sqrt": math.sqrt,
                  "geometric_scaled": _geometric_scaled, "endpoint_weighted": _endpoint_weighted}
_ARITHMETIC = ("a_sum = x + y  # halved first only where it overflows, where the halves are exact",
               "a_sum / 2.0", "-inf < a_sum < inf", "x / 2.0 + y / 2.0")
_GEOMETRIC = ("", "sqrt(x * y)", _PLAIN.format(x="x", y="y"), "geometric_scaled(x, y)")
_HARMONIC = ("", "2.0 * x * y / (x + y)", _PLAIN.format(x="x", y="y"),
             'endpoint_weighted("H", x, y, y, 1.0, 1.0, x, 1.0, 1.0)')


def _guarded(plain: str, guard: str, fallback: str, holds: bool = False) -> str:
    """The expression ``plain`` where ``guard`` holds and ``fallback`` elsewhere, or ``plain``
    alone where ``holds`` shows that the guard holds wherever it runs, as in a box form."""
    return plain if holds else f"{plain} if {guard} else {fallback}"


def _builtin_kernel(form: tuple[str, str, str, str], holds: bool, between: bool) -> Callable:
    """The kernel of a built-in from its ``form``; its box form leaves the guard out where
    ``holds``. A built-in is a mean, so over P its value lies in P up to its rounding; the
    kernel declares ``fn.between``, that its box form's value lies in [min(x, y), max(x, y)]
    at every point of P with no rounding past either end, as ``between`` says."""
    statements, plain, guard, fallback = form
    block, box = ((statements, _guarded(plain, guard, fallback, h), _BUILTIN_NAMES)
                  for h in (False, holds))
    fn = _kernel(block, box, _outward(*_BOX), "<core>")
    fn.between = between
    return fn


# over P, A's sum is finite, and the guard of G and H is that (x, y) lies in P; A and G round
# between their arguments there, and H does not
_arithmetic_eval = _builtin_kernel(_ARITHMETIC, _add(_BOX, _BOX) is not None, True)
_geometric_eval = _builtin_kernel(_GEOMETRIC, True, True)
_harmonic_eval = _builtin_kernel(_HARMONIC, True, False)


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


def _inward(domain: Interval, lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi) moved inward at the open finite ends of ``domain`` they sit on: by 1e-6 of the
    width, and by at least one float."""
    if lo == domain.lo and not domain.lo_closed:
        lo = max(lo + 1e-6 * (hi - lo), math.nextafter(lo, hi))
    if hi == domain.hi and not domain.hi_closed:
        hi = min(hi - 1e-6 * (hi - lo), math.nextafter(hi, lo))
    return lo, hi


def default_window(domain: Interval) -> Interval:
    """Bounded sampling window for a domain.

    Positive domains get [1e-6, 1e6]; domains reaching below zero get
    [-1e3, 1e3]; both are clipped into the domain, nudging inward at open
    finite endpoints. Where that leaves no window, the domain falls back to
    itself, cut to a width of 1e6 at an infinite end, or of 1e-11 of its
    finite end where rounding there leaves no window within 1e6. A domain
    that holds no two floats past the nudge holds no window and raises
    DomainError.
    """
    if domain.lo >= 0.0:
        lo, hi = 1e-6, 1e6
    else:
        lo, hi = -1e3, 1e3
    lo, hi = max(lo, domain.lo), min(hi, domain.hi)
    if lo < hi:
        lo, hi = _inward(domain, lo, hi)
        if lo < hi:
            return Interval.closed(lo, hi)
    end = domain.lo if math.isfinite(domain.lo) else domain.hi
    for width in (1e6, 1e-11 * abs(end)):
        lo, hi = _inward(domain, domain.lo if math.isfinite(domain.lo) else end - width,
                         domain.hi if math.isfinite(domain.hi) else end + width)
        if lo < hi:
            return Interval.closed(lo, hi)
    raise DomainError(f"domain {domain} holds no window")


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
    The block is drawn one digit position at a time, each point summing its rows from the
    lowest digit up. Drawn once per (seed, start, n) and returned as a tuple, which no
    caller can change.
    """
    rng = _seeded(seed)
    dims = []
    for base in (2, 3):
        # one row per digit: the permuted digit values times b^-(j+1)
        rows, weight = [], 1.0
        for _ in range(math.ceil(54 / math.log2(base)) - 1):
            weight /= base
            rows.append([d * weight for d in sorted(range(base), key=lambda _: rng.random())])
        coords, indices, top = [0.0] * n, range(start, start + n), start + n - 1
        tail = []  # past the top digit of the last index every digit is 0
        for row in rows:
            if top:
                coords = [acc + row[index % base] for acc, index in zip(coords, indices)]
                indices, top = [index // base for index in indices], top // base
            elif row[0]:  # adding 0.0 changes no sum
                tail.append(row[0])
        if base == 2 and tail:
            # distinct powers of 2 from 2^-1 to 2^-53: every partial sum of a point's rows
            # is exact, so one add of the tail's sum gives the bits of one add per row
            tail = [sum(tail)]
        for term in tail:
            coords = list(map(term.__add__, coords))
        dims.append(coords)
    return tuple(zip(*dims))


def sample_pairs(window: Interval, n: int, seed: int = DEFAULT_SEED,
                 min_gap: float = 0.0) -> list[tuple[float, float]]:
    """Deterministic quasi-random pairs in [lo, hi]^2: a list of n ``(x, y)`` tuples.

    The pairs are a Halton sequence with seeded digit permutations (``_halton_block``),
    scaled into the window; a coordinate that rounds past hi is hi. The window's
    width must be finite (``check_window``). ``min_gap`` discards pairs with
    ``math.isclose(x, y, rel_tol=min_gap)``, which identity tests use to stay clear of
    diagonal cancellation at any scale. A negative or NaN ``min_gap`` raises ValueError
    before any draw, and so does one that rejects every pair: |x - y| <= max(|x|, |y|)
    where x and y share a sign, and |x - y| <= 2 max(|x|, |y|) anywhere.
    """
    check_window(window)
    if n < 1:
        raise ValueError("need at least one sample")
    if not min_gap >= 0.0:
        raise ValueError(f"min_gap must be non-negative, got {min_gap}")
    lo, hi, span = window.lo, window.hi, window.hi - window.lo
    rejects_all = min_gap >= (2.0 if lo < 0.0 < hi else 1.0)
    out, drawn = [], 0
    while len(out) < n:
        if rejects_all or drawn > 1000 * (n + 64):
            raise ValueError(f"min_gap={min_gap} rejects almost every pair in {window}")
        block = _halton_block(seed, drawn, max(n, 64))
        drawn += len(block)
        for u, v in block:
            x, y = lo + span * u, lo + span * v  # never below lo, as u, v >= 0
            if x > hi or y > hi:
                x, y = min(x, hi), min(y, hi)
            if not math.isclose(x, y, rel_tol=min_gap):
                out.append((x, y))
                if len(out) == n:
                    break
    return out


class AxiomReport(_Record):
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


def _between(value: float, x: float, y: float) -> bool:
    """Axiom (ii) with its sampled slack: ``value`` lies in [min(x, y), max(x, y)] widened
    by _BETWEENNESS_SLACK times the magnitude of each end. False for NaN."""
    lo, hi = min(x, y), max(x, y)
    return lo - _BETWEENNESS_SLACK * abs(lo) <= value <= hi + _BETWEENNESS_SLACK * abs(hi)


def verify_axioms(m: MeanFunction, window: Interval, samples: int,
                  seed: int = DEFAULT_SEED) -> AxiomReport:
    """Check the three mean axioms on seeded quasi-random pairs in ``window``^2.

    This is a sampled verifier, not a proof. Symmetry allows a difference of
    _SYMMETRY_TOL times max(|x|, |y|); betweenness is ``_between``, the rule the
    CLI's point commands apply, with slack relative to each end; a NaN value fails
    both. The strictness check flags ``math.isclose(M(x,y), x, rel_tol=_STRICT_EPS)``
    only off ``math.isclose(x, y, rel_tol=100 * _STRICT_EPS)``.
    Results are deterministic for a fixed seed. The window is checked once
    (``check_window``) and the samples go to ``m``'s kernel: ``sample_pairs`` draws
    no pair on the diagonal. At most eight counterexamples per axiom are kept.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    check_window(window, (m.domain, m.name))
    pairs = sample_pairs(window, samples, seed)
    mean = m.fn
    counterexamples: list = []
    failed = dict.fromkeys(("i", "ii", "iii"), 0)

    def note(axiom: str, x: float, y: float, observed: float) -> None:
        if failed[axiom] < 8:  # keeps reports small
            counterexamples.append((axiom, x, y, observed))
        failed[axiom] += 1

    for x, y in pairs:
        mxy = mean(x, y)
        myx = mean(y, x)
        # each test states what must hold, so a NaN fails it
        if not (mxy == myx or abs(mxy - myx) <= _SYMMETRY_TOL * max(abs(x), abs(y))):
            note("i", x, y, mxy - myx)
        if not (x <= mxy <= y or y <= mxy <= x or _between(mxy, x, y)):
            note("ii", x, y, mxy)
        if not math.isclose(x, y, rel_tol=100.0 * _STRICT_EPS):
            if (math.isclose(mxy, x, rel_tol=_STRICT_EPS)
                    or math.isclose(mxy, y, rel_tol=_STRICT_EPS)):
                note("iii", x, y, mxy)
    return AxiomReport(not failed["i"], not failed["ii"], not failed["iii"],
                       tuple(counterexamples), len(pairs))
