"""Functional symmetrics and compound means (the generalized AGM).

Two constructions live here. The functional symmetric of M1 with respect
to a monotone mean M0 is the unique mean T solving the functional
equation M0(M1(x,y), T(x,y)) = M0(x,y); it is found pointwise by a
bracketed root solve on [min(x,y), max(x,y)]. The compound of two means
M1, M2 is the unique mean M fixed by M(M1, M2) = M; it is evaluated as
the common limit of the coupled iteration

    x(n+1) = M1(x(n), y(n)),   y(n+1) = M2(x(n), y(n)),

which contracts geometrically whenever the distance between the operands
is below 1, and converges for continuous operands regardless. The
classical AGM is the compound of the arithmetic and geometric means.

Compound evaluation is pure per point; traces are per-call values and
never shared mutable state.
"""

from __future__ import annotations

import functools
import math
import operator
import types
from collections.abc import Callable

from .core import (
    _PLAIN_NAMES,
    _Record,
    _arithmetic_eval,
    _generated,
    _indent,
    _outside_domain,
    _seeded,
    _set,
    _splice,
    _tuple_new,
    BUILTIN_MEANS,
    BracketError,
    ConvergenceError,
    DomainError,
    Interval,
    InvalidMeanError,
    MeanFunction,
    DEFAULT_SEED,
    check_window,
    common_domain,
    default_window,
    make_arithmetic,
    make_geometric,
    make_harmonic,
    sample_pairs,
)
from .algebra import group_inverse, group_symmetry, random_normal_mean
from .metric import distance

__all__ = [
    "TraceStep",
    "IterationTrace",
    "CompoundMean",
    "CoincidenceResult",
    "CounterexampleResult",
    "functional_symmetric",
    "functional_symmetric_mean",
    "sigma_closed_form",
    "compound",
    "compound_trace",
    "make_agm",
    "m_arithmetic",
    "agm_fixed_point_check",
    "coincidence_probe",
    "counterexample_check",
]

DEFAULT_TOLERANCE = 1e-13
DEFAULT_MAX_ITERATIONS = 200
COUNTEREXAMPLE_WINDOW = Interval.closed(1e-6, 1e6)  # counterexample_check's distance window

# Grid of the operand distance estimated by compound_trace.
_DISTANCE_GRID = 48
_P_LO, _P_HI = _PLAIN_NAMES["plain_lo"], _PLAIN_NAMES["plain_hi"]  # P's side


class TraceStep(_Record):
    n: int
    x: float
    y: float
    gap: float


class IterationTrace(_Record):
    """Per-step record of a coupled mean iteration.

    Gaps are non-increasing (the min/max envelope of the iterates
    contracts). ``limit`` is the midpoint of the final bracket. Its
    half-width bounds the error of the exact iterates only: how far the
    float iterates drift from them by rounding is not bounded.
    ``k_estimate`` is a grid lower bound on the operands' distance
    d(m1, m2), or the start's difference quotient where that is larger, and
    None where unknown. It is not an upper bound on the contraction factor,
    so no envelope gap(n) <= k^n * gap(0) rests on it: a proven envelope
    waits for an upper bound on d, which the package does not compute yet.
    """

    steps: tuple[TraceStep, ...]
    converged: bool
    limit: float
    iterations_used: int
    k_estimate: float | None = None


class CompoundMean(MeanFunction):
    """The unique mean fixed by M(M1, M2) = M, evaluated by iteration.

    Substitutable for a MeanFunction everywhere. ``guaranteed_by`` names the
    theorem that makes the iteration converge: "distance" (``d_upper``, an upper
    bound on d(m1, m2), is below 1), "continuity" (both operands are declared
    continuous) or None; ``d_upper`` is None when no theorem bounds d(m1, m2).
    The operands ``m1`` and ``m2`` are keyword-only. The fields, in order, are
    those of ``MeanFunction``, then ``m1``, ``m2``, ``tolerance``,
    ``max_iterations``, ``d_upper`` and ``guaranteed_by``.

    Calling the compound calls the function in its slot ``__call__``, which is not
    a field, with no Python frame in between. A kernel that declares
    ``fn.checks == domain`` (``_compound_kernel``), called with ``owner``, the
    compound, runs a start in the plain box P that lies in the open domain
    itself, and hands any other start to ``MeanFunction.__call__`` of ``owner``;
    the slot holds a copy of that kernel whose ``owner`` defaults to this
    compound, so an evaluation from such a start enters one frame. Any other
    kernel gets ``MeanFunction.__call__`` bound to the compound.
    """

    __slots__ = ("m1", "m2", "tolerance", "max_iterations", "d_upper", "guaranteed_by",
                 "__call__")
    _baked = MeanFunction._baked + ("m1", "m2", "tolerance", "max_iterations")
    _kind = "compound"

    def __init__(self, name: str, domain: Interval, fn: Callable[[float, float], float],
                 is_monotone: bool | None = None, is_continuous: bool | None = None,
                 tolerance: float = DEFAULT_TOLERANCE,
                 max_iterations: int = DEFAULT_MAX_ITERATIONS,
                 d_upper: float | None = None, guaranteed_by: str | None = None, *,
                 m1: MeanFunction, m2: MeanFunction):
        super().__init__(name, domain, fn, is_monotone, is_continuous, m1, m2, tolerance,
                         max_iterations, d_upper, guaranteed_by)
        if getattr(fn, "checks", None) == domain:
            call = types.FunctionType(fn.__code__, fn.__globals__, fn.__name__, None,
                                      fn.__closure__)
            call.__kwdefaults__ = {"owner": self}
        else:
            call = types.MethodType(MeanFunction.__call__, self)
        _set(self, "__call__", call)

    @property
    def guaranteed(self) -> bool:
        return self.guaranteed_by is not None


# The coupled iteration, written once and rendered twice: as each compound's kernel ``fn(x0,
# y0, *, owner=None)``, and as ``_trace_loop``, run by ``compound_trace`` and by a compound's
# call from a start outside the plain box P. Each splices its operands' kernels
# (``core._splice``): box forms from a start in P, checked blocks from any other, one call of a
# kernel with no block. The start is a pair of floats in the operands' common domain: the
# compound's call (its kernel, given ``owner``) and ``compound_trace`` check it. Each update
# lies inside the current [lo, hi] envelope by the mean axioms; clamping ({keep_x} and
# {keep_y}) removes half-ulp rounding drift, so the envelope is monotone in floating point too
# and every iterate stays in the domain, and in P where the start lies in P. A box loop takes
# the value of an operand that declares ``fn.between`` (``core._builtin_kernel``: A and G) as
# it is, since that value already lies in [lo, hi] at every point of P, and clamps every other
# operand's; a loop from any other start clamps both. For A, fl(lo + hi) lies in [2 lo, 2 hi]
# and halving is exact in P; for G, fl(x y) lies in [fl(lo lo), fl(hi hi)] and fl(sqrt(fl(a
# a))) = a where a a is normal, as it is for every a in P. The stop test {stop} is taken from
# that envelope, with gap = hi - lo. For a start anywhere (``_ANYWHERE``), ``gap <= tol *
# max(hi, -lo)`` is ``math.isclose(x(n), y(n), rel_tol=tol)`` written out. From a pair of
# opposite signs, which may converge to 0, the gap is also compared with tol * max(|x|, |y|) of
# the start plus 5e-324, and from any other pair with 5e-324 alone: that is the least gap two
# floats can have, and tol times a subnormal scale is less. For a start in P (``_IN_P``) the
# test is the gap against tol * hi alone, and the two forms are equal there: lo > 0, so
# max(hi, -lo) = hi; both coordinates are positive, so the floor is 5e-324; and two distinct
# floats in P differ by at least 2^-552, so a gap of at most 5e-324 is 0, where the P form
# stops too. The loop runs only while x(n) != y(n), off the diagonal. A NaN iterate makes the
# gap NaN, which stops neither form; it survives the clamp, and {probe} hands it to the checked
# ``m1``, which raises its DomainError. A loop in P leaves the probe out where both operands
# splice a block with an enclosure: such a block returns no NaN there, and only a kernel with
# no block may.
# The other slots: {start} opens the function, {floor} sets the floor the stop test reads,
# {done} ends the function at a pair that stops, and {exhausted} once max_iterations steps are
# taken; {first} and {second} set nx and ny from the iterates x and y, and {record} follows
# each step. The loop's own names are not those of any namespace value, so no local hides a
# block's.
_COMPOUND = """\
{start}x, y = x0, y0
{floor}n = 0
while True:
    if x < y:
        lo, hi = x, y
    else:
        lo, hi = y, x
    gap = hi - lo
    if {stop}:
{done}
    if n >= max_iterations:
{exhausted}
{probe}{first}
{second}
{keep_x}
{keep_y}
    n += 1{record}"""
# An iterate's clamp into the envelope, and what a box loop writes in its place for an operand
# that declares ``fn.between``.
_CLAMP = "    {0} = lo if n{0} < lo else hi if n{0} > hi else n{0}"
_BETWEEN = "    {0} = n{0}"
_PROBE = """\
    if gap != gap:
        m1(x, y)  # NaN: the checked call raises m1's DomainError
"""
# The stop test of a start anywhere, with its floor, and of a start in P.
_ANYWHERE = {
    "floor": "stop = tol * max(abs(x), abs(y)) + 5e-324 if x < 0.0 < y or y < 0.0 < x "
             "else 5e-324\n",
    "stop": "gap <= tol * (hi if hi > -lo else -lo) or gap <= stop"}
_IN_P = {"floor": "", "stop": "gap <= tol * hi"}
# The slots of the loops ``f(m1, m2, x0, y0, tol, max_iterations, steps) -> (converged, x, y,
# n)``, which append each step to ``steps`` as a TraceStep where ``steps`` is a list.
# ``tuple_new`` (``core._tuple_new``) builds each step as TraceStep's own ``__new__`` does on a
# full positional call, but with no Python frame.
_LOOP = {"start": "", "done": "        return True, x, y, n",
         "exhausted": "        return False, x, y, n",
         "record": "\n    if steps is not None:\n"
                   "        steps.append(tuple_new(TraceStep, (n, x, y, abs(x - y))))"}
_LOOP_NAMES = {"TraceStep": TraceStep, "tuple_new": _tuple_new}


def _operand_slots(f1: Callable, f2: Callable, box: bool, namespace: dict) -> dict:
    """The slots that run the kernels ``f1`` and ``f2`` (``core._splice``), whose names join
    ``namespace``. With ``box``: their box forms, which run only from a start in P, the P form
    of the stop test, the NaN probe only where a kernel splices no enclosure, and no clamp on
    the value of a kernel that declares ``fn.between``. Without: their checked blocks, the
    general stop test, the probe and both clamps. Either way a value that both splices compute
    is computed once (``_shared``)."""
    first, first_encloses = _splice(namespace, f1, "nx = ", box=box)
    second, second_encloses = _splice(namespace, f2, "ny = ", box=box)
    probe = "" if box and first_encloses and second_encloses else _PROBE
    keep = {f"keep_{v}": (_BETWEEN if box and getattr(f, "between", False) else _CLAMP).format(v)
            for v, f in (("x", f1), ("y", f2))}
    return {"first": _indent(first, 4), "second": _indent(_shared(first, second), 4),
            "probe": probe, **keep, **(_IN_P if box else _ANYWHERE)}


def _shared(first: str, second: str) -> str:
    """The splice ``second`` with each top-level statement ``N = R`` written ``N = nx``, where
    the splice ``first`` ends in ``nx = R`` with the same text R. The names R reads are its
    identifier tokens. A block binds a name past its statement only by ``name = value`` (a
    handler's ``exc`` is unbound as it ends); where such a statement of either splice assigns
    a name R reads, ``second`` is returned as it is. Otherwise nothing between ``nx = R`` and
    a statement of ``second`` assigns a name R reads, so R gives nx's value again. A token
    that is no name (an attribute, a keyword, a word of a string literal) can only keep a
    value from being shared."""
    value = first.rpartition("\nnx = ")[2]
    reads = "".join(c if c.isalnum() or c == "_" else " " for c in value).split()
    lines = second.split("\n")
    assigned = {line.partition(" = ")[0].strip() for line in first.split("\n") + lines}
    if value not in second or not assigned.isdisjoint(reads):
        return second
    return "\n".join(f"{name} = nx" if rest == value and name.isidentifier() else line
                     for line in lines for name, _, rest in [line.partition(" = ")])


@functools.lru_cache(maxsize=8)
def _trace_loop(f1: Callable, f2: Callable, box: bool) -> Callable[..., tuple]:
    """The loop ``f(m1, m2, x0, y0, tol, max_iterations, steps) -> (converged, x, y, n)`` of
    the kernels ``f1`` and ``f2``, spliced as ``_operand_slots`` gives them: with ``box`` it
    runs only from a start in P. ``compound_trace`` hands it a list that holds the start, and
    a compound's call from a start outside P hands it None. Generated on first use; the last
    eight are kept."""
    namespace = dict(_LOOP_NAMES)
    return _generated("m1, m2, x0, y0, tol, max_iterations, steps", _COMPOUND.format(
        **_LOOP, **_operand_slots(f1, f2, box, namespace)), namespace, "<trace>")


def _compound_kernel(m1: MeanFunction, m2: MeanFunction, dom: Interval, tol: float,
                     max_iter: int) -> Callable[[float, float], float]:
    """The kernel ``fn(x0, y0, *, owner=None)`` of compound(m1, m2) on ``dom``, generated
    from ``_COMPOUND``.

    The start becomes a pair of floats, as the checked call makes it. From a start in the
    plain box P that lies in the open interval of ``dom`` too, the loop runs the box forms of
    the operands' kernels and of A's for the midpoint (``core._splice``) under the P form of
    the stop test, so a step calls no kernel that has a block and runs no check that cannot
    fire in P; the NaN probe is left out where both operands splice an enclosure. On the
    diagonal the loop stops at once and returns (x + x) / 2, which is x there. Any other
    start goes to ``outside``. Given ``owner``, the compound that holds the kernel, it returns
    ``MeanFunction.__call__(owner, x0, y0)``: a start outside ``dom`` raises the domain error
    that names ``owner``, one on the diagonal returns x0, and any other calls the kernel
    again with no owner. With no owner it runs
    ``_trace_loop`` of the operands' checked blocks, which records nothing; the kernel fetches
    that loop on its first such start and keeps it. A start that runs out of iterations goes
    to ``compound_trace``, which raises its ConvergenceError. The kernel declares
    ``fn.checks = dom``, by which ``CompoundMean`` knows that it runs the checked call.
    """
    exhausted = functools.partial(compound_trace, m1, m2, tolerance=tol,
                                  max_iterations=max_iter, estimate_contraction=False)
    outside_loop = functools.cache(functools.partial(_trace_loop, m1.fn, m2.fn, False))

    def outside(x0: float, y0: float, owner: CompoundMean | None) -> float:
        if owner is not None:
            return MeanFunction.__call__(owner, x0, y0)
        converged, x, y, _ = outside_loop()(m1, m2, x0, y0, tol, max_iter, None)
        if not converged:
            exhausted(x0, y0)
        return _arithmetic_eval(x, y)

    namespace = {"tol": tol, "max_iterations": max_iter, "exhausted": exhausted, "m1": m1,
                 "outside": outside, "start_lo": max(_P_LO, dom.lo),
                 "start_hi": min(_P_HI, dom.hi)}
    slots = _operand_slots(m1.fn, m2.fn, True, namespace)
    done, _ = _splice(namespace, _arithmetic_eval, "return ", box=True)
    body = _COMPOUND.format(
        start="x0 = float(x0)\ny0 = float(y0)\n"
              "if not (start_lo < x0 < start_hi and start_lo < y0 < start_hi):\n"
              "    return outside(x0, y0, owner)\n",
        done=_indent(done, 8), exhausted="        exhausted(x0, y0)", record="", **slots)
    fn = _generated("x0, y0, *, owner=None", body, namespace, "<compound>")
    fn.checks = dom
    return fn


def compound(m1: MeanFunction, m2: MeanFunction,
             tolerance: float = DEFAULT_TOLERANCE,
             max_iterations: int = DEFAULT_MAX_ITERATIONS) -> CompoundMean:
    """Compound mean of m1 and m2, built without sampling anything.

    Convergence is guaranteed by continuity when both operands are declared
    continuous, and otherwise not known (``guaranteed_by=None``): a sampled
    distance is a lower bound and cannot show d(m1, m2) < 1. The compound of
    continuous means is declared continuous, so nesting keeps that route: the
    gap |x_n - y_n| is a non-increasing sequence of continuous functions of the
    start that tends to 0 pointwise, so by Dini's theorem uniformly on compacts;
    the limit lies within that gap of x_n, so it is a uniform limit of
    continuous functions, and therefore continuous.
    Evaluation runs the coupled iteration of ``_COMPOUND`` to its stop test and
    returns the midpoint of the last pair; running out of iterations raises
    ConvergenceError with the trace.
    """
    max_iterations = _check_iteration(tolerance, max_iterations)
    dom = common_domain(m1.domain, m2.domain)
    guaranteed_by = _guarantee(m1, m2)
    return CompoundMean(
        name=f"mid({m1.name},{m2.name})", domain=dom,
        fn=_compound_kernel(m1, m2, dom, tolerance, max_iterations),
        is_monotone=None, is_continuous=True if guaranteed_by else None,
        m1=m1, m2=m2, tolerance=tolerance, max_iterations=max_iterations,
        guaranteed_by=guaranteed_by)


def _check_iteration(tolerance: float, max_iterations: int) -> int:
    """Refuse a tolerance that is NaN, infinite or negative, a ``max_iterations`` that is
    not an integer (TypeError) and fewer than 0 iterations; return ``max_iterations``."""
    _check_tolerance("tolerance", tolerance)
    max_iterations = operator.index(max_iterations)
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be non-negative, got {max_iterations}")
    return max_iterations


def _check_tolerance(name: str, value: float) -> None:
    """Refuse a relative tolerance ``name`` that is NaN, infinite or negative."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {value}")


def _guarantee(m1: MeanFunction, m2: MeanFunction) -> str | None:
    """``guaranteed_by`` of compound(m1, m2), known without building its kernel."""
    return "continuity" if m1.is_continuous and m2.is_continuous else None


# (guaranteed_by, d_upper) of every m_arithmetic: each mean lies within 1/2 of A
_ARITHMETIC_GUARANTEE = ("distance", 0.5)


def compound_trace(m1: MeanFunction, m2: MeanFunction, x: float, y: float,
                   tolerance: float = DEFAULT_TOLERANCE,
                   max_iterations: int = DEFAULT_MAX_ITERATIONS, *,
                   estimate_contraction: bool = True) -> IterationTrace:
    """Full per-step trace of the coupled iteration started at (x, y).

    With ``estimate_contraction``, k is a grid lower bound on the distance
    of the operands over the default window, or the difference quotient
    |M1 - M2| / |x - y| at the starting point if that is larger; both are
    attained values, so k is at most the true distance, up to rounding. A
    proven envelope gap(n) <= d^n * gap(0) waits for an upper bound on d.
    Where an operand raises DomainError or InvalidMeanError on the grid, as a
    parsed mean on R may away from the start, or BracketError, as a σ may where
    a mean rounds its root past an end by more than g's rounding, ``k_estimate``
    is None: unknown, as for the flags of a mean.
    A start outside the domain raises the compound's own DomainError, and
    non-convergence a ConvergenceError carrying the partial trace; this is the
    one place that error is raised, for the compound's call too.
    The iteration runs ``_trace_loop`` of the operands' kernels: from a start
    in the plain box P their box forms, as the compound's kernel does, and from
    any other start their checked blocks, as the compound's call does. The
    first trace of a pair of kernels from either kind of start compiles its loop.
    """
    max_iterations = _check_iteration(tolerance, max_iterations)
    dom = common_domain(m1.domain, m2.domain)
    x, y = float(x), float(y)
    if not (dom.contains(x) and dom.contains(y)):
        raise _outside_domain(x, y, dom, f"mid({m1.name},{m2.name})")
    run = _trace_loop(m1.fn, m2.fn, _P_LO < x < _P_HI and _P_LO < y < _P_HI)
    # the start's step and the trace are built as the loop builds each step
    steps = [_tuple_new(TraceStep, (0, x, y, abs(x - y)))]
    converged, xn, yn, n = run(m1, m2, x, y, tolerance, max_iterations, steps)

    k = None
    if estimate_contraction:
        try:
            k = distance(m1, m2, default_window(dom), _DISTANCE_GRID).value
        except (DomainError, InvalidMeanError, BracketError):
            pass  # an operand faults on the grid, so k is unknown
    if k is not None and x != y:
        k = max(k, abs(m1(x, y) - m2(x, y)) / abs(x - y))

    trace = _tuple_new(IterationTrace, (tuple(steps), converged, _arithmetic_eval(xn, yn), n, k))
    if not converged:
        raise ConvergenceError(
            f"compound({m1.name},{m2.name}) did not converge at ({x}, {y}) "
            f"within {max_iterations} iterations (gap {abs(xn - yn):.3e})", trace)
    return trace


def make_agm(tolerance: float = DEFAULT_TOLERANCE,
             max_iterations: int = DEFAULT_MAX_ITERATIONS) -> CompoundMean:
    """The classical AGM: compound of the arithmetic and geometric means."""
    agm = m_arithmetic(make_geometric(), tolerance, max_iterations)
    return agm.replace(name="AGM", is_monotone=True)


def m_arithmetic(frak_m: MeanFunction, tolerance: float = DEFAULT_TOLERANCE,
                 max_iterations: int = DEFAULT_MAX_ITERATIONS) -> CompoundMean:
    """Compound of the arithmetic mean with ``frak_m``.

    Always applicable: every mean is within distance 1/2 of A, so the
    coupled iteration contracts with factor below 1.
    """
    guaranteed_by, d_upper = _ARITHMETIC_GUARANTEE
    return compound(make_arithmetic(), frak_m, tolerance, max_iterations).replace(
        d_upper=d_upper, guaranteed_by=guaranteed_by)


def functional_symmetric(m0: MeanFunction, m1: MeanFunction, x: float, y: float) -> float:
    """The value t with m0(m1(x, y), t) = m0(x, y), solved on [min, max].

    Requires m0 to be declared monotone (is_monotone=True): monotonicity
    both guarantees the root is unique and puts it inside the bracket
    [min(x,y), max(x,y)]. The root is found by bisection until the bracket's
    ends are adjacent floats, so that its midpoint rounds to one of them, and
    that end is returned. Each step replaces one end with a float strictly
    between them, so a bracket that spans the whole float range takes at
    most about 2100 steps. Where g = m0(a, t) - m0(x, y) has no sign change
    over the bracket but one end's |g| lies within g's rounding there
    (``_within_rounding``), that end is returned (the one with the smaller |g|,
    lo on a tie); any other missing sign change raises BracketError with the
    endpoint values. A point outside a domain, on the diagonal too, raises
    DomainError.
    """
    if m0.is_monotone is not True:
        raise ValueError(f"{m0.name} is not declared monotone (is_monotone=True required)")
    x, y = float(x), float(y)
    target = m0(x, y)
    a = m1(x, y)  # both checked calls come first, so the diagonal is checked too
    if x == y:
        return x
    lo, hi = min(x, y), max(x, y)
    # the one checked call with a; every later finite t lies in [lo, hi], inside m0's domain
    g_lo = m0(a, lo) - target
    a, kernel = float(a), m0.fn

    def g(t: float) -> float:
        # the checked call's value a on the diagonal, where t is a itself
        return (a if t == a else kernel(a, t)) - target

    g_hi = g(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if (g_lo > 0.0) == (g_hi > 0.0):
        # an end within g's rounding is a root that rounding moved past it: the nearer end,
        # lo on a tie
        if _within_rounding(g_lo, target) and not abs(g_hi) < abs(g_lo):
            return lo
        if _within_rounding(g_hi, target):
            return hi
        raise BracketError(
            f"no sign change for the functional symmetric of {m1.name} with respect to "
            f"{m0.name} on [{lo}, {hi}]: endpoints {g_lo:.6e}, {g_hi:.6e}")

    increasing = g_hi > 0.0
    while lo < (mid := _arithmetic_eval(lo, hi)) < hi:
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm > 0.0) == increasing:
            hi = mid
        else:
            lo = mid
    return mid


def _within_rounding(g: float, target: float) -> bool:
    """Whether g = m0(a, t) - target is within the rounding of its two m0 values.

    Where each lies within one ulp of its exact value, the exact g lies within
    ulp(m0(a, t)) + ulp(target) of g; within that, the exact g may have either
    sign, so the root may lie at t. A value a of m1 that rounds past the bracket
    moves m0(a, t) by about as much for the means of the package (half an ulp for
    G, whose square root halves a's error). A larger error of either mean is no
    root and raises BracketError.
    """
    return abs(g) <= math.ulp(target + g) + math.ulp(target) < math.inf


def functional_symmetric_mean(m0: MeanFunction, m1: MeanFunction) -> MeanFunction:
    """The functional symmetric of m1 with respect to m0, as a mean."""
    dom = common_domain(m0.domain, m1.domain)
    return MeanFunction(
        f"sigma[{m0.name}]({m1.name})", dom,
        lambda x, y: functional_symmetric(m0, m1, x, y))


def sigma_closed_form(which: str, m: MeanFunction) -> MeanFunction:
    """Closed-form functional symmetric with respect to A, G or H.

    For these three the functional symmetric equals the group reflection
    through the same mean (x + y - M, xy/M and xyM/((x+y)M - xy)), so the
    result is ``group_symmetry`` with the built-in as m0. The domain of
    ``m`` must lie inside the domain of that built-in: (0, inf) for G and H.
    """
    if which not in BUILTIN_MEANS:
        raise ValueError(f"unknown closed form {which!r}; expected 'A', 'G' or 'H'")
    base = BUILTIN_MEANS[which]()
    if not base.domain.contains_interval(m.domain):
        raise DomainError(f"sigma with respect to {which} needs a domain within "
                          f"{base.domain}, got {m.domain}")
    return group_symmetry(base, m).replace(name=f"sigma[{which}]({m.name})")


# the AGM of every agm_fixed_point_check, built on the first: each build compiles a kernel
_agm = functools.cache(make_agm)


def agm_fixed_point_check(x: float, y: float, tolerance: float = 1e-10) -> bool:
    """Whether AGM(A(x,y), G(x,y)) equals AGM(x,y) to a relative tolerance.

    The coupled iteration started from (A(x,y), G(x,y)) is the original
    one shifted by a step, so equality is exact in real arithmetic. A point
    outside (0, inf) raises the AGM's DomainError; then a ``tolerance`` that
    is NaN, infinite or negative raises ValueError, as a compound's does.
    """
    agm = _agm()
    reference = agm(x, y)
    _check_tolerance("tolerance", tolerance)
    a = make_arithmetic()
    g = make_geometric()
    shifted = agm(a(x, y), g(x, y))
    return math.isclose(shifted, reference, rel_tol=tolerance)


def _probe_family(seed: int) -> list[MeanFunction]:
    rng = _seeded(seed)
    family = [make_arithmetic(), make_geometric(), make_harmonic()]
    family += [random_normal_mean(rng) for _ in range(2)]
    return family


class CoincidenceResult(_Record):
    max_discrepancy: float
    worst_point: tuple[float, float]


def coincidence_probe(m: MeanFunction, window: Interval, samples: int,
                      seed: int = DEFAULT_SEED) -> CoincidenceResult:
    """Largest observed gap between the two reflections through ``m``.

    For test means T drawn from a fixed family (A, G, H and seeded normal
    means), compares the group reflection S_m(T) with the functional
    symmetric of T with respect to m on sampled points. Purely
    exploratory: a small discrepancy suggests the two symmetries agree
    for m, it proves nothing. The window is checked once for ``m`` and every
    test mean (``core.check_window``), and the samples go to the reflections'
    kernels; ``min_gap`` keeps them off the diagonal.
    """
    if m.is_monotone is not True:
        raise ValueError(f"{m.name} must be declared monotone for the functional solve")
    family = _probe_family(seed)
    check_window(window, (m.domain, m.name), *[(t.domain, t.name) for t in family])
    worst = 0.0
    worst_point = (window.lo, window.hi)
    pairs = sample_pairs(window, samples, seed, min_gap=1e-9)
    for test_mean in family:
        reflected = group_symmetry(m, test_mean).fn
        for x, y in pairs:
            s_val = reflected(x, y)
            f_val = functional_symmetric(m, test_mean, x, y)
            gap = abs(s_val - f_val)
            if gap > worst:
                worst = gap
                worst_point = (x, y)
    return CoincidenceResult(worst, worst_point)


class CounterexampleResult(_Record):
    d_estimate: float
    compound_is_A: bool


def counterexample_check(window: Interval | None = None, grid: int = 64,
                         samples: int = 100, seed: int = DEFAULT_SEED) -> CounterexampleResult:
    """Compound of a pair at the extreme distance 1 still converges, to A.

    The pair is G and its group inverse x + y - sqrt(xy): their distance
    estimate approaches 1 on wide windows (they sit diametrically opposed
    on the border), yet the coupled iteration preserves x + y and so
    converges to the arithmetic mean. Checks the limit against A on
    seeded sample pairs at relative tolerance 1e-9.
    """
    g = make_geometric()
    partner = group_inverse(g)
    win = window or COUNTEREXAMPLE_WINDOW
    d_est = distance(g, partner, win, grid).value
    c, a = compound(g, partner), make_arithmetic()
    is_a = all(math.isclose(c(x, y), a(x, y), rel_tol=1e-9)
               for x, y in sample_pairs(Interval.closed(0.1, 10.0), samples, seed))
    return CounterexampleResult(d_est, is_a)
