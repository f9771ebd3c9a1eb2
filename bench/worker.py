"""Worker process of the meanscape benchmark; started by run.py.

Reads one JSON request line on stdin, imports meanscape from the checkout's
``src`` and builds the workload's means, prints ``READY`` (run.py times
set-up up to that line), then, unless the mode is ``setup``, runs the
closed loop for the requested seconds, checks every output and prints one
JSON line with the raw samples. In ``trace`` mode every call the worker
makes into the library is wrapped in a span, and a probe of each layer's
public functions runs after the loop.
"""

from __future__ import annotations

import functools
import json
import math
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
CLI_ENTRY = "import sys; from meanscape.cli import main; sys.exit(main())"
D_GH = math.sqrt((5.0 * math.sqrt(5.0) - 11.0) / 8.0)
ESTIMATE_TOL = 1e-12     # distance values lie in [0, 1]; absolute tolerance
WINDOW_ULPS = 4 * sys.float_info.epsilon
MAX_FAILURE_RECORDS = 50
REFERENCE_EVERY = 32     # compound batches between reference timings


class Tracer:
    """Spans (name, start, end, parent span, operation id) kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.op: array = array("i")
        self.stack = [-1]
        self.op_id = 0

    def wrap(self, name: str, fn, operation: bool = False):
        """``fn`` with a span around every call; ``operation`` starts a new id."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)

        def traced(*args, **kwargs):
            if operation:
                self.op_id += 1
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1])
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(i)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[i] = t0
                self.end[i] = t1

        return traced

    def durations(self, name: str) -> list[float]:
        import numpy as np
        mine = np.frombuffer(self.name_id, dtype=np.int32) == self.names.index(name)
        return list(np.frombuffer(self.end)[mine] - np.frombuffer(self.start)[mine])

    def self_time_by_layer(self, first: int, last: int) -> dict[str, float]:
        """Sum of span self times (duration minus direct children) per layer,
        over spans first..last-1; a layer is the name's prefix before '.'."""
        import numpy as np
        dur = np.frombuffer(self.end, dtype=float)[first:last] - \
            np.frombuffer(self.start, dtype=float)[first:last]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:last] - first
        inside = parent >= 0
        own = dur - np.bincount(parent[inside], weights=dur[inside], minlength=len(dur))
        layers: dict[str, float] = {}
        for nid, t in zip(np.frombuffer(self.name_id, dtype=np.int32)[first:last], own):
            layer = self.names[nid].split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + float(t)
        return layers

    def save(self, path: str) -> None:
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, np.int32), op=np.frombuffer(self.op, np.int32))


class NoTrace:
    """Tracing off: calls go straight to the library."""

    def wrap(self, name, fn, operation=False):
        return fn


class Checks:
    """Counts attempted operations and failures, keeping the first causes."""

    def __init__(self, skew: float):
        self.skew = skew          # non-zero only in the harness self-check
        self.attempted = 0
        self.failed = 0
        self.records: list[str] = []

    def ref(self, value: float) -> float:
        return value * (1.0 + self.skew)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.records) < MAX_FAILURE_RECORDS:
            self.records.append(what)

    def off(self, got: float, want: float, tol: float) -> str | None:
        """Why ``got`` is not within ``tol`` of the reference, or None."""
        ref = self.ref(want)
        if abs(got - ref) <= tol:
            return None
        return f"got {got!r}, reference {ref!r}, tolerance {tol:g}"

    def close(self, what: str, got: float, want: float, tol: float) -> None:
        why = self.off(got, want, tol)
        if why:
            self.fail(f"{what}: {why}")


def _logistic(f: float) -> float:
    if f >= 0.0:
        t = math.exp(-f)
        return t / (1.0 + t)
    return 1.0 / (1.0 + math.exp(f))


def _d_ag(window) -> float:
    """Closed form of d(A, G) over [lo, hi]: (sqrt(r) - 1) / (2 (sqrt(r) + 1))."""
    s = math.sqrt(window[1] / window[0])
    return (s - 1.0) / (2.0 * (s + 1.0))


def _agm(x: float, y: float) -> float:
    import mpmath
    with mpmath.workdps(40):
        return float(mpmath.agm(x, y))


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _cycles(seconds: float, cycle) -> float:
    """Run whole cycles until ``seconds`` have passed; return the wall time."""
    t0 = perf_counter()
    cycle()
    while perf_counter() - t0 < seconds:
        cycle()
    return perf_counter() - t0


# -------------------------------------------------------------- workloads

class Workload:
    """A closed loop of operations; subclasses fill runs or batch times."""

    ref = None          # reference task timed around operations (speed.py)
    scales: list[float]

    def labels(self) -> list[str] | None:
        return None

    def stderr(self) -> dict | None:
        return None

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class CliMix(Workload):
    """One client running CLI subprocesses one at a time, through the
    console-script target meanscape.cli:main with PYTHONPATH=src."""

    def __init__(self, ms, manifest: dict, tracer, chk: Checks):
        self.commands = manifest["commands"]
        self.tracer = tracer
        self.chk = chk
        mean = tracer.wrap("expressions.mean_from_source", ms.mean_from_source)
        weight = tracer.wrap("expressions.weight_from_source", ms.weight_from_source)
        # set-up builds every expression the commands use, as the CLI will
        self.means = []
        for cmd in self.commands:
            argv = cmd["argv"]
            for flag, value in zip(argv, argv[1:]):
                if flag in ("--mean", "--m0", "--m1", "--m2"):
                    self.means.append(mean(value).mean)
                elif flag in ("--p1", "--p2"):
                    self.means.append(weight(value))
        self.runs: list[tuple[int, float, int, str, str]] = []
        self.scales: list[float] = []
        self.ref = speed.ProcessReference(ROOT)

    def _run(self, argv):
        return subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)

    def loop(self, seconds: float) -> float:
        run = self.tracer.wrap("cli.process", self._run)
        op = self.tracer.wrap("bench.cli_command", lambda argv: run(argv), operation=True)

        before = self.ref.sample()

        def cycle():
            nonlocal before
            for i, cmd in enumerate(self.commands):
                t0 = perf_counter()
                proc = op(cmd["argv"])
                t1 = perf_counter()
                after = self.ref.sample()
                self.runs.append((i, t1 - t0, proc.returncode, proc.stdout, proc.stderr))
                self.scales.append(self.ref.scale(before, after))
                before = after

        return _cycles(seconds, cycle)

    def durations(self) -> list[float]:
        return [r[1] for r in self.runs]

    def work_units(self) -> int:
        return len(self.runs)

    def labels(self) -> list[str]:
        return [self.commands[r[0]]["argv"][0] for r in self.runs]

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def stderr(self) -> dict:
        """Last lines of stderr per command; recorded, not counted as failures."""
        return {self.commands[i]["argv"][0]: err[-500:] for i, _, _, _, err in self.runs if err}

    def check(self) -> None:
        chk = self.chk
        first: dict[int, str] = {}
        for i, _, code, out, _ in self.runs:
            cmd = self.commands[i]
            what = " ".join(cmd["argv"])
            chk.attempted += 1
            if code != 0:
                chk.fail(f"{what}: exit code {code}")
                continue
            if first.setdefault(i, out) != out:
                chk.fail(f"{what}: stdout differs from the first run of the same argv")
                continue
            try:
                self._check_payload(cmd, json.loads(out)["payload"], chk, what)
            except (ValueError, KeyError, TypeError) as exc:
                chk.fail(f"{what}: unreadable output ({_error(exc)})")

    @staticmethod
    def _check_payload(cmd: dict, p: dict, chk: Checks, what: str) -> None:
        kind = cmd["check"]
        if "at" in p:
            x, y = p["at"]
            if kind != "agm" and not min(x, y) <= p["value"] <= max(x, y):
                chk.fail(f"{what}: value {p['value']!r} is not between {x} and {y}")
                return
        if kind == "power_value":
            r = cmd["exponent"]
            want = ((x ** r + y ** r) / 2.0) ** (1.0 / r)
            chk.close(what, p["value"], want, 1e-12 * max(1.0, abs(want)))
        elif kind == "sigma_g":
            # the functional symmetric with respect to G is xy / M
            q = cmd["exponent"]
            lehmer = (x ** q + y ** q) / (x ** (q - 1.0) + y ** (q - 1.0))
            chk.close(what, p["value"], x * y / lehmer, 1e-10 * max(1.0, x, y))
        elif kind == "agm":
            want = _agm(x, y)
            chk.close(what, p["value"], want, 1e-12 * max(1.0, want))
        elif kind == "d_ag":
            chk.close(what, p["value"], _d_ag(p["window"]), ESTIMATE_TOL)
        elif kind == "d_gh":
            chk.close(what, p["value"], D_GH, ESTIMATE_TOL)
        elif kind == "relation":
            if p["relation"] not in ("<=", "<", ">=", ">", "==", "incomparable"):
                chk.fail(f"{what}: unknown relation {p['relation']!r}")
        elif kind == "axioms":
            if not (p["axiom_i_ok"] and p["axiom_ii_ok"] and p["axiom_iii_ok"]):
                chk.fail(f"{what}: a power mean failed the axiom sampler: "
                         f"{p['counterexamples'][:3]}")
        elif kind == "coincide":
            # the two symmetries through G coincide; bisection tolerance is
            # 1e-12 * max(1, |x|, |y|) on [0.1, 10]
            chk.close(what, p["max_discrepancy"], 0.0, 1e-10)
        elif kind == "counterexample":
            if p["compound_is_A"] is not True or not 0.0 < p["d_estimate"] <= 1.0:
                chk.fail(f"{what}: compound_is_A={p['compound_is_A']}, "
                         f"d_estimate={p['d_estimate']!r}")


class DistanceGrid(Workload):
    """distance, distance_via_phi and distance_to_arithmetic at grid 512, on
    homogeneous parsed means and on weighted normal means.

    Calls last seconds, and a reference timed before and after them tracked
    their speed worse than none (see speed.py), so the timings stay raw."""

    def __init__(self, ms, manifest: dict, tracer, chk: Checks):
        self.ms = ms
        self.tracer = tracer
        self.chk = chk
        mean = tracer.wrap("expressions.mean_from_source", ms.mean_from_source)
        weight = tracer.wrap("expressions.weight_from_source", ms.weight_from_source)
        normal = tracer.wrap("algebra.make_normal_mean", ms.make_normal_mean)
        self.ops = []
        for spec in manifest["ops"]:
            if "m1" in spec:
                means = [mean(spec[k]).mean for k in ("m1", "m2") if k in spec]
            else:
                means = [normal(weight(spec[k])) for k in ("w1", "w2") if k in spec]
            fn = getattr(ms, spec["fn"])
            self.ops.append((spec, means, ms.Interval.closed(*spec["window"]),
                             tracer.wrap(f"metric.{spec['fn']}", fn)))
        self.runs: list[tuple[int, float, object]] = []
        self.scales: list[float] = []

    def loop(self, seconds: float) -> float:
        def call(i):
            spec, means, window, fn = self.ops[i]
            return fn(*means, window, spec["grid"])

        op = self.tracer.wrap("bench.distance_call", call, operation=True)

        def cycle():
            for i in range(len(self.ops)):
                t0 = perf_counter()
                try:
                    est = op(i)
                except Exception as exc:  # counted as a failed operation
                    est = exc
                self.runs.append((i, perf_counter() - t0, est))
                self.scales.append(1.0)

        return _cycles(seconds, cycle)

    def durations(self) -> list[float]:
        return [r[1] for r in self.runs]

    def work_units(self) -> int:
        return len(self.runs)

    def labels(self) -> list[str]:
        return [f"{i}:{self.ops[i][0]['fn']}" for i, _, _ in self.runs]

    def _references(self, spec, means, est):
        """(label, reference) pairs the estimated value must match."""
        x, y = est.argmax
        if spec["fn"] == "distance":
            m1, m2 = means
            again = (m1(x, y) - m2(x, y)) / (x - y)
        elif spec["fn"] == "distance_via_phi":
            f1, f2 = (self.ms.phi(m) for m in means)
            again = _logistic(f2(x, y)) - _logistic(f1(x, y))
        else:
            s = self.ms.phi(means[0])(x, y)
            again = 0.5 if s > 700.0 else 0.5 * math.tanh(0.5 * s)
        yield f"re-evaluated at argmax {est.argmax}", again
        if spec.get("check") == "d_ag":
            yield "closed form d(A,G)", _d_ag(spec["window"])
        elif spec.get("check") == "d_gh":
            yield "closed form d(G,H)", D_GH

    def check(self) -> None:
        chk = self.chk
        first = {}
        for i, _, est in self.runs:
            spec, means, _, _ = self.ops[i]
            what = f"{spec['fn']}({', '.join(m.name for m in means)}) on {spec['window']}"
            chk.attempted += 1
            if isinstance(est, Exception):
                chk.fail(f"{what}: {_error(est)}")
                continue
            key = (est.value, est.argmax)
            if first.setdefault(i, key) != key:
                chk.fail(f"{what}: result differs from the first call with the same inputs")
                continue
            x, y = est.argmax
            # the refinement works in log coordinates, so exp(log(lo)) may
            # land a few ulps outside the window
            lo, hi = (b * (1.0 + s * WINDOW_ULPS) for b, s in zip(spec["window"], (-1, 1)))
            if not (0.0 <= est.value <= 1.0 and lo <= x <= hi and lo <= y <= hi and x != y):
                chk.fail(f"{what}: value {est.value!r} at {est.argmax} is out of range")
                continue
            reasons = [f"{label}: {why}" for label, want in self._references(spec, means, est)
                       if (why := chk.off(est.value, want, ESTIMATE_TOL))]
            if reasons:
                chk.fail(f"{what}: " + "; ".join(reasons))


class CompoundIter(Workload):
    """Compound means built in set-up, evaluated point by point in batches."""

    def __init__(self, ms, manifest: dict, tracer, chk: Checks):
        mean = tracer.wrap("expressions.mean_from_source", ms.mean_from_source)
        compound = tracer.wrap("middle.compound", ms.compound)
        a, g = ms.make_arithmetic(), ms.make_geometric()
        normal = ms.make_normal_mean(ms.weight_from_source(manifest["weight"]))
        self.compounds = [
            ("agm", compound(a, g)),
            ("agm", compound(mean("(x+y)/2").mean, mean("sqrt(x*y)").mean)),
            ("arithmetic", compound(g, ms.group_inverse(g))),
            ("between", compound(mean(manifest["power"]).mean, normal)),
        ]
        self.evals = [tracer.wrap("middle.compound_eval", c) for _, c in self.compounds]
        trace = tracer.wrap("middle.compound_trace", ms.compound_trace)
        self.traces = [lambda x, y, c=c: trace(c.m1, c.m2, x, y, estimate_contraction=False)
                       for _, c in self.compounds]
        self.tracer = tracer
        self.chk = chk
        self.points = [tuple(p) for p in manifest["points"]]
        self.batch = manifest["batch_points"]
        n = len(self.points)
        # first value per (compound, point) and how often it was evaluated;
        # a repeat must give the same value, and the oracle checks the first
        self.value = [[None] * n for _ in self.compounds]
        self.count = [[0] * n for _ in self.compounds]
        self.batch_s: list[float] = []
        self.scales: list[float] = []
        self.ref = speed.ComputeReference()

    def loop(self, seconds: float) -> float:
        pts, size, n = self.points, self.batch, len(self.points)
        out = [0.0] * (len(self.compounds) * size)

        def batch(start):
            k = 0
            traces = []
            for ev, tr in zip(self.evals, self.traces):
                for i in range(start, start + size):
                    x, y = pts[i % n]
                    try:
                        out[k] = ev(x, y)
                    except Exception as exc:  # counted as a failed evaluation
                        out[k] = exc
                    k += 1
                try:
                    traces.append(tr(*pts[start % n]))
                except Exception as exc:
                    traces.append(exc)
            return traces

        op = self.tracer.wrap("bench.compound_batch", batch, operation=True)
        t0 = perf_counter()
        start = 0
        before = self.ref.sample()
        while True:
            b0 = perf_counter()
            traces = op(start)
            self.batch_s.append(perf_counter() - b0)
            self._record(start, out, traces)
            start = (start + size) % n
            done = perf_counter() - t0 >= seconds
            if done or len(self.batch_s) % REFERENCE_EVERY == 0:
                after = self.ref.sample()
                segment = len(self.batch_s) - len(self.scales)
                self.scales += [self.ref.scale(before, after)] * segment
                before = after
            if done:
                return perf_counter() - t0

    def _record(self, start, out, traces) -> None:
        """Bookkeeping after a batch, outside its timed span."""
        size, n, chk = self.batch, len(self.points), self.chk
        k = 0
        for c, (_, cm) in enumerate(self.compounds):
            seen, count = self.value[c], self.count[c]
            for i in range(start, start + size):
                j = i % n
                v = out[k]
                k += 1
                count[j] += 1
                chk.attempted += 1
                if isinstance(v, Exception):
                    chk.fail(f"{cm.name} at {self.points[j]}: {_error(v)}")
                elif seen[j] is None:
                    seen[j] = v
                elif v != seen[j]:
                    chk.fail(f"{cm.name} at {self.points[j]}: {v!r} after {seen[j]!r}")
            tr, j = traces[c], start % n
            chk.attempted += 1
            if isinstance(tr, Exception):
                chk.fail(f"compound_trace of {cm.name} at {self.points[j]}: {_error(tr)}")
            elif not tr.converged or tr.limit != seen[j]:
                chk.fail(f"compound_trace of {cm.name} at {self.points[j]}: converged="
                         f"{tr.converged}, limit {tr.limit!r} vs compound value {seen[j]!r}")

    def durations(self) -> list[float]:
        return self.batch_s

    def work_units(self) -> int:
        return sum(sum(c) for c in self.count)

    def check(self) -> None:
        chk = self.chk
        for c, (kind, cm) in enumerate(self.compounds):
            for (x, y), v, count in zip(self.points, self.value[c], self.count[c]):
                if v is None:
                    continue
                what = f"{cm.name} at ({x!r}, {y!r})"
                if kind == "agm":
                    want = _agm(x, y)
                elif kind == "arithmetic":
                    want = 0.5 * (x + y)
                elif min(x, y) <= v <= max(x, y):
                    continue
                else:
                    chk.fail(f"{what}: {v!r} is not between the arguments", count)
                    continue
                # the iteration stops at a relative gap of 1e-13
                if not abs(v - chk.ref(want)) <= 1e-12 * max(1.0, abs(want)):
                    chk.fail(f"{what}: got {v!r}, reference {chk.ref(want)!r}", count)


WORKLOADS = {"cli-mix": CliMix, "distance-grid": DistanceGrid, "compound-iter": CompoundIter}


# ------------------------------------------------------------ layer probe

def _import_times(ref: speed.ProcessReference, runs: int = 3) -> tuple[float, float]:
    """Medians over fresh interpreters of ``-X importtime -c 'import meanscape'``:
    the cumulative time of meanscape and the summed self time of scipy
    modules, normalized by the process reference."""
    total, scipy = [], []
    before = ref.sample()
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import meanscape"],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        after = ref.sample()
        k = ref.scale(before, after)
        before = after
        scipy_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            module = parts[2].strip()
            if module == "meanscape":
                total.append(int(parts[1]) * 1e-6 * k)
            elif module.startswith("scipy"):
                scipy_us += int(parts[0].split(":")[1])
        scipy.append(scipy_us * 1e-6 * k)
    return statistics.median(total), statistics.median(scipy)


def probe_layers(ms, probe: dict, tracer: Tracer) -> dict[str, float]:
    """Time calls into each layer's public functions on the probe inputs.

    Each timed metric is the median duration of its spans, normalized by the
    reference timed around its group of calls (see speed.py). The exceptions are the
    subprocess measurements of import, the derived process overhead, the
    computed grid rate and the exact iteration count.
    """
    scales: dict[str, float] = {}  # normalization of each group of spans
    compute, process = speed.ComputeReference(), speed.ProcessReference(ROOT)

    def run(name, fn, calls):
        f = tracer.wrap(name, fn, operation=True)
        before = compute.sample()
        out = [f(*args) for args in calls]
        scales[name] = compute.scale(before, compute.sample())
        return out

    def median_s(name):
        return statistics.median(tracer.durations(name)) * scales[name]

    window = ms.Interval.closed(*probe["window"])
    pts = [tuple(p) for p in probe["points"]]
    reps = pts * 20
    sources = [probe["power"], probe["lehmer"], "(x+y)/2", "sqrt(x*y)", "2*x*y/(x+y)"]
    seed = probe["seed"]

    run("expressions.parse_us", ms.parse_mean_expr, [(s,) for s in sources] * 200)
    built = run("expressions.build_ms", ms.mean_from_source, [(s,) for s in sources] * 3)
    power, lehmer, a_p, g_p = (b.mean for b in built[:4])
    weights = [ms.weight_from_source(w) for w in probe["weights"]]
    n1, n2 = (ms.make_normal_mean(w) for w in weights)
    g = ms.make_geometric()
    run("expressions.call_us", power, reps)

    run("core.sample_pairs_ms", ms.sample_pairs, [(window, 256, seed)] * 10)
    run("core.verify_axioms_ms", ms.verify_axioms, [(g, window, 500, seed)] * 5)
    run("core.builtin_call_us", g, reps)

    run("algebra.phi_call_us", ms.phi(power), reps)
    run("algebra.star_call_us", ms.star(g, power), reps)
    run("algebra.group_symmetry_call_us", ms.group_symmetry(g, power), reps)
    run("algebra.normal_call_us", n1, reps)
    run("algebra.compare_normal_ms", ms.compare_normal, [(*weights, window, 256)] * 5)

    run("metric.distance_homogeneous_ms", ms.distance, [(a_p, g_p, window, 512)])
    run("metric.distance_weighted_ms", ms.distance, [(n1, n2, window, 512)])
    run("metric.via_phi_ms", ms.distance_via_phi, [(a_p, g_p, window, 512)])
    run("metric.dist_to_a_ms", ms.distance_to_arithmetic, [(g_p, window, 512)])
    log_r = math.log(window.hi / window.lo)

    def profile(s):  # slope of power against lehmer along the ratio e^s
        t = math.exp(s)
        return (power(t, 1.0) - lehmer(t, 1.0)) / (t - 1.0)

    run("metric.golden_section_us", ms.golden_section_max, [(profile, 1e-3, log_r)] * 50)

    run("middle.compound_build_ms", ms.compound, [(power, n1)] * 3)
    agm_p = ms.compound(a_p, g_p)
    run("middle.compound_eval_us", agm_p, pts * 10)
    trace = functools.partial(ms.compound_trace, estimate_contraction=False)
    traces = run("middle.trace_ms", trace, [(a_p, g_p, x, y) for x, y in pts] * 3)
    run("middle.functional_symmetric_us", ms.functional_symmetric,
        [(g, power, x, y) for x, y in pts] * 3)
    run("middle.coincidence_ms", ms.coincidence_probe,
        [(g, ms.Interval.closed(0.1, 10.0), 200, seed)] * 3)

    for argv in probe["cli"]:
        ms.cli_run(argv)  # warm: first calls pay lazy imports and caches
    run("cli.inproc_ms", ms.cli_run, [(argv,) for argv in probe["cli"]])
    py = sys.executable
    cli_process = functools.partial(subprocess.run, cwd=ROOT, capture_output=True,
                                    timeout=120, check=True)
    process_run = tracer.wrap("cli.process", cli_process, operation=True)
    before = process.sample()
    for _ in range(3):
        process_run([py, "-c", CLI_ENTRY, *probe["cli"][0]])
    scales["cli.process"] = process.scale(before, process.sample())

    factor = {"us": 1e6, "ms": 1e3}
    metrics = {name: median_s(name) * factor[name[-2:]]
               for name in scales if name[-3:] in ("_us", "_ms")}
    metrics["cli.process_overhead_s"] = (median_s("cli.process")
                                         - tracer.durations("cli.inproc_ms")[0]
                                         * scales["cli.inproc_ms"])
    metrics["metric.grid_cells_per_s"] = 512 ** 2 / median_s("metric.distance_weighted_ms")
    metrics["middle.iterations_per_eval"] = statistics.fmean(t.iterations_used for t in traces)
    metrics["import.meanscape_s"], metrics["import.scipy_self_s"] = _import_times(process)
    return metrics


# ------------------------------------------------------------------- main

def main() -> int:
    request = json.loads(sys.stdin.readline())
    tracing = request["mode"] == "trace"
    tracer = Tracer() if tracing else NoTrace()
    import meanscape as ms
    if not Path(ms.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"meanscape was imported from {ms.__file__}, not from {ROOT / 'src'}")
    chk = Checks(request["reference_skew"])
    workload = WORKLOADS[request["workload"]](ms, request["manifest"], tracer, chk)
    print("READY", flush=True)
    if request["mode"] == "setup":
        return 0

    first_span = len(tracer.start) if tracing else 0
    loop_wall_s = workload.loop(request["seconds"])
    out = {"durations": workload.durations(), "scales": workload.scales,
           "references": workload.ref.samples if workload.ref else [],
           "work_units": workload.work_units(),
           "loop_wall_s": loop_wall_s, "peak_rss_kb": workload.peak_rss_kb(),
           "labels": workload.labels(), "cli_stderr": workload.stderr()}
    if tracing:
        last_span = len(tracer.start)
        out["layer_self_time_s"] = tracer.self_time_by_layer(first_span, last_span)
        out["per_layer"] = probe_layers(ms, request["manifest"]["probe"], tracer)
        out["spans"] = {"count": len(tracer.start), "file": request["spans_path"]}
        tracer.save(request["spans_path"])

    workload.check()
    out.update({"attempted": chk.attempted, "failed": chk.failed, "failures": chk.records})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
