#!/usr/bin/env python3
"""meanscape benchmark: seeded workloads, correctness checks, JSON result.

Usage, from the root of a meanscape checkout:

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload distance-grid --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --replay bench/results/compound-iter-seed1-trace0.json
    python3 bench/run.py --self-check

Every run generates its inputs from ``--seed`` (expression strings,
windows, points, CLI argv), measures set-up as the median of several fresh
interpreters that import meanscape and build the workload's means, then
runs one closed-loop client for ``--seconds`` in a worker process
(``worker.py``) and checks every output. With ``--trace 0`` the last line
of stdout is the end-to-end result; with ``--trace 1`` the worker records
spans around its calls into the library and the last line carries the
per-layer metrics. The full record (environment, input manifest, samples,
failures with causes, layer self times) goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORKER = BENCH_DIR / "worker.py"

SETUP_TRIALS = 3
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10      # samples a tail percentile should have beyond it

# (name, unit, better); must match BENCHMARK.json, which --self-check verifies
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
]

PER_LAYER = [
    ("import.meanscape_s", "s", "lower"),
    ("import.scipy_self_s", "s", "lower"),
    ("cli.inproc_ms", "ms", "lower"),
    ("cli.process_overhead_s", "s", "lower"),
    ("expressions.parse_us", "us", "lower"),
    ("expressions.build_ms", "ms", "lower"),
    ("expressions.call_us", "us", "lower"),
    ("core.sample_pairs_ms", "ms", "lower"),
    ("core.verify_axioms_ms", "ms", "lower"),
    ("core.builtin_call_us", "us", "lower"),
    ("algebra.phi_call_us", "us", "lower"),
    ("algebra.star_call_us", "us", "lower"),
    ("algebra.group_symmetry_call_us", "us", "lower"),
    ("algebra.normal_call_us", "us", "lower"),
    ("algebra.compare_normal_ms", "ms", "lower"),
    ("metric.distance_homogeneous_ms", "ms", "lower"),
    ("metric.distance_weighted_ms", "ms", "lower"),
    ("metric.via_phi_ms", "ms", "lower"),
    ("metric.dist_to_a_ms", "ms", "lower"),
    ("metric.golden_section_us", "us", "lower"),
    ("metric.grid_cells_per_s", "cells/s", "higher"),
    ("middle.compound_build_ms", "ms", "lower"),
    ("middle.compound_eval_us", "us", "lower"),
    ("middle.iterations_per_eval", "count", "lower"),
    ("middle.trace_ms", "ms", "lower"),
    ("middle.functional_symmetric_us", "us", "lower"),
    ("middle.coincidence_ms", "ms", "lower"),
]

# What one closed-loop operation and one unit of throughput are, the
# workload-specific names of the three operation metrics, and the tail
# percentile. The percentile is fixed per workload so that runs compare like
# with like: it is the highest one with at least TAIL_BEYOND samples beyond
# it at the sample count a run reaches today (about 26 CLI commands and
# thousands of batches; capped at p99, past which a shared 2-core host
# measures preemption). A run of distance-grid fits only about ten calls, so
# its p90 rests on about one sample; the record says so. distance-grid is
# not declared in BENCHMARK.json (see README.md) but runs by name.
WORKLOADS = {
    "cli-mix": {
        "op": "one CLI subprocess", "unit_of_work": "CLI commands", "tail_percentile": 60,
        "aliases": {"cli_wall_p50_s": ("op_p50_ms", 1e-3, "s"),
                    "cli_wall_tail_s": ("op_tail_ms", 1e-3, "s"),
                    "cli_cmds_per_s": ("throughput_per_s", 1.0, "1/s")},
    },
    "distance-grid": {
        "op": "one grid-512 distance call", "unit_of_work": "distance calls",
        "tail_percentile": 90,
        "aliases": {"distance_p50_s": ("op_p50_ms", 1e-3, "s"),
                    "distance_tail_s": ("op_tail_ms", 1e-3, "s"),
                    "distance_calls_per_s": ("throughput_per_s", 1.0, "1/s")},
    },
    "compound-iter": {
        "op": "one batch of compound evaluations", "unit_of_work": "compound evaluations",
        "tail_percentile": 99,
        "aliases": {"compound_batch_p50_ms": ("op_p50_ms", 1.0, "ms"),
                    "compound_batch_tail_ms": ("op_tail_ms", 1.0, "ms"),
                    "compound_evals_per_s": ("throughput_per_s", 1.0, "1/s")},
    },
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------- inputs

A_SRC, G_SRC, H_SRC = "(x+y)/2", "sqrt(x*y)", "2*x*y/(x+y)"


def power_src(p: float) -> str:
    return f"((x^{p!r}+y^{p!r})/2)^(1/{p!r})"


def lehmer_src(q: float) -> str:
    return f"(x^{q!r}+y^{q!r})/(x^({round(q - 1, 3)!r})+y^({round(q - 1, 3)!r}))"


def weight_src(a: float, b: float) -> str:
    return f"t^({a!r})*(1+t)^({b!r})"


class _Inputs:
    """Seeded generator of the pieces every workload is made of."""

    def __init__(self, tag: str, seed: int):
        self.rng = random.Random(f"meanscape-bench:{tag}:{seed}")

    def exponent(self, lo: float, hi: float) -> float:
        return round(self.rng.uniform(lo, hi), 3)

    def power(self, lo: float = 0.25, hi: float = 2.5) -> str:
        return power_src(self.exponent(lo, hi))

    def lehmer(self) -> str:
        return lehmer_src(self.exponent(0.2, 1.8))

    def weight(self, lo: float = -1.0, hi: float = 1.0) -> str:
        return weight_src(self.exponent(lo, hi), self.exponent(lo, hi))

    def window(self) -> list[float]:
        k = round(self.rng.uniform(1.0, 3.0), 2)
        return [float(f"{10.0 ** -k:.6g}"), float(f"{10.0 ** k:.6g}")]

    def point(self) -> list[float]:
        while True:
            x, y = (float(f"{10.0 ** self.rng.uniform(-2.0, 2.0):.6g}") for _ in range(2))
            if x != y:
                return [x, y]

    def seed(self) -> int:
        return self.rng.randrange(1, 10 ** 6)


def _pair(v: list[float]) -> str:
    return f"{v[0]!r},{v[1]!r}"


def cli_argvs(gen: _Inputs) -> list[dict]:
    """The 13 commands of one cli-mix cycle, each with what its check needs."""
    win = gen.window()
    p_eval = gen.exponent(0.25, 2.5)
    p_sym, p_verify = gen.power(), gen.power()
    q_star = gen.lehmer()
    q_sigma = gen.exponent(0.2, 1.8)
    w1, w2 = gen.weight(), gen.weight()
    pts = [gen.point() for _ in range(6)]
    return [
        {"argv": ["eval", "--mean", power_src(p_eval), "--at", _pair(pts[0])],
         "check": "power_value", "exponent": p_eval},
        {"argv": ["star", "--m1", G_SRC, "--m2", q_star, "--at", _pair(pts[1])],
         "check": "between"},
        {"argv": ["symmetry", "--m0", "G", "--m1", p_sym, "--at", _pair(pts[2])],
         "check": "between"},
        {"argv": ["sigma", "--m0", "G", "--m1", lehmer_src(q_sigma), "--at", _pair(pts[3])],
         "check": "sigma_g", "exponent": q_sigma},
        {"argv": ["compare", "--p1", w1, "--p2", w2, "--window", _pair(win)],
         "check": "relation"},
        {"argv": ["compound", "--m1", A_SRC, "--m2", G_SRC, "--at", _pair(pts[4]), "--trace"],
         "check": "agm"},
        {"argv": ["m-arith", "--mean", G_SRC, "--at", _pair(pts[5])], "check": "agm"},
        {"argv": ["distance", "--m1", A_SRC, "--m2", G_SRC, "--grid", "64",
                  "--window", _pair(win)], "check": "d_ag"},
        {"argv": ["dist-to-a", "--mean", G_SRC, "--grid", "64", "--window", _pair(win)],
         "check": "d_ag"},
        {"argv": ["verify", "--mean", p_verify, "--grid", "500"], "check": "axioms"},
        {"argv": ["coincide", "--m0", "G", "--grid", "200"], "check": "coincide"},
        {"argv": ["gh-cert"], "check": "d_gh"},
        {"argv": ["counterexample"], "check": "counterexample"},
    ]


def make_manifest(workload: str, seed: int, trace: bool) -> dict:
    """All inputs of one run; the same (workload, seed) gives the same manifest."""
    gen = _Inputs(workload, seed)
    manifest: dict = {"workload": workload, "seed": seed}
    if workload == "cli-mix":
        cmds = cli_argvs(gen)
        for cmd in cmds:
            cmd["argv"] += ["--seed", str(gen.seed())]
        manifest["commands"] = cmds
    elif workload == "distance-grid":
        # one cycle: the three operations on homogeneous parsed means (A/G/H,
        # power, Lehmer) and two on normal means of parsed weights. An odd
        # number of distinct calls puts the median on one kind of call, not
        # between two kinds whose times differ by a factor of two.
        ops = [
            {"fn": "distance", "m1": G_SRC, "m2": H_SRC, "check": "d_gh"},
            {"fn": "distance_via_phi", "m1": gen.power(), "m2": gen.lehmer()},
            {"fn": "distance_to_arithmetic", "m1": G_SRC, "check": "d_ag"},
            {"fn": "distance", "w1": gen.weight(), "w2": gen.weight()},
            {"fn": "distance_to_arithmetic", "w1": gen.weight()},
        ]
        for op in ops:
            op["window"] = gen.window()
            op["grid"] = 512
        manifest["ops"] = ops
    elif workload == "compound-iter":
        # narrow bands keep the power/normal compound at 4.2-4.6 iterations
        # per evaluation across seeds, so seeds do not change the work
        manifest["power"] = gen.power(1.6, 1.9)
        manifest["weight"] = gen.weight(0.3, 0.5)
        manifest["points"] = [gen.point() for _ in range(256)]
        manifest["batch_points"] = 16
    else:
        raise BenchError(f"unknown workload {workload!r}")
    if trace:
        probe = _Inputs("probe", seed)
        manifest["probe"] = {
            "power": probe.power(), "lehmer": probe.lehmer(),
            "weights": [probe.weight(), probe.weight()],
            "window": probe.window(), "points": [probe.point() for _ in range(64)],
            "seed": probe.seed(),
            "cli": [c["argv"] + ["--seed", str(probe.seed())] for c in cli_argvs(probe)],
        }
    return manifest


# ------------------------------------------------------------- processes

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "MEANSCAPE_SEED"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _wall(argv: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True, timeout=60)
    return time.perf_counter() - t0


def environment(env: dict) -> dict:
    """Versions, machine and two reference floors (not metrics)."""
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    py = sys.executable
    return {
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "mpmath": version("mpmath"),
        "nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
        "git_commit": commit or "unknown (not a git checkout)",
        "floor_python_pass_s": statistics.median(_wall([py, "-c", "pass"], env)
                                                 for _ in range(3)),
        "floor_import_numpy_s": statistics.median(_wall([py, "-c", "import numpy"], env)
                                                  for _ in range(3)),
    }


def run_worker(request: dict, env: dict) -> tuple[float, dict | None]:
    """Start a fresh worker; return the seconds until it was set up and the
    worker's result."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)], cwd=ROOT, env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        proc.stdin.write(json.dumps(request) + "\n")
        proc.stdin.flush()
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {ready}{out}\n{err.strip()}")
    if request["mode"] == "setup":
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


def setup_trials(request: dict, env: dict, trials: int) -> list[tuple[float, float]]:
    """(raw seconds, normalization scale) of set-up in fresh workers, each
    timed between two timings of the process reference."""
    ref = speed.ProcessReference(ROOT, env)
    out = []
    before = ref.sample()
    for _ in range(trials):
        setup_s = run_worker({**request, "mode": "setup"}, env)[0]
        after = ref.sample()
        out.append((setup_s, ref.scale(before, after)))
        before = after
    return out


# --------------------------------------------------------------- metrics

def tail(durations: list[float], percentile: int) -> float:
    """The given percentile, interpolated between order statistics."""
    if len(durations) < 2:
        return durations[0]
    return statistics.quantiles(durations, n=100, method="inclusive")[percentile - 1]


def end_to_end(workload: str, setup: list[tuple[float, float]], res: dict,
               normalized: bool = True) -> tuple[dict, dict]:
    """Metrics from raw samples, or from samples normalized by the reference
    tasks (see speed.py)."""
    durations = res["durations"]
    setup_s = [s for s, _ in setup]
    if normalized:
        durations = [d * k for d, k in zip(durations, res["scales"])]
        setup_s = [s * k for s, k in setup]
    q = WORKLOADS[workload]["tail_percentile"]
    values = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "op_p50_ms": 1e3 * statistics.median(durations),
        "op_tail_ms": 1e3 * tail(durations, q),
        "throughput_per_s": res["work_units"] / sum(durations),
    }
    samples = {"ops": len(durations), "tail_percentile": q,
               "tail_samples_beyond": len(durations) * (100 - q) / 100,
               "setup_trials_s": setup_s, "work_units": res["work_units"],
               "loop_wall_s": res["loop_wall_s"]}
    if res["labels"]:
        samples["per_op_s"] = list(zip(res["labels"], durations))
    return values, samples


def _metric_block(table, values: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in table}


def _last_untraced(workload: str) -> dict | None:
    runs = []
    for path in RESULTS.glob(f"{workload}-seed*-trace0.json"):
        try:
            runs.append((path.stat().st_mtime, json.loads(path.read_text())))
        except (OSError, ValueError):
            continue
    return max(runs, key=lambda r: r[0])[1] if runs else None


# ------------------------------------------------------------------ runs

def run_once(workload: str, seed: int, seconds: float, trace: bool, *,
             manifest: dict | None = None, n_setup: int = SETUP_TRIALS,
             reference_skew: float = 0.0, quiet: bool = False) -> dict:
    if not (SRC / "meanscape" / "__init__.py").is_file():
        raise BenchError(f"no meanscape sources under {SRC}; run from a meanscape checkout")
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    RESULTS.mkdir(exist_ok=True)
    env = child_env()
    manifest = manifest or make_manifest(workload, seed, trace)
    request = {"workload": workload, "manifest": manifest, "seconds": seconds,
               "reference_skew": reference_skew, "spans_path": None}

    record = {"workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
              "environment": environment(env), "manifest": manifest}
    trials = setup_trials(request, env, n_setup)
    if trace:
        request["spans_path"] = str(RESULTS / f"{workload}-seed{seed}.spans.npz")
    res = run_worker({**request, "mode": "trace" if trace else "run"}, env)[1]

    values, samples = end_to_end(workload, trials, res)
    raw_values, raw_samples = end_to_end(workload, trials, res, normalized=False)
    attempted, failed = res["attempted"], res["failed"]
    record.update({"samples": samples, "raw_samples": raw_samples,
                   "op_raw_s": res["durations"], "op_scales": res["scales"],
                   "reference_s": res["references"],
                   "raw_metrics": _metric_block(END_TO_END, raw_values),
                   "attempted": attempted, "failed": failed,
                   "failed_share": failed / attempted if attempted else 1.0,
                   "failures": res["failures"], "cli_stderr": res.get("cli_stderr")})
    aliases = {alias: {"value": values[src] * scale, "unit": unit}
               for alias, (src, scale, unit) in WORKLOADS[workload]["aliases"].items()}
    if trace:
        record["traced_end_to_end"] = _metric_block(END_TO_END, values)
        record["layer_self_time_s"] = res["layer_self_time_s"]
        record["spans"] = res["spans"]
        base = _last_untraced(workload)
        record["tracing_overhead"] = None if base is None else {
            "untraced_seed": base["seed"],
            "op_p50_ms": values["op_p50_ms"] - base["metrics"]["op_p50_ms"]["value"],
            "share": values["op_p50_ms"] / base["metrics"]["op_p50_ms"]["value"] - 1.0,
        }
        record["metrics"] = _metric_block(PER_LAYER, res["per_layer"])
    else:
        record["metrics"] = _metric_block(END_TO_END, values)
        record["workload_metrics"] = aliases
    result = {"correct": attempted > 0 and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": record["metrics"]}
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    if not quiet:
        _print_summary(record, aliases, path)
    return result


def _print_summary(record: dict, aliases: dict, path: Path) -> None:
    w = record["workload"]
    smp = record["samples"]
    print(f"# {w} seed {record['seed']} trace {record['trace']}: "
          f"{smp['ops']} ops ({WORKLOADS[w]['op']}), tail p{smp['tail_percentile']} "
          f"with {smp['tail_samples_beyond']:.3g} samples beyond"
          + (f" (fewer than {TAIL_BEYOND})" if smp["tail_samples_beyond"] < TAIL_BEYOND else ""))
    print(f"  throughput_per_s counts {WORKLOADS[w]['unit_of_work']} per busy second")
    print(f"  failed_share = {record['failed_share']:.6g} "
          f"({record['failed']} of {record['attempted']} attempted)")
    for f in record["failures"][:10]:
        print(f"  FAILED {f}")
    if record["trace"]:
        for name, v in record["traced_end_to_end"].items():
            print(f"  traced {name} = {v['value']:.6g} {v['unit']}")
        for layer, s in sorted(record["layer_self_time_s"].items(), key=lambda kv: -kv[1]):
            print(f"  self time {layer:12s} {s:.6g} s")
        ovh = record["tracing_overhead"]
        print("  tracing overhead: " + ("no untraced result to compare with" if ovh is None
              else f"{ovh['op_p50_ms']:+.6g} ms on op_p50_ms ({100 * ovh['share']:+.3g}%, "
                   f"untraced seed {ovh['untraced_seed']})"))
    else:
        for name, v in aliases.items():
            print(f"  {name} = {v['value']:.6g} {v['unit']}")
    units = {name: (unit, better) for name, unit, better in END_TO_END + PER_LAYER}
    raw = record.get("raw_metrics") or {}
    for name, v in record["metrics"].items():
        print(f"  {name} = {v['value']:.6g} {v['unit']} ({units[name][1]} is better)"
              + (f", raw {raw[name]['value']:.6g}" if name in raw else ""))
    print(f"  record: {path.relative_to(ROOT)}")


# ------------------------------------------------------------ self-check

def self_check() -> list[str]:
    """Short runs of every workload, checked against BENCHMARK.json."""
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if declared != table:
            problems.append(f"{key} in BENCHMARK.json differs from run.py: "
                            f"{sorted(set(declared) ^ set(table))}")
    declared = [w["name"] for w in spec["workloads"]]
    if not set(declared) <= set(WORKLOADS):
        problems.append(f"BENCHMARK.json declares unknown workloads: {declared}")
    for workload in declared:
        for trace, table in ((False, END_TO_END), (True, PER_LAYER)):
            res = run_once(workload, 1, 1, trace, n_setup=1, quiet=True)
            missing = {n for n, _, _ in table} - set(res["metrics"])
            if missing or not res["correct"]:
                problems.append(f"{workload} trace={int(trace)}: missing {sorted(missing)}, "
                                f"correct={res['correct']}, failed={res['failed']}")
        # a wrong reference, injected only here, must show up as failures
        res = run_once(workload, 1, 1, False, n_setup=1, quiet=True, reference_skew=1e-6)
        if res["failed"] == 0 or res["correct"]:
            problems.append(f"{workload}: an injected wrong reference was not counted")
        print(f"self-check {workload}: {'ok' if not problems else 'PROBLEMS'}", flush=True)
    return problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replay", metavar="RECORD",
                    help="rerun the workload, seed and inputs stored in a result record")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.self_check:
            problems = self_check()
            for p in problems:
                print(f"PROBLEM: {p}", file=sys.stderr)
            return 1 if problems else 0
        manifest = None
        workload, seed = args.workload, args.seed
        if args.replay:
            manifest = json.loads(Path(args.replay).read_text())["manifest"]
            workload, seed = manifest["workload"], manifest["seed"]
            if args.trace and "probe" not in manifest:
                manifest["probe"] = make_manifest(workload, seed, True)["probe"]
        if workload is None:
            ap.error("--workload is required")
        result = run_once(workload, seed, args.seconds, bool(args.trace), manifest=manifest)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
