#!/usr/bin/env python3
"""Benchmark of holonorm: four seeded workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload slices|discs|cli --seed N \\
        --seconds S --trace 0|1
    python3 bench/run.py --workload series ...  # runs, not in BENCHMARK.json
    python3 bench/run.py --smoke        # every workload at a tiny size
    python3 bench/run.py --robustness   # inputs that must not crash
    python3 bench/run.py --tier1        # wall-clock of the test suite

A workload run prints an environment line, one line per metric with its
unit, a digest of the report bytes, and as its last line one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 a separate traced pass
gives the per-layer ones (see tracer.py), and no end-to-end number is taken
from a traced pass.

Load model: one client in a closed loop, one process, ops one after
another.  The cli workload has at most one child process alive at a time.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

WORKLOADS = ("slices", "series", "discs", "cli")

#: Ops timed per run at least, so that at least 10 lie beyond the p90.
MIN_OPS = 100
#: Fresh interpreters timed for setup_s before the timed ops, and again after
#: them, so that the median spans two moments of a shared machine.
SETUP_PROBES = 4

E2E_METRICS = (("setup_s", "s"), ("op_p50_s", "s"), ("op_p90_s", "s"),
               ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))

# per-layer metrics are means per op of the traced pass
LAYER_METRICS = (
    ("expr.eval.self_s", "s/op"), ("expr.eval.calls", "calls/op"),
    ("expr.eval.points", "points/op"), ("expr.eval.node_points", "node_points/op"),
    ("expr.parse.self_s", "s/op"), ("expr.substitute.self_s", "s/op"),
    ("expr.reciprocal.calls", "calls/op"),
    ("series.restrict.self_s", "s/op"), ("series.restrict.term_lines", "term_lines/op"),
    ("series.radius.self_s", "s/op"), ("series.partial_sum.self_s", "s/op"),
    ("series.load.self_s", "s/op"),
    ("metrics.containment.self_s", "s/op"), ("metrics.containment.checks", "checks/op"),
    ("metrics.containment.pass_ratio", "ratio"), ("metrics.kobayashi_upper.self_s", "s/op"),
    ("metrics.random_discs.self_s", "s/op"), ("metrics.automorphism.self_s", "s/op"),
    ("normality.sharp.self_s", "s/op"), ("normality.reduce.self_s", "s/op"),
    ("normality.samples", "samples/op"),
    ("linescan.self_s", "s/op"), ("linescan.lines", "lines/op"),
    ("sampling.self_s", "s/op"), ("sampling.points", "points/op"),
    ("reports.self_s", "s/op"), ("reports.bytes", "bytes/op"),
    ("cli.import_s", "s/op"), ("cli.main.self_s", "s/op"), ("cli.startup_s", "s/op"),
    ("trace.overhead", "ratio"),
)

TIER1_NOTE = ("227 of 229 pass where the console script is not installed: "
              "test_criterion_11_cli_determinism and "
              "test_console_entry_point_matches_module need 'holonorm' on PATH")


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def quantile(values: list, q: float) -> float:
    """Linear interpolation between order statistics; +inf stays +inf."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    if frac == 0.0 or xs[lo] == xs[hi]:
        return xs[lo]
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * frac


# --------------------------------------------------------------------------
# Environment
# --------------------------------------------------------------------------

def blas_threads():
    """Threads of the OpenBLAS bundled with numpy, asked from the library."""
    import numpy as np

    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(args) -> dict:
    import numpy as np

    import holonorm

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "holonorm": holonorm.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --------------------------------------------------------------------------
# Running ops
# --------------------------------------------------------------------------

class Ledger:
    """Outcome of every op a run executes: failures, replay digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.first: dict = {}  # op index -> sha256 of its first payload
        self.child_rss_kb = 0  # largest child process seen (cli)

    def record(self, index: int, op, outcome, cycle: list) -> bool:
        """Check one op's outcome; cycle holds this cycle's payload digests."""
        self.attempted += 1
        result, payload, error = outcome
        self.child_rss_kb = max(self.child_rss_kb, getattr(result, "max_rss_kb", 0))
        problem = error
        digest = hashlib.sha256(payload).hexdigest() if payload is not None else None
        if problem is None:
            try:
                problem = op.check(result)
            except (KeyError, ValueError, TypeError, AttributeError) as e:
                # a report without the checked field, or one that does not parse
                problem = f"check failed: {type(e).__name__}: {e}"
        if problem is None and op.twin is not None and digest != cycle[op.twin]:
            problem = "replay differs from the first run"
        if problem is None and self.first.setdefault(index, digest) != digest:
            problem = "report bytes differ from the first cycle"
        cycle.append(digest)
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op.name}: {problem}")
        return problem is None

    def digest(self) -> str:
        h = hashlib.sha256()
        for index in sorted(self.first):
            h.update((self.first[index] or "-").encode())
        return h.hexdigest()


def call_op(op):
    """(result, payload, error) of one op; any exception is a failure."""
    try:
        result, payload = op.call()
        return result, payload, None
    except Exception as e:  # noqa: BLE001 - a crash is an outcome to count
        return None, None, f"raised {type(e).__name__}: {str(e)[:200]}"


def run_cycles(ops, ledger: Ledger, seconds: float, min_ops: int,
               latencies: list | None = None) -> float:
    """Whole cycles until both the time and the op count are reached.

    Whole cycles keep the op mix identical from run to run.  Returns the
    wall-clock they took.
    """
    done = 0
    t_start = time.perf_counter()
    while True:
        cycle: list = []
        for index, op in enumerate(ops):
            t0 = time.perf_counter()
            outcome = call_op(op)
            dt = time.perf_counter() - t0
            ok = ledger.record(index, op, outcome, cycle)
            if latencies is not None:
                latencies.append(dt if ok else math.inf)
        done += len(ops)
        wall = time.perf_counter() - t_start
        if wall >= seconds and done >= min_ops:
            return wall


def setup_samples(args, probes: int) -> list:
    """Start-to-ready times of fresh interpreters: importing holonorm and
    generating the workload's inputs."""
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    samples = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env())
        with proc.stdout:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return samples


def end_to_end(args, workload, ledger: Ledger) -> tuple:
    """Untraced metrics; returns (metrics, timed op count)."""
    probes = 1 if args.tiny else SETUP_PROBES
    setup = setup_samples(args, probes)
    ops = workload.ops
    min_ops = len(ops) if args.tiny else MIN_OPS
    ledger.record(0, ops[0], call_op(ops[0]), [])  # warm-up, untimed
    latencies: list = []
    wall = run_cycles(ops, ledger, args.seconds, min_ops, latencies)
    setup += setup_samples(args, probes)
    if workload.name == "cli":
        rss_kb = ledger.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup),
        "op_p50_s": quantile(latencies, 0.5),
        "op_p90_s": quantile(latencies, 0.9),
        "ops_per_s": len(latencies) / wall,
        "peak_rss_mb": rss_kb / 1024.0,
    }, len(latencies)


def import_seconds(probes: int) -> float:
    code = ("import time; t = time.perf_counter(); import holonorm.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(probes):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                             capture_output=True, check=True)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def per_layer(args, workload, ledger: Ledger, spans_path: str | None) -> tuple:
    """Plain and traced cycles of the same ops, alternating; layer metrics are
    means per op of the traced cycles.  Returns (metrics, traced op count)."""
    import tracer as tr

    ops = workload.traced_ops
    ledger.record(0, ops[0], call_op(ops[0]), [])  # warm-up, untimed
    tracer = tr.Tracer()
    plain_wall = traced_wall = 0.0
    cycles = 0
    # plain and traced cycles alternate, so that drift of a shared machine
    # falls on both sides of trace.overhead
    while cycles == 0 or plain_wall + traced_wall < args.seconds:
        plain_wall += run_cycles(ops, ledger, 0.0, 1)
        with tracer:
            traced_wall += run_cycles(ops, ledger, 0.0, 1)
        cycles += 1
    n = cycles * len(ops)
    out = {name: tracer.layer_self(name.rsplit(".", 1)[0]) / n
           for name, unit in LAYER_METRICS if name.endswith(".self_s")}
    for name, unit in LAYER_METRICS:
        if unit.endswith("/op") and not name.endswith("_s"):
            out[name] = tracer.counts.get(name, 0) / n
    checks = tracer.counts.get("metrics.containment.checks", 0)
    out["metrics.containment.pass_ratio"] = (
        tracer.counts.get("metrics.containment.passes", 0) / checks if checks else 0.0)
    out["trace.overhead"] = traced_wall / plain_wall - 1.0
    out["cli.import_s"] = 0.0
    out["cli.startup_s"] = 0.0
    if workload.name == "cli":
        probes = 1 if args.tiny else SETUP_PROBES
        out["cli.import_s"] = import_seconds(probes)
        startup = []
        for index, (sub, in_process) in enumerate(zip(workload.ops[::2], ops)):
            t0 = time.perf_counter()
            outcome = call_op(sub)
            sub_wall = time.perf_counter() - t0
            ledger.record(index, sub, outcome, [])  # same bytes as in process
            t0 = time.perf_counter()
            call_op(in_process)
            startup.append(sub_wall - (time.perf_counter() - t0))
        out["cli.startup_s"] = statistics.median(startup)
    if spans_path:
        tracer.write_spans(spans_path)
    return out, n


def run_workload(args) -> int:
    import workloads as wl

    env_block = environment(args)
    print(json.dumps({"environment": env_block}))
    ledger = Ledger()
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as workdir:
        workload = wl.build(args.workload, args.seed, workdir, child_env(), args.tiny)
        if args.trace:
            metrics, timed = per_layer(args, workload, ledger, args.spans)
            units = dict(LAYER_METRICS)
        else:
            metrics, timed = end_to_end(args, workload, ledger)
            units = dict(E2E_METRICS)
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:.6g} {unit}")
    print(f"{'error_rate':34s} {ledger.failed / ledger.attempted:.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} ops, {timed} timed)")
    for problem in ledger.problems:
        print(f"failed: {problem}")
    print(json.dumps({"digest": {"workload": args.workload, "seed": args.seed,
                                 "sha256": ledger.digest(), "reports": len(ledger.first)}}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def setup_probe(args) -> int:
    import workloads as wl

    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as workdir:
        wl.build(args.workload, args.seed, workdir, child_env(), args.tiny)
        print("ready", flush=True)
    return 0


# --------------------------------------------------------------------------
# Other modes
# --------------------------------------------------------------------------

def smoke() -> int:
    """Every workload at a tiny size, untraced and traced: fails unless the
    result line carries every metric of BENCHMARK.json with its unit.
    series is included although BENCHMARK.json does not list it."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in manifest["end_to_end"]},
            1: {m["name"]: m["unit"] for m in manifest["per_layer"]}}
    problems = []
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as workdir:
        spans = os.path.join(workdir, "spans.jsonl")
        for name in WORKLOADS:
            for trace in (0, 1):
                argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                        "--seed", "1", "--seconds", "0", "--trace", str(trace), "--tiny"]
                if trace:
                    argv += ["--spans", spans]
                proc = subprocess.run(argv, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                tag = f"{name} trace={trace}"
                if proc.returncode != 0 or not lines:
                    problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                    continue
                result = json.loads(lines[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"{tag}: result keys {sorted(result)}")
                if got != want[trace]:
                    problems.append(f"{tag}: metrics {got} differ from BENCHMARK.json")
                for metric, unit in want[trace].items():
                    if not any(ln.split()[:1] == [metric] and ln.split()[2:3] == [unit]
                               for ln in lines):
                        problems.append(f"{tag}: no line for {metric} in {unit}")
                if not result["correct"] or result["attempted"] < 1:
                    problems.append(f"{tag}: correct={result['correct']} "
                                    f"attempted={result['attempted']}")
                print(f"{tag}: {len(got)} metrics, {result['attempted']} ops, "
                      f"correct={result['correct']}")
                if trace:
                    with open(spans, encoding="utf-8") as fh:
                        records = [json.loads(ln) for ln in fh]
                    if not records or not all({"id", "parent", "layer", "start", "end"}
                                              <= set(r) for r in records):
                        problems.append(f"{tag}: span file incomplete")
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def robustness(seed: int) -> int:
    """The ROADMAP 5b inputs, untimed.  Each must end in exit 0/2/3 (CLI) or
    a result or InputError/HolonormError (library); anything else fails."""
    import numpy as np

    import workloads as wl
    from holonorm import errors, linescan

    rng = np.random.default_rng(seed)
    outcomes = []
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as workdir:
        # a dense arity-2 degree-44 series has 1,035 terms
        big = wl.exp_series(wl.random_exp_vector(rng, 2, 0.3, 0.75), 44)
        path = wl.write_series(workdir, "dense-1035", big)
        try:
            linescan.hartogs_test(big, linescan.direction_set(2, 16, seed))
            how, ok = "returned", True
        except errors.HolonormError as e:
            how, ok = type(e).__name__, True
        except Exception as e:  # noqa: BLE001 - the crash is what is measured
            how, ok = type(e).__name__, False
        outcomes.append(("library hartogs, 1,035 terms, probe on", how, ok))
        coeffs = [f"{c:.6f}" for c in rng.uniform(0.1, 1.0, 1200)]
        cases = [
            ("cli hartogs, 1,035 terms, probe on", ["hartogs", "--series", path]),
            ("cli sharp, 1,200 summands",
             ["sharp", "--expr", " + ".join(f"{c}*z1" for c in coeffs), "--at", "0.1"]),
            ("cli sharp, 400 nested parentheses",
             ["sharp", "--expr", "(" * 400 + f"{coeffs[0]}*z1" + ")" * 400, "--at", "0.1"]),
        ]
        for label, argv in cases:
            res = wl.run_child([sys.executable, "-m", "holonorm.cli", *argv,
                                "--seed", str(seed)], child_env(),
                               os.path.join(workdir, "stderr.txt"))
            last = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
            outcomes.append((label, f"exit {res.returncode} {' '.join(last)[:120]}",
                             res.returncode in (0, 2, 3)))
    failed = sum(not ok for _, _, ok in outcomes)
    for label, how, ok in outcomes:
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {how}")
    print(json.dumps({"robustness": {"attempted": len(outcomes), "failed": failed,
                                     "error_rate": failed / len(outcomes), "seed": seed}}))
    return 0


def tier1() -> int:
    """Wall-clock of the repository's test suite, as information only."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = proc.stdout.strip().splitlines()[-1:] or [""]
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (passed|failed|error)", summary[0])}
    print(json.dumps({"tier1": {"wall_s": wall, **counts, "summary": summary[0],
                                "note": TIER1_NOTE}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="series runs too, but is not in BENCHMARK.json (see README)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="minimum timed wall-clock of a run; whole cycles and at "
                         f"least {MIN_OPS} ops are always completed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", metavar="PATH", help="with --trace 1, write the spans here")
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, as used by --smoke")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--robustness", action="store_true")
    ap.add_argument("--tier1", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "holonorm" / "__init__.py").is_file():
        print(f"bench: no holonorm sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.tier1:
        return tier1()
    if args.robustness:
        return robustness(args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
