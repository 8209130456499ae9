"""Benchmark of the shotdeconv pipeline: three workloads, end to end and by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, taken from spans recorded around the package's own calls
(see ``tracer.py``). The line before it records the environment.

The package is imported from ``src/`` of the checkout. Every set-up unit
runs in a fresh process, timed from start to exit; the measured loop runs
in one more fresh process, so its peak memory excludes set-up. All files
are written under ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Pin every BLAS/OpenMP pool to one thread before numpy is imported, here
# and in every child process, so the numbers measure the program rather
# than the scheduler.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# Pin the memory policy too. By default numpy asks for transparent huge
# pages and glibc adapts its mmap threshold to past frees, so whether a
# large temporary is freshly mapped, and how fast its pages fault in, varies
# from process to process; over ten seeds the median estimate call time
# spread by 23% between runs (quartile distance over median). With these
# settings glibc serves every
# allocation from its heap and never returns memory, so once the heap has
# grown to its high-water mark the measured loop pays no page faults and
# times the program's own work; peak_rss_mib is that high-water mark.
ALLOCATOR_VARS = {
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "GLIBC_TUNABLES": "glibc.malloc.mmap_max=0:glibc.malloc.trim_threshold=4294967296",
}
os.environ.update(ALLOCATOR_VARS)
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Set-up units per run. Each estimate unit records one input series, and
# the input data sets the cost of the default x-grid's quantile, so more
# inputs keep the call time from following the seed.
SETUP_UNITS = {"table1": 3, "estimate": 5, "diagnostics": 3}
# a run, set-up included, must end within 180 s
RUN_DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "sup_error": "abs",
}

# name -> (unit, span name, what to take from it). Time metrics are
# milliseconds per workload operation; "self" subtracts child spans.
LAYER_SPANS = {
    "simulate.series_ms": ("ms", "simulate.simulate_series", "total"),
    "simulate.series_to_csv_ms": ("ms", "simulate.series_to_csv", "total"),
    "model.marks_sample_ms": ("ms", "model.marks_sample", "total"),
    "ecf.build_histogram_ms": ("ms", "ecf.build_histogram", "total"),
    "ecf.ecf_from_histogram_ms": ("ms", "ecf.ecf_from_histogram", "total"),
    "ecf.deviation_self_ms": ("ms", "ecf.ecf_deviation", "self"),
    "estimator.estimate_density_self_ms": ("ms", "estimator.estimate_density", "self"),
    "estimator.mark_cf_estimate_ms": ("ms", "estimator.mark_cf_estimate", "total"),
    "estimator.invert_density_ms": ("ms", "estimator.invert_density", "total"),
    "estimator.hill_ratio_ms": ("ms", "estimator.hill_ratio", "total"),
    "estimator.density_to_csv_ms": ("ms", "estimator.density_to_csv", "total"),
    "model.true_shot_cf_ms": ("ms", "model.true_shot_cf", "total"),
    "model.check_smoothness_ms": ("ms", "model.check_smoothness", "total"),
    "bench.sup_error_ms": ("ms", "bench.sup_error", "total"),
    "bench.run_table1_self_ms": ("ms", "bench.run_table1", "self"),
    "bench.lower_bound_audit_self_ms": ("ms", "bench.run_lower_bound_audit", "self"),
    "cli.estimate_self_ms": ("ms", "cli.estimate", "self"),
    "cli.simulate_self_ms": ("ms", "cli.simulate", "self"),
    "cli.hill_self_ms": ("ms", "cli.hill", "self"),
    "serialize.dumps_json_ms": ("ms", "serialize.dumps_json", "total"),
    "serialize.write_text_ms": ("ms", "serialize.write_text", "total"),
}
PER_LAYER = {
    **{name: spec[0] for name, spec in LAYER_SPANS.items()},
    "simulate.pulses": "count",
    "simulate.ns_per_pulse": "ns",
    "ecf.bins": "count",
    "ecf.fft_len": "count",
    "estimator.kept_fraction": "ratio",
    "bench.table_sup_error_n1e4": "abs",
    "bench.table_sup_error_n1e5": "abs",
    "trace_overhead_frac": "ratio",
}


def _environment(args):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "allocator": {var: os.environ.get(var) for var in ALLOCATOR_VARS},
    }


def _git_commit():
    """HEAD of the checkout read from .git, or "unknown" outside a git repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child(role, args, workdir, deadline, extra=()):
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), *extra,
    ]
    timeout = max(1.0, deadline - time.monotonic())
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, check=False)


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _layer_metrics(workload, spans, n_ops):
    import tracer

    summary = tracer.summarize(spans)

    def stat(span, key="total_s"):
        return summary[span][key] if span in summary else 0.0

    def count(span, key):
        return summary[span]["counts"].get(key, 0.0) if span in summary else 0.0

    def calls(span):
        return summary[span]["calls"] if span in summary else 0

    metrics = {
        name: 1e3 * stat(span, "self_s" if kind == "self" else "total_s") / n_ops
        for name, (_unit, span, kind) in LAYER_SPANS.items()
    }
    pulses = count("simulate.simulate_series", "pulses")
    metrics["simulate.pulses"] = pulses / n_ops
    metrics["simulate.ns_per_pulse"] = (
        1e9 * stat("simulate.simulate_series") / pulses if pulses else 0.0
    )
    hist_calls = calls("ecf.build_histogram")
    metrics["ecf.bins"] = count("ecf.build_histogram", "bins") / hist_calls if hist_calls else 0.0
    ecf_calls = calls("ecf.ecf_from_histogram")
    metrics["ecf.fft_len"] = (
        count("ecf.ecf_from_histogram", "fft_len") / ecf_calls if ecf_calls else 0.0
    )
    ratio_calls = calls("estimator.mark_cf_estimate")
    metrics["estimator.kept_fraction"] = (
        count("estimator.mark_cf_estimate", "kept") / ratio_calls if ratio_calls else 0.0
    )
    return metrics, summary


def measure(args):
    """The measured loop; runs in its own process and prints one JSON line."""
    import resource

    import workloads

    workload = workloads.WORKLOADS[args.workload](str(args.workdir), args.seed)
    traced = args.trace == 1
    tracer_obj = None
    if traced:
        import tracer

        tracer_obj = tracer.Tracer()

    # only the results sup_error needs are kept, so that what the loop holds
    # does not grow with the number of operations and show in peak_rss_mib
    durations, traced_durations, results = [], [], []
    attempted = failed = 0

    def attempt(i, tag):
        nonlocal attempted, failed
        attempted += 1
        try:
            start = time.perf_counter()
            if tag == "traced":
                tracer_obj.op = i
                with tracer_obj:
                    raw = workload.run(i, tag)
            else:
                raw = workload.run(i, tag)
            elapsed = time.perf_counter() - start
            result = workload.collect(i, tag, raw)
            problems = workload.check(i, result)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            failed += 1
            return None, None
        if problems:
            print(f"{args.workload} op {i} ({tag}): {'; '.join(problems)}", file=sys.stderr)
            failed += 1
        return elapsed, result

    began = time.perf_counter()
    i = 0
    while time.perf_counter() - began < args.seconds or i < workload.min_ops:
        # in a traced run every operation runs twice, untraced and traced,
        # alternating which goes first, and the two outputs must agree
        order = ("plain", "traced") if i % 2 == 0 else ("traced", "plain")
        for tag in order if traced else ("plain",):
            elapsed, result = attempt(i, tag)
            if tag == "plain":
                durations.append(elapsed)
                plain_result = result
                if i < workload.accuracy_ops:
                    results.append(result)
            else:
                traced_durations.append(elapsed)
                traced_result = result
        if traced and plain_result is not None and traced_result != plain_result:
            print(f"{args.workload} op {i}: traced output differs from untraced", file=sys.stderr)
            failed += 1
        i += 1

    correct = failed == 0
    try:
        sup_error = workload.sup_error(results)
    except (KeyError, IndexError, TypeError):
        print(f"{args.workload}: accuracy operations incomplete", file=sys.stderr)
        sup_error, correct = 0.0, False
    ok = [d for d in durations if d is not None]
    out = {"correct": correct, "attempted": attempted, "failed": failed}
    if not traced:
        out["metrics"] = {
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_per_s": workload.cycles_per_op * len(ok) / sum(ok) if ok else 0.0,
            "op_ms_p50": 1e3 * statistics.median(ok) if ok else 0.0,
            "op_ms_p90": 1e3 * _quantile(ok, 0.9) if ok else 0.0,
            "sup_error": sup_error,
        }
        out["samples"] = len(ok)
        out["durations_s"] = ok
    else:
        metrics, summary = _layer_metrics(workload, tracer_obj.spans, len(traced_durations))
        pairs = [(a, b) for a, b in zip(durations, traced_durations) if a and b]
        metrics["trace_overhead_frac"] = (
            sum(b for _, b in pairs) / sum(a for a, _ in pairs) - 1.0 if pairs else 0.0
        )
        tiers = workload.tier_errors(results) if hasattr(workload, "tier_errors") and correct else {}
        metrics["bench.table_sup_error_n1e4"] = tiers.get(10_000, 0.0)
        metrics["bench.table_sup_error_n1e5"] = tiers.get(100_000, 0.0)
        out["metrics"] = metrics
        out["samples"] = len(traced_durations)
        out["spans"] = tracer_obj.spans
        out["summary"] = summary
    print(json.dumps(out))
    return 0


def orchestrate(args):
    """Set up, measure and report one run; the process the user starts."""
    if not (SRC / "shotdeconv" / "__init__.py").is_file():
        print(f"error: no shotdeconv package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        setup_times = []
        for index in range(SETUP_UNITS[args.workload]):
            start = time.perf_counter()
            proc = _child("setup", args, workdir, deadline, ("--index", str(index)))
            setup_times.append(time.perf_counter() - start)
            if proc.returncode != 0:
                print(f"error: set-up unit {index} exited with {proc.returncode}",
                      file=sys.stderr)
                return 1
        proc = _child("measure", args, workdir, deadline)
        if proc.returncode != 0:
            print(f"error: measurement exited with {proc.returncode}", file=sys.stderr)
            return 1
        child = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = child["metrics"]
        units = PER_LAYER
    else:
        metrics = {"setup_s": statistics.median(setup_times), **child["metrics"]}
        units = END_TO_END
    env = _environment(args)
    record = {
        "environment": env,
        "setup_times_s": setup_times,
        "samples": child["samples"],
        "durations_s": child.get("durations_s"),
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    if args.trace:
        record["span_summary"] = child["summary"]
        record["spans"] = child["spans"]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    if args.trace:
        for span, entry in sorted(child["summary"].items(), key=lambda kv: -kv[1]["self_s"]):
            parents = ",".join(sorted(entry["parents"]))
            print(f"span {span:32s} calls={entry['calls']:<6d} "
                  f"total_ms={1e3 * entry['total_s']:10.2f} self_ms={1e3 * entry['self_s']:10.2f} "
                  f"parents={parents}")
    print("environment " + json.dumps(env))
    print(json.dumps({
        "correct": bool(child["correct"]),
        "attempted": int(child["attempted"]),
        "failed": int(child["failed"]),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def smoke(args):
    """One-second runs of every workload, checking each result line against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if expected[0] != END_TO_END or expected[1] != PER_LAYER:
        problems.append("metric names or units in BENCHMARK.json differ from run.py")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_DEADLINE_S + 10, check=False)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            for name, unit in expected[trace].items():
                got = result["metrics"].get(name)
                if got is None or got.get("unit") != unit or not math.isfinite(got["value"]):
                    problems.append(f"{where}: metric {name} missing or without unit {unit}")
                elif trace == 0 and got["value"] <= 0:
                    problems.append(f"{where}: end-to-end metric {name} is {got['value']}")
            extra = set(result["metrics"]) - set(expected[trace])
            if extra:
                problems.append(f"{where}: unexpected metrics {sorted(extra)}")
            print(f"smoke {where}: {'ok' if not problems else 'see problems'}", file=sys.stderr)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SETUP_UNITS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check the result lines")
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--index", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2^64)")
    if args.role is None:
        return orchestrate(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.role == "setup":
        import workloads

        workloads.WORKLOADS[args.workload].setup_unit(str(args.workdir), args.seed, args.index)
        return 0
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
