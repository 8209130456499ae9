"""Command-line interface: simulate, estimate, bench, and hill subcommands.

A single JSON config file carries the model, mark law, and estimator
settings; command-line flags override individual values. All outputs are
deterministic given the config and seed, with floats printed at 17
significant digits so repeated runs are byte-identical.

Exit codes: 0 success, 1 failure to write an output file, 2 configuration or
input error (an unreadable input file included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from . import __version__
from .bench import (
    per_run_errors_to_csv,
    reports_to_csv,
    reports_to_json_obj,
    run_lower_bound_audit,
    run_rate_check,
    run_table1,
)
from .errors import InvalidParameterError, NumericalFailure, ResourceLimitError, checked_sample
from .estimator import (
    EstimatorConfig,
    XGrid,
    default_hill_k,
    density_to_csv,
    estimate_density,
    hill_ratio,
)
from .model import SmoothnessConfig, _check_keys, marks_from_json, marks_to_json, normalize
from .serialize import dumps_json, format_float, write_text
from .simulate import series_to_csv, series_to_f64le, simulate_series

_MODEL_KEYS = {"lambda", "alpha", "delta"}
_ESTIMATOR_KEYS = {"cutoff", "bin_width", "x_grid", "renormalize"}
_X_GRID_KEYS = {"start", "step", "count"}
_SMOOTHNESS_KEYS = {"s", "K", "L", "m"}
_OUTPUT_KEYS = {"dir"}
_TOP_KEYS = {"model", "marks", "estimator", "smoothness", "seed", "n", "output"}


def _fail(message):
    raise InvalidParameterError(message)


def _load_config(path):
    if path is None:
        _fail("--config is required")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        _fail(f"config file not found: {path}")
    except OSError as exc:
        _fail(f"could not read config file {path}: {exc}")
    except ValueError as exc:
        _fail(f"config file {path} is not valid JSON: {exc}")
    _check_keys(raw, _TOP_KEYS, "config", required=("model", "marks"))
    _check_keys(raw["model"], _MODEL_KEYS, "config.model", required=_MODEL_KEYS)
    if "estimator" in raw:
        _check_keys(raw["estimator"], _ESTIMATOR_KEYS, "config.estimator")
    if "smoothness" in raw:
        _check_keys(raw["smoothness"], _SMOOTHNESS_KEYS, "config.smoothness")
    if "output" in raw:
        _check_keys(raw["output"], _OUTPUT_KEYS, "config.output")
    return raw


def _resolve_model(raw):
    model = raw["model"]
    params = normalize(model["lambda"], model["alpha"], model["delta"])
    marks = marks_from_json(raw["marks"])
    return params, marks


def _resolve_seed(raw, args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    return raw.get("seed", 0)


def _resolve_n(raw, args):
    n = getattr(args, "n", None)
    if n is None:
        n = raw.get("n")
    if n is None:
        _fail("sample size required: pass --n or set 'n' in the config")
    return n


def _resolve_out_dir(raw, args):
    out = getattr(args, "out", None)
    if out is None:
        out = raw.get("output", {}).get("dir", ".")
        if not isinstance(out, str):
            _fail(f"config.output.dir must be a string, got {out!r}")
    os.makedirs(out, exist_ok=True)
    return out


def _resolve_x_grid(section):
    grid = section.get("x_grid")
    if grid is None:
        return None
    _check_keys(grid, _X_GRID_KEYS, "config.estimator.x_grid", required=_X_GRID_KEYS)
    return XGrid(grid["start"], grid["step"], grid["count"])


def _resolve_estimator_config(raw, args, params):
    section = raw.get("estimator", {})
    cutoff = args.cutoff if args.cutoff is not None else section.get("cutoff")
    if cutoff is None:
        _fail("estimator cutoff unspecified: pass --cutoff or set estimator.cutoff")
    bin_width = args.bin_width if args.bin_width is not None else section.get("bin_width")
    return EstimatorConfig(
        ratio=params.ratio,
        cutoff=cutoff,
        bin_width=bin_width,
        x_grid=_resolve_x_grid(section),
        renormalize=section.get("renormalize", False),
    )


def _read_series_file(path):
    if path.endswith(".f64le") or path.endswith(".bin"):
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            _fail(f"could not read series file {path}: {exc}")
        if len(data) == 0 or len(data) % 8:
            _fail(f"{path} is not a whole number of little-endian float64 values")
        values = np.frombuffer(data, dtype="<f8")
    else:
        try:
            with warnings.catch_warnings():
                # a header-only file is reported below, with its path
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=1, ndmin=1)
        except (OSError, ValueError) as exc:
            _fail(f"could not read series CSV {path}: {exc}")
        if values.size == 0:
            _fail(f"series CSV {path} holds no data rows")
    try:
        values, _, _ = checked_sample(values)
    except InvalidParameterError:
        # the full-length finiteness mask is built only to name the position
        finite = np.isfinite(values)
        if finite.all():
            raise
        first = int(np.argmin(finite)) + 1
        _fail(f"{path} holds a non-finite value (NaN or infinity) at series position {first}")
    return values


def _input_values(raw, args, params, marks):
    """The `--in` series file's values, or else `n` values simulated at the seed."""
    if args.infile is not None:
        return _read_series_file(args.infile)
    n = _resolve_n(raw, args)
    return simulate_series(params, marks, n, seed=_resolve_seed(raw, args)).values


def _cmd_simulate(args):
    raw = _load_config(args.config)
    params, marks = _resolve_model(raw)
    seed = _resolve_seed(raw, args)
    n = _resolve_n(raw, args)
    out = _resolve_out_dir(raw, args)
    series = simulate_series(params, marks, n, seed=seed)
    data_file = f"series.{args.format}"
    if args.format == "csv":
        write_text(os.path.join(out, data_file), series_to_csv(series))
    else:
        with open(os.path.join(out, data_file), "wb") as handle:
            handle.write(series_to_f64le(series))
    meta = {
        "library": "shotdeconv",
        "version": __version__,
        "model": dict(raw["model"]),
        "marks": marks_to_json(marks),
        "seed": seed,
        "n": n,
        "burn_in": series.burn_in,
        "data_file": data_file,
    }
    write_text(os.path.join(out, "series_meta.json"), dumps_json(meta))
    return 0


def _cmd_estimate(args):
    raw = _load_config(args.config)
    params, marks = _resolve_model(raw)
    out = _resolve_out_dir(raw, args)
    values = _input_values(raw, args, params, marks)
    config = _resolve_estimator_config(raw, args, params)
    estimate = estimate_density(values, config)
    write_text(os.path.join(out, "estimate.csv"), density_to_csv(estimate))
    diagnostics = dict(estimate.diagnostics)
    if diagnostics.get("fraction_thresholded") == 1.0:
        diagnostics["warning"] = "every grid point was thresholded; estimate is the bare inversion kernel"
    write_text(os.path.join(out, "diagnostics.json"), dumps_json(diagnostics))
    return 0


def _cmd_bench(args):
    raw = _load_config(args.config)
    params, marks = _resolve_model(raw)
    out = _resolve_out_dir(raw, args)
    base_seed = _resolve_seed(raw, args)
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if args.table1:
        reports = run_table1(params, marks, runs=args.runs, base_seed=base_seed, jobs=jobs)
        write_text(os.path.join(out, "table1.csv"), reports_to_csv(reports))
        write_text(os.path.join(out, "table1_runs.csv"), per_run_errors_to_csv(reports))
        write_text(os.path.join(out, "table1.json"), dumps_json(reports_to_json_obj(reports)))
        return 0
    if args.rate:
        report = run_rate_check(params, marks, runs=args.runs, base_seed=base_seed, jobs=jobs)
        write_text(os.path.join(out, "rate.json"), dumps_json(report))
        print(f"slope={format_float(report['slope'])} half_width={format_float(report['half_width'])}")
        return 0
    if args.audit:
        if "smoothness" not in raw:
            _fail("--audit needs a 'smoothness' section in the config")
        sm = raw["smoothness"]
        _check_keys(sm, _SMOOTHNESS_KEYS, "config.smoothness", required=_SMOOTHNESS_KEYS)
        smoothness = SmoothnessConfig(sm["s"], sm["K"], sm["L"], sm["m"])
        report = run_lower_bound_audit(params, marks, smoothness, seed=base_seed)
        write_text(os.path.join(out, "audit.json"), dumps_json(report))
        print(f"audit {'passed' if report['passed'] else 'FAILED'}: min_slack={format_float(report['min_slack'])}")
        return 0
    _fail("bench needs one of --table1, --rate, --audit")


def _cmd_hill(args):
    raw = _load_config(args.config)
    params, marks = _resolve_model(raw)
    values = _input_values(raw, args, params, marks)
    estimate = hill_ratio(values, k=args.k)
    k_used = args.k if args.k is not None else default_hill_k(values.size)
    print(f"ratio_estimate={format_float(estimate)} k={k_used}")
    if args.out is not None:
        out = _resolve_out_dir(raw, args)
        write_text(
            os.path.join(out, "hill.json"),
            dumps_json({"ratio_estimate": estimate, "k": k_used, "n": values.size}),
        )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shotdeconv",
        description="Simulate exponential shot noise and recover the mark density "
        "from regularly sampled observations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_n=True):
        p.add_argument("--config", required=False, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="64-bit seed (overrides config)")
        p.add_argument("--out", default=None, help="output directory")
        if with_n:
            p.add_argument("--n", type=int, default=None, help="sample size")

    p_sim = sub.add_parser("simulate", help="write a simulated sample series")
    common(p_sim)
    p_sim.add_argument("--format", choices=["csv", "f64le"], default="csv")
    p_sim.set_defaults(func=_cmd_simulate)

    p_est = sub.add_parser("estimate", help="estimate the mark density")
    common(p_est)
    p_est.add_argument("--in", dest="infile", default=None,
                       help="series file (csv or f64le) instead of simulating")
    p_est.add_argument("--cutoff", type=float, default=None)
    p_est.add_argument("--bin-width", type=float, default=None, dest="bin_width")
    p_est.set_defaults(func=_cmd_estimate)

    p_bench = sub.add_parser("bench", help="Monte-Carlo benchmarks and diagnostics")
    common(p_bench, with_n=False)
    mode = p_bench.add_mutually_exclusive_group(required=True)
    mode.add_argument("--table1", action="store_true", help="sup-error table over sample sizes")
    mode.add_argument("--rate", action="store_true", help="log-log convergence-rate slope")
    mode.add_argument("--audit", action="store_true", help="CF lower-bound audit")
    p_bench.add_argument("--runs", type=int, default=100, help="Monte-Carlo replicates")
    p_bench.add_argument("--jobs", type=int, default=None, help="worker processes")
    p_bench.set_defaults(func=_cmd_bench)

    p_hill = sub.add_parser("hill", help="estimate the intensity/decay ratio")
    common(p_hill)
    p_hill.add_argument("--in", dest="infile", default=None,
                        help="series file (csv or f64le) instead of simulating")
    p_hill.add_argument("--k", type=int, default=None, help="number of upper order statistics")
    p_hill.set_defaults(func=_cmd_hill)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParameterError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
