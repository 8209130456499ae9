"""The three benchmark workloads: table1, estimate and diagnostics.

Each workload is a closed loop with one client: the next operation starts
only after the previous one has finished, in a single process (``jobs=1``).
A workload has three parts:

* ``setup_unit`` runs in a fresh process and builds one share of the
  inputs from the seed; its wall time is one sample of ``setup_s``;
* ``run`` is one timed operation, and ``collect`` turns what it left behind
  into a comparable result outside the timed region;
* ``check`` lists what is wrong with a result, and ``sup_error`` gives the
  workload's accuracy figure from a fixed, seed-determined set of results.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

from shotdeconv import bench, cli, ecf, estimator, model, simulate

REF_PARAMS = model.ModelParams(100.0, 80.0, 1.25)
REF_MARKS = model.GaussianMixture((0.3, 0.5, 0.2), (4.0, 12.0, 22.0), (1.0, 1.0, 0.5))
GAMMA_PARAMS = model.ModelParams(2.0, 1.0, 2.0)
GAMMA_MARKS = model.Exponential(1.0)

# CLI configs for the same two models; delta = 1 keeps the normalized rates.
REF_CONFIG = {
    "model": {"lambda": 100.0, "alpha": 80.0, "delta": 1.0},
    "marks": model.marks_to_json(REF_MARKS),
    "estimator": {"cutoff": bench.table_cutoff(1_000_000)},
}
GAMMA_CONFIG = {
    "model": {"lambda": 2.0, "alpha": 1.0, "delta": 1.0},
    "marks": model.marks_to_json(GAMMA_MARKS),
}

# Smoothness-class bounds of the two lower-bound audit configurations.
GAMMA_SMOOTHNESS = model.SmoothnessConfig(1.0, 121.0, 0.378, 1.0)
REF_SMOOTHNESS = model.SmoothnessConfig(1.0, 2144336.471210152, 1.1529710227033925, 1.2)


def _write_config(path, config):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle)


class Table1:
    """Table-1 cycles: simulate, estimate and sup error at n = 1e4 and 1e5.

    One operation is ``run_table1`` with the reference model, the table's
    own cutoffs, renormalization and x-grid, and two runs per tier, so it
    holds four simulate-estimate-error cycles.
    """

    name = "table1"
    tiers = (10_000, 100_000)
    runs = 2
    cycles_per_op = len(tiers) * runs
    # sup_error averages the first accuracy_ops operations (24 runs per
    # tier), so it depends on the seed and never on how fast the code is
    accuracy_ops = 12
    min_ops = accuracy_ops

    def __init__(self, workdir, seed):
        self.seed = seed

    @staticmethod
    def setup_unit(workdir, seed, index):
        """Nothing to build beyond the imports and the model objects."""

    def run(self, i, tag):
        return bench.run_table1(
            REF_PARAMS, REF_MARKS, n_list=self.tiers, runs=self.runs,
            base_seed=simulate.derive_seed(self.seed, i), jobs=1,
        )

    def collect(self, i, tag, reports):
        return {report.n: report.per_run_errors for report in reports}

    def check(self, i, result):
        problems = []
        if sorted(result) != list(self.tiers):
            problems.append(f"tiers {sorted(result)} != {list(self.tiers)}")
        for n, errors in result.items():
            if len(errors) != self.runs:
                problems.append(f"n={n}: {len(errors)} errors for {self.runs} runs")
            if not all(math.isfinite(e) and e > 0 for e in errors):
                problems.append(f"n={n}: per-run errors not finite and positive: {errors}")
        return problems

    def tier_errors(self, results):
        """Mean sup error per tier over the accuracy operations."""
        return {
            n: float(np.mean([results[i][n] for i in range(self.accuracy_ops)]))
            for n in self.tiers
        }

    def sup_error(self, results):
        return float(np.mean(list(self.tier_errors(results).values())))


class Estimate:
    """In-process ``shotdeconv estimate --in <series>.f64le`` calls.

    The inputs are reference-model series of 1e6 samples, one per set-up
    unit (``input0``, ``input1``, ...), recorded with ``shotdeconv simulate --format f64le`` during
    set-up, so no simulation is timed. Calls cycle over the inputs with the
    default x-grid and the table cutoff for n = 1e6.
    """

    name = "estimate"
    n = 1_000_000
    cycles_per_op = 1
    # sup_error comes from the first call on each input, kept by check()
    accuracy_ops = 0
    # p90 of the call time needs at least 100 calls
    min_ops = 100

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.config = os.path.join(workdir, "reference.json")
        self.series = []
        while os.path.exists(os.path.join(workdir, f"input{len(self.series)}")):
            self.series.append(
                os.path.join(workdir, f"input{len(self.series)}", "series.f64le")
            )
        self.inputs = len(self.series)
        self.reference = {}
        self.errors = {}

    @classmethod
    def setup_unit(cls, workdir, seed, index):
        config = os.path.join(workdir, "reference.json")
        _write_config(config, REF_CONFIG)
        code = cli.main([
            "simulate", "--config", config, "--format", "f64le", "--n", str(cls.n),
            "--seed", str(simulate.derive_seed(seed, index)),
            "--out", os.path.join(workdir, f"input{index}"),
        ])
        if code != 0:
            raise RuntimeError(f"simulate exited with {code}")

    def _out(self, tag):
        return os.path.join(self.workdir, f"out-{tag}")

    def run(self, i, tag):
        return cli.main([
            "estimate", "--config", self.config, "--in", self.series[i % self.inputs],
            "--out", self._out(tag),
        ])

    def collect(self, i, tag, code):
        out = self._out(tag)
        with open(os.path.join(out, "estimate.csv"), "rb") as handle:
            csv = handle.read()
        with open(os.path.join(out, "diagnostics.json"), "rb") as handle:
            diagnostics = handle.read()
        return code, csv, diagnostics

    def check(self, i, result):
        code, csv, diagnostics = result
        if code != 0:
            return [f"estimate exited with {code}"]
        j = i % self.inputs
        if j in self.reference:
            # the first output of each input was parsed and checked in full;
            # later calls on the same input must reproduce it byte for byte
            if (csv, diagnostics) != self.reference[j]:
                return [f"input {j}: output differs from the first call on it"]
            return []
        problems = []
        try:
            lines = csv.decode("utf-8").splitlines()
            if lines[0] != "x,theta_hat":
                problems.append(f"estimate.csv header {lines[0]!r}")
            table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
            x, theta = table[:, 0], table[:, 1]
            error = float(np.max(np.abs(theta - REF_MARKS.pdf(x))))
            if not (math.isfinite(error) and np.all(theta >= 0)):
                problems.append(f"input {j}: sup error {error} or negative density")
            json.loads(diagnostics)
        except (ValueError, IndexError) as exc:
            problems.append(f"input {j}: unreadable output: {exc}")
        if not problems:
            self.reference[j] = (csv, diagnostics)
            self.errors[j] = error
        return problems

    def sup_error(self, results):
        return float(np.mean([self.errors[j] for j in range(self.inputs)]))


class Diagnostics:
    """One pass of the property checks on the light-pulse Gamma model.

    The pass runs, in order: ``shotdeconv simulate --format csv --n 100000``
    and ``shotdeconv hill`` on the CSV it wrote; ``ecf_deviation`` with the
    criterion-5 settings; ``run_lower_bound_audit`` on both criterion-7
    configurations; ``hill_ratio`` on 1e6 samples; and ``true_shot_cf``
    against the closed-form Gamma characteristic function.
    """

    name = "diagnostics"
    cycles_per_op = 1
    # sup_error averages the first accuracy_ops passes (150 series at n=1e5)
    accuracy_ops = 3
    min_ops = accuracy_ops
    deviation_n = (1_000, 10_000, 100_000)
    cf_u = np.linspace(-50.0, 50.0, 501)

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.seed = seed
        self.config = os.path.join(workdir, "gamma.json")

    @staticmethod
    def setup_unit(workdir, seed, index):
        _write_config(os.path.join(workdir, "gamma.json"), GAMMA_CONFIG)

    def _out(self, tag):
        return os.path.join(self.workdir, f"out-{tag}")

    def run(self, i, tag):
        seeds = [simulate.derive_seed(self.seed, i, k) for k in range(4)]
        out = self._out(tag)
        codes = [cli.main([
            "simulate", "--config", self.config, "--format", "csv", "--n", "100000",
            "--seed", str(seeds[0]), "--out", out,
        ])]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            codes.append(cli.main([
                "hill", "--config", self.config, "--in", os.path.join(out, "series.csv"),
            ]))
        deviation = ecf.ecf_deviation(
            GAMMA_PARAMS, GAMMA_MARKS, self.deviation_n, runs=50, base_seed=seeds[1],
        )
        audits = [
            bench.run_lower_bound_audit(GAMMA_PARAMS, GAMMA_MARKS, GAMMA_SMOOTHNESS, seed=seeds[2]),
            bench.run_lower_bound_audit(REF_PARAMS, REF_MARKS, REF_SMOOTHNESS, seed=seeds[2]),
        ]
        series = simulate.simulate_series(GAMMA_PARAMS, GAMMA_MARKS, 1_000_000, seed=seeds[3])
        hill = estimator.hill_ratio(series.values)
        phi = model.true_shot_cf(GAMMA_PARAMS, GAMMA_MARKS, self.cf_u)
        return codes, printed.getvalue(), deviation, audits, hill, phi

    def collect(self, i, tag, raw):
        codes, printed, deviation, audits, hill, phi = raw
        with open(os.path.join(self._out(tag), "series.csv"), "rb") as handle:
            csv_digest = hashlib.sha256(handle.read()).hexdigest()
        closed = (1.0 - 1j * self.cf_u) ** -2.0
        slope, _ = bench.loglog_slope(
            [row["n"] for row in deviation], [row["mean_sup"] for row in deviation]
        )
        return {
            "codes": codes,
            "series_csv_sha256": csv_digest,
            "hill_cli": printed,
            "deviation": deviation,
            "deviation_slope": slope,
            "audit_slack": [audit["min_slack"] for audit in audits],
            "audit_passed": [audit["passed"] for audit in audits],
            "hill_ratio": hill,
            "cf_rel_err": float(np.max(np.abs(phi - closed) / np.abs(closed))),
        }

    def check(self, i, result):
        problems = []
        if result["codes"] != [0, 0]:
            problems.append(f"simulate/hill exited with {result['codes']}")
        fields = dict(part.split("=") for part in result["hill_cli"].split())
        if not (math.isfinite(float(fields.get("ratio_estimate", "nan")))):
            problems.append(f"hill printed {result['hill_cli']!r}")
        if not result["cf_rel_err"] <= 1e-6:
            problems.append(f"criterion 3: CF rel err {result['cf_rel_err']:.2e} > 1e-6")
        if not -0.6 <= result["deviation_slope"] <= -0.4:
            problems.append(f"criterion 5: slope {result['deviation_slope']:.4f}")
        if not (all(result["audit_passed"]) and min(result["audit_slack"]) >= 0.0):
            problems.append(f"criterion 7: slack {result['audit_slack']}")
        if not abs(result["hill_ratio"] - 2.0) / 2.0 <= 0.2:
            problems.append(f"criterion 8: hill {result['hill_ratio']:.4f} not within 20% of 2")
        return problems

    def sup_error(self, results):
        """Mean sup gap between ECF and true CF at n = 1e5 over the accuracy passes."""
        return float(np.mean([results[i]["deviation"][-1]["mean_sup"]
                              for i in range(self.accuracy_ops)]))


WORKLOADS = {w.name: w for w in (Table1, Estimate, Diagnostics)}
