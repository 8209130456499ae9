"""Span tracing installed from outside the ``shotdeconv`` package.

The tracer replaces module attributes of the package with timing wrappers,
one for each public name a module calls in the layer below (for example
``bench.simulate_series`` or ``cli.estimate_density``). Calls then open
spans that nest as the program makes them, and no file of the package
changes. Leaving the ``with`` block puts the original functions back.

Spans are kept in memory as plain lists and summarised, or written out,
only after the measured work has finished.
"""

from __future__ import annotations

import functools
import importlib
import time

from scipy.fft import next_fast_len

# The simulator draws no pulse older than 40 decay times, so the expected
# number of drawn pulses per sample is lambda * min(1, 40 / alpha). The
# ``pulses`` count is computed from that rule; the program does not count.
_AGE_CUTOFF = 40.0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_pulses(args, kwargs, series):
    params = _arg(args, kwargs, 0, "params")
    lam_eff = params.lambda_norm * min(1.0, _AGE_CUTOFF / params.alpha_norm)
    return {"pulses": lam_eff * (len(series.values) + series.burn_in)}


def _count_bins(args, kwargs, hist):
    return {"bins": hist.mass.size}


def _count_fft_len(args, kwargs, grid):
    # the chirp-z transform pads bins + 2 * half_count to a fast FFT length
    hist = _arg(args, kwargs, 0, "hist")
    half = int(_arg(args, kwargs, 2, "half_count"))
    return {"fft_len": next_fast_len(hist.mass.size + 2 * half, real=False)}


def _count_kept(args, kwargs, result):
    return {"kept": 1.0 - result[1]["fraction_thresholded"]}


def _cli_span_name(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv")
    return f"cli.{argv[0]}"


# (module, attribute, span name or function of the call, counter).
# A function imported into several modules is wrapped in each of them,
# because every importer holds its own reference.
TARGETS = (
    ("cli", "main", _cli_span_name, None),
    ("cli", "simulate_series", "simulate.simulate_series", _count_pulses),
    ("bench", "simulate_series", "simulate.simulate_series", _count_pulses),
    ("ecf", "simulate_series", "simulate.simulate_series", _count_pulses),
    ("simulate", "simulate_series", "simulate.simulate_series", _count_pulses),
    ("cli", "series_to_csv", "simulate.series_to_csv", None),
    ("model", "GaussianMixture.sample", "model.marks_sample", None),
    ("model", "Exponential.sample", "model.marks_sample", None),
    ("estimator", "build_histogram", "ecf.build_histogram", _count_bins),
    ("bench", "build_histogram", "ecf.build_histogram", _count_bins),
    ("estimator", "ecf_from_histogram", "ecf.ecf_from_histogram", _count_fft_len),
    ("bench", "ecf_from_histogram", "ecf.ecf_from_histogram", _count_fft_len),
    ("ecf", "ecf_deviation", "ecf.ecf_deviation", None),
    ("cli", "estimate_density", "estimator.estimate_density", None),
    ("bench", "estimate_density", "estimator.estimate_density", None),
    ("estimator", "mark_cf_estimate", "estimator.mark_cf_estimate", _count_kept),
    ("estimator", "invert_density", "estimator.invert_density", None),
    ("cli", "hill_ratio", "estimator.hill_ratio", None),
    ("estimator", "hill_ratio", "estimator.hill_ratio", None),
    ("cli", "density_to_csv", "estimator.density_to_csv", None),
    ("ecf", "true_shot_cf", "model.true_shot_cf", None),
    ("bench", "true_shot_cf", "model.true_shot_cf", None),
    ("model", "true_shot_cf", "model.true_shot_cf", None),
    ("bench", "check_smoothness", "model.check_smoothness", None),
    ("bench", "sup_error", "bench.sup_error", None),
    ("bench", "run_table1", "bench.run_table1", None),
    ("bench", "run_lower_bound_audit", "bench.run_lower_bound_audit", None),
    ("cli", "dumps_json", "serialize.dumps_json", None),
    ("cli", "write_text", "serialize.write_text", None),
)


class Tracer:
    """Context manager that records a span for every wrapped call.

    ``spans`` holds ``[name, parent index, op index, start, end, counts]``
    per call, in the order the calls began. Set ``op`` before each
    workload operation so spans can be grouped by it.
    """

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else None
            record = [span_name, parent, tracer.op, 0.0, 0.0, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                record[5] = counter(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        for module_name, attr, name, counter in TARGETS:
            owner = importlib.import_module(f"shotdeconv.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)
        return False


def summarize(spans):
    """Per span name: calls, inclusive and self seconds, summed counts, parents.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap because the program is single-threaded.
    """
    child_time = [0.0] * len(spans)
    for name, parent, _op, start, end, _counts in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for index, (name, parent, _op, start, end, counts) in enumerate(spans):
        entry = out.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}, "parents": {}}
        )
        duration = end - start
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time[index]
        for key, value in (counts or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0.0) + value
        parent_name = spans[parent][0] if parent is not None else "<op>"
        entry["parents"][parent_name] = entry["parents"].get(parent_name, 0) + 1
    return out
