"""End-to-end tests for the command-line interface.

Most tests drive `cli.main` in-process for speed; subprocess tests make sure
the `python -m shotdeconv.cli` entry point works as installed, and that an
error message does not depend on the interpreter's hash seed.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shotdeconv import cli, ecf, estimator
from shotdeconv.bench import McReport
from shotdeconv.errors import NumericalFailure
from shotdeconv.estimator import EstimatorConfig, XGrid, density_to_csv, estimate_density
from shotdeconv.model import _BLOCK, Exponential, ModelParams, normalize
from shotdeconv.simulate import default_burn_in, series_to_csv, simulate_series


def _gamma_config(tmp_path, name="config.json", **overrides):
    """Config for the Exponential(1) marks, ratio-2 model used across tests."""
    base = {
        "model": {"lambda": 2.0, "alpha": 1.0, "delta": 1.0},
        "marks": {"type": "exponential", "rate": 1.0},
        "estimator": {
            "cutoff": 2.0,
            "x_grid": {"start": 0.0, "step": 0.05, "count": 201},
        },
    }
    for key, value in overrides.items():
        if value is None:
            base.pop(key, None)
        else:
            base[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(base), encoding="utf-8")
    return path


def _run(n=2_000, seed=7):
    """The `simulate` flags of a run of `n` values at `seed`."""
    return ["--n", str(n), "--seed", str(seed)]


def _series(tmp_path, n=2_000, seed=7):
    """`--in` flags of a CSV series of the `_gamma_config` model: `n` values at `seed`."""
    path = tmp_path / f"series-{n}-{seed}.csv"
    if not path.exists():
        series = simulate_series(normalize(2.0, 1.0, 1.0), Exponential(1.0), n, seed=seed)
        path.write_text(series_to_csv(series), encoding="utf-8")
    return ["--in", str(path)]


class TestEntryPoint:
    def test_version_via_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "shotdeconv.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "shotdeconv" in proc.stdout

    def test_simulate_via_module(self, tmp_path):
        config = _gamma_config(tmp_path)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "shotdeconv.cli", "simulate",
             "--config", str(config), "--out", str(out), *_run(200)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "series.csv").exists()
        assert (out / "series_meta.json").exists()


def test_readme_command_lines_parse():
    # a stale example in README's shell blocks fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    lines = [shlex.split(line, comments=True) for block in blocks
             for line in block.splitlines() if line.startswith("shotdeconv ")]
    assert len(lines) >= 5
    parser = cli.build_parser()
    for words in lines:
        try:
            parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {shlex.join(words)}")


class TestConfigValidation:
    def test_missing_config_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["simulate", "--n", "10"])
        assert excinfo.value.code == 2
        assert "the following arguments are required: --config" in capsys.readouterr().err

    def test_nonexistent_config_exits_2(self, tmp_path, capsys):
        code = cli.main(["simulate", "--config", str(tmp_path / "nope.json"), "--n", "10"])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_top_level_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "model": {"lambda": 2.0, "alpha": 1.0, "delta": 1.0},
            "marks": {"type": "exponential", "rate": 1.0},
            "extra": 1,
        }), encoding="utf-8")
        assert cli.main(["simulate", "--config", str(path), "--n", "10"]) == 2
        assert "unknown fields" in capsys.readouterr().err

    def test_unknown_estimator_key_exits_2(self, tmp_path, capsys):
        config = _gamma_config(tmp_path, estimator={"cutoff": 2.0, "cutof": 1.0})
        assert cli.main(["estimate", "--config", str(config), *_series(tmp_path)]) == 2
        assert "unknown fields" in capsys.readouterr().err

    def test_unknown_model_key_exits_2(self, tmp_path, capsys):
        config = _gamma_config(tmp_path, model={"lambda": 2.0, "alpha": 1.0, "delta": 1.0, "mu": 1})
        assert cli.main(["simulate", "--config", str(config), "--n", "10"]) == 2
        assert "unknown fields ['mu'] in config.model" in capsys.readouterr().err

    def test_non_object_model_exits_2(self, tmp_path, capsys):
        config = _gamma_config(tmp_path, model=[1])
        assert cli.main(["simulate", "--config", str(config), "--n", "10"]) == 2
        assert capsys.readouterr().err == "error: config.model must be a JSON object, got list\n"

    def test_kappa_exponent_is_an_unknown_key(self, tmp_path, capsys):
        # the threshold exponent is the theorem's 2, not a setting
        config = _gamma_config(tmp_path, estimator={"cutoff": 2.0, "kappa_exponent": 2})
        assert cli.main(["estimate", "--config", str(config), *_series(tmp_path)]) == 2
        assert "unknown fields ['kappa_exponent'] in config.estimator" in capsys.readouterr().err

    @pytest.mark.parametrize("theorem", [False, True])
    @pytest.mark.parametrize("s", [0.5, 0.25, -1.0])
    def test_s_at_most_half_exits_2(self, tmp_path, capsys, s, theorem):
        # s and use_theorem_bandwidth are no longer settings, so any value of
        # either is refused as an unknown key
        section = {"use_theorem_bandwidth": True} if theorem else {"cutoff": 2.0}
        config = _gamma_config(tmp_path, estimator={**section, "s": s})
        assert cli.main(["estimate", "--config", str(config), "--out", str(tmp_path / "o"),
                         *_series(tmp_path)]) == 2
        unknown = ["s", "use_theorem_bandwidth"] if theorem else ["s"]
        assert f"unknown fields {unknown} in config.estimator" in capsys.readouterr().err

    def test_estimator_keys_match_the_config_fields(self):
        # every estimator key is one EstimatorConfig field; ratio comes from the model
        fields = {f.name for f in dataclasses.fields(EstimatorConfig)}
        assert cli._ESTIMATOR_KEYS == fields - {"ratio"}

    @pytest.mark.parametrize(
        "config, command",
        [
            ({"model": {}, "marks": {"type": "exponential", "rate": 1.0}}, "simulate"),
            ({"model": {"lambda": 2.0, "alpha": 1.0, "delta": 1.0},
              "marks": {"type": "exponential", "rate": 1.0}, "smoothness": {}}, "audit"),
        ],
        ids=["model", "smoothness"],
    )
    def test_missing_keys_message_ignores_hash_seed(self, tmp_path, config, command):
        # missing keys are named in sorted order, whatever the set iteration order
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = [sys.executable, "-m", "shotdeconv.cli", command, "--config", str(path),
                "--out", str(tmp_path / "o"), *(["--n=10"] if command == "simulate" else [])]
        errs = []
        for hash_seed in ("0", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            proc = subprocess.run(argv, capture_output=True, text=True, env=env)
            assert proc.returncode == 2, proc.stderr
            errs.append(proc.stderr)
        assert errs[0] == errs[1]
        assert errs[0].startswith("error: missing fields [")

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert cli.main(["simulate", "--config", str(path), "--n", "10"]) == 2
        assert "valid JSON" in capsys.readouterr().err

    def test_missing_n_exits_2(self, tmp_path, capsys):
        # simulate needs its sample size, and estimate and hill their series file
        config = _gamma_config(tmp_path)
        for command, message in [
            ("simulate", "the following arguments are required: --n"),
            ("estimate", "the following arguments are required: --in"),
            ("hill", "the following arguments are required: --in"),
        ]:
            with pytest.raises(SystemExit) as excinfo:
                cli.main([command, "--config", str(config)])
            assert excinfo.value.code == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "hill"])
    def test_seed_with_in_exits_2(self, tmp_path, capsys, command):
        # a series file is all that estimate and hill read, so they take no seed
        config = _gamma_config(tmp_path)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "--config", str(config), *_series(tmp_path),
                      "--seed", "99", "--out", str(out)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --seed 99" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("bench", ["--table1"], "invalid choice: 'bench'"),
            ("estimate", ["--n", "100"], "unrecognized arguments: --n 100"),
            ("hill", ["--n", "100"], "unrecognized arguments: --n 100"),
            ("audit", ["--runs", "7"], "unrecognized arguments: --runs 7"),
            ("audit", ["--jobs", "3"], "unrecognized arguments: --jobs 3"),
        ],
        ids=["bench-table1", "estimate-n", "hill-n", "audit-runs", "audit-jobs"],
    )
    def test_unread_flag_exits_2(self, tmp_path, capsys, command, flags, message):
        # each subcommand takes only the flags it reads; bench's modes are subcommands
        config = _gamma_config(tmp_path)
        out = tmp_path / "o"
        source = _series(tmp_path) if command in ("estimate", "hill") else []
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "--config", str(config), *source, *flags, "--out", str(out)])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_option_sets(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: sorted(flag for action in p._actions for flag in action.option_strings
                         if flag not in ("-h", "--help"))
            for name, p in sub.choices.items()
        }
        assert options == {
            "simulate": ["--config", "--format", "--n", "--out", "--seed"],
            "estimate": ["--config", "--in", "--out"],
            "table1": ["--config", "--jobs", "--out", "--runs", "--seed"],
            "audit": ["--config", "--out", "--seed"],
            "hill": ["--config", "--in", "--k", "--out"],
        }


class TestSimulate:
    def test_csv_deterministic_across_runs(self, tmp_path):
        config = _gamma_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out_a), *_run(300)]) == 0
        assert cli.main(["simulate", "--config", str(config), "--out", str(out_b), *_run(300)]) == 0
        assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()
        assert (out_a / "series_meta.json").read_bytes() == (out_b / "series_meta.json").read_bytes()

    def test_seed_flag_changes_output(self, tmp_path):
        config = _gamma_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out_a), *_run(300)]) == 0
        assert cli.main(["simulate", "--config", str(config), "--out", str(out_b),
                         *_run(300, seed=8)]) == 0
        assert (out_a / "series.csv").read_bytes() != (out_b / "series.csv").read_bytes()

    def test_f64le_matches_library_values(self, tmp_path):
        config = _gamma_config(tmp_path)
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out),
                         "--format", "f64le", *_run(250)]) == 0
        data = np.frombuffer((out / "series.f64le").read_bytes(), dtype="<f8")
        params = normalize(2.0, 1.0, 1.0)
        expected = simulate_series(params, Exponential(1.0), 250, seed=7).values
        np.testing.assert_array_equal(data, expected)
        meta = json.loads((out / "series_meta.json").read_text())
        assert meta["data_file"] == "series.f64le"
        assert meta["n"] == 250 and meta["seed"] == 7

    def test_rejects_unknown_format(self, tmp_path, capsys):
        config = _gamma_config(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["simulate", "--config", str(config), "--format", "json", *_run(50)])
        assert excinfo.value.code == 2

    def test_zero_intensity_gives_zero_series(self, tmp_path):
        config = _gamma_config(tmp_path, model={"lambda": 0.0, "alpha": 1.0, "delta": 1.0})
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out), *_run(100)]) == 0
        values = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1, usecols=1)
        assert np.all(values == 0.0)

    @pytest.mark.parametrize("flag", ["--trace", "--grid-step"])
    def test_trace_flags_are_unrecognized(self, tmp_path, capsys, flag):
        config = _gamma_config(tmp_path)
        argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "o"), *_run(50), flag]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv + (["0.02"] if flag == "--grid-step" else []))
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "alpha, n",
        [(1.0, 10_000_000_000), (1e-300, 10)],
        ids=["huge-n", "huge-burn-in"],
    )
    def test_oversized_simulation_exits_2(self, tmp_path, capsys, alpha, n):
        # refused before anything of that size is allocated
        config = _gamma_config(tmp_path, model={"lambda": 2.0, "alpha": alpha, "delta": 1.0})
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out),
                         "--n", str(n)]) == 2
        burn_in = default_burn_in(normalize(2.0, alpha, 1.0))
        assert capsys.readouterr().err == (
            f"error: n = {n} observations after a burn-in of {burn_in} steps exceed the "
            f"cap of {2**28} simulated intervals; use a smaller n, or a larger alpha*delta "
            f"for a shorter burn-in\n"
        )
        assert not out.exists()

    def test_burn_in_beyond_float_range_exits_2(self, tmp_path, capsys):
        # 40 / alpha_norm overflows; refused with the cap, not a traceback
        config = _gamma_config(tmp_path, model={"lambda": 0.0, "alpha": 1e-310, "delta": 1.0})
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out),
                         "--n", "10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"cap of {2**28} simulated intervals" in err
        assert not out.exists()

    def test_overflowing_marks_exit_2(self, tmp_path, capsys):
        # sd * z + mu overflows: an input error naming the remedy, with no warning
        marks = {"type": "gaussian_mixture", "weights": [1.0], "means": [1e308], "sds": [1e308]}
        config = _gamma_config(tmp_path, marks=marks)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["simulate", "--config", str(config), "--out", str(out), *_run(100)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: the simulated series overflows the float range (a mark or a sum of "
            "marks is not finite); rescale the marks to a smaller unit\n"
        )
        assert not out.exists()


class TestEstimate:
    def test_writes_estimate_and_diagnostics(self, tmp_path):
        config = _gamma_config(tmp_path)
        out = tmp_path / "o"
        assert cli.main(["estimate", "--config", str(config), "--out", str(out),
                         *_series(tmp_path)]) == 0
        text = (out / "estimate.csv").read_text()
        assert text.startswith("x,theta_hat\n")
        assert len(text.splitlines()) == 202  # header + 201 grid points
        diagnostics = json.loads((out / "diagnostics.json").read_text())
        assert "fraction_thresholded" in diagnostics
        assert 0.0 <= diagnostics["fraction_thresholded"] < 1.0

    @pytest.mark.parametrize("fmt", ["csv", "f64le"])
    def test_in_matches_library_estimate(self, tmp_path, fmt):
        # simulate, then estimate --in, gives the library's bytes on the same series
        config = _gamma_config(tmp_path)
        data, out = tmp_path / "data", tmp_path / "o"
        assert cli.main(["simulate", "--config", str(config), "--out", str(data),
                         "--format", fmt, *_run()]) == 0
        assert cli.main(["estimate", "--config", str(config), "--out", str(out),
                         "--in", str(data / f"series.{fmt}")]) == 0
        params = normalize(2.0, 1.0, 1.0)
        values = simulate_series(params, Exponential(1.0), 2_000, seed=7).values
        config = EstimatorConfig(ratio=params.ratio, cutoff=2.0, x_grid=XGrid(0.0, 0.05, 201))
        expected = density_to_csv(estimate_density(values, config))
        assert (out / "estimate.csv").read_bytes() == expected.encode("utf-8")

    def test_non_finite_x_grid_exits_2_before_reading(self, tmp_path, capsys):
        # its last point overflows: refused with the config, with no warning
        grid = {"start": -1e308, "step": 1e308, "count": 3}
        config = _gamma_config(tmp_path, estimator={"cutoff": 2.0, "x_grid": grid})
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["estimate", "--config", str(config), *_series(tmp_path),
                             "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: x_grid last point start + step * (count - 1) = inf is not finite\n"
        )
        assert not out.exists()

    def test_overflowing_x_phase_exits_2(self, tmp_path, capsys):
        # every point is finite, but x * u overflows at the cutoff: refused
        # before any NaN reaches the output, with no warning
        grid = {"start": 1e308, "step": 1.0, "count": 3}
        config = _gamma_config(tmp_path, estimator={"cutoff": 2.0, "x_grid": grid})
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["estimate", "--config", str(config), *_series(tmp_path),
                             "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: x_grid reaches |x| = 1e+308, where the inversion phase x * u at the "
            "frequency span 2 overflows; shift or rescale the x_grid\n"
        )
        assert not out.exists()

    def test_non_finite_mark_cf_exits_2(self, tmp_path, capsys, monkeypatch):
        # one NaN in the mark CF would make every estimated value NaN
        config = _gamma_config(tmp_path)
        real = estimator.mark_cf_estimate

        def with_nan(*args):
            values, diagnostics = real(*args)
            values[values.size // 2] = complex("nan")
            return values, diagnostics

        monkeypatch.setattr(estimator, "mark_cf_estimate", with_nan)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["estimate", "--config", str(config), *_series(tmp_path),
                             "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: mark_cf must hold finite values only\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "model, estimator, message",
        [
            (
                {"lambda": 1e-310, "alpha": 1.0, "delta": 1.0},
                {"cutoff": 0.8},
                "error: the ratio term u * phi_prime / (ratio * phi) overflows the float range "
                "at ratio = 1e-310 and kappa = ",
            ),
            (
                {"lambda": 2.0, "alpha": 1.0, "delta": 1.0},
                {"cutoff": 5e-324},
                "error: cutoff 5e-324 is too small: its frequency step cutoff/1024 rounds "
                "down to 0.0, so the grid spans only 0.0; use a cutoff of at least "
                "2.2784756311113742e-305\n",
            ),
            (
                {"lambda": 2.0, "alpha": 1.0, "delta": 1.0},
                {"cutoff": 7e-321},
                "error: cutoff 7e-321 is too small: its frequency step cutoff/1024 rounds "
                "down to 5e-324, so the grid spans only 5.06e-321; use a cutoff of at least "
                "2.2784756311113742e-305\n",
            ),
        ],
        ids=["ratio-term-overflow", "cutoff-step-underflow", "cutoff-step-rounds-short"],
    )
    def test_tiny_ratio_or_cutoff_exits_2_with_one_line(
        self, tmp_path, capsys, model, estimator, message
    ):
        config = _gamma_config(tmp_path, model=model, estimator=estimator)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["estimate", "--config", str(config), *_series(tmp_path),
                             "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(message) and err.count("\n") == 1, err
        assert not out.exists()

    def test_fine_bin_width_estimates(self, tmp_path):
        # about 5.3e5 bins: the chirp-z ECF still holds its exact values
        config = _gamma_config(tmp_path, estimator={"cutoff": 2.0, "bin_width": 3e-5})
        code = cli.main(["estimate", "--config", str(config), *_series(tmp_path, 100_000, seed=1),
                         "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "estimate.csv").exists()

    def test_too_fine_bin_width_exits_3(self, tmp_path, capsys, monkeypatch):
        # an ECF that misses phi(0) = 1 by more than 1e-9 is a numerical
        # failure, not an input error; the plan stays at rounding at every
        # bin count, so its output is scaled by 1 + 1e-8 here
        real = ecf._czt_plan

        def perturbed(*args):
            transform = real(*args)
            return lambda x: transform(x) * (1.0 + 1e-8)

        monkeypatch.setattr(ecf, "_czt_plan", perturbed)
        config = _gamma_config(tmp_path, estimator={"cutoff": 2.0, "bin_width": 3e-5})
        code = cli.main(["estimate", "--config", str(config), *_series(tmp_path, 100_000, seed=1),
                         "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert re.search(r"over \d+ bins .*; increase bin_width", err), err
        assert not (tmp_path / "o").exists()

    def test_truncated_f64le_exits_2(self, tmp_path, capsys):
        config = _gamma_config(tmp_path)
        bad = tmp_path / "bad.f64le"
        bad.write_bytes(b"\x00" * 12)  # not a multiple of 8
        code = cli.main(["estimate", "--config", str(config), "--in", str(bad)])
        assert code == 2
        assert "float64" in capsys.readouterr().err

    def test_missing_cutoff_exits_2(self, tmp_path, capsys):
        # checked before the input is read: the missing file is not reached
        config = _gamma_config(tmp_path, estimator={"x_grid": {"start": 0.0, "step": 0.05, "count": 201}})
        missing = tmp_path / "nope.f64le"
        assert cli.main(["estimate", "--config", str(config), "--in", str(missing)]) == 2
        assert capsys.readouterr().err == (
            "error: estimator cutoff unspecified: set estimator.cutoff in the config\n"
        )

    # the cutoff and the bin width are set only as estimator keys of the config
    @pytest.mark.parametrize("flag", ["--kappa", "--C", "--cutoff", "--bin-width"])
    def test_removed_threshold_flag_exits_2(self, tmp_path, capsys, flag):
        config = _gamma_config(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["estimate", "--config", str(config), *_series(tmp_path), flag, "0.5"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err

    @pytest.mark.parametrize("shift", [-1000.0, 1000.0])
    def test_extreme_mean_series_gives_estimate(self, tmp_path, shift):
        # exp(-mean) overflows below and underflows above; the adaptive C clamps
        config = _gamma_config(tmp_path)
        series = simulate_series(ModelParams(2.0, 1.0, 2.0), Exponential(1.0), 2_000, seed=7)
        path = tmp_path / "shifted.f64le"
        path.write_bytes((series.values + shift).astype("<f8").tobytes())
        out = tmp_path / "o"
        assert cli.main(["estimate", "--config", str(config), "--in", str(path),
                         "--out", str(out)]) == 0
        diagnostics = json.loads((out / "diagnostics.json").read_text())
        assert diagnostics["fraction_thresholded"] == (1.0 if shift < 0 else 0.0)

    def test_huge_magnitude_series_exits_2(self, tmp_path, capsys):
        config = _gamma_config(tmp_path)
        path = tmp_path / "huge.f64le"
        path.write_bytes(np.full(10, 1e20).astype("<f8").tobytes())
        code = cli.main(["estimate", "--config", str(config), "--in", str(path),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert "bin indices" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [[0.0, 5e-324], [-1e308, 1e308]],
                             ids=["span-underflow", "span-overflow"])
    def test_default_width_out_of_range_exits_2(self, tmp_path, capsys, values):
        config = _gamma_config(tmp_path)
        path = tmp_path / "range.f64le"
        path.write_bytes(np.asarray(values).astype("<f8").tobytes())
        code = cli.main(["estimate", "--config", str(config), "--in", str(path),
                         "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "sample range" in err and "default 4096 bins" in err
        assert "pass a bin_width or rescale the sample" in err
        assert "bin_width must be > 0" not in err

    @pytest.mark.parametrize("values", [[1.0, 2.0, 1e300], [0.0, 1e20]], ids=["1e300", "1e20"])
    def test_cutoff_past_nyquist_exits_2(self, tmp_path, capsys, values):
        config = _gamma_config(tmp_path)
        path = tmp_path / "wide.f64le"
        path.write_bytes(np.asarray(values).astype("<f8").tobytes())
        code = cli.main(["estimate", "--config", str(config), "--in", str(path),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "Nyquist" in err and "smaller bin_width" in err

    def test_numerical_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        config = _gamma_config(tmp_path)

        def boom(values, config):
            raise NumericalFailure("forced failure for exit-code test")

        monkeypatch.setattr(cli, "estimate_density", boom)
        code = cli.main(["estimate", "--config", str(config), "--out", str(tmp_path / "o"),
                         *_series(tmp_path)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestSimulateOutputPinning:
    """Digests of the `shotdeconv simulate` data file and sidecar in both formats.

    One config is the Exponential(1)-mark model of `_gamma_config` at
    n = 2000 and seed 7, the other the reference mixture at n = 3000 and
    seed 2024. Recorded with numpy 2.4 and scipy 1.17 on x86-64 with
    AVX-512, package version 0.1.0 (the sidecar names the version). Any
    change to the random stream, the recursion or the writers changes these
    bytes.
    """

    REFERENCE = {
        "model": {"lambda": 100.0, "alpha": 80.0, "delta": 1.0},
        "marks": {"type": "gaussian_mixture", "weights": [0.3, 0.5, 0.2],
                  "means": [4.0, 12.0, 22.0], "sds": [1.0, 1.0, 0.5]},
    }

    @pytest.mark.parametrize(
        "name, fmt, data_digest, meta_digest",
        [
            (
                "gamma", "csv",
                "bd32d55e6b36a1565a78a3f6932cc197eb77d5f708d172f893f485f699b2d3d2",
                "5e4d19d4056d33639a7de71b0a5e447a0ff9faed79343b177dfc04f03daa96c1",
            ),
            (
                "gamma", "f64le",
                "cd8cf1841b254111e455f94af3b41c65351fc103820e27aae02b743f952f8548",
                "541e10117ef16e68cd3f8f7e9a53b0ccd322e91a95b420ce1be41b1b677745bb",
            ),
            (
                "reference", "csv",
                "a5740a6361b6f64da80c4348f5bcb3453f898f8ae7122dc7c0cb92db451717dc",
                "6237c2115a617e969916fa1f2a3551c2f36bca3b264941456b88480fab04a758",
            ),
            (
                "reference", "f64le",
                "9ba29dc279950eab3c05a37ae25cbc9c978827adeabcdfa1c1941ceb434455e9",
                "915c7b26be3f82e388904eef796bdc9d25fa469b378daf22508eb835c0967f49",
            ),
        ],
        ids=["gamma-csv", "gamma-f64le", "reference-csv", "reference-f64le"],
    )
    def test_digests(self, tmp_path, name, fmt, data_digest, meta_digest):
        if name == "gamma":
            config, flags = _gamma_config(tmp_path), _run(2_000, seed=7)
        else:
            config = tmp_path / "reference.json"
            config.write_text(json.dumps(self.REFERENCE), encoding="utf-8")
            flags = _run(3_000, seed=2024)
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out),
                         "--format", fmt, *flags]) == 0
        digests = [hashlib.sha256((out / file).read_bytes()).hexdigest()
                   for file in (f"series.{fmt}", "series_meta.json")]
        assert digests == [data_digest, meta_digest]


class TestEstimateOutputPinning:
    """Digests of `shotdeconv estimate` outputs on a seeded reference series.

    The series is the reference model's (lambda 100, alpha 80, three-mode
    mixture) at n = 50 000 and seed 2024, written by `shotdeconv simulate`
    as f64le and read back. The default x-grid ends at the histogram's
    0.999 edge and the default bin width gives the 4096-bin histogram.
    Recorded with numpy 2.4 on x86-64 with AVX-512; any change to the histogram, the
    ECF, the threshold, the inversion or the writers that is not bit for bit
    neutral changes these bytes.
    """

    REFERENCE = TestSimulateOutputPinning.REFERENCE

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("pinning")
        (root / "config.json").write_text(json.dumps(self.REFERENCE), encoding="utf-8")
        assert cli.main(["simulate", "--config", str(root / "config.json"),
                         *_run(50_000, seed=2024), "--format", "f64le", "--out", str(root)]) == 0
        return root

    @pytest.mark.parametrize(
        "estimator, estimate_digest, diagnostics_digest",
        [
            (
                {"cutoff": 0.8},
                "3643f8637cac17a6205227cc721c5b55bec80252d7387b8f20c11ea54e3fd1b4",
                "f56630b1bcdb131db1fce7df0a9dc8f51332dac3b797e7ba03e556fee16cd4eb",
            ),
            (
                {"cutoff": 0.8, "bin_width": 0.05},
                "4dd95f45a7094b15ed909b275af70b3d6345f568bd9002bc7f87f89728d0ebfa",
                "0bb26a5a2962142501bc40f21a58efd6dd123ab8acf427c74c36512f9fa5a06f",
            ),
        ],
        ids=["adaptive", "bin-width"],
    )
    def test_digests(self, tmp_path, workdir, estimator, estimate_digest, diagnostics_digest):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**self.REFERENCE, "estimator": estimator}), encoding="utf-8")
        out = tmp_path / "o"
        assert cli.main(["estimate", "--config", str(config),
                         "--in", str(workdir / "series.f64le"), "--out", str(out)]) == 0
        digests = [hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("estimate.csv", "diagnostics.json")]
        assert digests == [estimate_digest, diagnostics_digest]


class TestBench:
    """The `table1` and `audit` subcommands over the bench module."""

    def test_errors_flag_is_unrecognized(self, tmp_path, capsys):
        config = _gamma_config(tmp_path)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["audit", "--config", str(config), "--errors", "x.csv",
                      "--out", str(out)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --errors x.csv" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_default_forwarded_unresolved(self, tmp_path, monkeypatch):
        # the library resolves None to the CPUs this process may use
        args = cli.build_parser().parse_args(["table1", "--config", "c.json"])
        assert args.jobs is None
        seen = {}

        def fake_run_table1(params, marks, **kwargs):
            seen.update(kwargs)
            return [McReport(10, (0.1, 0.2), {}, 0.0)]

        monkeypatch.setattr(cli, "run_table1", fake_run_table1)
        config = _gamma_config(tmp_path)
        assert cli.main(["table1", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        assert "jobs" in seen and seen["jobs"] is None

    def test_audit_passes_for_exponential_marks(self, tmp_path, capsys):
        config = _gamma_config(
            tmp_path,
            smoothness={"s": 1.0, "K": 121.0, "L": 0.378, "m": 1.0},
        )
        out = tmp_path / "o"
        code = cli.main(["audit", "--config", str(config), "--out", str(out), "--seed", "4"])
        assert code == 0
        assert capsys.readouterr().out.startswith("audit passed")
        report = json.loads((out / "audit.json").read_text())
        assert report["passed"] is True
        assert report["min_slack"] >= 0.0

    def test_audit_without_smoothness_exits_2(self, tmp_path, capsys):
        config = _gamma_config(tmp_path)
        out = tmp_path / "o"
        code = cli.main(["audit", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert "smoothness" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.slow
    def test_table1_writes_reference_outputs(self, tmp_path):
        config = _gamma_config(tmp_path)
        out = tmp_path / "o"
        code = cli.main(["table1", "--config", str(config),
                         "--runs", "2", "--jobs", "1", "--seed", "7", "--out", str(out)])
        assert code == 0
        table = (out / "table1.csv").read_text()
        assert table.startswith("n,runs,mean_sup_error,variance\n")
        assert len(table.splitlines()) == 4  # header + three sample sizes
        runs_csv = (out / "table1_runs.csv").read_text()
        assert runs_csv.startswith("n,run,sup_error\n")
        payload = json.loads((out / "table1.json").read_text())
        assert [entry["n"] for entry in payload] == [10_000, 100_000, 1_000_000]
        flags = [entry["config_snapshot"]["estimator"]["renormalize"] for entry in payload]
        assert flags == [True, False, False]


class TestHill:
    def test_prints_ratio_and_k(self, tmp_path, capsys):
        config = _gamma_config(tmp_path)
        assert cli.main(["hill", "--config", str(config), *_series(tmp_path, 20_000)]) == 0
        stdout = capsys.readouterr().out.strip()
        left, right = stdout.split(" ")
        assert left.startswith("ratio_estimate=")
        assert float(left.split("=")[1]) > 0.0
        assert right == f"k={int(20_000 ** 0.6)}"

    def test_out_writes_json(self, tmp_path, capsys):
        config = _gamma_config(tmp_path)
        out = tmp_path / "o"
        assert cli.main(["hill", "--config", str(config), "--out", str(out),
                         "--k", "200", *_series(tmp_path, 5_000)]) == 0
        capsys.readouterr()
        report = json.loads((out / "hill.json").read_text())
        assert report["k"] == 200 and report["n"] == 5_000
        assert report["ratio_estimate"] > 0.0

    def test_nonpositive_sample_exits_2(self, tmp_path, capsys):
        # a zero-intensity series is all zeros
        config = _gamma_config(tmp_path, model={"lambda": 0.0, "alpha": 1.0, "delta": 1.0})
        data = tmp_path / "data"
        assert cli.main(["simulate", "--config", str(config), "--out", str(data), *_run(100)]) == 0
        assert cli.main(["hill", "--config", str(config), "--in", str(data / "series.csv")]) == 2
        assert "must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("suffix", "payload", "message"),
        [
            ("csv", "index,value\n1,2.0\n2,2.0\n3,2.0\n4,2.0\n",
             "error: the k + 1 = 3 smallest sample values are equal (to working precision), "
             "so the Hill statistic is 0; pass a larger k (at most n - 1 = 3)\n"),
            ("f64le", np.array([5e-324, 1.0, 2.0, 3.0, 4.0, 5.0]).astype("<f8").tobytes(),
             "error: all sample values must be >= 2.2250738585072014e-308 (the smallest normal "
             "double) for the Hill route, whose reciprocal of a smaller value overflows; "
             "got minimum 5e-324\n"),
        ],
        ids=["constant-tail", "subnormal-value"],
    )
    def test_invalid_tail_exits_2_without_warning(self, tmp_path, capsys, suffix, payload, message):
        # the suite turns any warning into an error, so none may reach stderr
        config = _gamma_config(tmp_path)
        path = tmp_path / f"series.{suffix}"
        if isinstance(payload, bytes):
            path.write_bytes(payload)
        else:
            path.write_text(payload, encoding="utf-8")
        out = tmp_path / "o"
        code = cli.main(["hill", "--config", str(config), "--in", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == message
        assert captured.out == ""
        assert not out.exists()


class TestNonFiniteInput:
    """Series files with NaN or infinity are input errors for every reader."""

    @staticmethod
    def _write(tmp_path, suffix, bad):
        values = np.linspace(0.5, 3.0, 50)
        values[17] = bad
        path = tmp_path / f"series.{suffix}"
        if suffix == "f64le":
            path.write_bytes(values.astype("<f8").tobytes())
        else:
            rows = "".join(f"{i},{v!r}\n" for i, v in enumerate(values.tolist(), start=1))
            path.write_text("index,value\n" + rows, encoding="utf-8")
        return path

    @pytest.mark.parametrize("command", [["estimate"], ["hill"]])
    @pytest.mark.parametrize("suffix", ["f64le", "csv"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_exits_2_with_message(self, tmp_path, capsys, command, suffix, bad):
        config = _gamma_config(tmp_path)
        path = self._write(tmp_path, suffix, bad)
        code = cli.main([*command, "--config", str(config), "--in", str(path),
                         "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 2
        assert "non-finite" in captured.err and "position 18" in captured.err
        assert "ratio_estimate" not in captured.out


# raw f64le payloads: arbitrary bytes (NaNs, infinities, every exponent and
# ragged lengths), or packed finite floats that get past the reader
_f64le_payloads = st.one_of(
    st.binary(max_size=96),
    st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(min_value=-50.0, max_value=50.0),
        ),
        min_size=1, max_size=40,
    ).map(lambda xs: np.asarray(xs, dtype="<f8").tobytes()),
)
# CSV payloads: arbitrary text, or a header and index,value rows whose value
# field is a float or arbitrary text
_csv_payloads = st.one_of(
    st.text(max_size=80),
    st.lists(
        st.one_of(st.floats().map(repr), st.text(alphabet="0123456789.-+eE,x ", max_size=8)),
        min_size=0, max_size=30,
    ).map(lambda fields: "index,value\n" + "".join(f"{i},{f}\n" for i, f in enumerate(fields))),
)


class TestRandomInputProperty:
    """Any series file gives an estimate or a documented error, never a traceback.

    No warning may escape either: the suite turns every warning into an error.
    """

    @pytest.mark.parametrize("command", ["estimate", "hill"])
    @pytest.mark.parametrize("suffix", ["f64le", "csv"])
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_code_is_documented(self, tmp_path, capsys, command, suffix, data):
        config = _gamma_config(tmp_path, estimator={"cutoff": 2.0})
        path = tmp_path / f"series.{suffix}"
        if suffix == "f64le":
            path.write_bytes(data.draw(_f64le_payloads))
        else:
            path.write_text(data.draw(_csv_payloads), encoding="utf-8")
        code = cli.main([command, "--config", str(config), "--in", str(path),
                         "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code in (0, 2, 3)
        assert "Traceback" not in captured.err
        if code:
            assert captured.err.startswith(("error: ", "numerical failure: "))


class TestUnreadableInput:
    """An input file that cannot be read is an input error (exit 2), not exit 1."""

    def test_missing_f64le_exits_2(self, tmp_path, capsys):
        config = _gamma_config(tmp_path)
        path, out = tmp_path / "nope.f64le", tmp_path / "o"
        assert cli.main(["estimate", "--config", str(config), "--in", str(path),
                         "--out", str(out)]) == 2
        assert f"could not read series file {path}" in capsys.readouterr().err
        assert not out.exists()

    def test_directory_f64le_exits_2(self, tmp_path, capsys):
        config = _gamma_config(tmp_path)
        path = tmp_path / "dir.f64le"
        path.mkdir()
        assert cli.main(["hill", "--config", str(config), "--in", str(path)]) == 2
        assert f"could not read series file {path}" in capsys.readouterr().err

    def test_directory_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.mkdir()
        assert cli.main(["simulate", "--config", str(path), "--n", "10"]) == 2
        assert f"could not read config file {path}" in capsys.readouterr().err

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe{}")
        assert cli.main(["simulate", "--config", str(path), "--n", "10"]) == 2
        assert "valid JSON" in capsys.readouterr().err

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        config = _gamma_config(tmp_path)
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        assert cli.main(["simulate", "--config", str(config), "--out", str(blocker),
                         *_run(200)]) == 1
        assert capsys.readouterr().err.startswith("i/o error: ")


def _set_key(config, path, value):
    """`config` with the value at the dotted `path` replaced by `value`."""
    *parents, leaf = path.split(".")
    node = config
    for key in parents:
        node = node[key]
    node[leaf] = value
    return config


def _estimate_with(tmp_path, path, value):
    """Run ``estimate`` on 500 values with one key of the Gamma config set to `value`."""
    config = _gamma_config(tmp_path)
    raw = _set_key(json.loads(config.read_text(encoding="utf-8")), path, value)
    config.write_text(json.dumps(raw), encoding="utf-8")
    return cli.main(["estimate", "--config", str(config), "--out", str(tmp_path / "o"),
                     *_series(tmp_path, 500)])


class TestConfigValueTypes:
    """A wrongly typed config value exits 2 with the library's own check."""

    # (key, its name in the error message, kind): every number, count and flag
    # setting of the config; "optional" numbers take null as "unset"
    KEYS = [
        ("model.lambda", "lambda_phys", "number"),
        ("model.alpha", "alpha_phys", "number"),
        ("model.delta", "delta", "number"),
        ("estimator.cutoff", "cutoff", "number"),
        ("estimator.bin_width", "bin_width", "optional"),
        ("estimator.renormalize", "renormalize", "flag"),
        ("estimator.x_grid.start", "start", "number"),
        ("estimator.x_grid.step", "step", "number"),
        ("estimator.x_grid.count", "count", "count"),
    ]

    # values no number, count or flag accepts
    _never = st.one_of(
        st.booleans(),
        st.sampled_from(["1", "2.5", "nan", "abc", "", "true"]),
        st.text(max_size=6),
        st.lists(st.integers(0, 3), max_size=3),
        st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
    )
    WRONG = {
        "number": st.one_of(st.none(), _never),
        "optional": _never,
        # fractional or integral floats: never a count, and never a large one
        "count": st.one_of(
            st.none(), _never,
            st.floats(min_value=1.0, max_value=600.0),
            st.integers(1, 600).map(float),
        ),
        # numbers are not flags either
        "flag": st.one_of(
            st.none(), st.sampled_from([0, 1, 0.0, 1.0, "no", "yes", "false"]),
            st.lists(st.booleans(), max_size=2),
        ),
    }

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_wrong_type_exits_2_naming_the_key(self, tmp_path, capsys, data):
        path, name, kind = data.draw(st.sampled_from(self.KEYS), label="key")
        value = data.draw(self.WRONG[kind], label="value")
        code = _estimate_with(tmp_path, path, value)
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: ") and "Traceback" not in err
        assert re.search(rf"\b{name}\b", err), err

    # Each used to crash with a raw ValueError (exit 1) or to be read as
    # another value: "no" as True, 2.5 as 2, true as 1.0 and 2000.7 as 2000.
    # s, kappa and kappa_exponent are no longer settings, and seed and n are
    # set only by flags, so their values are refused as an unknown key instead.
    @pytest.mark.parametrize(
        ("path", "value", "name"),
        [
            ("estimator.s", "abc", "s"),
            ("estimator.kappa", "abc", "kappa"),
            ("estimator.kappa_exponent", "abc", "kappa_exponent"),
            ("estimator.bin_width", "abc", "bin_width"),
            ("estimator.cutoff", "abc", "cutoff"),
            ("estimator.x_grid.start", "abc", "start"),
            ("seed", "abc", "seed"),
            ("n", "abc", "n"),
            ("estimator.renormalize", "no", "renormalize"),
            ("estimator.kappa_exponent", 2.5, "kappa_exponent"),
            ("estimator.cutoff", True, "cutoff"),
            ("n", 2000.7, "n"),
        ],
    )
    def test_former_crash_or_misread_exits_2(self, tmp_path, capsys, path, value, name):
        assert _estimate_with(tmp_path, path, value) == 2
        err = capsys.readouterr().err
        if name in ("s", "kappa", "kappa_exponent"):
            assert f"unknown fields [{name!r}] in config.estimator" in err, err
        elif name in ("seed", "n"):
            assert f"unknown fields [{name!r}] in config" in err, err
        else:
            assert re.search(rf"\b{name} must be\b", err), err

    @pytest.mark.parametrize(
        ("flag", "value"), [("--n", "2000.7"), ("--n", "abc"), ("--seed", "abc")],
    )
    def test_misread_flag_exits_2(self, tmp_path, capsys, flag, value):
        config = _gamma_config(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["simulate", "--config", str(config), "--n", "10", flag, value])
        assert excinfo.value.code == 2
        assert f"argument {flag}: invalid int value: {value!r}" in capsys.readouterr().err

    def test_numeric_string_C_is_not_converted(self, tmp_path, capsys):
        # C is no longer a setting: any value is refused as an unknown key
        assert _estimate_with(tmp_path, "estimator.C", "0.5") == 2
        assert "unknown fields ['C'] in config.estimator" in capsys.readouterr().err

    def test_x_grid_count_past_fft_cap_exits_2(self, tmp_path, capsys):
        code = _estimate_with(tmp_path, "estimator.x_grid.count", 2**28)
        assert code == 2
        assert "x_grid count" in capsys.readouterr().err


class TestSeriesReader:
    """The reader checks finiteness without a full-length mask, naming the position on failure."""

    def test_f64le_peak_is_the_input(self, tmp_path):
        values = np.random.default_rng(3).gamma(3.0, 4.0, 1_000_000)
        path = tmp_path / "series.f64le"
        path.write_bytes(values.astype("<f8").tobytes())
        size = path.stat().st_size
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            read = cli._read_series_file(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(read, values)
        assert peak - start < size + 2**19

    def test_f64le_is_mapped_not_read(self, tmp_path):
        # the file is memory-mapped, so a 1e6-value (8 MB) input puts
        # nothing of its size on the heap
        values = np.random.default_rng(3).gamma(3.0, 4.0, 1_000_000)
        path = tmp_path / "series.f64le"
        path.write_bytes(values.astype("<f8").tobytes())
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            read = cli._read_series_file(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(read, values)
        assert peak - start < 2**20

    @pytest.mark.parametrize("suffix", ["f64le", "csv"])
    @pytest.mark.parametrize("position", [1, _BLOCK + 3, 2 * _BLOCK + 5])
    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_non_finite_message_names_the_position(self, tmp_path, capsys, suffix, position, bad):
        values = np.linspace(0.5, 3.0, 2 * _BLOCK + 5)
        values[position - 1] = bad
        if position < values.size:
            # a later bad value too: the first one is named
            values[-1] = float("inf")
        path = tmp_path / f"series.{suffix}"
        if suffix == "f64le":
            path.write_bytes(values.astype("<f8").tobytes())
        else:
            rows = "".join(f"{i},{v!r}\n" for i, v in enumerate(values.tolist(), start=1))
            path.write_text("index,value\n" + rows, encoding="utf-8")
        config = _gamma_config(tmp_path)
        code = cli.main(["estimate", "--config", str(config), "--in", str(path),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path} holds a non-finite value (NaN or infinity) "
            f"at series position {position}\n"
        )

    def test_bin_suffix_is_read_as_csv(self, tmp_path, capsys):
        # only .f64le names raw float64 input
        path = tmp_path / "series.bin"
        path.write_bytes(np.linspace(0.5, 3.0, 100).astype("<f8").tobytes())
        config = _gamma_config(tmp_path)
        assert cli.main(["hill", "--config", str(config), "--in", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: could not read series CSV {path}: ")

    def test_header_only_csv_is_an_empty_sample(self, tmp_path, capsys):
        # exit 2 naming the file, and no numpy warning (an error here)
        path = tmp_path / "series.csv"
        path.write_text("index,value\n", encoding="utf-8")
        config = _gamma_config(tmp_path)
        for command in ("hill", "estimate"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main([command, "--config", str(config), "--in", str(path),
                                 "--out", str(tmp_path / "o")])
            assert code == 2
            assert capsys.readouterr().err == f"error: series CSV {path} holds no data rows\n"


def test_output_formats_key_is_unknown(tmp_path, capsys):
    # the output directory is set only by --out, so the whole section is unknown
    config = _gamma_config(tmp_path, output={"dir": str(tmp_path / "o"), "formats": ["csv"]})
    assert cli.main(["simulate", "--config", str(config), "--n", "10"]) == 2
    assert "unknown fields ['output'] in config" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class TestAuditOutputPinning:
    """Digests of `shotdeconv audit` on the two criterion-7 configurations.

    Recorded with numpy 2.4 and scipy 1.17 on x86-64 with AVX-512, before the
    oracle was evaluated on u >= 0 only and mirrored; the mirror must give
    the same bytes. The exponential digest was recorded again when light
    models moved to the pulse-position stream.
    """

    CONFIGS = {
        "exponential": (
            {"model": {"lambda": 2.0, "alpha": 1.0, "delta": 1.0},
             "marks": {"type": "exponential", "rate": 1.0},
             "smoothness": {"s": 1.0, "K": 121.0, "L": 0.378, "m": 1.0}},
            "985b0e8c1ca725b1871a5a50ee6dc236984a38cce752c527f676c47528951bf4",
        ),
        "reference-mixture": (
            {"model": {"lambda": 100.0, "alpha": 80.0, "delta": 1.0},
             "marks": {"type": "gaussian_mixture", "weights": [0.3, 0.5, 0.2],
                       "means": [4.0, 12.0, 22.0], "sds": [1.0, 1.0, 0.5]},
             "smoothness": {"s": 1.0, "K": 2144336.471210152,
                            "L": 1.1529710227033925, "m": 1.2}},
            "80b85b41c6f9b6ef1760e28594bdbc623f469472285588819ecdb46b541cae40",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_digest(self, tmp_path, capsys, name):
        config, digest = self.CONFIGS[name]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "o"
        assert cli.main(["audit", "--config", str(path), "--seed", "4", "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("audit passed")
        assert hashlib.sha256((out / "audit.json").read_bytes()).hexdigest() == digest
