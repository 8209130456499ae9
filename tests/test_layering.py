"""Module layering: each package module imports only modules before it.

The order is errors -> serialize -> model -> simulate -> ecf -> estimator
-> bench -> cli. The package ``__init__`` re-exports names of several layers and is
exempt; ``cli`` may import ``__version__`` from it. The last tests check the
names the benchmark's tracer wraps from outside the package, and the command
lines the benchmark sends, and that one runner owns the Monte-Carlo pool.
The package imports scipy only where a scipy primitive runs; the last four
tests check which processes load it.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shotdeconv import cli
from shotdeconv.serialize import csv_text

ORDER = ["errors", "serialize", "model", "simulate", "ecf", "estimator", "bench", "cli"]
ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "shotdeconv"


def _package_imports(path):
    """(line, module) for every import of a sibling package module in `path`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                # "from .x import y", or "from . import x" (module x, or a name of __init__)
                names = [node.module] if node.module else [a.name for a in node.names]
            elif node.level == 0 and (node.module or "").startswith("shotdeconv."):
                names = [node.module.split(".")[1]]
            else:
                continue
        elif isinstance(node, ast.Import):
            names = [a.name.split(".")[1] for a in node.names if a.name.startswith("shotdeconv.")]
        else:
            continue
        found.extend((node.lineno, name) for name in names if name in ORDER)
    return found


def test_every_module_is_in_the_order():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


@pytest.mark.parametrize("module", ORDER)
def test_imports_point_backwards_only(module):
    rank = ORDER.index(module)
    late = [
        f"{module}.py:{line} imports {name}"
        for line, name in _package_imports(PACKAGE / f"{module}.py")
        if ORDER.index(name) >= rank
    ]
    assert not late, late


@pytest.mark.parametrize("module", ["shotdeconv"] + [f"shotdeconv.{name}" for name in ORDER])
def test_every_export_exists(module):
    # a module without __all__ exports nothing to check
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, missing


def _perfbench(name):
    """The benchmark module perfbench/`name`.py, loaded from its file."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound():
    # perfbench/tracer.py swaps owner.__dict__[leaf] for a timing wrapper; a
    # renamed or dropped import would break only traced benchmark runs
    tracer = _perfbench("tracer")
    unbound = []
    for module_name, attr, _name, _counter in tracer.TARGETS:
        owner = importlib.import_module(f"shotdeconv.{module_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(leaf)):
            unbound.append(f"{module_name}.{attr}")
    assert not unbound, unbound


@pytest.mark.parametrize(
    "config_name, fmt, command",
    [("REF_CONFIG", "f64le", "estimate"), ("GAMMA_CONFIG", "csv", "hill")],
)
def test_benchmark_command_lines_run(tmp_path, capsys, config_name, fmt, command):
    # the argv shapes of perfbench/workloads.py, at a small n: a CLI change
    # that would break a benchmark run fails here first
    config = tmp_path / "config.json"
    config.write_text(json.dumps(getattr(_perfbench("workloads"), config_name)), encoding="utf-8")
    data = tmp_path / "data"
    assert cli.main(["simulate", "--config", str(config), "--format", fmt, "--n", "2000",
                     "--seed", "3", "--out", str(data)]) == 0
    argv = [command, "--config", str(config), "--in", str(data / f"series.{fmt}")]
    if command == "estimate":
        argv += ["--out", str(tmp_path / "estimate")]
    assert cli.main(argv) == 0, capsys.readouterr().err


@pytest.mark.parametrize("module", ["ecf", "bench"])
def test_monte_carlo_callers_use_the_one_runner(module):
    # the runner alone derives Monte-Carlo seeds, resolves jobs and pools
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "simulate"
        for alias in node.names
    }
    assert names == {"_monte_carlo", "simulate_series"}


def test_only_simulate_names_the_process_pool():
    naming = [p.name for p in PACKAGE.glob("*.py") if "ProcessPoolExecutor" in p.read_text()]
    assert naming == ["simulate.py"]


# the scipy modules that the package imports or that they pull in
_SCIPY_HEAVY = ("scipy.signal", "scipy.fft", "scipy.integrate", "scipy.stats")


def _run_python(code, *args):
    """Run `code` in a fresh interpreter that imports the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_loads_no_scipy_until_a_primitive_runs(tmp_path):
    # hill reads a series and sorts it, an input error stops before any
    # transform, and the reference model's series skips the AR(1) filter (its
    # decay e**-80 changes no bit): none of them should pay for scipy's
    # import. The Gamma model's series (decay e**-1) is filtered.
    workloads = _perfbench("workloads")
    configs = {}
    for name in ("REF_CONFIG", "GAMMA_CONFIG"):
        configs[name] = tmp_path / f"{name}.json"
        configs[name].write_text(json.dumps(getattr(workloads, name)), encoding="utf-8")
    series = tmp_path / "series.csv"
    values = np.random.default_rng(0).gamma(2.0, 1.0, 300)
    series.write_text(csv_text("index,value", np.arange(1, 301), values), encoding="utf-8")
    code = """
import json, sys
from shotdeconv import cli
ref, gamma, series, missing, out = sys.argv[1:]
def scipy():
    return sorted(m for m in sys.modules if m.startswith("scipy"))
simulate = ["simulate", "--n", "2000", "--seed", "3", "--format", "f64le", "--out", out]
codes = [cli.main(["hill", "--config", gamma, "--in", series]),
         cli.main(["estimate", "--config", gamma, "--in", missing]),
         cli.main([*simulate, "--config", ref])]
before = scipy()
codes.append(cli.main([*simulate, "--config", gamma]))
print(json.dumps([codes, before, scipy()]))
"""
    out = _run_python(code, configs["REF_CONFIG"], configs["GAMMA_CONFIG"], series,
                      tmp_path / "missing.f64le", tmp_path / "out")
    codes, loaded, after_gamma = json.loads(out.splitlines()[-1])
    assert codes == [0, 2, 0, 0]
    assert not [name for name in loaded if name.startswith(_SCIPY_HEAVY)], loaded
    assert "scipy.signal" in after_gamma


def test_estimating_loads_no_scipy(tmp_path):
    # the chirp-z transforms run on numpy.fft, and the reference model's
    # series skip the AR(1) filter, so a process that estimates from a file
    # and runs the reference table inline loads no scipy module at all
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_perfbench("workloads").REF_CONFIG), encoding="utf-8")
    code = """
import json, sys
from shotdeconv import cli
from shotdeconv.bench import run_table1
from shotdeconv.model import ModelParams, GaussianMixture
config, data, out = sys.argv[1:]
codes = [cli.main(["simulate", "--config", config, "--n", "20000", "--seed", "3",
                   "--format", "f64le", "--out", data])]
before = sorted(m for m in sys.modules if m.startswith("scipy"))
codes.append(cli.main(["estimate", "--config", config, "--in", data + "/series.f64le",
                       "--out", out]))
marks = GaussianMixture((0.3, 0.5, 0.2), (4.0, 12.0, 22.0), (1.0, 1.0, 0.5))
reports = run_table1(ModelParams(100.0, 80.0, 1.25), marks, n_list=(10_000,), runs=2, jobs=1)
print(json.dumps([codes, before, reports[0].runs,
                  sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""
    out = _run_python(code, config, tmp_path / "data", tmp_path / "estimate")
    codes, before, runs, loaded = json.loads(out.splitlines()[-1])
    assert codes == [0, 0] and runs == 2
    assert before == [] and loaded == [], loaded


def test_refused_inversion_loads_no_scipy():
    # a frequency grid that does not span the cutoff is refused before the
    # chirp-z plan computes its chirps; neither the refusal nor the plan,
    # which runs on numpy.fft, loads scipy
    code = """
import json, sys
import numpy as np
from shotdeconv.errors import InvalidParameterError
from shotdeconv.estimator import XGrid, invert_density
try:
    invert_density(np.ones(5, complex), 0.01, 2.0, XGrid(0.0, 0.1, 10))
except InvalidParameterError as exc:
    message = str(exc)
print(json.dumps([message, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""
    message, loaded = json.loads(_run_python(code).splitlines()[-1])
    assert "below cutoff" in message
    assert not [name for name in loaded if name.startswith(_SCIPY_HEAVY)], loaded


def test_pooled_workers_inherit_scipy_signal():
    # the runner imports scipy.signal before its pool forks, so no worker
    # imports it again; this worker only reports whether it is loaded
    code = """
import sys
from shotdeconv.simulate import _monte_carlo

def loaded(n, seed):
    return "scipy.signal" in sys.modules

if __name__ == "__main__":
    print(_monte_carlo(loaded, (1, 2), 4, 0, jobs=2))
"""
    assert _run_python(code).splitlines()[-1] == str([[True] * 4] * 2)
