"""The public surface: what the package root and the modules export, and
what the traced benchmark (perfbench/tracer.py) rebinds inside the
package."""

import ast
import importlib.util
import inspect
import types
from pathlib import Path

import gasrelax
from gasrelax import cli

ROOT = Path(__file__).resolve().parent.parent


def _readme_example_imports():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library example", 1)[1]
    code = block.split("```python", 1)[1].split("```", 1)[0]
    names = set()
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.ImportFrom) and node.module == "gasrelax":
            names.update(alias.name for alias in node.names)
    return names


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_root_exports_are_the_readme_example_imports():
    names = _readme_example_imports()
    assert names
    public = {name for name, value in vars(gasrelax).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(gasrelax.__all__) == names
    assert public == names
    assert gasrelax.__version__


def test_module_exports_exist():
    # H1 is evaluated inside the trajectory kernel; its NumPy form is the
    # test oracle helpers.hamiltonian_reference
    from gasrelax import bounds, dynamics, gibbs, model, numerics

    for mod in (bounds, dynamics, gibbs, model, numerics):
        for name in mod.__all__:
            assert hasattr(mod, name), (mod.__name__, name)
    assert set(model.__all__) == {"ModelParams", "wall_potential",
                                  "wall_force", "observable_B",
                                  "poisson_B_H0"}


def test_tracer_install_and_restore(tmp_path):
    from gasrelax import bounds, dynamics, gibbs, model

    tracer = _load_tracer()
    before = {(mod.__name__, key): value
              for mod in (bounds, cli, dynamics, gibbs, model)
              for key, value in vars(mod).items() if callable(value)}
    spans = tracer.Tracer("test")
    tracer.install(spans)
    try:
        assert bounds.poisson_B_H0 is not before[("gasrelax.bounds",
                                                   "poisson_B_H0")]
        code = cli.main(["bounds", "--n_samples", "2000", "--grid_size", "256",
                         "--output_dir", str(tmp_path)])
    finally:
        spans.restore()
    assert code == cli.EXIT_OK
    after = {(mod.__name__, key): value
             for mod in (bounds, cli, dynamics, gibbs, model)
             for key, value in vars(mod).items() if callable(value)}
    assert after == before
    metrics, _ = tracer.layer_metrics(spans.totals())
    # the bracket norm is one call of the observable per block of 1024 rows
    assert metrics["model.poisson_B_H0.calls"] == 2
    assert metrics["gibbs.sample_batch.calls"] == 2
    assert metrics["gibbs.norm0_mc.samples"] == 2000


def test_tracer_count_arguments_exist():
    # the span counters read these parameters by name
    from gasrelax import dynamics

    autocorr = inspect.signature(dynamics.autocorr_B).parameters
    assert {"params", "config", "n_traj", "n_times"} <= set(autocorr)
    disp = inspect.signature(dynamics.displacement_norms).parameters
    assert {"params", "config", "n_traj", "times"} <= set(disp)
