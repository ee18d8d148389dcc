"""The public surface: what the package root and the modules export, and
what the benchmark (perfbench/) rebinds or calls inside the package."""

import ast
import importlib.util
import inspect
import math
import re
import types
from pathlib import Path

import pytest

import gasrelax
from gasrelax import cli

ROOT = Path(__file__).resolve().parent.parent


def _readme_example():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library example", 1)[1]
    return block.split("```python", 1)[1].split("```", 1)[0]


def _readme_example_imports():
    names = set()
    for node in ast.walk(ast.parse(_readme_example())):
        if isinstance(node, ast.ImportFrom) and node.module == "gasrelax":
            names.update(alias.name for alias in node.names)
    return names


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
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


def test_readme_example_runs(capsys):
    exec(compile(_readme_example(), "README.md", "exec"), {})
    # C(0) = E[B^2] = N / beta = 64, about 2 standard errors wide
    assert float(capsys.readouterr().out) == pytest.approx(64.0, abs=8.0)


def test_module_exports_exist():
    # H1 is evaluated inside the trajectory kernel; its NumPy form is the
    # test oracle helpers.hamiltonian_reference
    from gasrelax import bounds, dynamics, gibbs, model, numerics

    for mod in (bounds, dynamics, gibbs, model, numerics):
        for name in mod.__all__:
            assert hasattr(mod, name), (mod.__name__, name)
    assert set(model.__all__) == {"ModelParams", "wall_potential",
                                  "wall_force", "poisson_B_H0"}


def _unused_imports(source):
    """(line, name) of each name that source imports and never reads; a
    name listed in __all__ is read by the package's importers."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("source, unused", [
    ("import os\nimport numpy as np\nnp.pi\n", [(1, "os")]),
    ("from a import b, c as d\nb()\n", [(1, "d")]),
    ("from __future__ import annotations\nimport a.b\na.b.c\n", []),
    ("from .x import y\n__all__ = ['y']\n", []),
])
def test_the_unused_import_check_sees_every_binding(source, unused):
    assert _unused_imports(source) == unused


def test_no_module_imports_a_name_it_never_uses():
    # no linter is part of the test tools, and a name left behind when code
    # moves between modules would otherwise go unseen
    found = {path.name: _unused_imports(path.read_text())
             for path in sorted((ROOT / "src" / "gasrelax").glob("*.py"))}
    assert len(found) >= 9
    assert {name: unused for name, unused in found.items() if unused} == {}


def _imported_modules(source):
    """The top-level package of each absolute import in source."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_only_the_cli_imports_json():
    # the CLI writes and reads every output file; the library returns
    # plain dataclasses and never serializes
    found = {path.name for path in (ROOT / "src" / "gasrelax").glob("*.py")
             if "json" in _imported_modules(path.read_text())}
    assert found == {"cli.py"}


def _subprocess_importers(source):
    """The function around each import of subprocess in source, in order;
    None for an import that runs when the module is imported."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, (ast.Import, ast.ImportFrom))
                    and "subprocess" in _imported_modules(ast.unparse(child))):
                found.append(owner)
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(ast.parse(source), None)
    return found


def test_only_a_kernel_build_imports_subprocess():
    # a process that loads a built kernel starts no child process, so it
    # does not import subprocess: only a build runs `cc`
    assert _subprocess_importers(
        "import subprocess\n"
        "def f():\n    from subprocess import run\n"
        "class C:\n    import os, subprocess.x\n"
        "    def g(self):\n        from . import subprocess\n") == [
            None, "f", None]
    found = {path.name: _subprocess_importers(path.read_text())
             for path in (ROOT / "src" / "gasrelax").glob("*.py")}
    assert {name: owners for name, owners in found.items() if owners} == {
        "_kernel.py": ["_run_cc"]}


def _bit_generator_state_lines(source):
    """The lines of source that read or write `state` on a name or an
    attribute called bit_generator."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "state":
            owner = node.value
            if "bit_generator" in (getattr(owner, "id", None),
                                   getattr(owner, "attr", None)):
                lines.append(node.lineno)
    return lines


def test_the_library_holds_no_generator_state():
    # the kernel draws from a Philox key and counter; NumPy's Generator
    # state, with its buffer, is packed for it only in the tests
    assert _bit_generator_state_lines(
        "st = rng.bit_generator.state\nbit_generator.state = st\n") == [1, 2]
    found = {path.name: _bit_generator_state_lines(path.read_text())
             for path in (ROOT / "src" / "gasrelax").glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _positioned_stream_lines(source):
    """The lines of source that call philox_state, bare or as an attribute,
    with more than the key."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and "philox_state" in (getattr(node.func, "id", None),
                                         getattr(node.func, "attr", None))
                  and len(node.args) + len(node.keywords) > 1)


def test_only_the_kernel_positions_a_stream():
    # a library module starts each stream at its key; where a draw starts
    # within it, past a batch's heights, the kernel finds
    assert _positioned_stream_lines(
        "philox_state(key)\nrng.philox_state(k, 3)\n"
        "philox_state(k, counter=c)\nf(key, 2)\n") == [2, 3]
    found = {path.name: _positioned_stream_lines(path.read_text())
             for path in (ROOT / "src" / "gasrelax").glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _ctypes_of_a_call_lines(source):
    """The lines of source that take `.ctypes` of a call's result."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "ctypes"
                  and isinstance(node.value, ast.Call))


def test_no_kernel_pointer_outlives_its_array():
    # nothing holds the result of a call: it is freed before the kernel
    # reads or writes through the address taken of it
    assert _ctypes_of_a_call_lines(
        "f(a.ctypes.data, g(b).ctypes.data)\nc = np.empty(3).ctypes\n"
    ) == [1, 2]
    found = {f"{path.parent.name}/{path.name}":
             _ctypes_of_a_call_lines(path.read_text())
             for folder in (ROOT / "src" / "gasrelax", ROOT / "tests")
             for path in folder.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _kernel_calls(source):
    """Each `_kernel.library().<entry>(...)` call in source, also through a
    name bound to `_kernel.library()`."""
    tree = ast.parse(source)
    library = {"_kernel.library()"} | {
        target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
        and ast.unparse(node.value) == "_kernel.library()"
        for target in node.targets if isinstance(target, ast.Name)}
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and ast.unparse(node.func.value) in library]


def _formed_kernel_arguments(source, helpers):
    """The arguments of each kernel call in source that hold arithmetic or a
    call of one of the functions named in helpers, as source text."""
    return [ast.unparse(arg) for node in _kernel_calls(source)
            for arg in node.args
            if any(isinstance(sub, ast.BinOp)
                   or (isinstance(sub, ast.Call)
                       and getattr(sub.func, "id", None) in helpers)
                   for sub in ast.walk(arg))]


def test_the_kernel_forms_its_own_coefficients():
    # the kernel takes the model's parameters as they are and forms dt/2,
    # 1/sqrt(beta) and the guard itself, so each is stated once
    assert _formed_kernel_arguments(
        "_kernel.library().f(a.ctypes.data, 0.5 * dt, g(p), -x, p.beta,\n"
        "                    *m._tables())\nh(0.5 * dt)\n"
        "lib = _kernel.library()\nlib.f(n % 4, n)\n", {"g"}
    ) == ["0.5 * dt", "g(p)", "n % 4"]
    sources = {path.name: path.read_text()
               for path in (ROOT / "src" / "gasrelax").glob("*.py")}
    helpers = {node.name for source in sources.values()
               for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef)}
    found = {name: _formed_kernel_arguments(source, helpers)
             for name, source in sources.items()}
    assert {name: args for name, args in found.items() if args} == {}


def _unmatched_kernel_entries(c_source, sources):
    """The `KERNEL <type> <name>(...)` prototypes of c_source that no kernel
    call in the Python sources names, and the names called that have none."""
    entries = set(re.findall(r"^KERNEL \w+ (\w+)\(", c_source, re.MULTILINE))
    called = {node.func.attr for source in sources
              for node in _kernel_calls(source)}
    return entries ^ called


def test_every_kernel_entry_has_a_caller():
    # an entry goes with its last caller
    assert _unmatched_kernel_entries(
        "KERNEL void a(double x)\nstatic KERNEL double s(double x)\n"
        "KERNEL ptrdiff_t b(const double *z,\n    ptrdiff_t n)\n"
        "KERNEL void dead(double x)\n",
        ["_kernel.library().a(1.0)\n",
         "lib = _kernel.library()\nlib.b(z, 2)\n"]) == {"dead"}
    src = ROOT / "src" / "gasrelax"
    assert _unmatched_kernel_entries(
        (src / "_verlet.c").read_text(),
        [path.read_text() for path in src.glob("*.py")]) == set()


def test_no_gibbs_or_bounds_function_takes_params_and_a_marginal():
    # a marginal carries its params: a second copy could disagree with it
    from gasrelax import bounds, gibbs

    for mod in (bounds, gibbs):
        for name in mod.__all__:
            value = getattr(mod, name)
            if inspect.isfunction(value):
                args = inspect.signature(value).parameters
                assert not {"params", "marginal"} <= set(args), (
                    mod.__name__, name)


def test_tracer_install_and_restore(tmp_path):
    from gasrelax import bounds, dynamics, gibbs, model

    tracer = _load_perfbench("tracer")
    before = {(mod.__name__, key): value
              for mod in (bounds, cli, dynamics, gibbs, model)
              for key, value in vars(mod).items() if callable(value)}
    spans = tracer.Tracer("test")
    tracer.install(spans)
    try:
        assert bounds.norm0_mc is not before[("gasrelax.bounds",
                                               "norm0_mc")]
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
    # the bracket norm is one kernel call: it draws, inverts and sums the
    # heights itself, through none of the traced layers below it
    assert metrics["gibbs.norm0_mc.calls"] == 1
    assert metrics["gibbs.norm0_mc.samples"] == 2000
    assert metrics["model.poisson_B_H0.calls"] == 0
    assert metrics["gibbs.sample_batch.calls"] == 0
    assert metrics["gibbs.inverse_cdf.values"] == 0


def test_tracer_count_arguments_exist():
    # the span counters read these parameters by name
    from gasrelax import dynamics

    autocorr = inspect.signature(dynamics.autocorr_B).parameters
    assert {"params", "config", "n_traj", "n_times"} <= set(autocorr)
    disp = inspect.signature(dynamics.displacement_norms).parameters
    assert {"params", "config", "n_traj", "times"} <= set(disp)


def test_kernel_microbenchmark_runs(ref_params):
    # perfbench/kernels.py times model.wall_force on states that
    # gibbs.sample_batch draws from an rng.substream
    from gasrelax.gibbs import build_marginal
    from gasrelax.rng import substream

    kernels = _load_perfbench("kernels")
    ns = kernels.wall_force_ns_per_elem(
        ref_params, build_marginal(ref_params, grid_size=64),
        substream(1, 0xBE), repeats=1, calls=1)
    assert math.isfinite(ns) and ns > 0.0
