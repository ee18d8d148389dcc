"""Edges of the C kernels: breaches, non-finite states, array layouts, the
ctypes bindings and the build-on-first-use loader."""

import ctypes
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import helpers
import gasrelax
from gasrelax import _kernel
from gasrelax.cli import EXIT_RUNTIME, main
from gasrelax.dynamics import WallBreachError, _evolve_batch
from gasrelax.model import (ModelParams, hamiltonian, wall_force,
                            wall_potential)

PARAMS = ModelParams(4, 1.0, 1.0, 10.0)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _both_raise(z, p, *args):
    """The WallBreachError messages of _evolve_batch and of the reference."""
    messages = []
    for run in (_evolve_batch, helpers.evolve_batch_reference):
        with pytest.raises(WallBreachError) as err:
            run(z.copy(), p.copy(), PARAMS, *args)
        messages.append(str(err.value))
    return messages


class TestVerletSteps:
    def test_breach_mid_run_matches_reference(self):
        # dt = 0.1 is far too large: the first particle of the second row
        # steps deep into the wall layer during the eighth record.  The
        # drift tolerance is out of the way, so only the guard can stop it.
        z = np.array([[0.0, 1.0, -2.0, 0.5], [-3.0, -1.0, 2.0, 0.0]])
        p = np.array([[0.1, -0.2, 0.3, 0.0], [8.0, 0.5, -0.5, 1.0]])
        ours, ref = _both_raise(z, p, 0.0, 0.1, 2, 10, 1e300, 0.999)
        assert ours == ref
        assert ours.endswith("at record 8; reduce dt")

    def test_nan_momentum_row_raises(self):
        z = np.array([[0.5, -1.0, 2.0, 0.0], [1.0, 2.0, -3.0, 0.1]])
        p = np.array([[0.3, -0.2, 0.1, 0.0], [1.0, np.nan, 0.2, -0.1]])
        ours, ref = _both_raise(z, p, 1e-3, 1e-3, 3, 4, 1.0, 0.999)
        assert ours == ref
        assert "record 1;" in ours

    def test_rejects_arrays_it_cannot_write_in_place(self):
        z = np.zeros((3, 4))
        for bad in (np.zeros((4, 3)).T, np.zeros((3, 4), dtype=np.float32),
                    np.zeros((3, 5))):
            with pytest.raises(ValueError, match="C-contiguous"):
                _evolve_batch(z.copy(), bad, PARAMS, 0.0, 1e-3, 1, 2, 1.0,
                              0.999)


LAYOUTS = pytest.mark.parametrize("z", [
    0.3, np.float64(-4.2), np.array(4.99), np.linspace(-4.9, 4.9, 64),
    np.linspace(-4.9, 4.9, 21).reshape(3, 7),
    np.linspace(-4.9, 4.9, 120).reshape(8, 15)[::2, 1::3],
    np.asfortranarray(np.linspace(-4.9, 4.9, 21).reshape(3, 7)),
], ids=["float", "float64", "0-d", "(N,)", "3x7", "sliced", "fortran"])


class TestWallForceLayouts:
    @LAYOUTS
    def test_bit_equal_to_reference(self, z):
        got = wall_force(z, PARAMS)
        want = helpers.wall_force_reference(np.asarray(z, dtype=float), PARAMS)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(_bits(got), _bits(want))
        if np.ndim(z) == 0:
            assert isinstance(got, float)

    @LAYOUTS
    def test_potential_and_energy_bit_equal_to_reference(self, z):
        got = wall_potential(z, PARAMS)
        want = helpers.wall_potential_reference(np.asarray(z, dtype=float),
                                                PARAMS)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(_bits(got), _bits(want))
        if np.ndim(z) == 0:
            assert isinstance(got, float)
        # the row sums of H1 add in the order of the input's layout
        p = -0.5 * np.asarray(z, dtype=float)
        assert np.array_equal(
            _bits(hamiltonian(z, p, PARAMS, 0.3)),
            _bits(helpers.hamiltonian_reference(np.asarray(z, dtype=float),
                                                p, PARAMS, 0.3)))


# C parameter and return types of the kernels and their ctypes
_CTYPES = {"void": None, "long": ctypes.c_long, "double": ctypes.c_double,
           "ptrdiff_t": ctypes.c_ssize_t}


def _kernel_signatures():
    """{name: (restype, argtypes)} of the KERNEL functions of _verlet.c."""
    text = _kernel._SOURCE.read_text()
    out = {}
    for ret, name, params in re.findall(r"^KERNEL\s+(\w+)\s+(\w+)\(([^)]*)\)",
                                        text, re.MULTILINE):
        args = []
        for param in params.split(","):
            words = param.replace("*", " * ").split()
            args.append(ctypes.c_void_p if "*" in words
                        else _CTYPES[" ".join(w for w in words[:-1]
                                              if w != "const")])
        out[name] = (_CTYPES[ret], args)
    return out


class TestBuildFlags:
    def test_every_kernel_is_bound_with_its_c_types(self):
        # an unbound argument list passes doubles as C ints
        signatures = _kernel_signatures()
        assert {"wall_potential", "wall_force", "verlet_steps",
                "inverse_cdf"} <= set(signatures)
        lib = _kernel.library()
        for name, (restype, argtypes) in signatures.items():
            fn = getattr(lib, name)
            assert fn.restype is restype, name
            assert list(fn.argtypes or ()) == argtypes, name

    def test_no_fused_multiply_add_in_the_library(self):
        # -ffp-contract=off keeps every a*b+c rounding twice, as NumPy did
        objdump = shutil.which("objdump")
        if objdump is None:
            pytest.skip("objdump is not on PATH")
        path = _kernel.library()._name
        text = subprocess.run([objdump, "-d", path], capture_output=True,
                              text=True, check=True).stdout
        for name in _kernel_signatures():
            assert f"<{name}" in text, name
        fused = re.findall(r"\bv(?:fn?madd|fn?msub)\w*", text)
        assert fused == []


def _loader_script(cache, start):
    return f"""
import time
import numpy as np
from gasrelax import _kernel
while time.time() < {start!r}:
    time.sleep(0.001)
lib = _kernel._load({str(cache)!r}, "cc")
z = np.linspace(-4.9, 4.9, 101)
out = np.empty_like(z)
lib.wall_force(z.ctypes.data, out.ctypes.data, z.size, 5.0, 12.0)
print(out.view(np.int64).tolist())
"""


class TestLoader:
    def test_concurrent_builds_into_one_cache(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(gasrelax.__file__).parents[1]),
             os.environ.get("PYTHONPATH", "")]))
        script = _loader_script(tmp_path, time.time() + 1.5)
        procs = [subprocess.Popen([sys.executable, "-c", script], env=env,
                                  stdout=subprocess.PIPE, text=True)
                 for _ in range(2)]
        outputs = [proc.communicate(timeout=120)[0] for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0]
        want = helpers.wall_force_reference(np.linspace(-4.9, 4.9, 101),
                                            PARAMS)
        for out in outputs:
            assert out.strip() == str(_bits(want).tolist())
        # one library, and no partial file left behind
        assert [p.suffix for p in tmp_path.iterdir()] == [".so"]

    def test_unwritable_cache_builds_in_a_private_directory(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        lib = _kernel._load(blocker / "cache", "cc")
        z = np.array([0.5, -1.5])
        out = np.empty(2)
        lib.wall_force(z.ctypes.data, out.ctypes.data, 2, 5.0, 12.0)
        assert np.array_equal(_bits(out),
                              _bits(helpers.wall_force_reference(z, PARAMS)))
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_missing_compiler(self, tmp_path):
        with pytest.raises(_kernel.KernelBuildError, match="no-such-cc"):
            _kernel._load(tmp_path, str(tmp_path / "no-such-cc"))

    def test_missing_compiler_is_a_runtime_error_in_the_cli(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(_kernel, "_lib", None)
        monkeypatch.setenv("PATH", str(tmp_path))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_particles = 4\nn_samples = 1000\n"
                       f"output_dir = {tmp_path}\n")
        assert main(["bounds", "--config", str(cfg)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime error: cannot build _verlet.c")
        assert "Traceback" not in err
