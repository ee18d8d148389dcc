"""Edges of the C kernels: breaches, non-finite states, array layouts, the
record pass of the trajectory kernel, the ctypes bindings, the build flags,
the restrict rule of the inverse-CDF table and the build-on-first-use
loader."""

import ctypes
import os
import re
import shlex
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import helpers
import gasrelax
from gasrelax import _kernel, dynamics
from gasrelax.cli import EXIT_RUNTIME, main
from gasrelax.dynamics import EnergyDriftError, WallBreachError, _evolve_batch
from gasrelax.model import ModelParams, wall_force, wall_potential
from gasrelax.numerics import _WG, _WGK

PARAMS = ModelParams(4, 1.0, 1.0, 10.0)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _both_raise(z, p, params, *args):
    """The WallBreachError messages of _evolve_batch and of the reference."""
    messages = []
    for run in (_evolve_batch, helpers.evolve_batch_reference):
        with pytest.raises(WallBreachError) as err:
            run(z.copy(), p.copy(), params, *args)
        messages.append(str(err.value))
    return messages


class TestVerletSteps:
    def test_breach_mid_run_matches_reference(self):
        # dt = 0.1 is far too large: the first particle of the second row
        # steps deep into the wall layer during the eighth record.  The
        # drift tolerance is out of the way, so only the guard can stop it.
        z = np.array([[0.0, 1.0, -2.0, 0.5], [-3.0, -1.0, 2.0, 0.0]])
        p = np.array([[0.1, -0.2, 0.3, 0.0], [8.0, 0.5, -0.5, 1.0]])
        ours, ref = _both_raise(z, p, PARAMS, 0.1, 2, 10, 1e300, 0.999)
        assert ours == ref
        assert ours.endswith("at record 8; reduce dt")

    def test_nan_momentum_row_raises(self):
        z = np.array([[0.5, -1.0, 2.0, 0.0], [1.0, 2.0, -3.0, 0.1]])
        p = np.array([[0.3, -0.2, 0.1, 0.0], [1.0, np.nan, 0.2, -0.1]])
        ours, ref = _both_raise(z, p, replace(PARAMS, field=1e-3), 1e-3, 3,
                                4, 1.0, 0.999)
        assert ours == ref
        assert "record 1;" in ours

    def test_rejects_arrays_it_cannot_write_in_place(self):
        z = np.zeros((3, 4))
        for bad in (np.zeros((4, 3)).T, np.zeros((3, 4), dtype=np.float32),
                    np.zeros((3, 5))):
            with pytest.raises(ValueError, match="C-contiguous"):
                _evolve_batch(z.copy(), bad, PARAMS, 1e-3, 1, 2, 1.0, 0.999)


def _outcome(run, z, p, params, *args):
    """(exception type, message) of one run on copies of z and p."""
    try:
        run(z.copy(), p.copy(), params, *args)
    except (WallBreachError, EnergyDriftError) as exc:
        return type(exc), str(exc)
    return None, ""


@pytest.fixture
def nan_empty(monkeypatch):
    """np.empty in dynamics hands out NaN: a record row the kernel did not
    write fails the drift monitor if _evolve_batch reads it."""
    class NaNEmpty:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def empty(*args, **kwargs):
            return np.full_like(np.empty(*args, **kwargs), np.nan)

    monkeypatch.setattr(dynamics, "np", NaNEmpty())


# every pairwise branch (< 8, 8 accumulators, remainder, splits), a row of
# exactly one block, and rows beyond one block, whose force the kernel keeps
# in the caller's scratch
RECORD_N = [1, 7, 8, 9, 64, 65, 129, 512, 600, 1024]
RECORD_ROWS = [1, 37, 1027]


class TestVerletRecords:
    def test_cases_cover_partial_and_long_blocks(self):
        block = helpers.block()
        assert block in RECORD_N and 2 * block in RECORD_N
        assert max(RECORD_N) > block
        for n in RECORD_N:
            if n < block:
                # the last block of 37 or 1027 rows is not full
                assert 37 % (block // n) and 1027 % (block // n), n

    @pytest.mark.parametrize("rows", RECORD_ROWS)
    @pytest.mark.parametrize("n", RECORD_N)
    def test_bit_equal_to_reference(self, n, rows):
        params = ModelParams(n, 1.0, 1.0, 10.0, field=1e-3)
        rng = np.random.default_rng(1000 * n + rows)
        z = rng.uniform(-4.0, 4.0, (rows, n))
        p = rng.normal(size=(rows, n))
        p[-1] = -0.0
        args = (params, 1e-3, 2, 4, 1.0, 0.999)
        z_ref, p_ref = z.copy(), p.copy()
        b_ref, drift_ref = helpers.evolve_batch_reference(z_ref, p_ref, *args)
        z_got, p_got = z.copy(), p.copy()
        b_got, drift = _evolve_batch(z_got, p_got, *args)
        for got, want in ((b_got, b_ref), (z_got, z_ref), (p_got, p_ref)):
            assert np.array_equal(_bits(got), _bits(want))
        assert drift == drift_ref
        assert _bits(b_got[0, -1]) == _bits(0.0)
        # each row's H1 at the first and the last record
        end, _, e, _, _ = helpers.kernel_records(z, p, params, 1e-3, 1e-3, 2,
                                                 4)
        assert end == 4
        for rec, (zz, pp) in ((0, (z, p)), (3, (z_ref, p_ref))):
            want = helpers.hamiltonian_reference(zz, pp, params, 1e-3)
            assert np.array_equal(_bits(e[rec]), _bits(want))

    def test_a_long_row_stops_as_one_block(self):
        # one row of 600 values is one block.  Its particle at -3 with
        # momentum 8, among the last 88 values, breaches at a step before
        # the last of its record, and every particle of the row stops there.
        n, steps = 600, 3
        params = ModelParams(n, 1.0, 1.0, 10.0)
        rng = np.random.default_rng(29)
        z = rng.uniform(-2.0, 2.0, (1, n))
        p = rng.normal(0.0, 0.3, (1, n))
        z[0, 550], p[0, 550] = -3.0, 8.0
        ours, ref = _both_raise(z, p, params, 0.1, steps, 20, 1e300, 0.999)
        assert ours == ref
        end, _, _, z_row, p_row = helpers.kernel_records(z, p, params, 0.0,
                                                         0.1, steps, 20)
        assert ref.endswith(f"at record {end}; reduce dt")
        # the particles are independent: as N = 1 rows with one step per
        # record, the breach record is the breaching particle's step count
        k, _, _, _, _ = helpers.kernel_records(z.T, p.T, params, 0.0, 0.1, 1,
                                               20 * steps)
        assert (end - 1) * steps < k < end * steps
        _, _, _, z_one, p_one = helpers.kernel_records(z.T, p.T, params, 0.0,
                                                       0.1, 1, k + 1)
        assert np.array_equal(_bits(z_row.T), _bits(z_one))
        assert np.array_equal(_bits(p_row.T), _bits(p_one))

    # 300 rows of 4 particles are three blocks; rows at rest at the centre
    # stay there (h = 0) with zero drift.  With dt = 0.1 the particle at -3
    # with momentum 8 steps into the wall layer during record 8, its drift
    # below 1.2e-5 up to record 3; a particle leaving the centre with
    # momentum 6 drifts beyond 1e-3 at record 3 (t = 0.6) and breaches at 7.
    @pytest.mark.parametrize("breach_row, drift_row", [
        (299, None), (0, 299), (299, 0), (299, 150)])
    def test_error_paths_match_reference(self, nan_empty, breach_row,
                                         drift_row):
        z, p = np.zeros((300, 4)), np.zeros((300, 4))
        z[breach_row, 0], p[breach_row, 0] = -3.0, 8.0
        tol = 1e300
        if drift_row is not None:
            p[drift_row, 0] = 6.0
            tol = 1e-3
        args = (PARAMS, 0.1, 2, 10, tol, 0.999)
        ours = _outcome(_evolve_batch, z, p, *args)
        assert ours == _outcome(helpers.evolve_batch_reference, z, p, *args)
        if drift_row is None:
            assert ours[0] is WallBreachError
            assert ours[1].endswith("at record 8; reduce dt")
        else:
            assert ours[0] is EnergyDriftError
            assert ours[1].endswith("at t=0.6")

    def test_nan_momentum_in_a_later_block(self, nan_empty):
        rng = np.random.default_rng(12)
        z = rng.uniform(-3.0, 3.0, (300, 4))
        p = rng.normal(size=(300, 4))
        p[200, 1] = np.nan
        args = (replace(PARAMS, field=1e-3), 1e-3, 3, 4, 1.0, 0.999)
        ours = _outcome(_evolve_batch, z, p, *args)
        assert ours == _outcome(helpers.evolve_batch_reference, z, p, *args)
        assert ours[0] is WallBreachError and "record 1;" in ours[1]

    # 300 rows of 4 particles are three blocks: a bad height in the last one
    # stops the kernel before the first block steps
    @pytest.mark.parametrize("row, height", [
        (0, 0.999 * 5.0), (299, -0.999 * 5.0), (150, 4.9999), (299, np.nan),
        (0, -np.inf)], ids=["at", "at-neg", "beyond", "nan", "inf"])
    def test_initial_breach_writes_nothing(self, row, height):
        rng = np.random.default_rng(13)
        z = rng.uniform(-3.0, 3.0, (300, 4))
        p = rng.normal(size=(300, 4))
        z[row, 1] = height
        end, b, e, z_out, p_out = helpers.kernel_records(z, p, PARAMS, 1e-3,
                                                         1e-3, 2, 4)
        assert end == 0
        assert np.isnan(b).all() and np.isnan(e).all()
        assert np.array_equal(_bits(z_out), _bits(z))
        assert np.array_equal(_bits(p_out), _bits(p))

    def test_initial_breach_raises_before_the_records_are_read(self,
                                                               nan_empty):
        # the records are NaN: reading them would raise EnergyDriftError
        z, p = np.zeros((300, 4)), np.zeros((300, 4))
        z[299, 3] = 5.0
        with pytest.raises(WallBreachError) as err:
            _evolve_batch(z, p, PARAMS, 1e-3, 2, 4, 1e-6, 0.999)
        assert str(err.value) == ("particle beyond 0.999 of the half-box at "
                                  "record 0")

    def test_records_past_the_breach_are_not_written(self):
        z, p = np.zeros((300, 4)), np.zeros((300, 4))
        z[0, 0], p[0, 0] = -3.0, 8.0
        end, b, e, _, _ = helpers.kernel_records(z, p, PARAMS, 0.0, 0.1, 2, 10)
        assert end == 8
        assert np.isfinite(b[:8]).all() and np.isfinite(e[:8]).all()
        # the first block stopped at its breach, the later ones before it
        assert np.isnan(b[8:]).all() and np.isnan(e[8:]).all()


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
        # H1 of the same values as C-ordered rows, as the kernel records it
        rows = np.array(z, dtype=float, order="C", ndmin=2)
        p = -0.5 * rows
        _, _, e, _, _ = helpers.kernel_records(rows, p, PARAMS, 0.3, 1e-3, 1, 1)
        assert np.array_equal(
            _bits(e[0]),
            _bits(helpers.hamiltonian_reference(rows, p, PARAMS, 0.3)))


class TestKronrodSums:
    """The weighted sums of numerics._kronrod_panels against np.dot of each
    row, as the OpenBLAS AVX-512 ddot of the reference host class adds it.
    Under another BLAS kernel (OPENBLAS_CORETYPE=Haswell) this is the check
    that fails; the quadrature oracles use helpers.fma_sum instead."""

    def test_bit_equal_to_np_dot(self):
        rng = np.random.default_rng(61)
        rows = 20000
        pairs = rng.standard_normal((rows, 7)) * np.exp(
            rng.uniform(-30.0, 30.0, (rows, 7)))
        # the chains start from +0.0, as np.dot's do: a row of -0.0 sums
        # to +0.0, not -0.0
        pairs[0] = -0.0
        k, g = np.empty((2, rows))
        _kernel.library().kronrod_sums(pairs.ctypes.data, rows,
                                       _WGK.ctypes.data, _WG.ctypes.data,
                                       k.ctypes.data, g.ctypes.data)
        assert np.array_equal(_bits(k), _bits(
            [np.dot(_WGK[:7], row) for row in pairs]))
        assert np.array_equal(_bits(g), _bits(
            [np.dot(_WG[:3], row[1::2]) for row in pairs]))
        assert _bits(k[0]) == _bits(g[0]) == _bits(0.0)


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
        assert set(signatures) == {"wall_sums", "verlet_records",
                                   "guide_table", "inverse_cdf",
                                   "philox_uniforms",
                                   "sampled_force_sums", "sampled_states",
                                   "sampled_momentum_sums", "kronrod_sums"}
        lib = _kernel.library()
        for name, (restype, argtypes) in signatures.items():
            fn = getattr(lib, name)
            assert fn.restype is restype, name
            assert list(fn.argtypes or ()) == argtypes, name

    def test_the_exported_constants_are_the_guide_and_the_block(self):
        # one constant per rule: the guide's cells and the values per block
        # that the row loops and the inverse-CDF passes share
        names = re.findall(r"^const ptrdiff_t (\w+) =",
                           _kernel._SOURCE.read_text(), re.MULTILINE)
        assert names == ["block", "guide_cells"]
        lib = _kernel.library()
        assert [ctypes.c_ssize_t.in_dll(lib, name).value
                for name in names] == [512, 1 << 16]

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

    def test_compiles_without_warnings(self):
        # no variable-length array, and no stack frame past 64 KiB: the
        # kernels' buffers are fixed-size arrays on the stack; NumPy's
        # header is found as the build finds it
        cc = shutil.which("cc")
        if cc is None:
            pytest.skip("cc is not on PATH")
        include = [f for f in _kernel._FLAGS if f.startswith("-I")]
        assert include == [f"-I{_kernel._NUMPY_INCLUDE}"]
        result = subprocess.run(
            [cc, "-c", "-o", os.devnull, "-Wall", "-Wextra", "-Werror",
             "-Wvla", "-Wframe-larger-than=65536", *include,
             str(_kernel._SOURCE)],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


# the declarations of the inverse-CDF table and its guide in every function
# that reads the table: without restrict on the table, inverse_cdf took
# about 40 % longer per value (ROADMAP, "Measured ceilings")
_TABLE_RULE = {"table": "const double *restrict table",
               "guide": "const int32_t *restrict guide"}


def _table_rule(text):
    """(the C functions defined in text that take a parameter `table`,
    [(function, declaration)] of their table and guide parameters that are
    not declared as _TABLE_RULE says)."""
    checked, bad = set(), []
    for name, params in re.findall(r"(\w+)\(([^)]*)\)\s*\{", text):
        decls = {re.findall(r"\w+", d)[-1]: d
                 for d in (" ".join(p.split()) for p in params.split(","))
                 if d}
        if "table" not in decls:
            continue
        checked.add(name)
        bad.extend((name, decls.get(key)) for key, want in _TABLE_RULE.items()
                   if decls.get(key) != want)
    return checked, bad


class TestTableRule:
    def test_every_reader_of_the_table_declares_it_restrict(self):
        checked, bad = _table_rule(_kernel._SOURCE.read_text())
        assert checked == {"inverse_cdf", "heights", "sampled_force_sums",
                           "sampled_states"}
        assert bad == []

    def test_the_rule_finds_a_table_or_guide_without_restrict(self):
        snippet = (
            "KERNEL void f(const double *u, const double *table,\n"
            "              const int32_t *restrict guide, ptrdiff_t k)\n"
            "{\n}\n"
            "static inline void g(const double *restrict table,\n"
            "                     const int32_t *guide, ptrdiff_t k)\n"
            "{\n    if (k) {\n    }\n}\n")
        assert _table_rule(snippet) == ({"f", "g"}, [
            ("f", "const double *table"), ("g", "const int32_t *guide")])


def _child_env(**extra):
    """os.environ, with extra, for a child interpreter that imports this
    package."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(gasrelax.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]), **extra)


def _cache_name():
    """The cache name of the library built from the source as it is now."""
    return _kernel._library_name(_kernel._SOURCE.read_bytes())


def _loader_script(cache, start):
    return f"""
import time
import numpy as np
from gasrelax import _kernel
while time.time() < {start!r}:
    time.sleep(0.001)
lib = _kernel._load({str(cache)!r})
z = np.linspace(-4.9, 4.9, 101)
out = np.empty_like(z)
lib.wall_sums(z.ctypes.data, out.ctypes.data, z.size, 1, 1, 5.0, 1.0)
print(out.view(np.int64).tolist())
"""


class TestLoader:
    def test_concurrent_builds_into_one_cache(self, tmp_path):
        script = _loader_script(tmp_path, time.time() + 1.5)
        procs = [subprocess.Popen([sys.executable, "-c", script],
                                  env=_child_env(),
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

    def test_threads_that_ask_at_once_load_once(self, monkeypatch):
        # the threads of one process build into one `.part` file name, so
        # they must not build side by side
        calls = []

        def slow_load(cache_dir):
            calls.append(cache_dir)
            time.sleep(0.05)
            return object()

        monkeypatch.setattr(_kernel, "_lib", None)
        monkeypatch.setattr(_kernel, "_load", slow_load)
        barrier = threading.Barrier(4)
        got = []

        def ask():
            barrier.wait(timeout=10)
            got.append(_kernel.library())

        threads = [threading.Thread(target=ask) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert len(calls) == 1
        assert len(got) == 4 and all(lib is got[0] for lib in got)

    def test_a_build_removes_the_stale_libraries(self, tmp_path):
        # a library of an older key goes; another process's build does not
        (tmp_path / "_verlet-0000000000000000.so").write_bytes(b"old")
        part = tmp_path / "_verlet-0000000000000000.so.1.part"
        part.write_bytes(b"building")
        _kernel._load(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [_cache_name(), part.name])

    def test_unwritable_cache_builds_in_a_private_directory(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        lib = _kernel._load(blocker / "cache")
        z = np.array([0.5, -1.5])
        out = np.empty(2)
        lib.wall_sums(z.ctypes.data, out.ctypes.data, 2, 1, 1, 5.0, 1.0)
        assert np.array_equal(_bits(out),
                              _bits(helpers.wall_force_reference(z, PARAMS)))
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_missing_compiler(self, tmp_path, monkeypatch):
        empty = tmp_path / "bin"
        empty.mkdir()
        monkeypatch.setenv("PATH", str(empty))
        with pytest.raises(_kernel.KernelBuildError, match="'cc'"):
            _kernel._load(tmp_path / "cache")

    @pytest.mark.parametrize("name", ["_NPYRANDOM", "_BITGEN_HEADER"])
    def test_missing_numpy_random_c_api(self, tmp_path, monkeypatch, name):
        missing = tmp_path / "gone" / getattr(_kernel, name).name
        monkeypatch.setattr(_kernel, name, missing)
        cache = tmp_path / "cache"
        with pytest.raises(_kernel.KernelBuildError,
                           match=re.escape(str(missing))):
            _kernel._load(cache)
        assert not cache.exists()

    def test_missing_static_library_is_a_runtime_error_in_the_cli(
            self, tmp_path, monkeypatch, capsys):
        missing = tmp_path / "libnpyrandom.a"
        monkeypatch.setattr(_kernel, "_lib", None)
        monkeypatch.setattr(_kernel, "_NPYRANDOM", missing)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_particles = 4\nn_samples = 1000\n"
                       f"output_dir = {tmp_path}\n")
        assert main(["bounds", "--config", str(cfg)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime error: cannot build _verlet.c")
        assert str(missing) in err and "Traceback" not in err

    def test_changed_static_library_changes_the_cache_key(self, tmp_path,
                                                          monkeypatch):
        # a new NumPy brings new normals: the library is built afresh
        copy = tmp_path / "libnpyrandom.a"
        copy.write_bytes(_kernel._NPYRANDOM.read_bytes())
        name = _cache_name()
        monkeypatch.setattr(_kernel, "_NPYRANDOM", copy)
        assert _cache_name() == name
        with open(copy, "ab") as fh:
            fh.write(b"\n")
        assert _cache_name() != name

    @pytest.mark.parametrize("edit", ["source", "flags"])
    def test_changed_source_or_flags_change_the_cache_key(
            self, tmp_path, monkeypatch, edit):
        name = _cache_name()
        if edit == "source":
            copy = tmp_path / "_verlet.c"
            copy.write_text(_kernel._SOURCE.read_text())
            monkeypatch.setattr(_kernel, "_SOURCE", copy)
            assert _cache_name() == name
            with open(copy, "a") as fh:
                fh.write("/* one more comment */\n")
        else:
            monkeypatch.setattr(_kernel, "_FLAGS",
                                (*_kernel._FLAGS, "-DGASRELAX_EDITED=1"))
        assert _cache_name() != name

    def test_an_edit_after_the_read_does_not_reach_the_library(
            self, tmp_path, monkeypatch):
        # the key, the compiled code and the bindings come from one read:
        # an edit that lands on disk just after it is not built under the
        # name of the text before it
        class EditedAfterRead(type(Path())):
            def read_bytes(self):
                text = super().read_bytes()
                if b"edited_marker" not in text:
                    with open(self, "ab") as fh:
                        fh.write(b"const ptrdiff_t edited_marker = 1;\n")
                return text

        text = _kernel._SOURCE.read_bytes()
        (tmp_path / "_verlet.c").write_bytes(text)
        monkeypatch.setattr(_kernel, "_SOURCE",
                            EditedAfterRead(tmp_path / "_verlet.c"))
        lib = _kernel._load(tmp_path / "cache")
        assert b"edited_marker" in (tmp_path / "_verlet.c").read_bytes()
        assert not hasattr(lib, "edited_marker")
        assert Path(lib._name).name == _kernel._library_name(text)

    def test_a_load_reads_the_source_once(self, tmp_path, monkeypatch):
        # once when it builds the library, and once when it loads it
        reads = []

        class CountedReads(type(Path())):
            def open(self, *args, **kwargs):
                reads.append(args)
                return super().open(*args, **kwargs)

        (tmp_path / "_verlet.c").write_bytes(_kernel._SOURCE.read_bytes())
        monkeypatch.setattr(_kernel, "_SOURCE",
                            CountedReads(tmp_path / "_verlet.c"))
        cache = tmp_path / "cache"
        for _ in ("build", "load"):
            reads.clear()
            _kernel._load(cache)
            assert len(reads) == 1
            assert [p.name for p in cache.iterdir()] == [_cache_name()]

    def test_another_compiler_keeps_the_cache_key(self, tmp_path,
                                                  monkeypatch):
        # the key is what the library's bits depend on, not `cc --version`:
        # a build by another compiler lands under the same name
        real = shutil.which("cc")
        if real is None:
            pytest.skip("cc is not on PATH")
        bindir = tmp_path / "bin"
        bindir.mkdir()
        (bindir / "cc").write_text(
            '#!/bin/sh\n'
            'if [ "$1" = --version ]; then echo "other-cc 99.0"; exit 0; fi\n'
            f'exec {shlex.quote(real)} "$@"\n')
        (bindir / "cc").chmod(0o755)
        name = _cache_name()
        monkeypatch.setenv("PATH", f"{bindir}{os.pathsep}{os.environ['PATH']}")
        assert subprocess.run(["cc", "--version"], capture_output=True,
                              text=True).stdout == "other-cc 99.0\n"
        assert _cache_name() == name
        _kernel._load(tmp_path / "cache")
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [name]

    def test_a_built_library_runs_without_a_compiler(self, tmp_path):
        # the first run builds the library if it is missing; the second,
        # with no `cc` on PATH, loads it and writes the same report
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_particles = 4\nn_samples = 1000\noutput_dir = out\n")
        empty = tmp_path / "bin"
        empty.mkdir()
        reports = []
        for i, path in enumerate([os.environ["PATH"], str(empty)]):
            cwd = tmp_path / f"run{i}"
            cwd.mkdir()
            result = subprocess.run(
                [sys.executable, "-m", "gasrelax.cli", "bounds", "--config",
                 str(cfg)], cwd=cwd, env=_child_env(PATH=path),
                capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            reports.append((cwd / "out" / "bounds_report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_a_cached_library_loads_without_a_child_process(self):
        _kernel.library()
        script = ("import sys\n"
                  "from gasrelax import _kernel, cli\n"
                  "_kernel.library()\n"
                  "print('subprocess' in sys.modules)\n")
        result = subprocess.run([sys.executable, "-c", script],
                                env=_child_env(), capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    def test_missing_compiler_is_a_runtime_error_in_the_cli(
            self, tmp_path, monkeypatch, capsys):
        # a source copy of its own, whose empty __pycache__ forces a build;
        # new flags would build into the package's cache and prune the
        # library that is there
        source = tmp_path / "pkg" / "_verlet.c"
        source.parent.mkdir()
        source.write_bytes(_kernel._SOURCE.read_bytes())
        empty = tmp_path / "bin"
        empty.mkdir()
        monkeypatch.setattr(_kernel, "_lib", None)
        monkeypatch.setattr(_kernel, "_SOURCE", source)
        monkeypatch.setenv("PATH", str(empty))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_particles = 4\nn_samples = 1000\n"
                       f"output_dir = {tmp_path}\n")
        assert main(["bounds", "--config", str(cfg)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime error: cannot build _verlet.c")
        assert "Traceback" not in err
