import contextlib
import gc
import io
import json
import math
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gasrelax import bounds, cli, dynamics, gibbs
from gasrelax.cli import (EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, RunConfig,
                          main, parse_config_file)

QUICK = """
# quick functional configuration
n_particles = 8
beta = 1.0
delta_wall = 1.0
box_side = 10.0
field = 1e-3
dt = 5e-4
energy_drift_tol = 1e-4
n_samples = 2000
n_traj = 64
n_times = 8
grid_size = 256
seed = 7
"""


def write_config(tmp_path, text=QUICK, **extra):
    """text with each key of extra set to its value: a line of text that
    sets one of them goes, since a config file sets each key once."""
    lines = [line for line in text.splitlines()
             if line.split("=", 1)[0].strip() not in extra]
    for key, value in extra.items():
        lines.append(f"{key} = {value}")
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines))
    return str(path)


def read_csv(path):
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header, rows


class TestConfigParsing:
    def test_roundtrip(self, tmp_path):
        path = write_config(tmp_path)
        values = parse_config_file(path)
        assert values["n_particles"] == 8
        assert values["dt"] == 5e-4
        assert values["seed"] == 7

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, extra_key=1)
        code = main(["bounds", "--config", path])
        assert code == EXIT_VALIDATION

    def test_bad_value(self, tmp_path):
        path = write_config(tmp_path, beta="fast")
        assert main(["bounds", "--config", path]) == EXIT_VALIDATION

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("beta 1.0\n")
        assert main(["bounds", "--config", str(path)]) == EXIT_VALIDATION

    def test_unreadable_file(self, tmp_path, capsys):
        binary = tmp_path / "binary.cfg"
        binary.write_bytes(b"beta = \xff\n")
        for path in (tmp_path / "missing.cfg", tmp_path, binary):
            code = main(["bounds", "--config", str(path),
                         "--output_dir", str(tmp_path / "out")])
            assert code == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.startswith("validation error: cannot read config "
                                  f"file {path}: ")

    def test_a_key_set_twice_is_refused(self, tmp_path, capsys):
        # the later value used to win silently; a flag may still override
        # a key of the file (test_flag_overrides_file)
        path = tmp_path / "twice.cfg"
        path.write_text("n_particles = 4\nbeta = 1\nbeta = 2\n"
                        "n_samples = 1000\n")
        out = tmp_path / "out"
        for command in ("bounds", "gamma", "simulate", "report"):
            code = main([command, "--config", str(path),
                         "--output_dir", str(out)])
            assert code == EXIT_VALIDATION, command
            assert capsys.readouterr().err == (
                f"validation error: {path}:3: key 'beta' is already set on "
                "line 2\n")
        assert not out.exists()

    def test_incomplete_units(self, tmp_path):
        path = write_config(tmp_path, mass_kg=4.65e-26)
        assert main(["bounds", "--config", path]) == EXIT_VALIDATION

    def test_flag_overrides_file(self, tmp_path, capsys):
        path = write_config(tmp_path, output_dir=str(tmp_path))
        # config is fine, but the flag pushes the run out of the regime
        code = main(["bounds", "--config", path, "--delta_wall", "1e9"])
        assert code == EXIT_VALIDATION
        assert "box_side/3" in capsys.readouterr().err

    def test_every_key_parses_to_its_type(self, tmp_path):
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{f.name} = 3\n" for f in fields(RunConfig)))
        values = parse_config_file(str(path))
        assert set(values) == {f.name for f in fields(RunConfig)}
        # postponed annotations: the declared types read as strings here
        expected = {"int": int, "str": str}
        for f in fields(RunConfig):
            kind = expected.get(f.type, float)
            assert type(values[f.name]) is kind, f.name
            assert values[f.name] == kind(3)

    def test_config_hash_stable(self):
        assert RunConfig(output_dir=".").hash() == RunConfig(output_dir=".").hash()
        assert RunConfig(output_dir=".").hash() != \
            RunConfig(output_dir=".", beta=2.0).hash()


class TestBoundsCommand:
    def test_reference_run(self, tmp_path, capsys):
        path = write_config(tmp_path, output_dir=str(tmp_path),
                            mass_kg=4.65e-26, sigma_m=1e-10, box_m=1.0,
                            temperature_k=300.0)
        assert main(["bounds", "--config", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        doc = json.loads((tmp_path / "bounds_report.json").read_text())
        assert doc["meta"]["seed"] == 7
        assert doc["regime_ok"] is True
        assert 1e-9 <= doc["t0_physical_seconds"] <= 1e-7
        assert all(chk["passed"] for chk in doc["inequality_checks"])

    def test_idempotent(self, tmp_path):
        path = write_config(tmp_path, output_dir=str(tmp_path))
        assert main(["bounds", "--config", path]) == EXIT_OK
        first = (tmp_path / "bounds_report.json").read_bytes()
        assert main(["bounds", "--config", path]) == EXIT_OK
        assert (tmp_path / "bounds_report.json").read_bytes() == first

    def test_regime_violation_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, output_dir=str(tmp_path),
                            delta_wall=1e12)
        assert main(["bounds", "--config", path]) == EXIT_VALIDATION
        assert "box_side/3" in capsys.readouterr().err

    def test_non_finite_value_is_refused(self, tmp_path, monkeypatch,
                                         capsys):
        # the report is strict JSON: an inf is refused before the file is
        # written
        build = cli.build_bound_report

        def with_inf(*args, **kwargs):
            return replace(build(*args, **kwargs), z_tilde=math.inf)

        monkeypatch.setattr(cli, "build_bound_report", with_inf)
        path = write_config(tmp_path, output_dir=str(tmp_path))
        assert main(["bounds", "--config", path]) == EXIT_VALIDATION
        assert "Out of range float" in capsys.readouterr().err
        assert not (tmp_path / "bounds_report.json").exists()

    def test_never_imports_numpy_random(self, tmp_path):
        # the bracket norm reads its Philox stream in the kernel, from the
        # key alone: a bounds run never loads numpy.random (2 MB resident)
        path = write_config(tmp_path, output_dir=str(tmp_path))
        script = ("import sys\n"
                  "from gasrelax import cli\n"
                  f"code = cli.main(['bounds', '--config', {path!r}])\n"
                  "print(code, 'numpy.random' in sys.modules)\n")
        result = subprocess.run([sys.executable, "-c", script],
                                env=helpers.child_env(), capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == f"{EXIT_OK} False"


class TestParserReuse:
    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_one_parser_for_every_command(self):
        # the command, --config and a flag per config key, given once
        parser = cli.build_parser()
        assert len(parser._actions) == 3 + len(fields(RunConfig))
        for argv in (["bounds", "--seed", "5"], ["--seed", "5", "bounds"]):
            args = parser.parse_args(argv)
            assert (args.command, args.seed) == ("bounds", "5")

    def test_a_flag_of_one_call_is_not_seen_by_the_next(self):
        parser = cli.build_parser()
        assert parser.parse_args(["bounds", "--seed", "5"]).seed == "5"
        assert parser.parse_args(["bounds"]).seed is None

    def test_a_bad_flag_after_a_good_call_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, output_dir=str(tmp_path))
        assert main(["bounds", "--config", path]) == EXIT_OK
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--config", path, "--no_such_key", "1"])
        assert exc.value.code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("usage: gasrelax")
        assert "unrecognized arguments: --no_such_key 1" in err

    def test_a_call_leaves_no_argparse_garbage(self, tmp_path):
        # a parser per call left 715 objects in reference cycles; what is
        # left now is json's encoder closure (reports are written indented)
        argv = ["bounds", "--n_samples", "1000", "--grid_size", "64",
                "--output_dir", str(tmp_path)]
        assert _run_quietly(argv)[0] == EXIT_OK
        gc.collect()
        gc.disable()
        try:
            assert _run_quietly(argv)[0] == EXIT_OK
            assert gc.collect() < 100
        finally:
            gc.enable()


def _run_quietly(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _mostly(good, bad):
    """A draw of good, or one time in five of bad."""
    return st.tuples(st.integers(0, 4), good, bad).map(
        lambda draw: draw[2] if draw[0] == 0 else draw[1])


def _flag(lo, hi):
    """Mostly a float in [lo, hi], else one that no parameter accepts or
    that the regime may reject."""
    return _mostly(st.floats(lo, hi), st.sampled_from(
        [0.0, -1.0, math.nan, math.inf, -math.inf, 1.0, 1e9]))


@pytest.fixture(scope="module")
def flags_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("flags"))


class TestBoundsFlags:
    """Any mix of bounds flags: a result or a validation error, never a
    traceback (RuntimeWarnings are errors in the test run)."""

    @settings(max_examples=120, deadline=None, database=None)
    @given(n_samples=_mostly(st.integers(1000, 3000), st.integers(-5, 999)),
           grid_size=_mostly(st.integers(64, 300), st.integers(-5, 63)),
           box_side=_flag(3.5, 40.0), beta=_flag(0.2, 5.0),
           delta_wall=_flag(1e-3, 10.0))
    def test_exit_code_and_no_traceback(self, flags_dir, n_samples,
                                        grid_size, box_side, beta,
                                        delta_wall):
        code, _, err = _run_quietly([
            "bounds", "--n_particles", "4", f"--n_samples={n_samples}",
            f"--grid_size={grid_size}", f"--box_side={box_side!r}",
            f"--beta={beta!r}", f"--delta_wall={delta_wall!r}",
            "--output_dir", flags_dir])
        assert code in (EXIT_OK, EXIT_VALIDATION)
        assert "Traceback" not in err
        assert (err == "") == (code == EXIT_OK)

    @pytest.mark.parametrize("extreme", [
        # 1/(k_B T): k_B T underflows to zero
        (["--mass_kg=4.65e-26", "--sigma_m=1e-10", "--box_m=1.0",
          "--temperature_k=1e-320"], "float division by zero"),
        # the Gibbs weight of the (z+L/2)^-26 term overflows exp, with no
        # RuntimeWarning on the way
        (["--box_side=1e-15", "--delta_wall=1e-190"],
         "overflow encountered in exp"),
        # delta^2 overflows in the bracket norm, at the default box and a
        # tiny beta; the message comes without the errno of a float **
        # overflow
        (["--beta=1e-300", "--delta_wall=1e300"],
         "Numerical result out of range"),
    ], ids=["extreme0", "extreme2", "extreme3"])
    def test_float_range_is_a_validation_error(self, flags_dir, extreme):
        flags, reason = extreme
        code, _, err = _run_quietly(["bounds", "--n_particles", "4",
                                     "--n_samples=1000", "--grid_size=100",
                                     *flags, "--output_dir", flags_dir])
        assert code == EXIT_VALIDATION
        assert err == ("validation error: parameters out of numeric range: "
                       f"{reason}\n")

    @pytest.mark.parametrize("flags", [
        ["--box_side=1e10"], ["--box_side=1e16"],
        ["--box_side=1e300", "--beta=1e300", "--delta_wall=21.4"],
        ["--box_side=3.4e165", "--beta=0.001", "--delta_wall=3.4e165"],
        ["--delta_wall=1e-190"],
    ], ids=["box_1e10", "box_1e16", "eta_underflow", "delta_squared_overflow",
            "tiny_wall_layer"])
    def test_a_box_too_wide_for_its_wall_layer_is_refused(self, tmp_path,
                                                          flags):
        # floats at the walls more than 2^-21 of the wall layer apart: the
        # layer's integrals came out wrong (at L = 1e16 they still passed)
        # or failed to converge
        code, _, err = _run_quietly(["bounds", "--n_particles", "4",
                                     "--n_samples=1000", "--grid_size=100",
                                     *flags, "--output_dir", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert re.fullmatch(r"validation error: box_side \S+ is too wide: "
                            r"floats at its walls are \S+ apart, more than "
                            r"2\^-21 of the wall layer \S+\n", err), err
        assert list(tmp_path.iterdir()) == []

    def test_a_box_within_float_resolution_is_evaluated(self, tmp_path):
        code, _, err = _run_quietly(["bounds", "--n_particles", "4",
                                     "--n_samples=1000", "--grid_size=100",
                                     "--box_side=1e9", "--output_dir",
                                     str(tmp_path)])
        assert (code, err) == (EXIT_OK, "")

    @pytest.mark.parametrize("units", [
        *(f"--{key}=inf"
          for key in ("mass_kg", "sigma_m", "box_m", "temperature_k")),
        # finite constants whose product overflows
        "--mass_kg=1e308 --box_m=1e308",
    ])
    def test_non_finite_physical_time_is_a_validation_error(self, tmp_path,
                                                            units):
        path = write_config(tmp_path, output_dir=str(tmp_path),
                            mass_kg=4.65e-26, sigma_m=1e-10, box_m=1.0,
                            temperature_k=300.0)
        code, _, err = _run_quietly(["bounds", "--config", path,
                                     *units.split()])
        assert code == EXIT_VALIDATION
        assert err.startswith("validation error:")
        assert "Traceback" not in err
        assert not (tmp_path / "bounds_report.json").exists()


class TestSweepAndRunControlKeys:
    """Keys that only some commands read are checked for every command."""

    @pytest.mark.parametrize("command, flag", [
        ("gamma", "--delta_moment=-1"), ("gamma", "--epsilon=nan"),
        ("gamma", "--h_min=inf"), ("gamma", "--h_max=inf"),
        ("simulate", "--workers=0"),
    ])
    def test_bad_value_is_a_validation_error(self, tmp_path, command, flag):
        path = write_config(tmp_path, output_dir=str(tmp_path))
        code, _, err = _run_quietly([command, "--config", path, flag])
        assert code == EXIT_VALIDATION
        key = flag[2:].split("=")[0]
        assert err == f"validation error: {key} must be " + (
            ">= 1\n" if key == "workers" else
            "strictly positive and finite\n")
        assert not list(tmp_path.glob("*.csv"))

    def test_h_min_above_h_max_is_a_validation_error(self, tmp_path):
        # the sweep ran from 0.2 down to 0.1
        path = write_config(tmp_path, output_dir=str(tmp_path))
        code, out, err = _run_quietly(["gamma", "--config", path,
                                       "--h_min=0.2", "--h_max=0.1"])
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == "validation error: h_min must be <= h_max\n"
        assert not list(tmp_path.glob("*.csv"))


class TestSizeKeys:
    """The size keys and h_points are checked for every command, against
    the floors of the library calls that read them, also by a command that
    does not read the key."""

    @pytest.mark.parametrize("command, flag, floor", [
        ("gamma", "--n_samples=999", 1000),
        ("gamma", "--n_traj=0", 1),
        ("bounds", "--n_times=1", 2),
        ("report", "--grid_size=63", 64),
        ("bounds", "--h_points=-5", 0),
    ])
    def test_below_the_floor_is_a_validation_error(self, tmp_path, command,
                                                   flag, floor):
        path = write_config(tmp_path, output_dir=str(tmp_path))
        code, out, err = _run_quietly([command, "--config", path, flag])
        key = flag[2:].split("=")[0]
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == f"validation error: {key} must be >= {floor}\n"
        assert [f.name for f in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("command", ["bounds", "simulate", "report"])
    def test_grid_past_int32_is_a_validation_error(self, tmp_path, command,
                                                    monkeypatch):
        # the ceiling of build_marginal, checked before any table is built
        def no_marginal(*args, **kwargs):
            raise AssertionError("a refused grid is not tabulated")

        for module in (bounds, cli, dynamics, gibbs):
            monkeypatch.setattr(module, "build_marginal", no_marginal)
        path = write_config(tmp_path, output_dir=str(tmp_path))
        code, out, err = _run_quietly([command, "--config", path,
                                       f"--grid_size={2**31}"])
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == ("validation error: grid_size must be <= "
                       f"{2**31 - 1}\n")
        assert [f.name for f in tmp_path.iterdir()] == ["run.cfg"]

    def test_any_integer_seed_is_taken_mod_2_to_the_64(self, tmp_path):
        etas = []
        for seed in (-1, 2**64 - 1):
            path = write_config(tmp_path, output_dir=str(tmp_path))
            assert _run_quietly(["bounds", "--config", path,
                                 f"--seed={seed}"])[0] == EXIT_OK
            doc = json.loads((tmp_path / "bounds_report.json").read_text())
            etas.append(doc["eta_empirical"])
        assert etas[0] == etas[1]


class TestEveryCommandChecksTheClassKeys:
    """The model, unit and integrator keys are checked by their classes for
    every command, also one that does not read them."""

    @pytest.mark.parametrize("argv", [
        ["report", "--beta=-1"],
        ["gamma", "--dt=-1"],
        ["bounds", "--wall_guard=2"],
        ["gamma", "--mass_kg=-1", "--sigma_m=1", "--box_m=1",
         "--temperature_k=1"],
        ["bounds", "--dt=inf"],
        ["bounds", "--t_end=inf"],
        ["gamma", "--energy_drift_tol=inf"],
    ])
    def test_bad_value_is_a_validation_error(self, tmp_path, argv):
        code, out, err = _run_quietly([*argv, "--output_dir", str(tmp_path)])
        assert code == EXIT_VALIDATION
        key = argv[1][2:].split("=")[0]
        assert err.startswith(f"validation error: {key} must ")
        assert "Traceback" not in err
        assert out == "" and not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["bounds", "gamma", "simulate",
                                         "report"])
    @pytest.mark.parametrize("key, si_key", [("sigma", "sigma_m"),
                                             ("mass", "mass_kg")])
    def test_sigma_other_than_one_is_a_validation_error(self, tmp_path,
                                                        command, key, si_key):
        # sigma and mass are the units of length and mass: their sizes are
        # the SI keys
        code, _, err = _run_quietly([command, f"--{key}", "2",
                                     "--output_dir", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert err.startswith(f"validation error: {key} must be 1")
        assert si_key in err
        assert not list(tmp_path.iterdir())


class TestReportShapes:
    """The key sets of both JSON reports; the golden digests of the
    benchmark pin their values only on the reference run."""

    def test_bounds_report(self, tmp_path):
        path = write_config(tmp_path, output_dir=str(tmp_path))
        assert main(["bounds", "--config", path]) == EXIT_OK
        doc = json.loads((tmp_path / "bounds_report.json").read_text())
        assert set(doc) == {"meta", "c", "eta_analytic", "eta_empirical",
                            "t0_natural", "t0_physical_seconds", "regime_ok",
                            "z_tilde", "inequality_checks"}
        assert set(doc["meta"]) == {"version", "config_hash", "seed"}
        assert set(doc["eta_empirical"]) == {"value", "std_error",
                                             "n_samples", "which_measure"}
        assert doc["eta_empirical"]["n_samples"] == 2000
        assert doc["eta_empirical"]["which_measure"] == "rho0"
        # no physical units in the config
        assert doc["t0_physical_seconds"] is None
        assert [set(c) for c in doc["inequality_checks"]] == [
            {"name", "lhs", "rhs", "passed"}] * 3

    def test_relaxation_report(self, tmp_path):
        path = write_config(tmp_path, output_dir=str(tmp_path))
        assert main(["simulate", "--config", path]) == EXIT_RUNTIME
        doc = json.loads((tmp_path / "relaxation_report.json").read_text())
        assert set(doc) == {"meta", "t0_bound", "t_star_empirical",
                            "positivity_ok", "curve_check", "displacement_ok",
                            "gamma", "gamma_tilde", "field_h",
                            "n_trajectories", "max_energy_drift",
                            "displacement_details"}
        assert doc["t_star_empirical"] == "not crossed within t_end"
        assert doc["n_trajectories"] == 64
        assert [set(d) for d in doc["displacement_details"]] == [
            {"t", "norm", "std_error", "bound", "passed"}] * 3


class TestGammaCommand:
    def test_sweep(self, tmp_path):
        path = write_config(tmp_path, output_dir=str(tmp_path), h_points=5)
        assert main(["gamma", "--config", path]) == EXIT_OK
        header, rows = read_csv(tmp_path / "gamma_sweep.csv")
        assert header == ["h", "gamma", "gamma_tilde", "hoelder_bound", "pass"]
        assert len(rows) == 6
        first = rows[0]
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0 and float(first[2]) == 0.0
        assert first[4] == "True"
        limit = 0.1 / 2.0
        for row in rows:
            if float(row[0]) < limit:
                assert row[4] == "True"
        gammas = [float(r[1]) for r in rows]
        assert gammas == sorted(gammas)

    def test_each_mgf_quadrature_runs_once(self, tmp_path, monkeypatch):
        # the reference sweep certifies 9 of its 10 fields against one K
        # and needs log M at 28 distinct arguments (29 with t = -0.0)
        args = []

        def counted(t, marginal):
            args.append((t, math.copysign(1.0, t)))
            return log_mgf_z(t, marginal)

        log_mgf_z = gibbs.log_mgf_z
        monkeypatch.setattr(gibbs, "log_mgf_z", counted)
        path = write_config(tmp_path, output_dir=str(tmp_path),
                            delta_moment=0.1, h_min=1e-5, h_max=1e-1,
                            h_points=9)
        assert main(["gamma", "--config", path]) == EXIT_OK
        assert len(args) == len(set(args)) == 29

    def test_mgf_overflow_is_a_validation_error(self, tmp_path, capsys):
        # exp(1e300 z) leaves the float range for any z > 0.0071
        path = write_config(tmp_path, output_dir=str(tmp_path))
        assert main(["gamma", "--config", path,
                     "--delta_moment", "1e300"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: parameters out of numeric range: overflow "
            "encountered in expm1\n")


class TestSimulateCommand:
    def test_step_count_past_the_kernel_range_is_a_validation_error(
            self, tmp_path, capsys):
        # about 1e297 steps per record: truncated by ctypes, it ran none
        out = tmp_path / "out"
        path = write_config(tmp_path, output_dir=str(out))
        code = main(["simulate", "--config", path, "--dt", "1e-300",
                     "--n_traj", "4"])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert "steps per record" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("workers, n_traj", [(1, 64), (2, 64),
                                                 (2, 1100)])
    def test_simulate_never_imports_numpy_random(self, tmp_path, workers,
                                                 n_traj):
        # the shards' states and the momenta of ||B||_1 come from the
        # kernel, NumPy's normals included; 1100 trajectories are two
        # shards, which run on threads of the one process
        path = write_config(tmp_path, output_dir=str(tmp_path))
        script = ("import sys\n"
                  "from gasrelax import cli\n"
                  f"code = cli.main(['simulate', '--config', {path!r}, "
                  f"'--workers', '{workers}', '--n_traj', '{n_traj}'])\n"
                  "print(code, 'numpy.random' in sys.modules,\n"
                  "      'multiprocessing' in sys.modules)\n")
        result = subprocess.run([sys.executable, "-c", script],
                                env=helpers.child_env(), capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        # exit 1 is the curve_check verdict
        assert result.stdout.splitlines()[-1] == f"{EXIT_RUNTIME} False False"

    def test_drift_in_a_pooled_shard_is_a_runtime_error(self, tmp_path):
        # the error of a shard reaches the caller as it is: a process pool
        # could not unpickle an EnergyDriftError and raised BrokenProcessPool
        path = write_config(tmp_path, output_dir=str(tmp_path),
                            energy_drift_tol=1e-12)
        runs = [_run_quietly(["simulate", "--config", path, "--n_traj=1100",
                              f"--workers={workers}"]) for workers in (1, 2)]
        assert runs[0] == runs[1]
        code, stdout, err = runs[0]
        assert code == EXIT_RUNTIME
        assert stdout == ""
        assert err.startswith("runtime error: relative H1 drift ")

    def test_out_of_memory_is_a_runtime_error(self, tmp_path, monkeypatch,
                                              capsys):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 763. GiB")

        monkeypatch.setattr(dynamics, "_evolve_sampled", no_memory)
        path = write_config(tmp_path, output_dir=str(tmp_path))
        assert main(["simulate", "--config", path]) == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "runtime error: out of memory: Unable to allocate 763. GiB\n")

    def test_a_step_above_t0_is_shrunk_not_refused(self, tmp_path):
        # dt = 0.2 lies below t_end = 2 t0 = 0.259 but above t0 = 0.129,
        # where the displacement ensemble ends; it shrinks dt as the
        # autocorrelation ensemble does, and curve_check fails as at the
        # reference
        config = Path(__file__).resolve().parents[1] / "configs" / \
            "reference.cfg"
        code, out, err = _run_quietly([
            "simulate", "--config", str(config), "--dt", "0.2",
            "--energy_drift_tol", "0.1", "--n_traj", "16",
            "--output_dir", str(tmp_path)])
        assert (code, err) == (EXIT_RUNTIME, "")
        assert "FAIL curve_check" in out
        assert (tmp_path / "relaxation_report.json").exists()

    def test_a_smaller_mass_unit_is_refused(self, tmp_path):
        # the reference flow in a time unit 100 times smaller printed a t*
        # below t0 and failed positivity: t0 is the bound at unit mass
        config = Path(__file__).resolve().parents[1] / "configs" / \
            "reference.cfg"
        code, out, err = _run_quietly([
            "simulate", "--config", str(config), "--n_particles", "4",
            "--n_traj", "32", "--n_times", "41", "--mass", "1e-4",
            "--dt", "2.5e-6", "--output_dir", str(tmp_path)])
        assert (code, out) == (EXIT_VALIDATION, "")
        assert "mass_kg" in err
        assert not (tmp_path / "relaxation_report.json").exists()

    def test_quick_campaign(self, tmp_path, capsys):
        path = write_config(tmp_path, output_dir=str(tmp_path))
        code = main(["simulate", "--config", path])
        out = capsys.readouterr().out
        doc = json.loads((tmp_path / "relaxation_report.json").read_text())
        assert doc["positivity_ok"] is True
        assert doc["displacement_ok"] is True
        # the closed-form bound curve starts above the measured kernel, so
        # the campaign reports the mismatch through its exit status
        assert doc["curve_check"] is False
        assert code == EXIT_RUNTIME
        assert "FAIL curve_check" in out
        assert doc["t_star_empirical"] == "not crossed within t_end"
        header, rows = read_csv(tmp_path / "correlation.csv")
        assert header == ["t", "c", "stderr", "bound_curve"]
        assert len(rows) == 8
        assert float(rows[0][0]) == 0.0

    def test_a_run_that_stops_before_t0_fails_the_t0_checks(self, tmp_path):
        # t0 = 0.129318 here; C(t) is positive up to t_end = 0.01
        path = write_config(tmp_path, output_dir=str(tmp_path))
        code, out, _ = _run_quietly(["simulate", "--config", path,
                                     "--field", "0", "--t_end", "0.01",
                                     "--n_times", "4"])
        assert code == EXIT_RUNTIME
        assert out.splitlines()[2:5] == [
            "FAIL positivity_ok (run stopped at t = 0.01 < t0)",
            "FAIL curve_check (run stopped at t = 0.01 < t0)",
            "PASS displacement_ok"]
        doc = json.loads((tmp_path / "relaxation_report.json").read_text())
        assert doc["positivity_ok"] is doc["curve_check"] is False
        assert doc["displacement_ok"] is True

    def test_seed_determinism(self, tmp_path):
        path = write_config(tmp_path, output_dir=str(tmp_path))
        main(["simulate", "--config", path])
        first_json = (tmp_path / "relaxation_report.json").read_bytes()
        first_csv = (tmp_path / "correlation.csv").read_bytes()
        main(["simulate", "--config", path])
        assert (tmp_path / "relaxation_report.json").read_bytes() == first_json
        assert (tmp_path / "correlation.csv").read_bytes() == first_csv

    def test_single_trajectory_smoke(self, tmp_path):
        path = write_config(tmp_path, output_dir=str(tmp_path), n_traj=1)
        code = main(["simulate", "--config", path])
        assert code in (EXIT_OK, EXIT_RUNTIME)
        assert (tmp_path / "correlation.csv").exists()

    @pytest.mark.parametrize("n_particles", [1, 7, 65])
    @pytest.mark.parametrize("n_traj", [1, 1023, 1025])
    def test_outputs_equal_for_one_and_two_workers(self, tmp_path, n_traj,
                                                   n_particles):
        # 1025 trajectories are two 1024-row shards, which two workers run
        # on two threads; fewer are one shard, run in the calling thread
        path = write_config(tmp_path)
        runs = []
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}"
            code, stdout, err = _run_quietly([
                "simulate", "--config", path, f"--n_traj={n_traj}",
                f"--n_particles={n_particles}", f"--workers={workers}",
                "--output_dir", str(out)])
            doc = json.loads((out / "relaxation_report.json").read_text())
            doc.pop("meta")
            csv = [line for line in
                   (out / "correlation.csv").read_text().splitlines()
                   if not line.startswith("#")]
            runs.append((code, stdout, err, doc, csv))
        assert runs[0] == runs[1]
        assert runs[0][2] == ""


class TestConfigReachesTheRun:
    def test_grid_size_reaches_every_marginal(self, tmp_path, monkeypatch):
        seen = []
        for module in (bounds, dynamics):
            def spy(params, grid_size=2048, tilted=False,
                    _real=module.build_marginal):
                seen.append(grid_size)
                return _real(params, grid_size=grid_size, tilted=tilted)
            monkeypatch.setattr(module, "build_marginal", spy)
        path = write_config(tmp_path, output_dir=str(tmp_path))
        assert main(["bounds", "--config", path]) == EXIT_OK
        assert main(["simulate", "--config", path]) == EXIT_RUNTIME
        # one rho0 marginal for bounds, rho0 and rho1 for simulate
        assert seen == [256, 256, 256]


class TestZeroUniformDraw:
    """A uniform draw of exactly 0.0 is skipped, not placed on the wall."""

    def test_bounds(self, tmp_path, monkeypatch, capsys):
        # the bracket norm's stream starts at a counter whose first value is
        # an exact 0.0, which the kernel skips
        real = gibbs.philox_state
        monkeypatch.setattr(gibbs, "philox_state", lambda key, counter=0:
                            real(key, helpers.philox_counter_with_zeros(
                                key, [0])))
        path = write_config(tmp_path, output_dir=str(tmp_path))
        assert main(["bounds", "--config", path]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_simulate(self, tmp_path, monkeypatch, capsys):
        # every shard's stream starts at a counter whose first value is an
        # exact 0.0 (probability 2^-53), which the kernel skips
        real = dynamics.philox_state
        monkeypatch.setattr(dynamics, "philox_state", lambda key, counter=0:
                            real(key, helpers.philox_counter_with_zeros(
                                key, [0])))
        path = write_config(tmp_path, output_dir=str(tmp_path))
        # exit 1 is the curve_check verdict, not a wall breach
        assert main(["simulate", "--config", path]) == EXIT_RUNTIME
        assert capsys.readouterr().err == ""
        doc = json.loads((tmp_path / "relaxation_report.json").read_text())
        assert doc["positivity_ok"] is True
        assert doc["curve_check"] is False


class TestReportCommand:
    def test_missing_inputs(self, tmp_path, capsys):
        path = write_config(tmp_path, output_dir=str(tmp_path))
        assert main(["report", "--config", path]) == EXIT_VALIDATION
        assert "missing input" in capsys.readouterr().err

    def test_combined_summary(self, tmp_path, capsys):
        path = write_config(tmp_path, output_dir=str(tmp_path),
                            mass_kg=4.65e-26, sigma_m=1e-10, box_m=1.0,
                            temperature_k=300.0)
        main(["bounds", "--config", path])
        main(["simulate", "--config", path])
        capsys.readouterr()
        assert main(["report", "--config", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "t0" in out
        assert "not crossed" in out
        assert "(t* >= t0 holds)" in out
        assert "e-09 s" in out

    def test_run_stopped_before_t0_is_inconclusive(self, tmp_path, capsys):
        # t0 = 0.129 here: a run to t = 0.01 cannot support t* >= t0
        path = write_config(tmp_path, output_dir=str(tmp_path), n_traj=16,
                            t_end=0.01)
        main(["bounds", "--config", path])
        main(["simulate", "--config", path])
        capsys.readouterr()
        assert main(["report", "--config", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "inconclusive: run stopped at t = 0.01 < t0" in out
        assert "holds" not in out

    def test_missing_correlation_csv(self, tmp_path, capsys):
        path = write_config(tmp_path, output_dir=str(tmp_path), n_traj=16)
        main(["bounds", "--config", path])
        main(["simulate", "--config", path])
        (tmp_path / "correlation.csv").unlink()
        assert main(["report", "--config", path]) == EXIT_VALIDATION
        assert "correlation.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("t_star, verdict", [
        (0.5, "t* = 0.500000 (t* >= t0 holds)"),
        (0.05, "t* = 0.050000 (t* >= t0 VIOLATED)"),
    ], ids=["holds", "violated"])
    def test_crossing_against_t0(self, tmp_path, t_star, verdict):
        _report_inputs(tmp_path, t_star=t_star)
        code, out, err = _run_quietly(["report", "--output_dir",
                                       str(tmp_path)])
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[:2] == [
            "analytic lower bound t0 = 0.130000",
            f"empirical crossing {verdict}"]


def _relaxation_doc(t_star):
    return {"t0_bound": 0.13, "t_star_empirical": t_star,
            "positivity_ok": True, "curve_check": False,
            "displacement_ok": True}


def _report_inputs(out, t_star="not crossed within t_end"):
    """Hand-made, well-formed inputs of `report` in out."""
    (out / "bounds_report.json").write_text(json.dumps(
        {"eta_analytic": 10.9, "eta_empirical": {"value": 1.3}}))
    (out / "relaxation_report.json").write_text(json.dumps(
        _relaxation_doc(t_star)))
    (out / "correlation.csv").write_text(
        "# gasrelax\nt,c,stderr,bound_curve\n0.0,1.0,0.0,1.0\n"
        "0.26,0.5,0.01,0.9\n")


class TestMalformedReportInputs:
    @pytest.mark.parametrize("name, text", [
        ("relaxation_report.json", "{}"),
        ("relaxation_report.json", "[1]"),
        ("relaxation_report.json", json.dumps(_relaxation_doc("soon"))),
        ("relaxation_report.json", json.dumps(_relaxation_doc(None))),
        ("relaxation_report.json", json.dumps(_relaxation_doc(math.inf))),
        ("relaxation_report.json",
         json.dumps({**_relaxation_doc(0.5), "t0_bound": math.nan})),
        ("bounds_report.json",
         json.dumps({"eta_analytic": -math.inf,
                     "eta_empirical": {"value": 1.3}})),
        ("correlation.csv", "# gasrelax\n# no rows\n"),
        ("relaxation_report.json",
         json.dumps({**_relaxation_doc(0.5), "positivity_ok": "no"})),
        ("relaxation_report.json",
         json.dumps({**_relaxation_doc(0.5), "curve_check": [1]})),
        ("relaxation_report.json",
         json.dumps({**_relaxation_doc(0.5), "t0_bound": "0.13"})),
        ("relaxation_report.json", json.dumps(_relaxation_doc(True))),
        ("relaxation_report.json",
         json.dumps(_relaxation_doc(0.5)).replace("0.13", "1e400")),
        ("relaxation_report.json",
         json.dumps(_relaxation_doc(0.5)).replace("0.13", "1" + "0" * 400)),
        ("bounds_report.json",
         json.dumps({"eta_analytic": True, "eta_empirical": {"value": 1.3}})),
        ("bounds_report.json",
         json.dumps({"eta_analytic": 10.9, "eta_empirical": {"value": 1.3},
                     "t0_physical_seconds": "1e-11"})),
        ("correlation.csv", "# gasrelax\nt,c,stderr,bound_curve\n"
                            "inf,0.5,0.01,0.9\n"),
        ("correlation.csv", "# gasrelax\nt,c,stderr,bound_curve\n"
                            "nan,0.5,0.01,0.9\n"),
    ], ids=["empty-object", "list", "t-star-a-word", "t-star-null",
            "t-star-infinity", "t0-nan", "eta-minus-infinity",
            "comments-only", "flag-a-word", "flag-a-list", "t0-a-string",
            "t-star-a-bool", "t0-past-the-float-range",
            "t0-an-integer-past-the-float-range", "eta-a-bool",
            "t0-seconds-a-string", "csv-time-infinity", "csv-time-nan"])
    def test_is_a_validation_error_naming_the_file(self, tmp_path, name,
                                                   text):
        _report_inputs(tmp_path)
        (tmp_path / name).write_text(text)
        code, out, err = _run_quietly(["report", "--output_dir",
                                       str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith(f"validation error: malformed input file "
                              f"{tmp_path / name}: ")


class TestOutputDirEnv:
    def test_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GASRELAX_OUTPUT_DIR", str(tmp_path / "envout"))
        path = write_config(tmp_path)
        assert main(["bounds", "--config", path]) == EXIT_OK
        assert (tmp_path / "envout" / "bounds_report.json").exists()
