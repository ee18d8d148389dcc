"""The reference outputs stay byte for byte those of perfbench/golden.json.

`bounds` and `simulate` run on configs/reference.cfg as the benchmark runs
them: seed 20260808, one worker, output_dir `.perfbench_out/<workload>`
relative to the working directory (the config hash in every output header
folds it in).  The sha256 of every output file and of stdout must equal the
recorded digest.  `gamma`, which the benchmark does not run, is pinned the
same way by the digests in GAMMA_REF.

The digests hold on the host class they were recorded on: NumPy picks the
SIMD path of exp, expm1 and log at run time, and its paths differ in the
last bits (README, Reproducibility).  A mismatch names NumPy's float64
dispatch targets of those functions here beside RECORDED_TARGETS.
"""

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import pytest

from gasrelax import cli

ROOT = Path(__file__).resolve().parents[1]
SEED = 20260808
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())
# the sweep of `gamma` on the reference config, seed SEED, one worker
GAMMA_REF = {
    "gamma_sweep.csv":
        "a7f806eed205c11b894623d72db164b6add7b46a0e485d6bfb4f32e038142066",
    "stdout":
        "38ac5007ae734e7bc574332948f628523b298f3692a5290ffd44c09de12f42a6",
}
# NumPy's float64 dispatch targets on the host that recorded the digests
RECORDED_TARGETS = {"exp": "X86_V4", "expm1": "X86_V4", "log": "X86_V4"}


def _host_note():
    """The message of a mismatch: NumPy's float64 dispatch target of each
    of RECORDED_TARGETS' functions here ("unknown" before NumPy 2.0)."""
    try:
        from numpy.lib.introspect import opt_func_info
        info = opt_func_info(func_name="^(exp|expm1|log)$",
                             signature="float64")
    except ImportError:
        info = {}
    here = {name: info.get(name, {}).get("dd", {}).get("current", "unknown")
            for name in RECORDED_TARGETS}
    return (f"NumPy float64 dispatch here: {here}; the digests were recorded "
            f"under {RECORDED_TARGETS}. Other targets give other bits in "
            "exp, expm1 and log: see README, Reproducibility.")


def _digests(command, workload, tmp_path, want=None):
    """(exit code, sha256 of each output file and of stdout) of one
    in-process call; want, when given, names the files instead of the
    workload's golden.json entry."""
    out_dir = f".perfbench_out/{workload}"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        got = cli.main([command, "--config",
                        str(ROOT / "configs" / "reference.cfg"),
                        "--seed", str(SEED), "--output_dir", out_dir,
                        "--workers", "1"])
    if want is None:
        want = GOLDEN["seeds"][str(SEED)][workload]
    digests = {name: hashlib.sha256((tmp_path / out_dir / name).read_bytes())
               .hexdigest() for name in want if name != "stdout"}
    digests["stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return got, digests


@pytest.mark.parametrize("workload, command, code", [
    ("bounds-ref", "bounds", cli.EXIT_OK),
    # exit 1 by design: curve_check fails on the reference run
    ("simulate-ref", "simulate", cli.EXIT_RUNTIME),
])
def test_reference_outputs_match_the_golden_digests(workload, command, code,
                                                    tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = GOLDEN["seeds"][str(SEED)][workload]
    assert _digests(command, workload, tmp_path) == (code, want), \
        _host_note()


def test_a_second_bounds_call_in_the_process_matches_too(tmp_path,
                                                         monkeypatch):
    # the benchmark times many calls in one process, on one parser
    monkeypatch.chdir(tmp_path)
    want = GOLDEN["seeds"][str(SEED)]["bounds-ref"]
    for _ in range(2):
        shutil.rmtree(tmp_path / ".perfbench_out", ignore_errors=True)
        assert _digests("bounds", "bounds-ref", tmp_path) == (
            cli.EXIT_OK, want), _host_note()


def test_gamma_sweep_matches_its_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _digests("gamma", "gamma-ref", tmp_path, GAMMA_REF) == (
        cli.EXIT_OK, GAMMA_REF), _host_note()
