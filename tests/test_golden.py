"""The reference outputs stay byte for byte those of perfbench/golden.json.

`bounds` and `simulate` run on configs/reference.cfg as the benchmark runs
them: seed 20260808, one worker, output_dir `.perfbench_out/<workload>`
relative to the working directory (the config hash in every output header
folds it in).  The sha256 of every output file and of stdout must equal the
recorded digest.
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


def _digests(command, workload, tmp_path):
    """(exit code, sha256 of each output file and of stdout) of one
    in-process call."""
    out_dir = f".perfbench_out/{workload}"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        got = cli.main([command, "--config",
                        str(ROOT / "configs" / "reference.cfg"),
                        "--seed", str(SEED), "--output_dir", out_dir,
                        "--workers", "1"])
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
    assert _digests(command, workload, tmp_path) == (code, want)


def test_a_second_bounds_call_in_the_process_matches_too(tmp_path,
                                                         monkeypatch):
    # the benchmark times many calls in one process, on one parser
    monkeypatch.chdir(tmp_path)
    want = GOLDEN["seeds"][str(SEED)]["bounds-ref"]
    for _ in range(2):
        shutil.rmtree(tmp_path / ".perfbench_out", ignore_errors=True)
        assert _digests("bounds", "bounds-ref", tmp_path) == (cli.EXIT_OK,
                                                              want)
