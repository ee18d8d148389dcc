"""The benchmark workloads: which `gasrelax` command each runs and how its
outputs are judged.

Every workload runs on `configs/reference.cfg`.  Outputs go to one fixed
directory per workload, because the config hash in every output header folds
in `output_dir` (and `workers`): a golden digest only holds at a fixed path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

CONFIG = "configs/reference.cfg"
OUT_ROOT = ".perfbench_out"
DEFAULT_SEED = 20260808


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    expected_exit: int
    outputs: tuple
    workers: int = 1
    # call made once per run alongside this workload's: output bodies
    # (headers stripped) must be equal, which also serves as the second run
    # of the output check
    twin: Optional[str] = None
    # timed calls a run makes at least, however short --seconds is
    min_calls: int = 1
    # untimed but gated calls made first, in the timing process
    warmup_calls: int = 0
    # False for a call that only serves as another workload's twin
    benchmarked: bool = True

    @property
    def output_dir(self) -> str:
        return f"{OUT_ROOT}/{self.name}"

    def argv(self, seed: int) -> list:
        return [self.command, "--config", CONFIG, "--seed", str(seed),
                "--output_dir", self.output_dir,
                "--workers", str(self.workers)]


_SIM_OUTPUTS = ("relaxation_report.json", "correlation.csv")

WORKLOADS = {w.name: w for w in (
    # Exit 1 by design: criterion 5c (curve_check) fails on the reference run.
    # Results are bitwise independent of the worker count, so every run also
    # makes one call with two workers, the only path through the process
    # pool, and requires equal output bodies.
    Workload("simulate-ref", "simulate", 1, _SIM_OUTPUTS, twin="simulate-w2"),
    Workload("simulate-w2", "simulate", 1, _SIM_OUTPUTS, workers=2,
             benchmarked=False),
    # Its 4-7 s calls follow the machine's speed phases closely: the median
    # of many calls spread over the run is steadier than that of a few.  The
    # first call of a fresh process is slower and is not timed.
    Workload("bounds-ref", "bounds", 0, ("bounds_report.json",),
             min_calls=6, warmup_calls=1),
)}
BENCHMARKED = [n for n, w in WORKLOADS.items() if w.benchmarked]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def body(name: str, data: bytes) -> bytes:
    """Output bytes without the header, which carries the config hash."""
    if name.endswith(".json"):
        doc = json.loads(data)
        doc.pop("meta", None)
        return json.dumps(doc, indent=2, sort_keys=True).encode()
    if name.endswith(".csv"):
        return b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"#"))
    return data


def verdict_problems(workload: Workload, out_dir: Path) -> list:
    """Seed-independent checks on what the command reported."""
    problems = []
    if workload.command == "simulate":
        doc = json.loads((out_dir / "relaxation_report.json").read_text())
        want = {"positivity_ok": True, "displacement_ok": True,
                "curve_check": False}
        problems += [f"{k} is {doc[k]}, expected {v}"
                     for k, v in want.items() if doc[k] is not v]
    elif workload.command == "bounds":
        doc = json.loads((out_dir / "bounds_report.json").read_text())
        problems += [f"inequality {c['name']} failed"
                     for c in doc["inequality_checks"] if not c["passed"]]
        if not doc["eta_empirical"]["value"] <= doc["eta_analytic"]:
            problems.append("eta_empirical exceeds eta_analytic")
    return problems
