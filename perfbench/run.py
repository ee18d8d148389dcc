"""Benchmark of `gasrelax`: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload simulate-ref --seed 20260808 \
        --seconds 60 --trace 0

Run from anywhere inside a checkout that holds `src/gasrelax` and
`configs/reference.cfg`.  `--workload all` runs every workload in turn.

With `--trace 0` a run makes its twin call, if the workload has one, then
times calls of `gasrelax.cli.main` in a child interpreter until `--seconds`
seconds from the run's start are used (and at least the workload's minimum
number of calls), that child timing set-up in fresh interpreters between
its calls, and reports the end-to-end metrics.  With `--trace 1` it makes
one untraced and one traced call and reports the per-layer metrics.  Every
call passes the output gate: expected exit code, the verdicts in the
outputs, golden digests where the seed has them and otherwise identical
bytes from a second run, and, for `simulate-ref`, equal output bodies
across worker counts.

The last stdout line is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import kernels  # noqa: E402
from workloads import (BENCHMARKED, CONFIG, DEFAULT_SEED, OUT_ROOT,  # noqa: E402
                       WORKLOADS)

GOLDEN = HERE / "golden.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# fresh interpreters timed for setup_s, spread over the timed calls
SETUP_REPEATS = 18
# children still running after this are killed, so a run ends within 180 s
RUN_BUDGET_S = 170.0
# metric name -> unit, as declared in BENCHMARK.json
UNITS = {m["name"]: m["unit"]
         for kind in ("end_to_end", "per_layer") for m in SPEC[kind]}


class HarnessError(RuntimeError):
    pass


def child(script: str, args: list, deadline: float) -> dict:
    """Run `script` in a fresh interpreter; return its JSON result."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script), *map(str, args)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        # the session also holds any pool workers of the command
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise HarnessError(f"{script} {' '.join(map(str, args))} timed out")
    if proc.returncode != 0:
        raise HarnessError(f"{script} {' '.join(map(str, args))} exited "
                           f"{proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def machine() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu": None, "caches": {},
            "python": sys.version.split()[0],
            "numpy": metadata.version("numpy"), "commit": None}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
            info["caches"][f"L{level}"] = int(size.rstrip("KM")) * scale
    if (ROOT / ".git").exists():
        try:
            info["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def gate(name: str, call: dict, seed: int, golden: dict, first: dict,
         twin_call: dict | None) -> list:
    """Problems with one call's outputs; an empty list passes."""
    workload = WORKLOADS[name]
    problems = list(call["problems"])
    if call["exit"] != workload.expected_exit:
        problems.append(f"exit code {call['exit']}, expected "
                        f"{workload.expected_exit}")
    want = golden.get("seeds", {}).get(str(seed), {}).get(name)
    if want is None:
        want = first["sha256"]  # no golden for this seed: repeats must agree
    problems += [f"{n} digest differs" for n, d in want.items()
                 if call["sha256"].get(n) != d]
    if twin_call is not None and call["body_sha256"] != twin_call["body_sha256"]:
        problems.append("body differs from the other worker count's")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 golden: dict, nproc: int) -> tuple[dict, dict]:
    """Measure one workload and gate every call it makes."""
    start = monotonic()
    deadline = start + RUN_BUDGET_S
    workload = WORKLOADS[name]
    twin = workload.twin if workload.twin and \
        WORKLOADS[workload.twin].workers <= nproc else None
    # The twin's call comes first and its time counts against --seconds.
    # Traced, it makes one traced call, for dynamics.pool.scaling_eff.
    other = None
    if twin:
        other = child("measure.py", [twin, seed, 0, 0 if trace else 1,
                                     int(trace), 0], deadline)
    # Without golden digests for the seed, a call's outputs are checked
    # against a second run: the twin's or a repeat.  A traced run's last
    # untraced call is the base of trace.overhead_s.
    main = child("measure.py",
                 [name, seed, 0 if trace else seconds - (monotonic() - start),
                  1 if trace else max(workload.min_calls, 1 if twin else 2),
                  int(trace), 0 if trace else SETUP_REPEATS], deadline)

    groups = [(name, main["calls"], None)]
    if other:
        groups.append((twin, other["calls"], main["calls"][0]))
    failures, attempted, failed = [], 0, 0
    for group, calls, against in groups:
        for call in calls:
            problems = gate(group, call, seed, golden, calls[0], against)
            failures += [f"{group}: {p}" for p in problems]
            attempted += 1
            failed += bool(problems)

    if trace:
        metrics = dict(main["trace"])
        ensemble_s = {workload.workers: main["ensemble_s"]}
        if other:
            ensemble_s[WORKLOADS[twin].workers] = other["ensemble_s"]
        metrics["dynamics.pool.scaling_eff"] = (
            ensemble_s[1] / (2.0 * ensemble_s[2])
            if ensemble_s.get(1) and ensemble_s.get(2) else 0.0)
    else:
        metrics = {"wall_s": statistics.median(
                       c["wall_s"] for c in main["calls"] if c["timed"]),
                   "setup_s": statistics.median(main["setup_s"]),
                   "peak_rss_mb": main["peak_rss_mb"]}
    detail = {"calls": sum(c["timed"] for c in main["calls"]),
              "failures": failures, "main": main, "twin": twin}
    result = {"correct": not failed, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": UNITS[k]}
                          for k, v in metrics.items()}}
    return result, detail


def report(name: str, seed: int, result: dict, detail: dict, env: dict):
    print(f"== {name}  seed={seed}  calls={detail['calls']}  "
          f"attempted={result['attempted']}  failed={result['failed']}  "
          f"fail_ratio={result['failed'] / result['attempted']:.3g}")
    if WORKLOADS[name].twin and not detail["twin"]:
        print(f"   twin {WORKLOADS[name].twin} skipped: nproc={env['nproc']}")
    for failure in detail["failures"]:
        print(f"   FAIL {failure}")
    for key, m in result["metrics"].items():
        print(f"   {key:44s} {m['value']:>16.6g} {m['unit']}")
    if "sizes" in detail["main"]:
        fit = kernels.cache_fit(detail["main"]["sizes"]["n_particles"],
                                detail["main"]["sizes"]["n_samples"],
                                env["caches"])
        print("   kernel accounting (computed): " + json.dumps(fit))
        print(f"   spans: {detail['main']['trace_file']}")
    record = {"workload": name, "seed": seed, "env": env, "result": result,
              "setup_s": detail["main"]["setup_s"],
              "calls": [{k: c[k] for k in ("wall_s", "timed", "exit", "sha256")}
                        for c in detail["main"]["calls"]]}
    with open(ROOT / OUT_ROOT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")


def record_golden(golden: dict, name: str, seed: int, detail: dict) -> None:
    first = detail["main"]["calls"][0]
    golden.setdefault("seeds", {}).setdefault(str(seed), {})[name] = \
        first["sha256"]
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*BENCHMARKED, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="store this seed's output digests as golden")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/gasrelax/cli.py", CONFIG)
               if not (ROOT / p).is_file()]
    if missing:
        print("perfbench: not a gasrelax checkout, missing "
              + ", ".join(missing), file=sys.stderr)
        return 2

    env = machine()
    print("env " + json.dumps(env))
    (ROOT / OUT_ROOT).mkdir(exist_ok=True)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    names = BENCHMARKED if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        if WORKLOADS[name].workers > env["nproc"]:
            # more workers than cores would measure oversubscription
            print(f"== {name} skipped: {WORKLOADS[name].workers} workers, "
                  f"nproc={env['nproc']}")
            results[name] = "skipped"
            continue
        result, detail = run_workload(
            name, args.seed, args.seconds, bool(args.trace),
            {} if args.record_golden else golden, env["nproc"])
        report(name, args.seed, result, detail, env)
        if args.record_golden and result["correct"]:
            record_golden(golden, name, args.seed, detail)
        results[name] = result
    if len(names) == 1:
        if results[names[0]] == "skipped":
            return 3
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
