"""One fresh interpreter's timed calls of a benchmark run, started by run.py.

    python3 perfbench/measure.py WORKLOAD SEED SECONDS MIN_CALLS TRACE SETUPS

Makes the workload's warm-up calls, then calls `gasrelax.cli.main` in this
process while the next call is expected to end within SECONDS of the start,
and at least MIN_CALLS times, digesting every output after each call.
Between the calls it times SETUPS fresh interpreters running setup_time.py
(after one more that writes bytecode caches and is not counted), spread over
the run so that they see the same machine as the calls.  With TRACE=1 it
then makes one more call under the tracer and runs the wall-force
microbenchmark.  Prints one JSON object as its last stdout line.  Run from
the root of the checkout.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import kernels  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, body, sha256, verdict_problems  # noqa: E402


def _parse(workload, seed):
    from gasrelax import cli
    return cli.load_config(cli.build_parser().parse_args(workload.argv(seed)))


def one_call(workload, seed: int) -> dict:
    from gasrelax import cli

    out_dir = Path(workload.output_dir)
    for name in workload.outputs:
        (out_dir / name).unlink(missing_ok=True)
    captured = io.StringIO()
    problems = []
    code = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(workload.argv(seed))
    except Exception as exc:  # a traceback from the program is a failed call
        problems.append(f"raised {type(exc).__name__}: {exc}")
    wall_s = perf_counter() - start
    files = {"stdout": captured.getvalue().encode()}
    for name in workload.outputs:
        path = out_dir / name
        if path.is_file():
            files[name] = path.read_bytes()
        else:
            problems.append(f"missing output {name}")
    if not problems:
        try:
            problems += verdict_problems(workload, out_dir)
        except (ValueError, KeyError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    return {"wall_s": wall_s, "exit": code, "problems": problems,
            "sha256": {n: sha256(d) for n, d in files.items()},
            "body_sha256": {n: sha256(body(n, d)) for n, d in files.items()}}


def traced_call(workload, seed: int) -> tuple[dict, tracer.Tracer]:
    spans = tracer.Tracer(f"{workload.name}:seed={seed}")
    tracer.install(spans)
    try:
        call = one_call(workload, seed)
    finally:
        spans.restore()
    return call, spans


def kernel_metrics(workload, seed: int) -> tuple[dict, dict]:
    from gasrelax import gibbs, rng

    config = _parse(workload, seed)
    params = config.model_params()
    marginal = gibbs.build_marginal(params, grid_size=config.grid_size)
    flops, nbytes = kernels.per_element(kernels.WALL_FORCE_PASSES)
    inv_flops, inv_bytes = kernels.per_element(kernels.INVERSE_CDF_PASSES)
    return {
        "model.wall_force.ns_per_elem": kernels.wall_force_ns_per_elem(
            params, marginal, rng.substream(seed, 0xBE)),
        "model.wall_force.flops_per_elem": flops,
        "model.wall_force.bytes_per_elem": nbytes,
        "gibbs.inverse_cdf.flops_per_value": inv_flops,
        "gibbs.inverse_cdf.bytes_per_value": inv_bytes,
    }, {"n_particles": params.n_particles, "n_samples": config.n_samples}


def setup_sample(workload, seed: int) -> tuple[float, float]:
    """setup_s of one fresh interpreter, and the wall time it cost here."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_time.py"), *workload.argv(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return (json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"],
            perf_counter() - start)


def run(workload, seed: int, seconds: float, min_calls: int, trace: bool,
        setups: int) -> dict:
    import gasrelax.cli  # noqa: F401  imports are warm before timing

    Path(workload.output_dir).mkdir(parents=True, exist_ok=True)
    start = perf_counter()
    setup_s, setup_cost = [], []
    if setups:
        setup_sample(workload, seed)

    def setups_until(n):
        while len(setup_s) < min(n, setups):
            value, cost = setup_sample(workload, seed)
            setup_s.append(value)
            setup_cost.append(cost)

    def setups_due():
        # a third before the first timed call, the rest as the run goes on
        share = setups // 3
        done = (perf_counter() - start) / seconds if seconds else 1.0
        return share + math.ceil((setups - share) * done)

    calls = [dict(one_call(workload, seed), timed=False)
             for _ in range(workload.warmup_calls)]
    setups_until(setups // 3)
    timed = []

    def another_call():
        if len(timed) < min_calls:
            return True
        if not timed:
            return False
        rest = (setups - len(setup_s)) * statistics.fmean(setup_cost or [0.0])
        return perf_counter() - start + timed[-1]["wall_s"] + rest <= seconds

    while another_call():
        timed.append(dict(one_call(workload, seed), timed=True))
        setups_until(setups_due())
    setups_until(setups)
    calls += timed
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"calls": calls, "peak_rss_mb": peak_kib / 1024.0,
           "setup_s": setup_s}
    if trace:
        call, spans = traced_call(workload, seed)
        calls.append(dict(call, timed=False))
        trace_path = Path(workload.output_dir) / "trace.jsonl"
        spans.write(trace_path)
        metrics, ensemble_s = tracer.layer_metrics(spans.totals())
        if timed:
            metrics["trace.overhead_s"] = call["wall_s"] - timed[-1]["wall_s"]
        kernel, sizes = kernel_metrics(workload, seed)
        metrics.update(kernel)
        out.update(trace=metrics, ensemble_s=ensemble_s, sizes=sizes,
                   trace_file=str(trace_path))
    return out


def main(argv: list) -> int:
    name, seed, seconds, min_calls, trace, setups = argv
    result = run(WORKLOADS[name], int(seed), float(seconds), int(min_calls),
                 trace == "1", int(setups))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
