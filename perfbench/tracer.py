"""Spans around calls into the `gasrelax` layers, recorded from outside the
package.

A traced function is replaced, for the duration of one run, in every
`gasrelax.*` module namespace that binds it: several modules import the same
function by name (`integrate_finite` in `gibbs` and `bounds`, `sample_batch`
in `dynamics`, ...), and each binding is rebound to the wrapper.  Methods are
rebound on their class.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from time import perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # (span id, parent id, name, start, end, work count)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Time every call of `owner.attr` under span `name`.

        `count(arguments, result)` gives the work the call did (evaluations,
        rows, ...); `arguments` maps parameter names to the values passed.
        """
        original = getattr(owner, attr)
        wrapper = self._wrapper(original, name, count)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [(mod, key)
                       for mod_name, mod in sorted(sys.modules.items())
                       if mod_name == "gasrelax"
                       or mod_name.startswith("gasrelax.")
                       for key, value in list(vars(mod).items())
                       if value is original]
        for target, key in targets:
            self._undo.append((target, key, original))
            setattr(target, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)

    def _wrapper(self, fn, name: str, count):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            work = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    work = count(bound.arguments, result)
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end, work))
        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, work in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": span_id,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "count": work}) + "\n")

    def totals(self) -> dict:
        """Per span name: calls, summed duration, summed self time and work."""
        child_time: dict[int, float] = {}
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        out: dict[str, dict] = {}
        for span_id, _, name, start, end, work in self.spans:
            t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "work": 0})
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child_time.get(span_id, 0.0)
            t["work"] += work or 0
        return out


def verlet_steps(t_end: float, dt: float, n_records: int) -> int:
    """Fixed steps of an ensemble run recording at n_records grid times.

    Mirrors the record grid of `gasrelax.dynamics`: dt is shrunk so that every
    record time lands on a step boundary.
    """
    spacing = t_end / (n_records - 1)
    return (n_records - 1) * max(1, math.ceil(spacing / dt - 1e-12))


def _autocorr_steps(a, _result) -> int:
    config = a["config"]
    return (a["n_traj"] * a["params"].n_particles
            * verlet_steps(config.t_end, config.dt, a["n_times"]))


def _displacement_steps(a, _result) -> int:
    grid = sorted(float(t) for t in a["times"] if t > 0.0)
    n_records = int(round(grid[-1] / grid[0])) + 1
    return (a["n_traj"] * a["params"].n_particles
            * verlet_steps(grid[-1], a["config"].dt, n_records))


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every gasrelax layer."""
    from gasrelax import bounds, cli, dynamics, gibbs, model, numerics

    w = tracer.wrap
    w(cli, "main", "cli.main")
    w(numerics, "integrate_finite", "numerics.integrate_finite",
      lambda a, r: r.evaluations)
    w(gibbs, "build_marginal", "gibbs.build_marginal")
    w(gibbs, "sample_batch", "gibbs.sample_batch", lambda a, r: r[0].shape[0])
    w(gibbs.WallMarginal, "inverse_cdf", "gibbs.inverse_cdf",
      lambda a, r: r.size)
    w(gibbs, "norm0_mc", "gibbs.norm0_mc", lambda a, r: r.n_samples)
    w(gibbs, "log_mgf_z", "gibbs.log_mgf_z")
    w(model, "poisson_B_H0", "model.poisson_B_H0")
    w(bounds, "build_bound_report", "bounds.build_bound_report")
    w(bounds, "eta_empirical", "bounds.eta_empirical")
    w(bounds, "per_term_integral_bound_check",
      "bounds.per_term_integral_bound_check")
    w(dynamics, "autocorr_B", "dynamics.autocorr_B", _autocorr_steps)
    w(dynamics, "displacement_norms", "dynamics.displacement_norms",
      _displacement_steps)
    w(dynamics, "make_relaxation_report", "dynamics.make_relaxation_report")


def layer_metrics(totals: dict) -> tuple[dict, float]:
    """Per-layer metrics of one traced run, and its ensemble time in seconds.

    A layer the workload never reaches reads 0.
    """
    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    quad_s = get("numerics.integrate_finite", "s")
    quad_evals = get("numerics.integrate_finite", "work")
    batch_s = get("gibbs.sample_batch", "s")
    inv_s = get("gibbs.inverse_cdf", "s")
    inv_values = get("gibbs.inverse_cdf", "work")
    steps = (get("dynamics.autocorr_B", "work")
             + get("dynamics.displacement_norms", "work"))
    ensemble_s = get("dynamics.autocorr_B", "s") + get(
        "dynamics.displacement_norms", "s")
    m = {
        "numerics.integrate_finite.calls":
            get("numerics.integrate_finite", "calls"),
        "numerics.integrate_finite.evaluations": quad_evals,
        "numerics.integrate_finite.s": quad_s,
        "numerics.integrate_finite.us_per_eval":
            ratio(quad_s, quad_evals, 1e6),
        "gibbs.build_marginal.calls": get("gibbs.build_marginal", "calls"),
        "gibbs.build_marginal.s": get("gibbs.build_marginal", "s"),
        "gibbs.sample_batch.calls": get("gibbs.sample_batch", "calls"),
        "gibbs.sample_batch.rows": get("gibbs.sample_batch", "work"),
        "gibbs.sample_batch.s": batch_s,
        "gibbs.inverse_cdf.values": inv_values,
        "gibbs.inverse_cdf.s": inv_s,
        "gibbs.inverse_cdf.ns_per_value": ratio(inv_s, inv_values, 1e9),
        # sample_batch spans in pool workers are not seen, so neither side
        # of the difference includes them
        "rng.draw_s": max(batch_s - inv_s, 0.0),
        "gibbs.norm0_mc.calls": get("gibbs.norm0_mc", "calls"),
        "gibbs.norm0_mc.samples": get("gibbs.norm0_mc", "work"),
        "gibbs.norm0_mc.s": get("gibbs.norm0_mc", "s"),
        "gibbs.norm0_mc.self_s": get("gibbs.norm0_mc", "self_s"),
        "model.poisson_B_H0.calls": get("model.poisson_B_H0", "calls"),
        "model.poisson_B_H0.s": get("model.poisson_B_H0", "s"),
        "gibbs.log_mgf_z.calls": get("gibbs.log_mgf_z", "calls"),
        "gibbs.log_mgf_z.s": get("gibbs.log_mgf_z", "s"),
        "bounds.build_bound_report.s": get("bounds.build_bound_report", "s"),
        "bounds.eta_empirical.s": get("bounds.eta_empirical", "s"),
        "bounds.per_term_integral_bound_check.s":
            get("bounds.per_term_integral_bound_check", "s"),
        "dynamics.autocorr_B.s": get("dynamics.autocorr_B", "s"),
        "dynamics.displacement_norms.s": get("dynamics.displacement_norms", "s"),
        "dynamics.make_relaxation_report.s":
            get("dynamics.make_relaxation_report", "s"),
        "dynamics.particle_steps": steps,
        "dynamics.particle_steps_per_s": ratio(steps, ensemble_s),
        "cli.self_s": get("cli.main", "self_s"),
    }
    return m, ensemble_s
