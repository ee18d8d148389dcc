import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import helpers
from gasrelax import dynamics
from gasrelax.bounds import eta_analytic, t_relax_lower
from gasrelax.dynamics import (CorrelationSeries, EnergyDriftError,
                               IntegratorConfig, WallBreachError, autocorr_B,
                               displacement_norms, empirical_relax_time,
                               lower_bound_curve, make_relaxation_report,
                               _DISPLACEMENT_K, _ETA_MARGIN, _POSITIVITY_K,
                               _evolve_batch, _records_grid)
from gasrelax.gibbs import build_marginal, norm0_B_mc, sample_batch
from gasrelax.model import ModelParams
from gasrelax.rng import philox_key, substream


def _run(z, p, params, h, config, n_records):
    """Evolve copies of z, p (rows, N) with _evolve_batch on the record grid.

    Returns (final z, final p, B records, max drift).
    """
    z = np.array(z, dtype=float, ndmin=2)
    p = np.array(p, dtype=float, ndmin=2)
    _, dt, spr = _records_grid(config.dt, config.t_end, n_records)
    b_rec, drift = _evolve_batch(z, p, replace(params, field=h), dt, spr,
                                 n_records, config.energy_drift_tol,
                                 config.wall_guard)
    return z, p, b_rec, drift


class TestIntegratorConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(dt=0.0, t_end=1.0),
        dict(dt=1e-3, t_end=1e-4),
        dict(dt=1e-3, t_end=1.0, energy_drift_tol=0.0),
        dict(dt=1e-3, t_end=1.0, wall_guard=1.0),
        dict(dt=1e-3, t_end=1.0, wall_guard=0.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)


class TestStep:
    """Single velocity-Verlet steps of _evolve_batch."""

    PARAMS = ModelParams(1, 1.0, 1.0, 10.0)

    def test_fixed_point_at_center(self):
        z, p = helpers.verlet_steps([0.0], [0.0], self.PARAMS, 0.0, 1e-3, 1)
        assert z[0, 0] == 0.0 and p[0, 0] == 0.0

    def test_reversibility(self):
        params = ModelParams(4, 1.0, 1.0, 10.0)
        rng = np.random.default_rng(31)
        z0, p0 = rng.uniform(-3.0, 3.0, 4), rng.normal(size=4)
        z, p = helpers.verlet_steps(z0, p0, params, 1e-3, 1e-3, 100)
        back_z, back_p = helpers.verlet_steps(z, -p, params, 1e-3, 1e-3, 100)
        np.testing.assert_allclose(back_z[0], z0, rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(-back_p[0], p0, rtol=1e-8, atol=1e-12)

    def test_wall_breach(self):
        with pytest.raises(WallBreachError):
            helpers.verlet_steps([4.9], [10.0], self.PARAMS, 0.0, 0.05, 1)

    def test_state_already_at_wall(self):
        # raised before any force or energy divides by the wall distance
        with pytest.raises(WallBreachError, match="record 0"):
            helpers.verlet_steps([5.0], [0.0], self.PARAMS, 0.0, 1e-3, 1)


class TestEvolve:
    def test_single_particle_energy_conservation_near_wall(self):
        params = ModelParams(1, 1.0, 1.0, 10.0)
        config = IntegratorConfig(dt=1e-4, t_end=1.0, energy_drift_tol=1e-6)
        z0, p0 = np.array([[3.5]]), np.array([[1.0]])
        z, p, _, drift = _run(z0, p0, params, 0.0, config, 11)
        assert drift < 1e-6
        e0 = helpers.hamiltonian_reference(z0, p0, params)[0]
        e1 = helpers.hamiltonian_reference(z, p, params)[0]
        assert abs(e1 - e0) / e0 < 1e-6

    def test_center_fixed_point_keeps_B_zero(self):
        params = ModelParams(1, 1.0, 1.0, 10.0)
        config = IntegratorConfig(dt=1e-3, t_end=0.5)
        _, _, b_rec, _ = _run([0.0], [0.0], params, 0.0, config, 6)
        assert np.all(b_rec == 0.0)

    def test_drift_abort(self):
        params = ModelParams(1, 1.0, 1.0, 10.0)
        config = IntegratorConfig(dt=5e-3, t_end=3.0, energy_drift_tol=1e-9)
        with pytest.raises(EnergyDriftError) as err:
            _run([3.0], [1.0], params, 0.0, config, 61)
        assert err.value.max_drift > err.value.tolerance

    @pytest.mark.parametrize("h", [1e-3, 0.0])
    def test_bitwise_equal_to_allocating_loop(self, ref_params, ref_marginal,
                                              h):
        z, p = sample_batch(ref_marginal, substream(44, 0), 256)
        z_ref, p_ref = z.copy(), p.copy()
        args = (replace(ref_params, field=h), 1e-3, 10, 6, 1e-3, 0.999)
        b_rec, drift = _evolve_batch(z, p, *args)
        b_ref, drift_ref = helpers.evolve_batch_reference(z_ref, p_ref, *args)
        for got, want in ((b_rec, b_ref), (z, z_ref), (p, p_ref)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert drift == drift_ref > 0.0

    def test_drift_is_formed_within_the_records(self, ref_params,
                                                ref_marginal):
        # a 1024 x 64 shard through 64 records needs its B and H1 records
        # and little else
        z, p = sample_batch(ref_marginal, substream(45, 0), 1024)
        args = (ref_params, 2.5e-4, 1, 64, 1e-3, 0.999)
        _evolve_batch(z.copy(), p.copy(), *args)
        (b_rec, _), peak = helpers.traced_peak(
            lambda: _evolve_batch(z, p, *args))
        assert b_rec.shape == (64, 1024)
        assert peak < 1.1 * 2 * b_rec.nbytes

    @pytest.mark.parametrize("beta, delta, h", [
        (1.0, 1.0, 1e-3), (1e-40, 1e40, 1e37), (1e40, 1e-40, 1e-43)])
    def test_drift_monitor_does_not_depend_on_the_energy_unit(self, beta,
                                                              delta, h):
        # one system with energies 1e40 times larger and smaller: a step 16
        # times the reference's drifts by the same relative amount in each,
        # where the energies of the last are about 4e-40
        params = ModelParams(4, beta, delta, 10.0, field=h)
        config = IntegratorConfig(dt=4e-3 * math.sqrt(beta),
                                  t_end=2.0 * t_relax_lower(params))
        with pytest.raises(EnergyDriftError) as err:
            autocorr_B(params, config, n_traj=256, seed=5, n_times=16)
        assert err.value.max_drift == pytest.approx(1.0475943781e-4,
                                                    rel=1e-9)

    def test_nan_row_fails_a_monitor(self):
        # a non-finite state must stop the run, not pass as zero drift
        params = ModelParams(2, 1.0, 1.0, 10.0)
        config = IntegratorConfig(dt=1e-3, t_end=0.01, energy_drift_tol=1e-4)
        z = np.array([[0.5, -1.0], [1.0, 2.0], [-2.0, 0.0]])
        p = np.array([[0.3, -0.2], [1.0, np.nan], [-0.4, 0.1]])
        with pytest.raises((WallBreachError, EnergyDriftError)):
            _run(z, p, params, 1e-3, config, 3)

    def test_stationarity_under_unperturbed_flow(self):
        params = ModelParams(4, 1.0, 1.0, 10.0)
        marginal = build_marginal(params)
        z, p = sample_batch(marginal, substream(32, 0), 1500)
        config = IntegratorConfig(dt=1e-3, t_end=1.0, energy_drift_tol=1e-4)
        _, dt, spr = _records_grid(config.dt, config.t_end, 5)
        b_rec, _ = _evolve_batch(z, p, params, dt, spr, 5,
                                 config.energy_drift_tol, config.wall_guard)
        b0, bT = b_rec[0], b_rec[-1]
        n = b0.size
        sem_mean = math.hypot(b0.std(), bT.std()) / math.sqrt(n)
        assert abs(bT.mean() - b0.mean()) <= 3.0 * sem_mean
        var0, varT = b0.var(ddof=1), bT.var(ddof=1)
        sem_var = math.sqrt(2.0 / (n - 1)) * math.hypot(var0, varT)
        assert abs(varT - var0) <= 3.0 * sem_var
        assert helpers.ks_two_sample_pvalue(b0, bT) > 1e-3


class TestAutocorr:
    def test_initial_value_matches_momentum_variance(self):
        params = ModelParams(8, 2.0, 1.0, 10.0, field=1e-3)
        config = IntegratorConfig(dt=1e-3, t_end=0.1, energy_drift_tol=1e-4)
        series = autocorr_B(params, config, n_traj=3000, seed=33, n_times=8)
        exact = params.n_particles / params.beta
        assert abs(series.c_values[0] - exact) <= 3.0 * series.std_errors[0]

    def test_bounded_by_initial_variance(self):
        params = ModelParams(8, 1.0, 1.0, 10.0)
        config = IntegratorConfig(dt=1e-3, t_end=0.5, energy_drift_tol=1e-4)
        series = autocorr_B(params, config, n_traj=2000, seed=34, n_times=16)
        limit = series.c_values[0] + 3.0 * series.std_errors
        assert np.all(series.c_values <= limit)

    def test_deterministic_across_worker_counts(self):
        params = ModelParams(4, 1.0, 1.0, 10.0, field=1e-3)
        config = IntegratorConfig(dt=1e-3, t_end=0.05, energy_drift_tol=1e-4)
        # three shards of at most 1024 trajectories, the last one partial
        kwargs = dict(n_traj=2500, seed=35, n_times=4)
        serial = autocorr_B(params, config, n_workers=1, **kwargs)
        pooled = autocorr_B(params, config, n_workers=2, **kwargs)
        rerun = autocorr_B(params, config, n_workers=1, **kwargs)
        assert np.array_equal(serial.c_values, pooled.c_values)
        assert np.array_equal(serial.std_errors, pooled.std_errors)
        assert np.array_equal(serial.c_values, rerun.c_values)

    def test_pool_starts_one_worker_per_shard(self, monkeypatch):
        # the pool starts a thread only for a shard that no idle thread
        # takes, so 8 workers for 3 shards start 3 threads at most
        started = []
        start = threading.Thread.start

        def counted_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        params = ModelParams(1, 1.0, 1.0, 10.0, field=1e-3)
        config = IntegratorConfig(dt=1e-3, t_end=0.05, energy_drift_tol=1e-4)
        autocorr_B(params, config, n_traj=2049, seed=38, n_times=4,
                   n_workers=8)
        assert 1 <= len(started) <= 3

    def test_shards_on_threads_under_frequent_switches(self, monkeypatch):
        # the GIL changes hands every microsecond, so five threads
        # interleave the NumPy steps of three shards; each shard still runs
        # in this process, off the main thread, and the sums keep their bits
        params = ModelParams(4, 1.0, 1.0, 10.0, field=1e-3)
        config = IntegratorConfig(dt=1e-3, t_end=0.05, energy_drift_tol=1e-4)
        kwargs = dict(n_traj=2500, seed=35, n_times=8)
        serial = autocorr_B(params, config, n_workers=1, **kwargs)
        ran_on = []
        evolve = dynamics._evolve_batch

        def recorded(*args):
            ran_on.append(threading.get_ident())
            return evolve(*args)

        monkeypatch.setattr(dynamics, "_evolve_batch", recorded)
        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run = threading.Thread(target=lambda: result.append(autocorr_B(
                params, config, n_workers=5, **kwargs)), daemon=True)
            run.start()
            run.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not run.is_alive(), "the pooled run did not end within 60 s"
        pooled, = result
        assert len(ran_on) == 3
        assert run.ident not in ran_on
        for field in ("c_values", "std_errors"):
            assert np.array_equal(getattr(pooled, field).view(np.int64),
                                  getattr(serial, field).view(np.int64))
        assert pooled.max_energy_drift == serial.max_energy_drift

    def test_marginal_of_another_measure_rejected(self):
        # C(t) is a rho0 correlation of the params it flows with
        params = ModelParams(4, 1.0, 1.0, 10.0, field=1e-3)
        config = IntegratorConfig(dt=1e-3, t_end=0.05, energy_drift_tol=1e-4)
        for marginal in (build_marginal(params, grid_size=64, tilted=True),
                         build_marginal(replace(params, field=2e-3),
                                        grid_size=64)):
            with pytest.raises(ValueError, match="rho0"):
                autocorr_B(params, config, n_traj=1, seed=36, n_times=4,
                           marginal=marginal)

    def test_single_trajectory_smoke(self):
        params = ModelParams(4, 1.0, 1.0, 10.0, field=1e-3)
        config = IntegratorConfig(dt=1e-3, t_end=0.05, energy_drift_tol=1e-4)
        series = autocorr_B(params, config, n_traj=1, seed=36, n_times=4)
        assert np.all(series.std_errors == 0.0)

    def test_quadrature_oracle_single_particle(self):
        params = ModelParams(1, 1.0, 1.0, 10.0, field=1e-3)
        t_end = 2.0 * t_relax_lower(params)
        times, c_quad = helpers.quadrature_autocorr_n1(
            params, 1e-3, t_end, n_times=4, n_z=128, n_p=32)
        config = IntegratorConfig(dt=2.5e-4, t_end=t_end, energy_drift_tol=1e-5)
        series = autocorr_B(params, config, n_traj=2000, seed=37, n_times=4)
        np.testing.assert_allclose(series.times, times, rtol=1e-12)
        for k in range(4):
            assert abs(series.c_values[k] - c_quad[k]) \
                <= 3.0 * series.std_errors[k]


class TestEmpiricalRelaxTime:
    def test_all_positive_gives_none(self):
        series = CorrelationSeries(times=np.linspace(0, 1, 5),
                                   c_values=np.ones(5),
                                   std_errors=np.full(5, 0.01),
                                   n_trajectories=100)
        assert empirical_relax_time(series) is None

    def test_cosine_crossing(self):
        times = np.linspace(0.0, 4.0, 401)
        series = CorrelationSeries(times=times, c_values=np.cos(times),
                                   std_errors=np.full(401, 1e-6),
                                   n_trajectories=100)
        t_star = empirical_relax_time(series)
        assert t_star == pytest.approx(math.pi / 2.0, abs=0.02)


@pytest.mark.parametrize("make", [
    lambda: build_marginal(ModelParams(4, 1.0, 1.0, 10.0), grid_size=64),
    lambda: CorrelationSeries(times=[0.0, 1.0], c_values=[1.0, 0.5],
                              std_errors=[0.1, 0.1], n_trajectories=4),
], ids=["WallMarginal", "CorrelationSeries"])
def test_objects_holding_arrays_compare_without_raising(make):
    # a generated __eq__ compared their NumPy arrays and raised "truth value
    # of an array is ambiguous"; they compare by identity
    a, b = make(), make()
    assert (a == b) is False and (a == a) is True


class TestDisplacement:
    PARAMS = ModelParams(16, 1.0, 1.0, 10.0, field=1e-3)

    def test_zero_time(self):
        config = IntegratorConfig(dt=1e-3, t_end=1.0)
        [est] = displacement_norms(self.PARAMS, [0.0], n_traj=200, seed=39,
                                   config=config)
        assert est.value == 0.0 and est.std_error == 0.0
        assert est.which_measure == "rho1"

    def test_a_step_above_the_last_time_is_shrunk(self):
        # config.t_end = 1 is not the window: the one time 5e-4 takes one
        # step, of 5e-4, whether dt is 1e-3 or 5e-4
        params = ModelParams(4, 1.0, 1.0, 10.0, field=1e-3)
        got, want = (displacement_norms(params, [5e-4], n_traj=8, seed=1,
                                        config=IntegratorConfig(dt, 1.0))
                     for dt in (1e-3, 5e-4))
        assert got == want and got[0].value > 0.0

    @pytest.mark.parametrize("field, measure", [(1e-3, "rho1"),
                                                (0.0, "rho0")])
    def test_zero_times_build_no_marginal(self, monkeypatch, field, measure):
        # the zero norms need no table; the measure is named by gibbs' rule
        def refuse(*args, **kwargs):
            raise AssertionError("build_marginal called")

        monkeypatch.setattr(dynamics, "build_marginal", refuse)
        config = IntegratorConfig(dt=1e-3, t_end=1.0)
        ests = displacement_norms(replace(self.PARAMS, field=field),
                                  [0.0, 0.0], n_traj=3, seed=39,
                                  config=config)
        assert [(e.value, e.std_error, e.n_samples, e.which_measure)
                for e in ests] == [(0.0, 0.0, 3, measure)] * 2

    def test_one_estimate_per_time_in_the_order_given(self):
        # the ensemble runs on the sorted grid; the estimates come back in
        # the order of the request, a repeated time repeated
        config = IntegratorConfig(dt=1e-3, t_end=1.0)
        kw = dict(n_traj=32, seed=43, config=config)
        forward = displacement_norms(self.PARAMS, [0.0, 0.02, 0.04], **kw)
        assert forward[1].value < forward[2].value
        assert displacement_norms(self.PARAMS, [0.04, 0.02, 0.0],
                                  **kw) == forward[::-1]
        f0, f1, f2 = forward
        assert displacement_norms(self.PARAMS, [0.04, 0.0, 0.02, 0.04],
                                  **kw) == [f2, f0, f1, f2]

    def test_at_most_linear_growth(self):
        t0 = t_relax_lower(self.PARAMS)
        config = IntegratorConfig(dt=5e-4, t_end=t0, energy_drift_tol=1e-4)
        half, full = displacement_norms(self.PARAMS, [0.5 * t0, t0],
                                        n_traj=2000, seed=40, config=config)
        assert full.value <= 2.0 * half.value \
            + 3.0 * (full.std_error + 2.0 * half.std_error)

    def test_bound_with_analytic_eta(self):
        t0 = t_relax_lower(self.PARAMS)
        eta = eta_analytic(self.PARAMS)
        config = IntegratorConfig(dt=5e-4, t_end=t0, energy_drift_tol=1e-4)
        ests = displacement_norms(self.PARAMS, [0.5 * t0, t0], n_traj=2000,
                                  seed=41, config=config)
        b1 = norm0_B_mc(self.PARAMS, 5000, philox_key(41, 99))
        for t, est in zip([0.5 * t0, t0], ests):
            bound = (1.0 + _ETA_MARGIN) * eta * t * b1.value
            slack = _DISPLACEMENT_K * (
                est.std_error + (1.0 + _ETA_MARGIN) * eta * t * b1.std_error)
            assert est.value <= bound + slack

    @pytest.mark.parametrize("times", [[0.0], [0.0, 0.1]],
                             ids=["zero-time", "grid"])
    @pytest.mark.parametrize("n_traj", [0, -3])
    def test_too_few_trajectories(self, n_traj, times):
        # refused as autocorr_B refuses them, also when every time is 0 and
        # no trajectory would run
        config = IntegratorConfig(dt=1e-3, t_end=1.0)
        with pytest.raises(ValueError, match="n_traj must be >= 1"):
            displacement_norms(self.PARAMS, times, n_traj=n_traj, seed=1,
                               config=config)
        with pytest.raises(ValueError, match="n_traj must be >= 1"):
            autocorr_B(self.PARAMS, config, n_traj=n_traj, seed=1)

    def test_times_validation(self):
        config = IntegratorConfig(dt=1e-3, t_end=1.0)
        with pytest.raises(ValueError):
            displacement_norms(self.PARAMS, [-0.1], n_traj=100, seed=1,
                               config=config)
        with pytest.raises(ValueError):
            displacement_norms(self.PARAMS, [0.1, 0.15], n_traj=100, seed=1,
                               config=config)

    @pytest.mark.parametrize("times", [[math.nan], [0.01, math.inf],
                                       [math.nan, 0.01], [-math.inf]])
    def test_non_finite_times_are_refused(self, times):
        # NaN alone gave a norm of 0, inf an OverflowError and NaN beside a
        # time "cannot convert float NaN to integer"
        config = IntegratorConfig(dt=1e-3, t_end=1.0)
        with pytest.raises(ValueError, match="^displacement times must be "
                                             "finite and nonnegative$"):
            displacement_norms(self.PARAMS, times, n_traj=4, seed=1,
                               config=config)


class TestLowerBoundCurve:
    def test_initial_value(self, ref_params):
        expected = 2.0 * ref_params.n_particles * ref_params.field
        assert lower_bound_curve(ref_params, 0.0) == pytest.approx(
            expected, rel=1e-14)

    def test_zero_at_t0(self, ref_params):
        t0 = t_relax_lower(ref_params)
        assert abs(lower_bound_curve(ref_params, t0)) < 1e-10

    def test_vectorized(self, ref_params):
        t = np.array([0.0, 0.05, 0.1])
        vals = lower_bound_curve(ref_params, t)
        assert vals.shape == (3,)
        assert np.all(np.diff(vals) < 0.0)


class TestRelaxationReport:
    def test_small_campaign(self):
        params = ModelParams(8, 1.0, 1.0, 10.0, field=1e-3)
        t0 = t_relax_lower(params)
        config = IntegratorConfig(dt=5e-4, t_end=2.0 * t0,
                                  energy_drift_tol=1e-4)
        report, series = make_relaxation_report(params, config, n_traj=400,
                                                seed=42, n_times=16)
        assert report.t0_bound == pytest.approx(t0)
        assert report.positivity_ok
        assert report.displacement_ok
        # the quadratic curve built on the closed-form norm starts at twice
        # the measured kernel, so the pipeline must flag it rather than agree
        assert not report.curve_check
        assert report.t_star_empirical is None
        assert report.gamma > 0.0 and report.gamma_tilde > 0.0
        assert report.max_energy_drift > 0.0
        assert len(report.displacement_details) == 3
        assert series.n_trajectories == 400

    @pytest.mark.parametrize("field", [1e-3, 0.0])
    def test_a_run_that_stops_before_t0_passes_no_t0_check(self, field):
        # C(t) stays positive up to t_end = t0 / 4, which says nothing
        # about t0; the displacement ensemble runs to t0 on its own grid
        params = ModelParams(8, 1.0, 1.0, 10.0, field=field)
        t0 = t_relax_lower(params)
        config = IntegratorConfig(dt=5e-4, t_end=0.25 * t0,
                                  energy_drift_tol=1e-4)
        report, series = make_relaxation_report(params, config, n_traj=64,
                                                seed=42, n_times=4)
        assert series.times[-1] < t0
        assert np.all(series.c_values - _POSITIVITY_K * series.std_errors
                      > 0.0)
        assert not report.positivity_ok
        assert not report.curve_check
        assert report.displacement_ok
        assert not report.all_ok

    def test_verdicts_do_not_depend_on_the_time_unit(self):
        # the reference system with N = 4 in its own units and with energies
        # 1e25 times larger, where t0 is 4.09e-14: the window of the t0
        # checks takes in the same grid times in both
        verdicts = []
        for beta, delta, h in [(1.0, 1.0, 1e-3), (1e-25, 1e25, 1e22)]:
            params = ModelParams(4, beta, delta, 10.0, field=h)
            t0 = t_relax_lower(params)
            config = IntegratorConfig(dt=2.5e-4 * math.sqrt(beta),
                                      t_end=40.0 * t0)
            report, _ = make_relaxation_report(params, config, n_traj=256,
                                               seed=5, n_times=41)
            verdicts.append((report.positivity_ok, report.curve_check,
                             report.displacement_ok,
                             report.t_star_empirical / t0))
        assert verdicts[0][3] == pytest.approx(25.0)
        assert verdicts[1][:3] == verdicts[0][:3] == (True, False, True)
        assert verdicts[1][3] == pytest.approx(verdicts[0][3])

    def test_B_norm_is_that_of_one_whole_batch(self, ref_params,
                                               ref_marginal_tilted,
                                               monkeypatch):
        # ||B||_1 draws momenta alone, past the heights that a whole batch
        # of 20000 rho1 states would draw first: the same bits
        seen = []

        def spy(*args):
            seen.append(norm0_B_mc(*args))
            return seen[-1]

        monkeypatch.setattr(dynamics, "norm0_B_mc", spy)
        t0 = t_relax_lower(ref_params)
        make_relaxation_report(ref_params, IntegratorConfig(
            dt=5e-4, t_end=t0, energy_drift_tol=1e-4), n_traj=16, seed=43,
            n_times=4)
        (got,) = seen
        want = helpers.norm0_mc_one_batch(helpers.observable_B,
                                          ref_marginal_tilted,
                                          20000, substream(43, 7001))
        # nonzero floats: equal values are equal bits
        assert got == want and got.std_error > 0.0
