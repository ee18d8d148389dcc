import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import helpers
from gasrelax.bounds import (PhysicalUnits, RegimeError, build_bound_report,
                             constant_c, eta_analytic, eta_empirical,
                             per_term_integral_bound_check, t0_physical,
                             t_relax_lower)
from gasrelax.gibbs import (build_marginal, norm0_B_closed,
                            norm0_poisson_B_H0_quadrature)
from gasrelax.model import ModelParams
from gasrelax.rng import philox_key

# frozen 30-digit references
C_REF = 24.453430550248926
ETA_REF = 10.935906598685337          # beta = delta = 1, L = 10
T0_REF = 0.12931836511324128
T0_PHYSICAL_REF = 1.3702014198725961e-9
PER_TERM_LHS_REF = 0.086511901862532256

REGIME_SWEEP = [ModelParams(1, beta, delta, box)
                for beta in (0.5, 1.0, 2.0, 4.0)
                for delta in (0.25, 1.0, 4.0)
                for box in (8.0, 12.0)]


class TestConstantC:
    def test_value(self):
        assert constant_c() == pytest.approx(C_REF, rel=1e-10)
        assert abs(constant_c() - 24.45) < 0.02

    def test_rounded_display(self):
        assert abs(constant_c() - 25.0) < 0.6

    def test_quadrature_route_agrees(self):
        integral = helpers.integrate_semi_infinite(
            lambda u: u ** (13.0 / 12.0) * np.exp(-u), 0.0).value
        assert constant_c() == pytest.approx(24.0 * math.sqrt(integral),
                                             rel=1e-8)


class TestEtaAnalytic:
    def test_reference_value(self, ref_params):
        assert eta_analytic(ref_params) == pytest.approx(ETA_REF, rel=1e-10)

    def test_box_scaling(self, ref_params):
        big = ModelParams(64, 1.0, 1.0, 40.0, field=1e-3)
        assert eta_analytic(big) == pytest.approx(eta_analytic(ref_params) / 2.0,
                                                  rel=1e-12)

    def test_eta_times_t0(self, ref_params):
        assert eta_analytic(ref_params) * t_relax_lower(ref_params) == \
            pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_regime_violation(self):
        cramped = ModelParams(4, 1.0, 1.0, 2.0)
        with pytest.raises(RegimeError, match="box_side/3"):
            eta_analytic(cramped)


class TestRelaxLowerBound:
    def test_reference_value(self, ref_params):
        t0 = t_relax_lower(ref_params)
        assert t0 == pytest.approx(T0_REF, rel=1e-10)
        assert round(t0, 4) == 0.1293

    def test_beta_scaling(self, ref_params):
        hot = ModelParams(64, 4.0, 1.0, 10.0, field=1e-3)
        ratio = t_relax_lower(hot) / t_relax_lower(ref_params)
        assert ratio == pytest.approx(4.0 ** (1.0 / 24.0) * 2.0, rel=1e-12)

    def test_regime_violation(self):
        with pytest.raises(RegimeError):
            t_relax_lower(ModelParams(4, 8.0, 8.0, 4.0))


class TestPhysicalUnits:
    UNITS = PhysicalUnits(mass_kg=4.65e-26, sigma_m=1e-10, box_m=1.0,
                          temperature_k=300.0)

    def test_reference_seconds(self, ref_params):
        t0 = t0_physical(ref_params, self.UNITS)
        assert t0 == pytest.approx(T0_PHYSICAL_REF, rel=1e-9)
        assert 1e-9 <= t0 <= 1e-7

    def test_order_of_magnitude(self, ref_params):
        t0 = t0_physical(ref_params, self.UNITS)
        assert 0.1 <= t0 / 1e-8 <= 10.0

    def test_sigma_scaling(self, ref_params):
        doubled = PhysicalUnits(mass_kg=4.65e-26, sigma_m=2e-10, box_m=1.0,
                                temperature_k=300.0)
        assert t0_physical(ref_params, doubled) == pytest.approx(
            math.sqrt(2.0) * t0_physical(ref_params, self.UNITS), rel=1e-12)

    def test_missing_units(self, ref_params):
        with pytest.raises(ValueError):
            t0_physical(ref_params, None)

    def test_unit_validation(self):
        good = dict(mass_kg=4.65e-26, sigma_m=1e-10, box_m=1.0,
                    temperature_k=300.0)
        for key in good:
            for bad in (0.0, -1.0, math.inf, math.nan):
                with pytest.raises(ValueError):
                    PhysicalUnits(**{**good, key: bad})


class TestPerTermBound:
    def test_reference(self, ref_params):
        chk = per_term_integral_bound_check(ref_params)
        assert chk.lhs == pytest.approx(PER_TERM_LHS_REF, rel=1e-9)
        assert chk.passed
        assert 0.0 < chk.lhs / chk.rhs <= 1.0

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_parameter_grid(self, beta, delta):
        chk = per_term_integral_bound_check(ModelParams(1, beta, delta, 10.0))
        assert chk.passed
        assert 0.0 < chk.lhs / chk.rhs <= 1.0


class TestInequalityChain:
    def test_bracket_norm_dominated_across_sweep(self):
        assert len(REGIME_SWEEP) >= 20
        for params in REGIME_SWEEP:
            assert params.bound_regime
            lhs = norm0_poisson_B_H0_quadrature(
                build_marginal(params, grid_size=64))
            rhs = eta_analytic(params) * norm0_B_closed(params)
            assert lhs <= rhs

    def test_z_tilde_above_quarter_box_across_sweep(self):
        for params in REGIME_SWEEP:
            marginal = build_marginal(params, grid_size=64)
            assert marginal.z_tilde > params.box_side / 4.0


class TestEtaEmpirical:
    def test_dominated_by_analytic(self, ref_params, ref_marginal):
        est = eta_empirical(ref_marginal, 20000, philox_key(20, 0))
        assert est.value + 3.0 * est.std_error <= eta_analytic(ref_params)

    def test_ratio_independent_of_N(self):
        values = []
        for i, n in enumerate((16, 64)):
            params = ModelParams(n, 1.0, 1.0, 10.0)
            est = eta_empirical(build_marginal(params), 20000,
                                philox_key(21, i))
            values.append(est)
        diff = abs(values[0].value - values[1].value)
        assert diff <= 3.0 * math.hypot(values[0].std_error, values[1].std_error)

    def test_matches_quadrature_route(self, ref_params, ref_marginal):
        est = eta_empirical(ref_marginal, 20000, philox_key(22, 0))
        quad_ratio = norm0_poisson_B_H0_quadrature(ref_marginal) \
            / norm0_B_closed(ref_params)
        assert abs(est.value - quad_ratio) <= 3.0 * est.std_error

    def test_heights_are_not_held_all_at_once(self, ref_marginal):
        # 10^5 states of 64 heights are 51.2 MB; the kernel holds none of
        # them outside its chunk, so the 0.8 MB of values are the peak
        eta_empirical(ref_marginal, 2000, philox_key(27, 0))
        tracemalloc.start()
        try:
            eta_empirical(ref_marginal, 100_000, philox_key(27, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e5 + 4096

    def test_sample_floor(self, ref_marginal):
        with pytest.raises(ValueError):
            eta_empirical(ref_marginal, 500, philox_key(23, 0))


class TestBoundReport:
    def test_reference_report(self, ref_params):
        units = PhysicalUnits(mass_kg=4.65e-26, sigma_m=1e-10, box_m=1.0,
                              temperature_k=300.0)
        report = build_bound_report(ref_params, n_samples=2000,
                                    key=philox_key(24, 0), units=units)
        assert report.all_passed
        assert report.regime_ok
        assert report.t0_natural == pytest.approx(
            math.sqrt(2.0) / report.eta_analytic, rel=1e-15)
        doc = asdict(report)
        assert doc["c"] == pytest.approx(C_REF)
        assert doc["t0_physical_seconds"] == pytest.approx(T0_PHYSICAL_REF)
        assert {c["name"] for c in doc["inequality_checks"]} == {
            "bracket_norm_le_eta_times_B_norm",
            "per_term_integral_le_bound",
            "z_tilde_gt_quarter_box",
        }
        assert all(c["passed"] for c in doc["inequality_checks"])

    def test_regime_refused(self):
        with pytest.raises(RegimeError):
            build_bound_report(ModelParams(4, 2.0, 4.0, 3.0), n_samples=2000,
                               key=philox_key(25, 0))
