import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gasrelax.gibbs import (_GUIDE_CELLS, _INVERSE_CDF_CHUNK,
                            build_marginal, gamma_h, gamma_tilde_h,
                            hoelder_certificate, log_mgf_z, mgf_z,
                            norm0_B_closed, norm0_mc,
                            norm0_poisson_B_H0_quadrature, sample_batch)
from gasrelax.model import ModelParams, observable_B, poisson_B_H0
from gasrelax.numerics import gamma_function
from gasrelax.rng import substream

# frozen 30-digit references for the N=64, beta=delta=1, L=10 configuration
Z_TILDE_REF = 7.8889068703793547
NORM_BRACKET_N1_REF = 1.7771568467370688
MGF_01_REF = 1.0262072162774211
K_N4_DM01_REF = 1.1090222443098445


class TestBuildMarginal:
    def test_reference_normalization(self, ref_marginal, ref_params):
        assert ref_marginal.z_tilde == pytest.approx(Z_TILDE_REF, rel=1e-10)
        assert ref_params.box_side / 4.0 < ref_marginal.z_tilde < ref_params.box_side

    def test_z_tilde_against_simpson(self, ref_params, ref_marginal):
        oracle = helpers.simpson_integral(
            lambda z: helpers.boltzmann_weight(z, ref_params), -5.0, 5.0)
        assert ref_marginal.z_tilde == pytest.approx(oracle, rel=1e-8)

    def test_vanishing_walls_limit(self):
        # the wall layer has width (beta*delta)^(1/12); its lost mass is
        # 2 Gamma(11/12) (beta*delta)^(1/12) in the delta -> 0 limit
        for delta in (1e-30, 1e-80):
            params = ModelParams(1, 1.0, delta, 10.0)
            marginal = build_marginal(params, grid_size=256)
            lost = 10.0 - marginal.z_tilde
            predicted = 2.0 * math.gamma(11.0 / 12.0) * delta ** (1.0 / 12.0)
            assert lost == pytest.approx(predicted, rel=1e-2)
        assert abs(marginal.z_tilde - 10.0) / 10.0 < 1e-6  # delta = 1e-80

    def test_cdf_symmetry(self, ref_marginal):
        cdf = ref_marginal.cdf_values
        assert np.all(np.abs(cdf + cdf[::-1] - 1.0) < 1e-12)

    def test_cdf_monotone_with_endpoints(self, ref_marginal):
        cdf = ref_marginal.cdf_values
        assert cdf[0] == 0.0 and cdf[-1] == 1.0
        assert np.all(np.diff(cdf) >= 0.0)

    def test_grid_size_validation(self, ref_params):
        with pytest.raises(ValueError):
            build_marginal(ref_params, grid_size=32)

    def test_tilted_marginal_shifts_mean(self):
        params = ModelParams(1, 1.0, 1.0, 10.0, field=0.2)
        plain = build_marginal(params)
        tilted = build_marginal(params, tilted=True)
        assert tilted.which_measure == "rho1"
        mean_plain = helpers.simpson_integral(
            lambda z: z * plain.density(z), -5.0, 5.0)
        mean_tilted = helpers.simpson_integral(
            lambda z: z * tilted.density(z), -5.0, 5.0)
        assert abs(mean_plain) < 1e-10
        assert mean_tilted > 0.1


class TestSampling:
    def test_state_inside_box(self, ref_marginal, ref_params):
        z, p = sample_batch(ref_marginal, substream(1, 0), 3)
        assert z.shape == p.shape == (3, ref_params.n_particles)
        assert np.all(np.abs(z) < ref_params.half_box)

    def test_momentum_moments(self, ref_marginal, ref_params):
        # variance m / beta, from the kinetic Boltzmann factor exp(-beta p^2/2m)
        heavy = ModelParams(64, 1.0, 1.0, 10.0, field=1e-3, mass=4.0)
        for marginal in (ref_marginal, build_marginal(heavy, grid_size=256)):
            params = marginal.params
            z, p = sample_batch(marginal, substream(2, 0), 16000)
            draws = p.ravel()  # ~1e6 independent Gaussians
            n = draws.size
            sem = draws.std() / math.sqrt(n)
            assert abs(draws.mean()) < 4.0 * sem
            var = helpers.gaussian_moment(2, params.beta / params.mass)
            assert abs(draws.var() - var) < 0.01 * var

    def test_positions_match_density_chi2(self, ref_marginal):
        z, _ = sample_batch(ref_marginal, substream(3, 0), 1600)
        draws = z.ravel()  # ~1e5 iid positions
        edges = ref_marginal.inverse_cdf(np.linspace(0.0, 1.0 - 1e-12, 65))
        observed, _ = np.histogram(draws, bins=edges)
        expected = np.empty(64)
        for k in range(64):
            expected[k] = helpers.simpson_integral(
                lambda s: ref_marginal.density(s), edges[k], edges[k + 1],
                n=1 << 10) * draws.size
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        assert helpers.chi2_sf(chi2, dof=63) > 1e-3

    def test_inverse_cdf_vs_rejection_ks(self, ref_params, ref_marginal):
        n = 20000
        mine = ref_marginal.inverse_cdf(substream(4, 0).random(n))
        reference = helpers.rejection_sample_z(ref_params, substream(4, 1), n)
        assert helpers.ks_two_sample_pvalue(mine, reference) > 1e-3

    def test_tilted_sampling_vs_rejection_ks(self, ref_params, ref_marginal_tilted):
        n = 20000
        mine = ref_marginal_tilted.inverse_cdf(substream(5, 0).random(n))
        reference = helpers.rejection_sample_z(ref_params, substream(5, 1), n,
                                               tilt=ref_params.field)
        assert helpers.ks_two_sample_pvalue(mine, reference) > 1e-3


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _assert_same_bits(marginal, u):
    # outside [0, 1] the cubic extrapolates, and its powers of t overflow
    with np.errstate(over="ignore", invalid="ignore"):
        got = marginal.inverse_cdf(u)
        expected = helpers.inverse_cdf_searchsorted(marginal, u)
    assert np.shape(got) == np.shape(u)
    assert np.array_equal(_bits(got), _bits(expected))


@pytest.fixture(scope="module", params=["rho0", "rho1", "grid64"])
def any_marginal(request, ref_params):
    if request.param == "grid64":
        return build_marginal(ref_params, grid_size=64)
    return request.getfixturevalue(
        {"rho0": "ref_marginal", "rho1": "ref_marginal_tilted"}[request.param])


class TestInverseCdfBitwise:
    """The guide-table lookup gives the bits of a binary search over all knots."""

    def test_knots_cell_edges_and_out_of_range(self, any_marginal):
        knots = any_marginal._inv_u
        edges = np.arange(_GUIDE_CELLS + 1) / _GUIDE_CELLS
        u = np.concatenate([
            [0.0, -0.0, np.nextafter(1.0, 0.0), 1.0, -0.5, 1.5, np.nan],
            knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
            edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
        _assert_same_bits(any_marginal, u)

    def test_shapes_and_chunk_boundaries(self, any_marginal):
        rng = substream(14, 0)
        for shape in [(_INVERSE_CDF_CHUNK - 1,), (_INVERSE_CDF_CHUNK,),
                      (_INVERSE_CDF_CHUNK + 1,), (), (300, 64)]:
            _assert_same_bits(any_marginal, rng.random(shape))

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=64))
    def test_property_near_unit_interval(self, ref_marginal, values):
        _assert_same_bits(ref_marginal, np.array(values))


class TestNorms:
    def test_closed_form_values(self):
        assert norm0_B_closed(ModelParams(2, 1.0, 1.0, 10.0)) == pytest.approx(2.0)
        assert norm0_B_closed(ModelParams(100, 1.0, 1.0, 10.0)) == \
            pytest.approx(14.1421356, abs=1e-6)

    def test_norm0_mc_constant(self, ref_marginal):
        est = norm0_mc(lambda z, p: np.ones(len(z)), ref_marginal, 200,
                       substream(6, 0))
        assert est.value == 1.0
        assert est.std_error == 0.0
        assert est.which_measure == "rho0"

    def test_norm0_mc_of_B_matches_gaussian_moment(self, ref_params, ref_marginal):
        # E[B^2] = N * Var(p) = N / beta exactly
        est = norm0_mc(observable_B, ref_marginal, 20000, substream(7, 0))
        exact = math.sqrt(ref_params.n_particles / ref_params.beta)
        assert abs(est.value - exact) <= 3.0 * est.std_error

    def test_norm0_mc_equals_per_state_loop(self, ref_params, ref_marginal):
        # one batched call gives the bits of evaluating state by state
        est = norm0_mc(lambda z, p: poisson_B_H0(z, ref_params), ref_marginal,
                       2000, substream(13, 0))
        z, p = sample_batch(ref_marginal, substream(13, 0), 2000)
        sq = np.array([float(poisson_B_H0(z[i], ref_params)) ** 2
                       for i in range(2000)])
        assert est.value == math.sqrt(float(np.mean(sq)))

    def test_norm0_mc_rejects_small_samples(self, ref_marginal):
        with pytest.raises(ValueError):
            norm0_mc(lambda z, p: np.ones(len(z)), ref_marginal, 50,
                     substream(8, 0))

    def test_bracket_norm_quadrature_reference(self):
        params = ModelParams(1, 1.0, 1.0, 10.0)
        assert norm0_poisson_B_H0_quadrature(params) == \
            pytest.approx(NORM_BRACKET_N1_REF, rel=1e-9)

    def test_bracket_norm_scales_as_sqrt_N(self):
        one = norm0_poisson_B_H0_quadrature(ModelParams(1, 1.0, 1.0, 10.0))
        many = norm0_poisson_B_H0_quadrature(ModelParams(49, 1.0, 1.0, 10.0))
        assert many == pytest.approx(7.0 * one, rel=1e-12)

    def test_bracket_norm_vs_mc(self, ref_params, ref_marginal):
        quad = norm0_poisson_B_H0_quadrature(ref_params)
        est = norm0_mc(lambda z, p: poisson_B_H0(z, ref_params), ref_marginal,
                       20000, substream(9, 0))
        assert abs(est.value - quad) <= 3.0 * est.std_error

    def test_cross_term_negative_everywhere(self, ref_params):
        z = np.linspace(-4.99, 4.99, 501)
        u = z + ref_params.half_box
        v = z - ref_params.half_box
        assert np.all(u ** -13.0 * v ** -13.0 < 0.0)

    def test_bracket_norm_analytic_chain(self, ref_params):
        # wall terms bounded by (beta*delta)^(-23/12) Gamma(25/12), Z~ > L/4
        params = ref_params
        bound = math.sqrt(params.n_particles) * math.sqrt(2.0) * 12.0 \
            * params.delta_wall \
            * (params.beta * params.delta_wall) ** (-23.0 / 24.0) \
            * math.sqrt(gamma_function(25.0 / 12.0)) \
            * math.sqrt(4.0 / params.box_side)
        assert norm0_poisson_B_H0_quadrature(params) <= bound


class TestMgf:
    def test_at_zero(self, ref_marginal):
        assert mgf_z(0.0, ref_marginal) == 1.0

    def test_symmetric(self, ref_marginal):
        assert mgf_z(0.3, ref_marginal) == pytest.approx(
            mgf_z(-0.3, ref_marginal), rel=1e-12)

    def test_reference_value(self, ref_marginal):
        assert mgf_z(0.1, ref_marginal) == pytest.approx(MGF_01_REF, rel=1e-10)

    def test_jensen(self, ref_marginal):
        assert mgf_z(0.2, ref_marginal) * mgf_z(-0.2, ref_marginal) >= 1.0

    def test_rejects_tilted_marginal(self, ref_marginal_tilted):
        with pytest.raises(ValueError):
            mgf_z(0.1, ref_marginal_tilted)


class TestGammaDivergences:
    def test_zero_field(self, ref_params, ref_marginal):
        assert gamma_h(ref_params, ref_marginal, 0.0) == 0.0
        assert gamma_tilde_h(ref_params, ref_marginal, 0.0) == 0.0

    def test_nonnegative_and_monotone(self, ref_params, ref_marginal):
        grid = np.geomspace(1e-5, 1e-1, 9)
        gam = [gamma_h(ref_params, ref_marginal, h) for h in grid]
        gtl = [gamma_tilde_h(ref_params, ref_marginal, h) for h in grid]
        assert all(v >= 0.0 for v in gam + gtl)
        assert all(a < b for a, b in zip(gam, gam[1:]))
        assert all(a < b for a, b in zip(gtl, gtl[1:]))
        assert gam[0] < 1e-6 and gtl[0] < 1e-6

    def test_factorization_exactness_single_particle(self):
        # N = 1: compare against the defining integral evaluated directly
        params = ModelParams(1, 1.0, 1.0, 10.0)
        marginal = build_marginal(params)
        t = 0.3 * params.beta
        m_t = helpers.simpson_integral(
            lambda z: np.exp(t * z) * marginal.density(z), -5.0, 5.0)

        def integrand(z):
            ratio = np.exp(t * z) / m_t
            return (ratio - 1.0) ** 2 * marginal.density(z)

        direct = helpers.simpson_integral(integrand, -5.0, 5.0)
        assert gamma_h(params, marginal, 0.3) == pytest.approx(direct, rel=1e-8)

    def test_gamma_mc_cross_check(self):
        params = ModelParams(4, 1.0, 1.0, 10.0, field=0.05)
        marginal = build_marginal(params)
        z = marginal.inverse_cdf(substream(10, 0).random((200000, 4)))
        w = np.exp(params.beta * params.field * z.sum(axis=1))
        blocks = w.reshape(20, -1)
        est = blocks.mean(axis=1) ** -2 * (blocks ** 2).mean(axis=1) - 1.0
        mc, sem = est.mean(), est.std(ddof=1) / math.sqrt(len(est))
        assert abs(mc - gamma_h(params, marginal)) <= 3.0 * sem

    def test_gamma_tilde_mc_cross_check(self):
        params = ModelParams(4, 1.0, 1.0, 10.0, field=0.05)
        marginal = build_marginal(params)
        z = marginal.inverse_cdf(substream(11, 0).random((200000, 4)))
        a = params.beta * params.field * z.sum(axis=1)
        blocks_p = np.exp(a).reshape(20, -1).mean(axis=1)
        blocks_m = np.exp(-a).reshape(20, -1).mean(axis=1)
        est = blocks_p * blocks_m - 1.0
        mc, sem = est.mean(), est.std(ddof=1) / math.sqrt(len(est))
        assert abs(mc - gamma_tilde_h(params, marginal)) <= 3.0 * sem


class TestExponentialMoment:
    """K = max over signs of E[exp(+/- delta_moment A)] in the certificate."""

    def test_small_exponent_limit(self, ref_params, ref_marginal):
        cert = hoelder_certificate(ref_params, ref_marginal, 1e-8, h=0.0)
        assert cert.k == pytest.approx(1.0, abs=1e-6)

    def test_at_least_one(self, ref_params, ref_marginal):
        for dm in (0.01, 0.1, 0.5):
            assert hoelder_certificate(ref_params, ref_marginal, dm,
                                       h=0.0).k >= 1.0

    def test_reference_value(self):
        params = ModelParams(4, 1.0, 1.0, 10.0)
        cert = hoelder_certificate(params, build_marginal(params), 0.1, h=0.0)
        assert cert.k == pytest.approx(K_N4_DM01_REF, rel=1e-9)

    def test_validation(self, ref_params, ref_marginal):
        with pytest.raises(ValueError):
            hoelder_certificate(ref_params, ref_marginal, 0.0, h=0.0)


class TestHoelderCertificate:
    def test_zero_field(self, ref_params, ref_marginal):
        cert = hoelder_certificate(ref_params, ref_marginal, 0.1, h=0.0)
        assert cert.gamma == 0.0
        assert cert.hoelder_bound == 1.0
        assert cert.ok

    @pytest.mark.parametrize("n", [4, 16])
    @pytest.mark.parametrize("h", [1e-4, 1e-3])
    def test_small_field_family(self, n, h):
        params = ModelParams(n, 1.0, 1.0, 10.0)
        marginal = build_marginal(params)
        cert = hoelder_certificate(params, marginal, 0.1, h=h)
        assert cert.bound_holds
        assert cert.ok
        assert 1.0 + cert.gamma <= cert.hoelder_bound * (1.0 + 1e-12)

    def test_epsilon_threshold(self, ref_params, ref_marginal):
        epsilon = 0.01
        probe = hoelder_certificate(ref_params, ref_marginal, 0.1,
                                    h=0.0, epsilon=epsilon)
        h = 0.9 * probe.h_threshold
        cert = hoelder_certificate(ref_params, ref_marginal, 0.1,
                                   h=h, epsilon=epsilon)
        assert cert.h_below_threshold
        assert cert.gamma < epsilon
        assert cert.ok

    def test_precondition(self, ref_params, ref_marginal):
        with pytest.raises(ValueError):
            hoelder_certificate(ref_params, ref_marginal, 0.1, h=0.06)


class TestNormEquivalence:
    def test_B_norms_agree_as_field_vanishes(self):
        # the momentum marginal is untouched by the tilt, so the two squared
        # norms of B coincide up to sampling noise at every h
        for i, h in enumerate((1e-1, 1e-2, 1e-3)):
            params = ModelParams(16, 1.0, 1.0, 10.0, field=h)
            est0 = norm0_mc(observable_B, build_marginal(params), 20000,
                            substream(12, 2 * i))
            est1 = norm0_mc(observable_B, build_marginal(params, tilted=True),
                            20000, substream(12, 2 * i + 1))
            diff = est1.value ** 2 - est0.value ** 2
            sigma = 2.0 * math.hypot(est1.value * est1.std_error,
                                     est0.value * est0.std_error)
            assert abs(diff) <= 3.0 * sigma
            assert est1.which_measure == "rho1"
