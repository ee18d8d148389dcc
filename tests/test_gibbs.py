import ctypes
import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import mgf_z
from gasrelax import _kernel, gibbs, numerics
from gasrelax.gibbs import (_GUIDE_CELLS, _MC_BLOCK, NormEstimate,
                            _guide_table, _wall_breakpoints, _weight,
                            build_marginal, gamma_h, gamma_tilde_h,
                            hoelder_certificate, log_mgf_z, norm0_B_closed,
                            norm0_B_mc, norm0_mc,
                            norm0_poisson_B_H0_quadrature, sample_batch)
from gasrelax.model import ModelParams, observable_B, poisson_B_H0
from gasrelax.numerics import _kronrod_panels, gamma_function, integrate_finite
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
        cdf = helpers.cdf_values(ref_marginal)
        assert np.all(np.abs(cdf + cdf[::-1] - 1.0) < 1e-12)

    def test_cdf_monotone_with_endpoints(self, ref_marginal):
        cdf = helpers.cdf_values(ref_marginal)
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
            lambda z: z * helpers.density(plain, z), -5.0, 5.0)
        mean_tilted = helpers.simpson_integral(
            lambda z: z * helpers.density(tilted, z), -5.0, 5.0)
        assert abs(mean_plain) < 1e-10
        assert mean_tilted > 0.1

    @settings(max_examples=25, deadline=None, database=None)
    @given(beta=st.floats(0.2, 5.0), delta=st.floats(1e-3, 10.0),
           box_side=st.floats(3.5, 40.0), field=st.floats(0.0, 0.1),
           tilted=st.booleans())
    @example(beta=1.0, delta=1.0, box_side=5.0, field=1e-3, tilted=False)
    @example(beta=1.0, delta=1.0, box_side=15.0, field=1e-3, tilted=False)
    @example(beta=1.0, delta=1.0, box_side=5.0, field=1e-3, tilted=True)
    def test_in_regime_marginals_are_finite(self, beta, delta, box_side,
                                            field, tilted):
        # at L = 5 and 15 some CDF increments next to the walls are
        # subnormal, and their secants overflowed into NaN tangents
        params = ModelParams(1, beta, delta, box_side, field=field)
        assume(params.bound_regime)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            marginal = build_marginal(params, tilted=tilted)
        assert np.all(np.isfinite(marginal._inv_m))
        u = np.concatenate([[0.0, 5e-324, 1e-300, 1e-200, 1e-16,
                             np.nextafter(1.0, 0.0)],
                            substream(16, 0).random(4096)])
        z = marginal.inverse_cdf(u)
        assert np.all(np.isfinite(z))
        assert np.all(np.abs(z) <= params.half_box)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


# (name, grid_size, tilted) of the tables checked bit for bit
TABLES = [("rho0", 2048, False), ("rho1", 2048, True), ("grid64", 64, False)]


class TestMarginalTableBitwise:
    """One batched Kronrod pass gives the bits of the per-cell loop."""

    @pytest.mark.parametrize("name, grid_size, tilted", TABLES)
    def test_masses_and_inverse_table(self, ref_params, name, grid_size,
                                      tilted):
        tilt = ref_params.field if tilted else 0.0
        half = ref_params.half_box
        nodes = np.linspace(-half, half, grid_size + 1)
        masses, _ = _kronrod_panels(lambda z: _weight(z, ref_params, tilt),
                                    nodes[:-1], nodes[1:])
        want = helpers.kronrod_masses_loop(ref_params, grid_size, tilted)
        assert np.array_equal(_bits(masses), _bits(want))
        marginal = build_marginal(ref_params, grid_size, tilted)
        got = (marginal._inv_u, marginal._inv_z, marginal._inv_m)
        for mine, theirs in zip(got, helpers.inverse_table_reference(
                ref_params, grid_size, tilted)):
            assert np.array_equal(_bits(mine), _bits(theirs))

    def test_cdf_values_rebuilt_from_the_knots(self, ref_params):
        for grid_size in (64, 2048):
            marginal = build_marginal(ref_params, grid_size)
            assert np.array_equal(helpers.cdf_values(marginal, grid_size),
                                  helpers.cdf_reference(ref_params, grid_size))


class TestQuadratureBitwise:
    """integrate_finite on the gibbs integrands: batched or looped panels."""

    @pytest.mark.parametrize("integrand", [
        "weight", "tilted", "pow_left_26", "pow_13_13", "expm1"])
    def test_value_and_evaluations(self, ref_params, integrand, monkeypatch):
        params = ref_params
        f = {
            "weight": lambda z: _weight(z, params),
            "tilted": lambda z: _weight(z, params, params.field),
            "pow_left_26": lambda z: _weight(z, params, pow_left=26.0),
            "pow_13_13": lambda z: _weight(z, params, pow_left=13.0,
                                           pow_right=13.0),
            "expm1": lambda z: np.expm1(0.1 * z) * _weight(z, params),
        }[integrand]
        kwargs = dict(rel_tol=1e-10, abs_floor=1e-16,
                      breakpoints=_wall_breakpoints(params))
        half = params.half_box
        got = integrate_finite(f, -half, half, **kwargs)
        monkeypatch.setattr(numerics, "_kronrod_panels",
                            helpers.kronrod_panels_loop)
        want = integrate_finite(f, -half, half, **kwargs)
        assert _bits(got.value) == _bits(want.value)
        assert _bits(got.error_estimate) == _bits(want.error_estimate)
        assert got.evaluations == want.evaluations > 15 * 9


class TestSampling:
    def test_state_inside_box(self, ref_marginal, ref_params):
        z, p = sample_batch(ref_marginal, substream(1, 0), 3)
        assert z.shape == p.shape == (3, ref_params.n_particles)
        assert np.all(np.abs(z) < ref_params.half_box)

    def test_draws_without_a_zero_are_unchanged(self, ref_marginal,
                                                ref_params):
        z, p = sample_batch(ref_marginal, substream(17, 0), 500)
        rng = substream(17, 0)
        u = rng.random((500, ref_params.n_particles))
        assert u.min() > 0.0
        assert np.array_equal(_bits(z), _bits(ref_marginal.inverse_cdf(u)))
        assert np.array_equal(_bits(p), _bits(rng.normal(
            0.0, 1.0, (500, ref_params.n_particles))))

    def test_heights_only_are_the_same_heights(self, ref_marginal):
        # the momenta follow the heights in the generator's stream
        z, _ = sample_batch(ref_marginal, substream(21, 0), 500)
        z_only, p = sample_batch(ref_marginal, substream(21, 0), 500,
                                 momenta=False)
        assert p is None
        assert np.array_equal(_bits(z_only), _bits(z))

    def test_zero_uniform_is_redrawn(self, ref_marginal, ref_params):
        # inverse_cdf(0.0) is the wall itself; the second redraw of flat
        # index 70 is 0.0 again and is redrawn once more
        assert ref_marginal.inverse_cdf(0.0) == -ref_params.half_box
        stub = helpers.ZeroDraws(substream(18, 0), [[3, 70, 127], [1], []])
        z, p = sample_batch(ref_marginal, stub, 2)
        assert stub.sizes == [(2, 64), 3, 1]
        assert np.all(np.abs(z) < ref_params.half_box)
        rng = substream(18, 0)
        u = rng.random((2, 64))
        u.flat[[3, 70, 127]] = rng.random(3)
        u.flat[70] = rng.random(1)[0]
        assert np.array_equal(_bits(z), _bits(ref_marginal.inverse_cdf(u)))
        assert np.array_equal(_bits(p), _bits(rng.normal(0.0, 1.0, (2, 64))))

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
                lambda s: helpers.density(ref_marginal, s), edges[k],
                edges[k + 1], n=1 << 10) * draws.size
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


def _assert_same_bits(marginal, u):
    # outside [0, 1] the cubic extrapolates, and its powers of t overflow
    with np.errstate(over="ignore", invalid="ignore"):
        got = marginal.inverse_cdf(u)
        expected = helpers.inverse_cdf_searchsorted(marginal, u)
    assert np.shape(got) == np.shape(u)
    assert np.array_equal(_bits(got), _bits(expected))


@functools.lru_cache(maxsize=None)
def _box_marginal(box_side):
    return build_marginal(ModelParams(64, 1.0, 1.0, box_side, field=1e-3))


@pytest.fixture(scope="module",
                params=["rho0", "rho1", "grid64", "L5", "L15", "L20"])
def any_marginal(request, ref_params):
    if request.param == "grid64":
        return build_marginal(ref_params, grid_size=64)
    if request.param.startswith("L"):
        return _box_marginal(float(request.param[1:]))
    return request.getfixturevalue(
        {"rho0": "ref_marginal", "rho1": "ref_marginal_tilted"}[request.param])


def _inverse_cdf_chunk():
    """The values per pass of the C inverse CDF."""
    return ctypes.c_ssize_t.in_dll(_kernel.library(),
                                   "inverse_cdf_chunk").value


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
        chunk = _inverse_cdf_chunk()
        for shape in [(chunk - 1,), (chunk,), (chunk + 1,), (), (300, 64)]:
            _assert_same_bits(any_marginal, rng.random(shape))

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=64))
    def test_property_near_unit_interval(self, ref_marginal, values):
        _assert_same_bits(ref_marginal, np.array(values))

    def test_in_place(self, any_marginal):
        u = substream(19, 0).random((300, 64))
        expected = helpers.inverse_cdf_searchsorted(any_marginal, u)
        assert any_marginal.inverse_cdf(u, out=u) is u
        assert np.array_equal(_bits(u), _bits(expected))

    def test_fortran_and_strided_inputs(self, any_marginal):
        u = substream(20, 0).random((96, 64))
        fortran = np.asfortranarray(u)
        for view in (fortran, u[::3, 1::2], u.T, fortran[5:70:2]):
            _assert_same_bits(any_marginal, view)
        out = np.empty_like(fortran)
        assert any_marginal.inverse_cdf(fortran, out=out) is out
        assert np.array_equal(_bits(out), _bits(any_marginal.inverse_cdf(u)))
        with pytest.raises(ValueError, match="laid out like z"):
            any_marginal.inverse_cdf(fortran, out=np.empty_like(u))

    def test_infinities_and_smallest_subnormal(self, any_marginal):
        tiny = np.nextafter(0.0, 1.0)
        _assert_same_bits(any_marginal, np.array(
            [np.inf, -np.inf, tiny, -tiny, 2 * tiny, np.nextafter(tiny, 0.0)]))

    def test_tables_are_checked_before_the_kernel_reads_them(
            self, ref_marginal):
        guide = ref_marginal._guide
        past_last = np.full_like(guide, ref_marginal._inv_u.size - 1)
        for bad in (dict(_guide=guide[:-1]), dict(_guide=past_last),
                    dict(_guide=np.full_like(guide, -1)),
                    dict(_guide=guide.astype(np.int32)),
                    dict(_inv_z=ref_marginal._inv_z[:-1]),
                    dict(_inv_m=ref_marginal._inv_m[::-1])):
            with pytest.raises(ValueError, match="inverse-CDF tables"):
                dataclasses.replace(ref_marginal, **bad)

    @pytest.mark.parametrize("box_side", [5.0, 15.0])
    def test_subnormal_cdf_increments_are_covered(self, box_side):
        # the L5 and L15 marginals checked above have a knot interval of
        # subnormal width (about 1e-313) next to each wall; L20 has none,
        # its narrowest is about 3e-271
        widths = np.diff(_box_marginal(box_side)._inv_u)
        assert 0.0 < widths.min() < np.finfo(float).tiny


class TestGuideTable:
    @pytest.mark.parametrize("tilted", [False, True], ids=["rho0", "rho1"])
    @pytest.mark.parametrize("grid_size", [64, 2047])
    def test_equals_one_shot_search_within_its_own_size(self, ref_params,
                                                        tilted, grid_size):
        # the chunked, in-place table gives the bits of the one-shot one,
        # with no second table-sized array on the way
        inv_u = build_marginal(ref_params, grid_size, tilted)._inv_u
        guide, peak = helpers.traced_peak(lambda: _guide_table(inv_u))
        want = helpers.guide_table_one_shot(inv_u)
        assert guide.dtype == want.dtype == np.intp
        assert np.array_equal(guide, want)
        assert peak < 1.25 * guide.nbytes


def _one_batch_estimate(marginal, u):
    """The bracket norm of the states with uniforms u, all in one batch."""
    z = helpers.inverse_cdf_searchsorted(marginal, u)
    sq = helpers.poisson_B_H0_reference(z, marginal.params) ** 2
    return NormEstimate.from_moments(float(np.mean(sq)),
                                     float(np.var(sq, ddof=1)), len(u),
                                     marginal.which_measure)


def _assert_same_estimate(got, want):
    assert got == want
    assert _bits(got.value) == _bits(want.value)
    assert _bits(got.std_error) == _bits(want.std_error)


class TestNorms:
    def test_closed_form_values(self):
        assert norm0_B_closed(ModelParams(2, 1.0, 1.0, 10.0)) == pytest.approx(2.0)
        assert norm0_B_closed(ModelParams(100, 1.0, 1.0, 10.0)) == \
            pytest.approx(14.1421356, abs=1e-6)

    def test_norm0_mc_constant(self, ref_marginal):
        est = norm0_mc(lambda z: np.ones(len(z)), ref_marginal, 200,
                       substream(6, 0))
        assert est.value == 1.0
        assert est.std_error == 0.0
        assert est.which_measure == "rho0"

    def test_norm0_mc_of_B_matches_gaussian_moment(self, ref_params):
        # E[B^2] = N * Var(p) = N / beta exactly
        est = norm0_B_mc(ref_params, 20000,
                         helpers.skip_heights(substream(7, 0), 20000, 64))
        exact = math.sqrt(ref_params.n_particles / ref_params.beta)
        assert abs(est.value - exact) <= 3.0 * est.std_error

    def test_norm0_mc_equals_per_state_loop(self, ref_params, ref_marginal):
        # one batched call gives the bits of evaluating state by state
        est = norm0_mc(lambda z: poisson_B_H0(z, ref_params), ref_marginal,
                       2000, substream(13, 0))
        z, p = sample_batch(ref_marginal, substream(13, 0), 2000)
        sq = np.array([float(poisson_B_H0(z[i], ref_params)) ** 2
                       for i in range(2000)])
        assert est.value == math.sqrt(float(np.mean(sq)))

    def test_norm0_mc_without_momenta_is_unchanged(self, ref_params,
                                                   ref_marginal):
        # f sees the heights alone, those of a whole sample_batch draw with
        # its momenta, and rng is left where the heights end
        def bracket(*args):
            seen.append([a.shape for a in args])
            return poisson_B_H0(args[0], ref_params)

        seen = []
        rng = substream(22, 0)
        est = norm0_mc(bracket, ref_marginal, 2000, rng)
        assert seen == [[(1024, 64)], [(976, 64)]]
        whole = substream(22, 0)
        z, _ = sample_batch(ref_marginal, whole, 2000)
        sq = poisson_B_H0(z, ref_params) ** 2
        _assert_same_estimate(est, NormEstimate.from_moments(
            float(np.mean(sq)), float(np.var(sq, ddof=1)), 2000, "rho0"))
        skipped = helpers.skip_heights(substream(22, 0), 2000, 64)
        assert rng.random() == skipped.random()

    @pytest.mark.parametrize("n, n_samples", [(64, 2500), (7, 20000),
                                              (300, 1000)])
    def test_heights_only_blocks_equal_one_batch(self, n, n_samples):
        # blocks of _MC_BLOCK heights, the last one partial, give the bits
        # of drawing, inverting and evaluating the whole batch at once
        params = ModelParams(n, 1.0, 1.0, 10.0)
        marginal = build_marginal(params, grid_size=256)
        rows = []

        def bracket(z):
            rows.append(z.shape[0])
            return poisson_B_H0(z, params)

        est = norm0_mc(bracket, marginal, n_samples, substream(25, n))
        step = _MC_BLOCK // n
        assert rows == [step] * (n_samples // step) + [n_samples % step]
        u = substream(25, n).random((n_samples, n))
        assert u.min() > 0.0
        _assert_same_estimate(est, _one_batch_estimate(marginal, u))

    def test_zero_uniform_is_redrawn_within_its_block(self, ref_params,
                                                      ref_marginal):
        # the redraw follows block 2's draws, ahead of block 3's
        stub = helpers.ZeroDraws(substream(26, 0), [[], [5, 700]])
        est = norm0_mc(lambda z: poisson_B_H0(z, ref_params),
                       ref_marginal, 2500, stub)
        assert stub.sizes == [(1024, 64), (1024, 64), 2, (452, 64)]
        rng = substream(26, 0)
        blocks = [rng.random((1024, 64)), rng.random((1024, 64))]
        blocks[1].flat[[5, 700]] = rng.random(2)
        blocks.append(rng.random((452, 64)))
        _assert_same_estimate(est, _one_batch_estimate(ref_marginal,
                                                       np.vstack(blocks)))

    @pytest.mark.parametrize("n, n_samples", [(64, 20000), (7, 20000),
                                              (300, 1000)])
    def test_momenta_blocks_equal_one_batch(self, n, n_samples,
                                            monkeypatch):
        # momenta drawn a block at a time past the heights of a whole batch
        # give the bits of that batch's norm of B
        params = ModelParams(n, 1.0, 1.0, 10.0, field=1e-3, mass=2.0)
        marginal = build_marginal(params, grid_size=256, tilted=True)
        rows = []
        real = gibbs._momenta

        def momenta(params, rng, n_rows):
            rows.append(n_rows)
            return real(params, rng, n_rows)

        monkeypatch.setattr(gibbs, "_momenta", momenta)
        rng = helpers.skip_heights(substream(28, n), n_samples, n)
        est = norm0_B_mc(params, n_samples, rng)
        step = _MC_BLOCK // n
        assert rows == [step] * (n_samples // step) + [n_samples % step]
        whole = substream(28, n)
        _assert_same_estimate(est, helpers.norm0_mc_one_batch(
            observable_B, marginal, n_samples, whole))
        # rng is left where the whole batch leaves it
        assert rng.random() == whole.random()

    def test_states_are_not_held_all_at_once(self, ref_params):
        # 20000 states of 64 momenta are 10.2 MB; a block is 0.5 MiB
        norm0_B_mc(ref_params, 2000, substream(29, 0))
        tracemalloc.start()
        try:
            norm0_B_mc(ref_params, 20000, substream(29, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("n_samples", [100, 100_000])
    def test_moments_are_numpys_bit_for_bit(self, n_samples, monkeypatch):
        # squares from 1e-150 to 1e150, of both signs' roots, in a random
        # order: the in-place moments are np.mean and np.var(ddof=1)
        params = ModelParams(1, 1.0, 1.0, 10.0)
        marginal = build_marginal(params, grid_size=64)
        rng = substream(30, n_samples)
        v = (rng.choice([-1.0, 1.0], n_samples)
             * 10.0 ** rng.uniform(-75.0, 75.0, n_samples))
        v[:2] = 1e-75, 1e75
        rng.shuffle(v)
        blocks = iter(np.split(v, range(_MC_BLOCK, n_samples, _MC_BLOCK)))
        moments = []
        real = NormEstimate.from_moments.__func__

        def spy(cls, mean_sq, var_sq, n, which):
            moments.append((mean_sq, var_sq))
            return real(cls, mean_sq, var_sq, n, which)

        monkeypatch.setattr(NormEstimate, "from_moments", classmethod(spy))
        norm0_mc(lambda z: next(blocks), marginal, n_samples,
                 substream(31, 0))
        sq = v * v
        assert np.array_equal(_bits(moments),
                              _bits([[np.mean(sq), np.var(sq, ddof=1)]]))

    def test_moments_hold_no_second_sample_array(self, ref_params,
                                                 ref_marginal):
        # the values (0.8 MB) and one block of heights (0.5 MiB) are all
        # that 10^5 states of 64 heights need at once
        def run():
            return norm0_mc(lambda z: poisson_B_H0(z, ref_params),
                            ref_marginal, 100_000, substream(32, 0))

        run()
        _, peak = helpers.traced_peak(run)
        assert peak < 1.25 * 8 * (100_000 + _MC_BLOCK)

    def test_norm0_mc_rejects_small_samples(self, ref_params, ref_marginal):
        with pytest.raises(ValueError):
            norm0_mc(lambda z: np.ones(len(z)), ref_marginal, 50,
                     substream(8, 0))
        with pytest.raises(ValueError):
            norm0_B_mc(ref_params, 50, substream(8, 0))

    def test_overflowing_variance_is_refused(self, ref_marginal):
        # squares of 1e200 and 1 are finite, but their variance is not
        values = np.tile([1e100, 1.0], 50)
        with pytest.raises(ArithmeticError, match="overflow"):
            norm0_mc(lambda z: values[:len(z)], ref_marginal, 100,
                     substream(8, 1))

    def test_bracket_norm_quadrature_reference(self):
        marginal = build_marginal(ModelParams(1, 1.0, 1.0, 10.0), grid_size=64)
        assert norm0_poisson_B_H0_quadrature(marginal) == \
            pytest.approx(NORM_BRACKET_N1_REF, rel=1e-9)

    def test_bracket_norm_scales_as_sqrt_N(self):
        one, many = (norm0_poisson_B_H0_quadrature(
            build_marginal(ModelParams(n, 1.0, 1.0, 10.0), grid_size=64))
            for n in (1, 49))
        assert many == pytest.approx(7.0 * one, rel=1e-12)

    def test_bracket_norm_vs_mc(self, ref_params, ref_marginal):
        quad = norm0_poisson_B_H0_quadrature(ref_marginal)
        est = norm0_mc(lambda z: poisson_B_H0(z, ref_params), ref_marginal,
                       20000, substream(9, 0))
        assert abs(est.value - quad) <= 3.0 * est.std_error

    def test_bracket_norm_rejects_tilted_marginal(self, ref_marginal_tilted):
        with pytest.raises(ValueError, match="rho0"):
            norm0_poisson_B_H0_quadrature(ref_marginal_tilted)

    def test_cross_term_negative_everywhere(self, ref_params):
        z = np.linspace(-4.99, 4.99, 501)
        u = z + ref_params.half_box
        v = z - ref_params.half_box
        assert np.all(u ** -13.0 * v ** -13.0 < 0.0)

    def test_bracket_norm_analytic_chain(self, ref_params, ref_marginal):
        # wall terms bounded by (beta*delta)^(-23/12) Gamma(25/12), Z~ > L/4
        params = ref_params
        bound = math.sqrt(params.n_particles) * math.sqrt(2.0) * 12.0 \
            * params.delta_wall \
            * (params.beta * params.delta_wall) ** (-23.0 / 24.0) \
            * math.sqrt(gamma_function(25.0 / 12.0)) \
            * math.sqrt(4.0 / params.box_side)
        assert norm0_poisson_B_H0_quadrature(ref_marginal) <= bound


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

    @pytest.mark.parametrize("gamma", [gamma_h, gamma_tilde_h])
    def test_marginal_of_other_params_is_refused(self, gamma, ref_params):
        # gamma_h would give 1.86e-4 on the box-8 marginal, 3.33e-4 on its own
        with pytest.raises(ValueError, match="rho0 marginal of params"):
            gamma(ref_params, _box_marginal(8.0), 1e-3)

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
            lambda z: np.exp(t * z) * helpers.density(marginal, z), -5.0, 5.0)

        def integrand(z):
            ratio = np.exp(t * z) / m_t
            return (ratio - 1.0) ** 2 * helpers.density(marginal, z)

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
        assert abs(mc - gamma_h(params, marginal, params.field)) <= 3.0 * sem

    def test_gamma_tilde_mc_cross_check(self):
        params = ModelParams(4, 1.0, 1.0, 10.0, field=0.05)
        marginal = build_marginal(params)
        z = marginal.inverse_cdf(substream(11, 0).random((200000, 4)))
        a = params.beta * params.field * z.sum(axis=1)
        blocks_p = np.exp(a).reshape(20, -1).mean(axis=1)
        blocks_m = np.exp(-a).reshape(20, -1).mean(axis=1)
        est = blocks_p * blocks_m - 1.0
        mc, sem = est.mean(), est.std(ddof=1) / math.sqrt(len(est))
        assert abs(mc - gamma_tilde_h(params, marginal, params.field)) \
            <= 3.0 * sem


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

    def test_marginal_of_other_params_is_refused(self, ref_params):
        with pytest.raises(ValueError, match="rho0 marginal of params"):
            hoelder_certificate(ref_params, _box_marginal(8.0), 0.1, h=1e-3)

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
        # the momentum marginal is untouched by the tilt, so the norm of B
        # under rho1 at field h and under rho0 coincide up to sampling noise
        for i, h in enumerate((1e-1, 1e-2, 1e-3)):
            params = ModelParams(16, 1.0, 1.0, 10.0, field=h)
            est0 = norm0_B_mc(dataclasses.replace(params, field=0.0), 20000,
                              helpers.skip_heights(substream(12, 2 * i),
                                                   20000, 16))
            est1 = norm0_B_mc(params, 20000, helpers.skip_heights(
                substream(12, 2 * i + 1), 20000, 16))
            diff = est1.value ** 2 - est0.value ** 2
            sigma = 2.0 * math.hypot(est1.value * est1.std_error,
                                     est0.value * est0.std_error)
            assert abs(diff) <= 3.0 * sigma
            assert est1.which_measure == "rho1"
