import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import mgf_z, observable_B
from gasrelax import _kernel, gibbs, numerics
from gasrelax.bounds import eta_empirical
from gasrelax.gibbs import (_MAX_GRID, NormEstimate, _wall_breakpoints,
                            _weight, build_marginal, gamma_h, gamma_tilde_h,
                            hoelder_certificate, log_mgf_z, norm0_B_closed,
                            norm0_B_mc, norm0_mc,
                            norm0_poisson_B_H0_quadrature, sample_batch)
from gasrelax.model import ModelParams, poisson_B_H0
from gasrelax.numerics import _kronrod_panels, gamma_function, integrate_finite
from gasrelax.rng import philox_key, philox_state, substream

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

    @pytest.mark.parametrize("field", [0.0, -0.0])
    def test_tilt_by_a_zero_field_is_the_rho0_marginal(self, ref_params,
                                                        field):
        # displacement_norms builds the tilted marginal at every field: at
        # h = 0 it samples rho0 from the rho0 table, bit for bit
        params = dataclasses.replace(ref_params, field=field)
        plain = build_marginal(params)
        tilted = build_marginal(params, tilted=True)
        assert tilted.which_measure == "rho0"
        for name in ("z_tilde", "_table"):
            assert np.array_equal(_bits(getattr(tilted, name)),
                                  _bits(getattr(plain, name))), name

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
        assert np.all(np.isfinite(marginal._table[2]))
        u = np.concatenate([[0.0, 5e-324, 1e-300, 1e-200, 1e-16,
                             np.nextafter(1.0, 0.0)],
                            substream(16, 0).random(4096)])
        z = marginal.inverse_cdf(u)
        assert np.all(np.isfinite(z))
        assert np.all(np.abs(z) <= params.half_box)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


# (name, grid_size, tilted) of the tables checked bit for bit
TABLES = [("rho0", 2048, False), ("rho1", 2048, True), ("grid64", 64, False),
          ("grid300", 300, True)]


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
        want = helpers.inverse_table_reference(ref_params, grid_size, tilted)
        for mine, theirs in zip(marginal._table, want):
            assert np.array_equal(_bits(mine), _bits(theirs))

    def test_table_pass_holds_one_block_of_cells(self, ref_params):
        # all 2048 cells at once held 2.2 MB of nodes and integrand
        # temporaries; a block of _KRONROD_BLOCK cells needs an eighth, so
        # the guide table (256 KiB) is most of the peak
        build_marginal(ref_params)
        marginal, peak = helpers.traced_peak(lambda: build_marginal(
            ref_params))
        assert peak < 2 * marginal._guide.nbytes

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


def _philox(key, counter=0):
    """NumPy's Philox Generator of (key, counter)."""
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _assert_same_states(got, want):
    for mine, theirs in zip(got, want):
        assert mine.shape == theirs.shape
        assert np.array_equal(_bits(mine), _bits(theirs))


def _kernel_state(rng):
    """The kernel's 11 words (rng.philox_state) of the Philox Generator
    rng: key, counter, buffer and buffer position."""
    st = rng.bit_generator.state
    return np.array([*st["state"]["key"], *st["state"]["counter"],
                     *st["buffer"], st["buffer_pos"]], dtype=np.uint64)


@functools.lru_cache(maxsize=None)
def _small_marginal(n, tilted, beta=0.5):
    return build_marginal(ModelParams(n, beta, 1.0, 10.0, field=1e-2),
                          grid_size=256, tilted=tilted)


# keys of the kernel-draw checks: seeds and stream ids of every size
DRAW_KEYS = [philox_key(20261019, 0), philox_key(7, 3, 1),
             philox_key(2**64 - 1, 12)]


class TestKernelDraws:
    """The kernel's states are those of the NumPy draw it replaced (the
    Generator's uniforms, inverted, then its normals), bit for bit, and
    _states leaves its state where that draw leaves the Generator."""

    @pytest.mark.parametrize("key", DRAW_KEYS, ids=["k0", "k1", "k2"])
    @pytest.mark.parametrize("counter", [0, 2**64 - 3, 2**192 - 2,
                                         2**256 - 2],
                             ids=["0", "2^64-3", "2^192-2", "2^256-2"])
    @pytest.mark.parametrize("buffer_pos", range(5))
    def test_any_start_state(self, key, counter, buffer_pos):
        # the counter carries into its next words, or wraps, within the
        # draw; the buffer holds the stream's first block, read up to
        # buffer_pos (0: none of it, 4: all)
        oracle = _philox(key, counter)
        oracle.bit_generator.random_raw(4)
        st = oracle.bit_generator.state
        st["buffer_pos"] = buffer_pos
        oracle.bit_generator.state = st
        state = _kernel_state(oracle)
        marginal = _small_marginal(3, True)
        got = gibbs._states(marginal, 7, state)
        _assert_same_states(got, helpers.sample_batch_reference(
            marginal, oracle, 7))
        assert np.array_equal(state, _kernel_state(oracle))

    # the momentum scale 1 / sqrt(beta) is neither that of a dropped beta
    # nor of an inverted one, and at beta 0.5 one ulp below sqrt(1 / 0.5)
    @pytest.mark.parametrize("tilted, beta", [(False, 0.5), (True, 0.5),
                                              (True, 0.3)],
                             ids=["rho0", "rho1", "rho1-beta0.3"])
    @pytest.mark.parametrize("rows", [1, 7, 1024])
    @pytest.mark.parametrize("n", [1, 3, 64, 600])
    def test_every_shape(self, n, rows, tilted, beta):
        # rows of one value, rows longer than the kernel's chunk of heights,
        # and shard-sized batches
        marginal = _small_marginal(n, tilted, beta)
        state, oracle = philox_state(DRAW_KEYS[0]), _philox(DRAW_KEYS[0])
        got = gibbs._states(marginal, rows, state)
        _assert_same_states(got, helpers.sample_batch_reference(
            marginal, oracle, rows))
        assert np.array_equal(state, _kernel_state(oracle))

    @pytest.mark.parametrize("n, rows, zeros", [
        (64, 7, [0]), (64, 7, [4, 5]), (3, 34, [100, 102]), (600, 1, [601]),
        (1, 3, [1, 3])])
    def test_planted_zero(self, n, rows, zeros):
        # each 0.0 is skipped: the heights are the stream's first rows * n
        # values that are not 0.0, in order (at 3 x 34 the heights end at
        # value 103, past both zeros), and the momenta follow
        key = DRAW_KEYS[1]
        counter = helpers.philox_counter_with_zeros(key, zeros)
        assert np.flatnonzero(_philox(key, counter).random(rows * n + 4)
                              == 0.0).tolist() == zeros
        marginal = _small_marginal(n, False)
        state, oracle = philox_state(key, counter), _philox(key, counter)
        got = gibbs._states(marginal, rows, state)
        assert np.all(np.abs(got[0]) < marginal.params.half_box)
        _assert_same_states(got, helpers.sample_batch_reference(
            marginal, oracle, rows))
        assert np.array_equal(state, _kernel_state(oracle))

    def test_ziggurat_tail_and_wedges(self, ref_marginal):
        # 1.02e6 unit normals: only the tail branch of NumPy's ziggurat
        # returns a value beyond its edge r (ziggurat_nor_r), so equal bits
        # past it show that the tail ran, and about 1 % of the draws take
        # the exp wedge test
        state, oracle = philox_state(DRAW_KEYS[2]), _philox(DRAW_KEYS[2])
        z, p = gibbs._states(ref_marginal, 16000, state)
        assert p.size >= 1_000_000
        assert np.abs(p).max() > 3.6541528853610088
        _assert_same_states((z, p), helpers.sample_batch_reference(
            ref_marginal, oracle, 16000))
        assert np.array_equal(state, _kernel_state(oracle))

    def test_sample_batch_keys_a_stream_with_two_raw_words(self,
                                                            ref_marginal):
        # the states of _states on the key of rng's next two raw words, and
        # rng moved on by those two words alone
        rng, twin = substream(23, 0), substream(23, 0)
        got = sample_batch(ref_marginal, rng, 5)
        _assert_same_states(got, gibbs._states(
            ref_marginal, 5, philox_state(twin.bit_generator.random_raw(2))))
        assert np.array_equal(_kernel_state(rng), _kernel_state(twin))


class TestSampling:
    def test_state_inside_box(self, ref_marginal, ref_params):
        z, p = sample_batch(ref_marginal, substream(1, 0), 3)
        assert z.shape == p.shape == (3, ref_params.n_particles)
        assert np.all(np.abs(z) < ref_params.half_box)

    def test_draws_without_a_zero_are_unchanged(self, ref_marginal,
                                                ref_params):
        z, p = gibbs._states(ref_marginal, 500,
                             philox_state(philox_key(17, 0)))
        rng = substream(17, 0)
        u = rng.random((500, ref_params.n_particles))
        assert u.min() > 0.0
        assert np.array_equal(_bits(z), _bits(ref_marginal.inverse_cdf(u)))
        assert np.array_equal(_bits(p), _bits(rng.normal(
            0.0, 1.0, (500, ref_params.n_particles))))

    def test_zero_uniform_is_redrawn(self, ref_marginal, ref_params):
        # inverse_cdf(0.0) is the wall itself; zeros planted by the start
        # counter at flat indices 1 and 2 are skipped, so the 2 x 64 heights
        # are the stream's first 128 nonzero values, and the momenta follow
        assert ref_marginal.inverse_cdf(0.0) == -ref_params.half_box
        key = philox_key(18, 0)
        counter = helpers.philox_counter_with_zeros(key, [1, 2])
        assert np.flatnonzero(_philox(key, counter).random(128) == 0.0
                              ).tolist() == [1, 2]
        state = philox_state(key, counter)
        z, p = gibbs._states(ref_marginal, 2, state)
        assert np.all(np.abs(z) < ref_params.half_box)
        oracle = _philox(key, counter)
        _assert_same_states((z, p), helpers.sample_batch_reference(
            ref_marginal, oracle, 2))
        assert np.array_equal(state, _kernel_state(oracle))

    def test_momentum_moments(self, ref_marginal, ref_params):
        # variance 1 / beta, from the kinetic Boltzmann factor exp(-beta p^2/2)
        wide = ModelParams(64, 0.25, 1.0, 10.0, field=1e-3)
        for marginal in (ref_marginal, build_marginal(wide, grid_size=256)):
            params = marginal.params
            z, p = sample_batch(marginal, substream(2, 0), 16000)
            draws = p.ravel()  # ~1e6 independent Gaussians
            n = draws.size
            sem = draws.std() / math.sqrt(n)
            assert abs(draws.mean()) < 4.0 * sem
            var = helpers.gaussian_moment(2, params.beta)
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


class TestInverseCdfBitwise:
    """The guide-table lookup gives the bits of a binary search over all knots."""

    def test_knots_cell_edges_and_out_of_range(self, any_marginal):
        knots = any_marginal._table[0]
        cells = helpers.guide_cells()
        edges = np.arange(cells + 1) / cells
        u = np.concatenate([
            [0.0, -0.0, np.nextafter(1.0, 0.0), 1.0, -0.5, 1.5, np.nan],
            knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
            edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
        _assert_same_bits(any_marginal, u)

    def test_shapes_and_chunk_boundaries(self, any_marginal):
        rng = substream(14, 0)
        chunk = helpers.block()
        for shape in [(chunk - 1,), (chunk,), (chunk + 1,), (), (300, 64)]:
            _assert_same_bits(any_marginal, rng.random(shape))

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=64))
    def test_property_near_unit_interval(self, ref_marginal, values):
        _assert_same_bits(ref_marginal, np.array(values))

    def test_fortran_and_strided_inputs(self, any_marginal):
        u = substream(20, 0).random((96, 64))
        fortran = np.asfortranarray(u)
        for view in (fortran, u[::3, 1::2], u.T, fortran[5:70:2]):
            _assert_same_bits(any_marginal, view)
            assert any_marginal.inverse_cdf(view).flags.c_contiguous

    def test_infinities_and_smallest_subnormal(self, any_marginal):
        tiny = np.nextafter(0.0, 1.0)
        _assert_same_bits(any_marginal, np.array(
            [np.inf, -np.inf, tiny, -tiny, 2 * tiny, np.nextafter(tiny, 0.0)]))

    def test_tables_are_checked_before_the_kernel_reads_them(
            self, ref_marginal, monkeypatch):
        # a table without its tangents, and one read backwards: refused
        # before guide_table runs, so the kernel never reads them
        table = ref_marginal._table
        monkeypatch.setattr(_kernel, "library", _no_kernel)
        for bad in (table[:2], table[:, ::-1]):
            with pytest.raises(ValueError, match="inverse-CDF table"):
                dataclasses.replace(ref_marginal, _table=bad)

    @pytest.mark.parametrize("box_side", [5.0, 15.0])
    def test_subnormal_cdf_increments_are_covered(self, box_side):
        # the L5 and L15 marginals checked above have a knot interval of
        # subnormal width (about 1e-313) next to each wall; L20 has none,
        # its narrowest is about 3e-271
        widths = np.diff(_box_marginal(box_side)._table[0])
        assert 0.0 < widths.min() < np.finfo(float).tiny


class TestGuideTable:
    def test_grid_past_int32_is_refused(self, ref_params, monkeypatch):
        # the guide table holds bracket indices below grid_size as int32;
        # the refusal comes before any table is built
        def no_quadrature(*args, **kwargs):
            raise AssertionError("a refused grid is not tabulated")

        monkeypatch.setattr(gibbs, "integrate_finite", no_quadrature)
        assert _MAX_GRID == np.iinfo(np.int32).max
        for grid_size in (_MAX_GRID + 1, 2**40):
            with pytest.raises(ValueError, match="grid_size"):
                build_marginal(ref_params, grid_size)

    @pytest.mark.parametrize("tilted", [False, True], ids=["rho0", "rho1"])
    @pytest.mark.parametrize("grid_size", [64, 2047, 2048, 32768])
    def test_equals_one_shot_search_within_its_own_size(self, grid_size,
                                                        tilted):
        # the kernel's merge pass gives the bits of a binary search for
        # every cell edge, with no second table-sized array on the way; the
        # boxes of 5 and 15 have knot intervals of subnormal width
        for box_side in (5.0, 10.0, 15.0, 20.0):
            params = ModelParams(64, 1.0, 1.0, box_side, field=1e-3)
            marginal = build_marginal(params, grid_size, tilted)
            rebuilt, peak = helpers.traced_peak(
                lambda: dataclasses.replace(marginal))
            want = helpers.guide_table_one_shot(marginal._table[0])
            for guide in (marginal._guide, rebuilt._guide):
                assert guide.dtype == np.int32
                assert guide.shape == (helpers.guide_cells(),)
                assert np.array_equal(guide, want)
            assert peak < 1.25 * rebuilt._guide.nbytes

    @pytest.mark.parametrize("knots", [
        lambda cells: [0.0, 0.25, 0.5, 1.0], lambda cells: [0.0, 1.0],
        lambda cells: [0.25, 0.5, 1.0],
        lambda cells: [0.0, 1.0 / cells, 2.0 / cells, 0.5, 1.0],
        lambda cells: [0.0, np.nextafter(0.5, 0.0), 0.5,
                       np.nextafter(0.5, 1.0), 1.0]],
        ids=["quarters", "two_knots", "first_knot_past_0", "first_cells",
             "around_one_half"])
    def test_knots_on_cell_edges(self, ref_params, knots):
        # a knot on a cell's left edge is that cell's bracket; one just
        # below or above it is not
        inv_u = np.array(knots(helpers.guide_cells()))
        table = np.stack((inv_u, np.linspace(-1.0, 1.0, inv_u.size),
                          np.ones(inv_u.size)))
        marginal = gibbs.WallMarginal(ref_params, 0.0, 1.0, table)
        assert np.array_equal(marginal._guide,
                              helpers.guide_table_one_shot(inv_u))

    def test_guide_is_not_an_argument(self, ref_marginal):
        # it is built from the marginal's own knots, so none can be given
        with pytest.raises(ValueError, match="_guide"):
            dataclasses.replace(ref_marginal, _guide=ref_marginal._guide)
        with pytest.raises(TypeError, match="_guide"):
            gibbs.WallMarginal(ref_marginal.params, 0.0, 1.0,
                               ref_marginal._table,
                               _guide=ref_marginal._guide)

    def test_swapped_tables_draw_from_their_own_knots(self, ref_marginal,
                                                      ref_marginal_tilted):
        # the rho0 table in the rho1 marginal: its guide follows it, so
        # every draw is the inverse of the knots it now holds
        swapped = dataclasses.replace(ref_marginal_tilted,
                                      _table=ref_marginal._table)
        u = substream(30, 0).random(1 << 20)
        assert np.array_equal(_bits(swapped.inverse_cdf(u)), _bits(
            helpers.inverse_cdf_searchsorted(swapped, u)))
        assert np.array_equal(swapped._guide, ref_marginal._guide)


def _no_kernel():
    raise AssertionError("a refused table reaches no kernel")


@pytest.mark.parametrize("table", [
    lambda t: np.zeros_like(t, dtype=np.float32),
    lambda t: np.repeat(t, 2, axis=1)[:, ::2],
    lambda t: t[:, :1].copy(),
    lambda t: t[:2].copy(),
    lambda t: np.vstack((t, t[:1])),
    lambda t: np.asfortranarray(t),
], ids=["float32_knots", "strided_heights", "single_knot", "two_rows",
        "four_rows", "fortran_order"])
def test_wall_marginal_refuses_inconsistent_tables(ref_marginal, table,
                                                   monkeypatch):
    # the C kernels read the table through one bare pointer; as built, it
    # passes, and a refused one is never handed to guide_table
    dataclasses.replace(ref_marginal)
    monkeypatch.setattr(_kernel, "library", _no_kernel)
    with pytest.raises(ValueError, match=r"the inverse-CDF table must be a "
                                         r"C-ordered float64 array of shape "
                                         r"\(3, k\), k >= 2"):
        dataclasses.replace(ref_marginal, _table=table(ref_marginal._table))


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

    def test_norm0_mc_of_B_matches_gaussian_moment(self, ref_params):
        # E[B^2] = N * Var(p) = N / beta exactly
        est = norm0_B_mc(ref_params, 20000, philox_key(7, 0))
        exact = math.sqrt(ref_params.n_particles / ref_params.beta)
        assert abs(est.value - exact) <= 3.0 * est.std_error

    def test_norm0_mc_equals_per_state_loop(self, ref_params, ref_marginal):
        # one batched call gives the bits of evaluating state by state
        est = norm0_mc(ref_marginal, 2000, philox_key(13, 0))
        z, _ = gibbs._states(ref_marginal, 2000,
                             philox_state(philox_key(13, 0)))
        sq = np.array([float(poisson_B_H0(z[i], ref_params)) ** 2
                       for i in range(2000)])
        assert est.value == math.sqrt(float(np.mean(sq)))

    def test_norm0_mc_without_momenta_is_unchanged(self, ref_params,
                                                   ref_marginal):
        # the heights of a whole _states draw with its momenta, from the
        # same key
        est = norm0_mc(ref_marginal, 2000, philox_key(22, 0))
        z, _ = gibbs._states(ref_marginal, 2000,
                             philox_state(philox_key(22, 0)))
        sq = poisson_B_H0(z, ref_params) ** 2
        _assert_same_estimate(est, NormEstimate.from_moments(
            float(np.mean(sq)), float(np.var(sq, ddof=1)), 2000, "rho0"))
        assert est.which_measure == "rho0"

    @pytest.mark.parametrize("n, n_samples", [(64, 2500), (7, 20000),
                                              (300, 1000), (600, 300)])
    def test_heights_only_blocks_equal_one_batch(self, n, n_samples):
        # the kernel's chunks of whole rows, and rows longer than a chunk,
        # give the bits of drawing, inverting and evaluating the whole batch
        # at once
        params = ModelParams(n, 1.0, 1.0, 10.0)
        marginal = build_marginal(params, grid_size=256)
        est = norm0_mc(marginal, n_samples, philox_key(25, n))
        u = substream(25, n).random((n_samples, n))
        assert u.min() > 0.0
        _assert_same_estimate(est, _one_batch_estimate(marginal, u))

    @pytest.mark.parametrize("n", [1, 3, 64, 130])
    def test_equals_the_blocked_norm_of_any_observable(self, n):
        # 1001 rows are no whole number of the kernel's chunks for any n
        params = ModelParams(n, 1.0, 1.0, 10.0, field=1e-3)
        chunk = helpers.block()
        assert 1001 % (chunk // n) != 0
        for marginal in (build_marginal(params, grid_size=256),
                         build_marginal(params, grid_size=256, tilted=True)):
            est = norm0_mc(marginal, 1001, philox_key(27, n))
            want = helpers.norm0_mc_blocks(
                lambda z: poisson_B_H0(z, params), marginal, 1001,
                substream(27, n))
            _assert_same_estimate(est, want)
            assert est.which_measure == marginal.which_measure

    @pytest.mark.parametrize("n, rows, zeros", [
        (64, 2000, [5]), (64, 2000, [4, 5]), (3, 34, [100, 102]),
        (600, 2, [601])])
    def test_zero_uniform_takes_the_next_unused_value(self, n, rows, zeros):
        # zeros planted by the start counter, all in one Philox block, are
        # skipped: the slot of a 0.0 takes the next value of the stream, so
        # the heights are its first rows * n nonzero values, in order (at
        # 3 x 34 they end at value 103, past both zeros)
        params = ModelParams(n, 1.0, 1.0, 10.0)
        marginal = build_marginal(params, grid_size=256)
        key = philox_key(26, n)
        counter = helpers.philox_counter_with_zeros(key, zeros)
        u = _philox(key, counter).random(rows * n + 8)
        assert np.array_equal(np.flatnonzero(u == 0.0), zeros)
        want = poisson_B_H0(helpers.inverse_cdf_searchsorted(
            marginal, helpers.open_uniforms(_philox(key, counter),
                                            (rows, n))), params)
        got = helpers.kernel_force_sums(marginal, philox_state(key, counter),
                                        rows)
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("n, a, b, zeros", [
        (64, 3, 5, [5]), (64, 1, 1, [62, 63]), (3, 34, 10, [100]),
        (600, 1, 2, [1])])
    def test_a_zero_moves_no_later_row(self, n, a, b, zeros):
        # a 0.0 planted in the first a rows: one call of a + b rows gives the
        # bits of a call of a rows and then one of b rows on the same state,
        # which both leave at one place in the stream
        params = ModelParams(n, 1.0, 1.0, 10.0)
        marginal = build_marginal(params, grid_size=256)
        key = philox_key(33, n)
        counter = helpers.philox_counter_with_zeros(key, zeros)
        assert max(zeros) < a * n
        whole = philox_state(key, counter)
        split = philox_state(key, counter)
        got = helpers.kernel_force_sums(marginal, whole, a + b)
        want = np.concatenate((helpers.kernel_force_sums(marginal, split, a),
                               helpers.kernel_force_sums(marginal, split, b)))
        assert np.array_equal(_bits(got), _bits(want))
        assert np.array_equal(whole, split)

    @pytest.mark.parametrize("n, n_samples, beta", [
        (64, 20000, 0.5), (7, 20000, 0.5), (300, 1000, 0.5), (64, 1000, 0.3),
        (1, 101, 0.5), (5, 102, 0.5), (7, 101, 0.5)],
        ids=["64-20000", "7-20000", "300-1000", "64-1000-beta0.3", "1-101",
             "5-102", "7-101"])
    def test_momenta_blocks_equal_one_batch(self, n, n_samples, beta):
        # momenta drawn and summed a row at a time, past the heights of a
        # whole batch, give the bits of that batch's norm of B; the heights
        # end 0, 0, 0, 0, 1, 2 and 3 values into a Philox block of 4
        params = ModelParams(n, beta, 1.0, 10.0, field=1e-3)
        marginal = build_marginal(params, grid_size=256, tilted=True)
        est = norm0_B_mc(params, n_samples, philox_key(28, n))
        _assert_same_estimate(est, helpers.norm0_mc_one_batch(
            observable_B, marginal, n_samples, substream(28, n)))
        assert est.which_measure == "rho1"

    def test_states_are_not_held_all_at_once(self, ref_params):
        # 20000 states of 64 momenta are 10.2 MB; the kernel draws one row
        # at a time, so the values are all that the norm allocates
        def run():
            return norm0_B_mc(ref_params, 20000, philox_key(29, 0))

        run()
        _, peak = helpers.traced_peak(run)
        assert peak <= 8 * 20000 + 4096

    @pytest.mark.parametrize("n_samples", [100, 100_000])
    def test_moments_are_numpys_bit_for_bit(self, n_samples, monkeypatch):
        # squares from 1e-150 to 1e150, of both signs' roots, in a random
        # order: the in-place moments are np.mean and np.var(ddof=1)
        rng = substream(30, n_samples)
        v = (rng.choice([-1.0, 1.0], n_samples)
             * 10.0 ** rng.uniform(-75.0, 75.0, n_samples))
        v[:2] = 1e-75, 1e75
        rng.shuffle(v)
        moments = []
        real = NormEstimate.from_moments.__func__

        def spy(cls, mean_sq, var_sq, n, which):
            moments.append((mean_sq, var_sq))
            return real(cls, mean_sq, var_sq, n, which)

        monkeypatch.setattr(NormEstimate, "from_moments", classmethod(spy))
        NormEstimate.from_values(v.copy(), "rho0")
        sq = v * v
        assert np.array_equal(_bits(moments),
                              _bits([[np.mean(sq), np.var(sq, ddof=1)]]))

    def test_moments_hold_no_second_sample_array(self, ref_marginal):
        # the values (0.8 MB) are all that 10^5 states of 64 heights need
        # at once: no block of heights, no second sample array
        def run():
            return norm0_mc(ref_marginal, 100_000, philox_key(32, 0))

        run()
        _, peak = helpers.traced_peak(run)
        assert peak <= 8 * 100_000 + 4096

    def test_norm0_mc_rejects_small_samples(self, ref_params, ref_marginal):
        with pytest.raises(ValueError):
            norm0_mc(ref_marginal, 50, philox_key(8, 0))
        with pytest.raises(ValueError):
            norm0_B_mc(ref_params, 50, philox_key(8, 0))

    def test_norm0_mc_rejects_a_malformed_key(self, ref_marginal):
        with pytest.raises(ValueError, match="key"):
            norm0_mc(ref_marginal, 1000, philox_key(8, 0)[:1])

    def test_heights_outside_the_box_are_refused(self, ref_marginal):
        # knots stretched past the walls: the kernel counts the heights
        # outside, as poisson_B_H0 does
        table = ref_marginal._table.copy()
        table[1] *= 2.0
        wide = dataclasses.replace(ref_marginal, _table=table)
        with pytest.raises(ValueError, match="outside the open box"):
            norm0_mc(wide, 1000, philox_key(8, 2))

    @pytest.mark.parametrize("value, std_error, n_samples", [
        (math.nan, 0.1, 10), (1.0, math.nan, 10), (1.0, 0.1, 0),
        (0.0, 0.0, -3), (math.nan, math.nan, 0)])
    def test_an_estimate_of_nan_or_no_samples_is_refused(
            self, value, std_error, n_samples):
        with pytest.raises(ValueError):
            NormEstimate(value, std_error, n_samples)

    def test_overflowing_variance_is_refused(self, ref_marginal):
        # squares of 1e200 and 1 are finite, but their variance is not
        values = np.tile([1e100, 1.0], 50)
        with pytest.raises(ArithmeticError, match="overflow"):
            NormEstimate.from_values(values, ref_marginal.which_measure)

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
        est = norm0_mc(ref_marginal, 20000, philox_key(9, 0))
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


@pytest.mark.parametrize("compute", [
    lambda m: gamma_h(m, 1e-3),
    lambda m: gamma_tilde_h(m, 1e-3),
    lambda m: hoelder_certificate(m, 0.1, h=1e-3),
    lambda m: eta_empirical(m, 2000, philox_key(27, 0)),
    norm0_poisson_B_H0_quadrature,
], ids=["gamma_h", "gamma_tilde_h", "hoelder_certificate", "eta_empirical",
        "norm0_poisson_B_H0_quadrature"])
def test_rho0_computations_refuse_a_tilted_marginal(compute,
                                                     ref_marginal_tilted):
    # each is a property of rho0, the measure of the untilted marginal
    with pytest.raises(ValueError, match="rho0"):
        compute(ref_marginal_tilted)


class TestGammaDivergences:
    def test_zero_field(self, ref_marginal):
        assert gamma_h(ref_marginal, 0.0) == 0.0
        assert gamma_tilde_h(ref_marginal, 0.0) == 0.0

    def test_nonnegative_and_monotone(self, ref_marginal):
        grid = np.geomspace(1e-5, 1e-1, 9)
        gam = [gamma_h(ref_marginal, h) for h in grid]
        gtl = [gamma_tilde_h(ref_marginal, h) for h in grid]
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
        assert gamma_h(marginal, 0.3) == pytest.approx(direct, rel=1e-8)

    def test_gamma_mc_cross_check(self):
        params = ModelParams(4, 1.0, 1.0, 10.0, field=0.05)
        marginal = build_marginal(params)
        z = marginal.inverse_cdf(substream(10, 0).random((200000, 4)))
        w = np.exp(params.beta * params.field * z.sum(axis=1))
        blocks = w.reshape(20, -1)
        est = blocks.mean(axis=1) ** -2 * (blocks ** 2).mean(axis=1) - 1.0
        mc, sem = est.mean(), est.std(ddof=1) / math.sqrt(len(est))
        assert abs(mc - gamma_h(marginal, params.field)) <= 3.0 * sem

    def test_gamma_tilde_mc_cross_check(self):
        params = ModelParams(4, 1.0, 1.0, 10.0, field=0.05)
        marginal = build_marginal(params)
        z = marginal.inverse_cdf(substream(11, 0).random((200000, 4)))
        a = params.beta * params.field * z.sum(axis=1)
        blocks_p = np.exp(a).reshape(20, -1).mean(axis=1)
        blocks_m = np.exp(-a).reshape(20, -1).mean(axis=1)
        est = blocks_p * blocks_m - 1.0
        mc, sem = est.mean(), est.std(ddof=1) / math.sqrt(len(est))
        assert abs(mc - gamma_tilde_h(marginal, params.field)) <= 3.0 * sem


class TestExponentialMoment:
    """K = max over signs of E[exp(+/- delta_moment A)] in the certificate."""

    def test_small_exponent_limit(self, ref_marginal):
        cert = hoelder_certificate(ref_marginal, 1e-8, h=0.0)
        assert cert.k == pytest.approx(1.0, abs=1e-6)

    def test_at_least_one(self, ref_marginal):
        for dm in (0.01, 0.1, 0.5):
            assert hoelder_certificate(ref_marginal, dm, h=0.0).k >= 1.0

    def test_reference_value(self):
        params = ModelParams(4, 1.0, 1.0, 10.0)
        cert = hoelder_certificate(build_marginal(params), 0.1, h=0.0)
        assert cert.k == pytest.approx(K_N4_DM01_REF, rel=1e-9)

    def test_validation(self, ref_marginal):
        with pytest.raises(ValueError):
            hoelder_certificate(ref_marginal, 0.0, h=0.0)


class TestHoelderCertificate:
    def test_zero_field(self, ref_marginal):
        cert = hoelder_certificate(ref_marginal, 0.1, h=0.0)
        assert cert.gamma == 0.0
        assert cert.hoelder_bound == 1.0
        assert cert.ok

    @pytest.mark.parametrize("n", [4, 16])
    @pytest.mark.parametrize("h", [1e-4, 1e-3])
    def test_small_field_family(self, n, h):
        params = ModelParams(n, 1.0, 1.0, 10.0)
        marginal = build_marginal(params)
        cert = hoelder_certificate(marginal, 0.1, h=h)
        assert cert.bound_holds
        assert cert.ok
        assert 1.0 + cert.gamma <= cert.hoelder_bound * (1.0 + 1e-12)

    def test_epsilon_threshold(self, ref_marginal):
        epsilon = 0.01
        probe = hoelder_certificate(ref_marginal, 0.1, h=0.0, epsilon=epsilon)
        h = 0.9 * probe.h_threshold
        cert = hoelder_certificate(ref_marginal, 0.1, h=h, epsilon=epsilon)
        assert cert.h_below_threshold
        assert cert.gamma < epsilon
        assert cert.ok

    def test_precondition(self, ref_marginal):
        with pytest.raises(ValueError):
            hoelder_certificate(ref_marginal, 0.1, h=0.06)

    @pytest.mark.parametrize("delta_moment", [math.inf, math.nan])
    def test_delta_moment_must_be_finite(self, ref_marginal, delta_moment):
        with pytest.raises(ValueError, match="strictly positive and finite"):
            hoelder_certificate(ref_marginal, delta_moment, h=1e-3)

    @pytest.mark.parametrize("epsilon", [-0.5, 0.0, math.inf, math.nan])
    def test_epsilon_must_be_positive_and_finite(self, ref_marginal,
                                                 epsilon):
        # -0.5 gave a negative threshold, 0 and inf a certificate that
        # passed, NaN one that failed without a word
        with pytest.raises(ValueError, match="^epsilon must be strictly "
                                             "positive and finite$"):
            hoelder_certificate(ref_marginal, 0.1, h=1e-3, epsilon=epsilon)


class TestNormEquivalence:
    def test_B_norms_agree_as_field_vanishes(self):
        # the momentum marginal is untouched by the tilt, so the norm of B
        # under rho1 at field h and under rho0 coincide up to sampling noise
        for i, h in enumerate((1e-1, 1e-2, 1e-3)):
            params = ModelParams(16, 1.0, 1.0, 10.0, field=h)
            est0 = norm0_B_mc(dataclasses.replace(params, field=0.0), 20000,
                              philox_key(12, 2 * i))
            est1 = norm0_B_mc(params, 20000, philox_key(12, 2 * i + 1))
            diff = est1.value ** 2 - est0.value ** 2
            sigma = 2.0 * math.hypot(est1.value * est1.std_error,
                                     est0.value * est0.std_error)
            assert abs(diff) <= 3.0 * sigma
            assert est1.which_measure == "rho1"
