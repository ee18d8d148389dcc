import math

import numpy as np
import pytest

import helpers
from helpers import observable_A, observable_B
from gasrelax.gibbs import sample_batch
from gasrelax.model import (ModelParams, poisson_B_H0, wall_force,
                            wall_potential)
from gasrelax.rng import substream

NARROW = ModelParams(n_particles=1, beta=1.0, delta_wall=1.0, box_side=2.0)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.fixture(scope="module")
def shard(ref_marginal):
    """One sampled 1024 x 64 shard (z, p), the size _evolve_batch runs."""
    return sample_batch(ref_marginal, substream(16, 0), 1024)


class TestModelParams:
    def test_field_zero_allowed(self):
        p = ModelParams(1, 1.0, 1.0, 1.0, field=0.0)
        assert p.field == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(n_particles=0),
        dict(n_particles=-3),
        dict(beta=0.0),
        dict(beta=-1.0),
        dict(delta_wall=0.0),
        dict(box_side=-2.0),
        dict(field=-1e-9),
        dict(beta=float("inf")),
        dict(box_side=float("nan")),
        dict(delta_wall=float("inf")),
        dict(field=float("inf")),
        dict(n_particles=64.0),
        dict(n_particles=True),
    ])
    def test_invalid(self, kwargs):
        base = dict(n_particles=4, beta=1.0, delta_wall=1.0, box_side=10.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ModelParams(**base)

    def test_bound_regime(self):
        assert ModelParams(1, 1.0, 1.0, 10.0).bound_regime
        # (beta*delta)^(1/12) = 1 is not below 2/3
        assert not ModelParams(1, 1.0, 1.0, 2.0).bound_regime


class TestWallPotential:
    def test_center_of_narrow_box(self):
        assert wall_potential(0.0, NARROW) == 2.0

    def test_off_center(self):
        # (1.5)^-12 + (0.5)^-12 by direct arithmetic
        assert wall_potential(0.5, NARROW) == pytest.approx(4096.0077073466293,
                                                            rel=1e-12)

    def test_divergence_near_wall(self):
        val = wall_potential(0.999 * NARROW.half_box, NARROW)
        assert val > 1e30 * NARROW.delta_wall / NARROW.box_side ** 12

    def test_domain_error(self):
        for z in (1.0, -1.0, 1.2, np.nan, [0.0, np.nan]):
            with pytest.raises(ValueError, match="outside the open box"):
                wall_potential(z, NARROW)

    def test_symmetry_and_positivity(self):
        z = np.linspace(-0.99, 0.99, 101)
        v = wall_potential(z, NARROW)
        assert np.all(v > 0.0)
        assert np.array_equal(v, wall_potential(-z, NARROW))

    def test_minimum_at_center(self):
        z = np.linspace(-0.95, 0.95, 1901)
        v = wall_potential(z, NARROW)
        assert np.argmin(v) == 950

    def test_bitwise_equal_to_allocating_expression(self, ref_params, shard):
        z, _ = shard
        narrow_z = np.linspace(-0.999, 0.999, 1999)
        for params, zz in ((ref_params, z), (NARROW, narrow_z),
                           (NARROW, narrow_z[::3])):
            assert np.array_equal(
                _bits(wall_potential(zz, params)),
                _bits(helpers.wall_potential_reference(zz, params)))
        assert wall_potential(4.99, ref_params) == \
            float(helpers.wall_potential_reference(4.99, ref_params))


class TestWallForce:
    def test_zero_at_center(self):
        assert wall_force(0.0, NARROW) == 0.0

    def test_off_center(self):
        # 12 * (1.5^-13 - 0.5^-13)
        assert wall_force(0.5, NARROW) == pytest.approx(-98303.93834122697,
                                                        rel=1e-12)

    def test_antisymmetry(self):
        z = np.linspace(-0.9, 0.9, 37)
        assert np.array_equal(wall_force(-z, NARROW), -wall_force(z, NARROW))

    def test_restoring_sign(self):
        assert wall_force(-0.4, NARROW) > 0.0
        assert wall_force(0.4, NARROW) < 0.0

    def test_bitwise_equal_to_allocating_expression(self, ref_params,
                                                     ref_marginal):
        z, _ = sample_batch(ref_marginal, substream(15, 0), 256)
        narrow_z = np.linspace(-0.99, 0.99, 199)
        for params, zz in ((ref_params, z), (NARROW, narrow_z)):
            assert np.array_equal(
                wall_force(zz, params).view(np.int64),
                helpers.wall_force_reference(zz, params).view(np.int64))
        assert wall_force(4.99, ref_params) == \
            float(helpers.wall_force_reference(4.99, ref_params))

    def test_domain_error(self):
        for z in (1.0, -1.0, -1.2, np.nan, [0.0, np.nan]):
            with pytest.raises(ValueError, match="outside the open box"):
                wall_force(z, NARROW)

    def test_matches_potential_gradient(self):
        eps = 1e-7
        z = 0.3
        fd = (wall_potential(z - eps, NARROW) - wall_potential(z + eps, NARROW)) \
            / (2.0 * eps)
        assert wall_force(z, NARROW) == pytest.approx(fd, rel=1e-6)


class TestObservables:
    def test_trivial_sums(self):
        z, p = np.array([0.1, -0.1, 0.3]), np.array([1.0, -2.0, 0.5])
        assert observable_A(z, p) == pytest.approx(0.3)
        assert observable_B(z, p) == pytest.approx(-0.5)
        zero = np.zeros(3)
        assert observable_A(zero, zero) == 0.0
        assert observable_B(zero, zero) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        z = rng.uniform(-4.0, 4.0, 8)
        p = rng.normal(size=8)
        perm = rng.permutation(8)
        zp, pp = z[perm], p[perm]
        assert observable_A(z, p) == pytest.approx(observable_A(zp, pp))
        assert observable_B(z, p) == pytest.approx(observable_B(zp, pp))

    def test_batch_rows_equal_single_states(self):
        # one value per row, bitwise equal to evaluating each row alone
        params = ModelParams(64, 1.0, 1.0, 10.0)
        rng = np.random.default_rng(5)
        z = rng.uniform(-4.5, 4.5, (7, 64))
        p = rng.normal(size=(7, 64))
        batched = [observable_A(z, p), observable_B(z, p),
                   poisson_B_H0(z, params)]
        for values in batched:
            assert values.shape == (7,)
        for i in range(7):
            single = [observable_A(z[i], p[i]), observable_B(z[i], p[i]),
                      poisson_B_H0(z[i], params)]
            for values, one in zip(batched, single):
                assert values[i] == one

    def test_B_is_time_derivative_of_A(self):
        params = ModelParams(4, 1.0, 1.0, 10.0)
        rng = np.random.default_rng(11)
        z, p = rng.uniform(-3.0, 3.0, 4), rng.normal(size=4)
        dt = 1e-5
        z_fwd, p_fwd = helpers.verlet_steps(z, p, params, 0.0, dt, 1)
        z_rev, p_rev = helpers.verlet_steps(z, -p, params, 0.0, dt, 1)
        fd = (observable_A(z_fwd[0], p_fwd[0])
              - observable_A(z_rev[0], -p_rev[0])) / (2.0 * dt)
        assert fd == pytest.approx(observable_B(z, p), rel=1e-6, abs=1e-9)


class TestBrackets:
    def test_zero_state(self):
        params = ModelParams(3, 1.0, 1.0, 10.0)
        assert poisson_B_H0(np.zeros(3), params) == 0.0

    def test_single_particle_equals_wall_force(self):
        assert poisson_B_H0(np.array([0.5]), NARROW) == wall_force(0.5, NARROW)

    def test_equals_force_sum_exactly(self):
        params = ModelParams(6, 2.0, 0.5, 8.0)
        rng = np.random.default_rng(8)
        z = rng.uniform(-3.0, 3.0, 6)
        assert poisson_B_H0(z, params) == float(np.sum(wall_force(z, params)))

    @pytest.mark.parametrize("n", [64, 7])
    def test_row_chunks_bit_equal_to_one_shot(self, ref_marginal, n):
        # two whole blocks of 2^16 values in rows and part of a third, in
        # each layout: every layout is summed as its C-ordered copy
        params = ModelParams(n, 1.0, 1.0, 10.0)
        rows = 2 * ((1 << 16) // n) + 37
        z = ref_marginal.inverse_cdf(substream(23, 0).random((rows, n)))
        for layout in (z, np.asfortranarray(z), z[::-1, ::2],
                       z[:90].reshape(3, 30, n)):
            got = poisson_B_H0(layout, params)
            want = helpers.poisson_B_H0_reference(
                np.ascontiguousarray(layout), params)
            assert got.shape == layout.shape[:-1]
            assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("n", [7, 64, 129])
    def test_layout_does_not_change_the_bits(self, ref_marginal, n):
        params = ModelParams(n, 1.0, 1.0, 10.0)
        z = ref_marginal.inverse_cdf(substream(25, 0).random((60, 2 * n)))
        for layout in (np.asfortranarray(z[:, :n]), z[::-3, ::2],
                       z[:, n:].T.copy().T):
            want = poisson_B_H0(np.ascontiguousarray(layout), params)
            assert np.array_equal(_bits(poisson_B_H0(layout, params)),
                                  _bits(want))

    def test_one_value_rows_sum_like_np_sum(self):
        # the force at z > 0 underflows to -0.0 here; np.sum of a one-value
        # row gives +0.0, the value itself does not
        params = ModelParams(1, 1.0, 1e-100, 2e20)
        z = np.array([[1e5], [-1e5], [2e5]])
        assert np.signbit(wall_force(1e5, params))
        for batch in (z, z[0]):
            got = poisson_B_H0(batch, params)
            want = helpers.poisson_B_H0_reference(batch, params)
            assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("n", [1, 7, 8, 128, 129, 300])
    def test_kernel_row_sums_bit_equal_to_reference(self, ref_marginal, n):
        # fewer than 8 values, one leaf of 8 accumulators with and without a
        # tail, and pairwise splits of one and of two levels
        params = ModelParams(n, 1.0, 1.0, 10.0)
        z = ref_marginal.inverse_cdf(substream(24, 0).random((41, n)))
        for batch in (z, z[5], z[:12].reshape(3, 4, n)):
            got = poisson_B_H0(batch, params)
            want = helpers.poisson_B_H0_reference(batch, params)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("bad", [np.nan, 5.0, -5.0, np.inf])
    def test_positions_outside_the_box_raise(self, ref_params, bad):
        z = np.zeros((3, 64))
        for layout in (z, np.asfortranarray(z), z[1]):
            layout = layout.copy(order="K")
            layout[..., -1] = bad
            with pytest.raises(ValueError, match="outside the open box"):
                poisson_B_H0(layout, ref_params)
        with pytest.raises(ValueError, match="outside the open box"):
            poisson_B_H0(bad, ref_params)

    def test_finite_difference_bracket_of_B_with_H(self):
        params = ModelParams(3, 1.0, 1.0, 10.0)
        rng = np.random.default_rng(21)
        z, p = rng.uniform(-2.5, 2.5, 3), rng.normal(size=3)
        fd = helpers.numerical_poisson_bracket(
            observable_B,
            lambda zz, pp: helpers.hamiltonian_reference(zz, pp, params),
            z, p, eps=1e-5)
        assert fd == pytest.approx(poisson_B_H0(z, params), rel=1e-5)

    def test_bracket_A_with_B_is_N(self):
        # canonical pairing of the conjugate observable with its derivative
        params = ModelParams(5, 1.0, 1.0, 10.0)
        rng = np.random.default_rng(4)
        for _ in range(3):
            z, p = rng.uniform(-3.0, 3.0, 5), rng.normal(size=5)
            fd = helpers.numerical_poisson_bracket(observable_A, observable_B,
                                                   z, p)
            assert fd == pytest.approx(params.n_particles, rel=1e-8)

    def test_bracket_A_with_H_is_B(self):
        params = ModelParams(4, 1.0, 1.0, 10.0)
        rng = np.random.default_rng(17)
        z, p = rng.uniform(-3.0, 3.0, 4), rng.normal(size=4)
        fd = helpers.numerical_poisson_bracket(
            observable_A,
            lambda zz, pp: helpers.hamiltonian_reference(zz, pp, params),
            z, p, eps=1e-6)
        assert fd == pytest.approx(observable_B(z, p), rel=1e-7)


@pytest.mark.parametrize("h, var", [(0.0, 1.0), (1e-3, 1.0), (0.3, 4.0)])
def test_hamiltonian_bitwise_equal_to_allocating_expression(shard, h, var):
    # H1 of every row, as the kernel records it for the drift monitor, with
    # momenta of variance var: 4.0 is that of beta = 0.25
    params = ModelParams(64, 1.0, 1.0, 10.0, field=h)
    z, p = shard
    p = p * math.sqrt(var)
    _, _, e, _, _ = helpers.kernel_records(z, p, params, h, 1e-3, 1, 1)
    want = _bits(helpers.hamiltonian_reference(z, p, params, h))
    assert np.array_equal(_bits(e[0]), want)


def test_hamiltonian_terms():
    params = ModelParams(2, 1.0, 1.0, 10.0)
    z, p = np.array([0.0, 1.0]), np.array([2.0, 0.0])
    expected = 4.0 / 2.0 + wall_potential(0.0, params) \
        + wall_potential(1.0, params) - 0.5 * 1.0
    _, _, e, _, _ = helpers.kernel_records(z, p, params, 0.5, 1e-3, 1, 1)
    assert e[0, 0] == pytest.approx(expected, rel=1e-14)
