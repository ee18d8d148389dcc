import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gasrelax
import helpers
from helpers import gaussian_moment, integrate_semi_infinite
from gasrelax.numerics import (QuadratureError, QuadratureResult,
                               gamma_function, integrate_finite)

# frozen high-precision reference (30-digit arithmetic)
GAMMA_25_12 = 1.0381428223539019


def test_polynomial():
    res = integrate_finite(lambda x: x * x, 0.0, 1.0)
    assert abs(res.value - 1.0 / 3.0) < 1e-12
    assert res.error_estimate >= 0.0
    assert res.evaluations > 0


def test_constant():
    res = integrate_finite(lambda x: np.ones_like(x), -1.0, 1.0)
    assert abs(res.value - 2.0) < 1e-13


def test_gamma_integral_mapped_to_finite_interval():
    def mapped(t):
        w = 1.0 - t
        u = t / w
        return u ** (13.0 / 12.0) * np.exp(-u) / (w * w)

    res = integrate_finite(mapped, 0.0, 1.0, rel_tol=1e-12)
    assert abs(res.value - GAMMA_25_12) < 1e-8


def test_semi_infinite_exponentials():
    res = integrate_semi_infinite(lambda u: np.exp(-u), 0.0)
    assert abs(res.value - 1.0) < 1e-12
    res = integrate_semi_infinite(lambda u: u * np.exp(-u), 0.0)
    assert abs(res.value - 1.0) < 1e-12


def test_semi_infinite_gamma_oracle():
    res = integrate_semi_infinite(lambda u: u ** (13.0 / 12.0) * np.exp(-u), 0.0)
    assert abs(res.value - GAMMA_25_12) < 1e-8


def test_shifted_lower_limit():
    res = integrate_semi_infinite(lambda u: np.exp(-u), 3.0)
    assert abs(res.value - math.exp(-3.0)) < 1e-12


def test_quadrature_linearity():
    f = lambda x: np.exp(-x * x)
    g = lambda x: np.cos(x)
    alpha = 2.5
    lhs = integrate_finite(lambda x: alpha * f(x) + g(x), 0.0, 2.0).value
    rhs = alpha * integrate_finite(f, 0.0, 2.0).value \
        + integrate_finite(g, 0.0, 2.0).value
    assert abs(lhs - rhs) < 1e-9


def test_breakpoints_resolve_narrow_feature():
    # a spike far narrower than the first panel's node spacing
    width = 1e-8
    center = 0.5

    def spike(x):
        return np.exp(-((x - center) / width) ** 2)

    blind = integrate_finite(spike, 0.0, 1.0).value
    seeded = integrate_finite(spike, 0.0, 1.0,
                              breakpoints=(center - 5 * width, center,
                                           center + 5 * width)).value
    exact = width * math.sqrt(math.pi)
    assert abs(blind - exact) > 0.5 * exact  # documents the blindness
    assert abs(seeded - exact) < 1e-8 * exact


def test_non_convergence_raises():
    with pytest.raises(QuadratureError):
        integrate_finite(lambda x: np.abs(x) ** -0.9, 0.0, 1.0, max_panels=8)


def test_nan_integrand_raises():
    def bad(x):
        return np.where(x > 0.5, np.nan, 1.0)

    with pytest.raises(QuadratureError):
        integrate_finite(bad, 0.0, 1.0)


def test_non_finite_integrand_names_its_first_bad_panel():
    def bad(x):
        return np.where(x > 0.6, np.inf, 1.0)

    # seed panels [0, .25], [.25, .5], [.5, .75], [.75, 1]: the last two
    # see x > 0.6, and the error names the first of them
    with pytest.raises(QuadratureError,
                       match=r"on panel \[0\.5, 0\.75\]$") as err:
        integrate_finite(bad, 0.0, 1.0, breakpoints=(0.25, 0.5, 0.75))
    with pytest.raises(QuadratureError) as looped:
        helpers.kronrod_panels_loop(bad, [0.0, 0.25, 0.5, 0.75],
                                    [0.25, 0.5, 0.75, 1.0])
    assert str(err.value) == str(looped.value)


def test_quadrature_sums_do_not_depend_on_openblas(tmp_path):
    # the panel sums are the kernel's, so the `gamma` sweep keeps its golden
    # digests under OpenBLAS's Haswell kernel too, whose ddot adds without
    # fused multiply-adds; it runs in a subprocess, as OpenBLAS reads the
    # variable when it loads
    tests = Path(__file__).parent
    script = ("import json, pathlib, test_golden\n"
              "print(json.dumps(test_golden._digests('gamma', 'gamma-ref', "
              "pathlib.Path.cwd(), test_golden.GAMMA_REF)))\n")
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join(
                   [str(tests), str(Path(gasrelax.__file__).parents[1]),
                    os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    code, digests = json.loads(result.stdout.splitlines()[-1])
    from test_golden import GAMMA_REF
    assert (code, digests) == (0, GAMMA_REF)


def test_bad_interval_raises():
    with pytest.raises(ValueError):
        integrate_finite(np.exp, 1.0, 1.0)


def test_result_invariants():
    with pytest.raises(ValueError):
        QuadratureResult(value=1.0, error_estimate=-1.0, evaluations=15)
    with pytest.raises(ValueError):
        QuadratureResult(value=1.0, error_estimate=0.0, evaluations=0)


def test_gamma_trivial_values():
    assert abs(gamma_function(1.0) - 1.0) < 1e-14
    assert abs(gamma_function(2.0) - 1.0) < 1e-14
    assert abs(gamma_function(0.5) - math.sqrt(math.pi)) < 1e-13


def test_gamma_25_12():
    val = gamma_function(25.0 / 12.0)
    assert abs(val - GAMMA_25_12) < 1e-12
    # matches the displayed rounding of the integral
    assert abs(val - 1.03813) < 2e-5


def test_gamma_against_stdlib():
    rng = np.random.default_rng(5)
    for x in np.concatenate(([0.1, 0.3, 0.5, 25.0 / 12.0, 10.0, 20.0],
                             rng.uniform(0.05, 30.0, 50))):
        assert abs(gamma_function(x) - math.gamma(x)) <= 1e-12 * math.gamma(x)


def test_gamma_recurrence():
    for x in np.linspace(0.1, 10.0, 67):
        lhs = gamma_function(x + 1.0)
        rhs = x * gamma_function(x)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


def test_gamma_domain():
    with pytest.raises(ValueError):
        gamma_function(0.0)
    with pytest.raises(ValueError):
        gamma_function(-1.5)


def test_gaussian_moment_values():
    assert gaussian_moment(0, 2.0) == 1.0
    assert gaussian_moment(2, 1.0) == 1.0
    assert gaussian_moment(4, 2.0) == 0.75
    assert gaussian_moment(3, 1.0) == 0.0
    assert gaussian_moment(7, 0.5) == 0.0


def test_gaussian_moment_validation():
    with pytest.raises(ValueError):
        gaussian_moment(-2, 1.0)
    with pytest.raises(ValueError):
        gaussian_moment(2, 0.0)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [0, 2, 4, 6, 8])
def test_gaussian_moment_vs_quadrature(n, beta):
    num = integrate_semi_infinite(
        lambda p: p ** n * np.exp(-0.5 * beta * p * p), 0.0).value
    den = integrate_semi_infinite(
        lambda p: np.exp(-0.5 * beta * p * p), 0.0).value
    assert abs(num / den - gaussian_moment(n, beta)) \
        <= 1e-8 * max(gaussian_moment(n, beta), 1.0)
