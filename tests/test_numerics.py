"""The in-repo Sobol points, ndtri and Gamma against scipy, bit for bit,
and the Gauss-Jacobi rule against scipy within rounding.

The runtime does not import scipy; its three ports in `rieszlab._numerics`
repeat scipy's arithmetic, and scipy stays the oracle here.
"""

import math

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy import special  # noqa: E402
from scipy.stats import qmc  # noqa: E402

from rieszlab import _numerics, flow  # noqa: E402
from rieszlab.errors import DomainError  # noqa: E402


@pytest.mark.parametrize("d", range(1, _numerics.SOBOL_MAX_DIM + 1))
def test_sobol_equals_scipy_bit_for_bit(d):
    for seed in (0, 1, 7, 601):
        for size in (8, 256, 4096, 16384):
            expected = qmc.Sobol(d, scramble=True, seed=seed).random(size)
            assert np.array_equal(_numerics.sobol(d, size, seed), expected), (seed, size)


def test_sobol_refuses_dimensions_beyond_its_table():
    with pytest.raises(DomainError, match="d <= 16"):
        _numerics.sobol(_numerics.SOBOL_MAX_DIM + 1, 8, 0)
    with pytest.raises(DomainError, match="d <= 16"):
        flow.SphereQuad(17, 256)


def _ndtri_inputs():
    rng = np.random.default_rng(20140822)
    cutoffs = [math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 0.5]
    edges = [1e-15, 1.0 - 1e-15, 5e-324, 2.2250738585072014e-308, np.nextafter(1.0, 0.0)]
    edges += [np.nextafter(c, t) for c in cutoffs for t in (0.0, 1.0)] + cutoffs
    sphere = np.clip(qmc.Sobol(8, seed=3).random(16384).ravel(), 1e-15, 1.0 - 1e-15)
    u = np.concatenate([
        rng.random(210_000),
        sphere,
        10.0 ** -rng.uniform(0.0, 300.0, 50_000),  # lower tail, both rational branches
        1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 50_000),  # upper tail
        np.asarray(edges, dtype=float),
    ])
    return u[(u > 0.0) & (u < 1.0)]


def test_ndtri_equals_scipy_bit_for_bit():
    u = _ndtri_inputs()
    assert u.size > 440_000
    assert np.array_equal(_numerics.ndtri(u), special.ndtri(u))


def test_gamma_equals_scipy_bit_for_bit():
    rng = np.random.default_rng(1408)
    x = np.concatenate([rng.uniform(0.0, 33.0, 200_000), np.arange(1, 66) / 2.0,
                        [1e-10, 1e-9, 2.0, 3.0, np.nextafter(33.0, 0.0)]])
    x = x[x > 0.0]
    ours = np.array([_numerics.gamma(float(t)) for t in x])
    assert np.array_equal(ours, special.gamma(x))


@pytest.mark.parametrize("x", [0.0, -1.0, 33.0, math.inf, math.nan])
def test_gamma_refuses_arguments_outside_its_port(x):
    with pytest.raises(DomainError, match="0 < x < 33"):
        _numerics.gamma(x)


@pytest.mark.parametrize("beta", [-0.99, -0.5, 0.0, 1.5, 9.9])
def test_gauss_jacobi_matches_scipy(beta):
    # roots_jacobi(m, 0, beta) is the rule for (1 + x)^beta on [-1, 1]
    nodes, weights = _numerics.gauss_jacobi(32, beta)
    x, w = special.roots_jacobi(32, 0.0, beta)
    assert np.abs(nodes - 0.5 * (x + 1.0)).max() <= 1e-14
    assert np.abs(weights / (w / 2.0 ** (beta + 1.0)) - 1.0).max() <= 1e-10
    assert abs(weights.sum() - 1.0 / (beta + 1.0)) <= 1e-14
    # exact for rho^j, j < 64, against the weight rho^beta
    for j in (0, 1, 17, 63):
        assert math.fsum(weights * nodes ** j) == pytest.approx(1.0 / (beta + j + 1.0), rel=1e-13)


@pytest.mark.parametrize("beta", [-1.0, -2.0, math.inf, math.nan])
def test_gauss_jacobi_needs_an_integrable_weight(beta):
    with pytest.raises(DomainError, match="exponent > -1"):
        _numerics.gauss_jacobi(16, beta)
