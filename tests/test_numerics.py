"""The in-repo Sobol points and ndtri against scipy, bit for bit, the
Gauss-Jacobi rule against scipy within rounding, and the ball volumes and
sphere areas from `math.gamma` against scipy's Gamma.

The runtime does not import scipy; its two ports in `rieszlab._numerics`
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


@pytest.mark.parametrize("n,size,seed", [
    (2, 8, 0), (3, 512, 7), (7, 1024, 1), (5, 2048, 601), (9, 16384, 0), (12, 32768, 0),
    (16, 65536, 3),
])
def test_sphere_quad_blocks_equal_scipy_bit_for_bit(n, size, seed):
    # below one block of flow.QUAD_BLOCK points, exactly one, and many: each
    # block starts from the Gray code of its first index
    u = np.clip(qmc.Sobol(n, scramble=True, seed=seed).random(size), 1e-15, 1.0 - 1e-15)
    g = special.ndtri(u)
    expected = g / np.linalg.norm(g, axis=1)[:, None]
    assert np.array_equal(flow.SphereQuad(n, size, seed).points, expected)


def test_sphere_quad_memory_is_about_its_points():
    import tracemalloc

    flow.SphereQuad(16, 8).points  # loads what a draw imports, outside the trace
    tracemalloc.start()
    try:
        quad = flow.SphereQuad(16)
        quad.points  # drawn on this first read
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert quad.points.nbytes == 8 * 2**20
    assert peak <= 1.5 * quad.points.nbytes  # 6.8 times with the set drawn at once


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


def test_ball_volume_and_sphere_area_match_scipy_gamma():
    # math.gamma against scipy's Gamma: the largest gap on this grid is 5 eps
    tol = 8 * np.finfo(float).eps
    for k in np.linspace(0.0, 16.0, 1601):
        ref = math.pi ** (k / 2.0) / special.gamma(k / 2.0 + 1.0)
        assert flow.unit_ball_volume(float(k)) == pytest.approx(ref, rel=tol, abs=0.0), k
    for n in range(2, 17):
        ref = 2.0 * math.pi ** (n / 2.0) / special.gamma(n / 2.0)
        assert flow.sphere_surface_area(n) == pytest.approx(ref, rel=tol, abs=0.0), n
    assert flow.unit_ball_volume(2) == pytest.approx(math.pi, rel=tol, abs=0.0)
    assert flow.unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=tol, abs=0.0)
    assert flow.sphere_surface_area(3) == pytest.approx(4.0 * math.pi, rel=tol, abs=0.0)


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
