"""Volume densities against exact averages of Riesz kernels.

The sphere mean of |x - c|^(2-p) over the sphere of radius t about 0,
with |c| = d, is max(t, d)^(2-p) 2F1((p-2)/2, (p-n)/2; n/2; (min/max)^2)
(`scipy.special.hyp2f1`), and the ball average is V(r) = n r^-n int_0^r
t^(n-1) S(t) dt (`scipy.integrate.quad`, with a breakpoint at d).  The
reported V density must lie within its bracket (plus the half-sample
noise bound, for kernels that are sampled off centre) of the deepest
quotient of the exact curve.
"""

import functools
import json
import math

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.integrate import quad  # noqa: E402
from scipy.special import hyp2f1  # noqa: E402

from rieszlab import _numerics, cli, flow, radial  # noqa: E402


def sphere_mean(n, p, d, t):
    """Mean of the standard kernel K_p(|x - c|) over |x| = t, |c| = d."""
    big, small = max(t, d), min(t, d)
    mean = big ** (2.0 - p) * hyp2f1((p - 2.0) / 2.0, (p - n) / 2.0, n / 2.0, (small / big) ** 2)
    return -mean if p > 2.0 else mean


def volume_average(n, p, d, r):
    """n r^-n int_0^r t^(n-1) S(t) dt of the kernel centred at distance d."""
    if d == 0.0:  # S(t) = K(t) = -t^(2-p), +t^(2-p) below p = 2
        return (-1.0 if p > 2.0 else 1.0) * n * r ** (2.0 - p) / (n + 2.0 - p)
    integral, _ = quad(lambda t: t ** (n - 1) * sphere_mean(n, p, d, t), 0.0, r,
                       points=[d] if d < r else None, epsabs=0.0, epsrel=1e-13, limit=200)
    return n * r ** -n * integral


def exact_theta_v(n, p, distances, radii):
    """Deepest V quotient of the sum of unit kernels at the given distances."""
    curve = [sum(volume_average(n, p, d, r) for d in distances) for r in radii]
    return radial.quotients(curve, radii, p)[-1]


def test_oracle_means_match_the_closed_forms():
    # harmonic at p = n: the mean is K(max(t, d)); a centred kernel is its own mean
    assert sphere_mean(4, 4.0, 0.5, 0.2) == pytest.approx(-0.5 ** -2.0, rel=1e-15)
    assert sphere_mean(4, 4.0, 0.5, 2.0) == pytest.approx(-2.0 ** -2.0, rel=1e-15)
    assert sphere_mean(5, 3.5, 0.0, 0.7) == pytest.approx(-0.7 ** -1.5, rel=1e-15)
    assert volume_average(4, 3.0, 1e-9, 0.5) == pytest.approx(volume_average(4, 3.0, 0.0, 0.5),
                                                              rel=1e-8)


# the table of `rieszlab density riesz`, whose volume density was once
# 22.37 for 40 at p = 5.9, with bracket 0
@pytest.mark.parametrize("n,p", [(4, 4.5), (4, 5.5), (4, 5.9), (4, 5.99), (8, 9.5), (8, 9.9),
                                 (4, 2.0), (3, 1.5)])
def test_cli_kernel_rows_reach_the_exact_volume_density(capsys, n, p):
    code = cli.main(["density", "riesz", "--theta", "1", "--n", str(n), "--p", str(p),
                     "--no-timestamp"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["monotone_ok"] is True
    assert abs(report["theta"]["V"] - n / (n + 2.0 - p)) <= report["bracket"]["V"]


@pytest.mark.parametrize("n,p", [(4, 5.9), (4, 3.5), (3, 2.0)])
def test_user_radii_stay_within_their_bracket(capsys, n, p):
    # annuli ten times wider than deep: the quadrature term, not luck, covers them
    code = cli.main(["density", "riesz", "--theta", "1", "--n", str(n), "--p", str(p),
                     "--radii", "1", "0.1", "0.01", "--no-timestamp"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(report["theta"]["V"] - n / (n + 2.0 - p)) <= report["bracket"]["V"]


@pytest.mark.parametrize("n,p", [(4, 5.5), (8, 9.5), (3, 4.5)])
def test_two_centre_sum_beyond_p_n_plus_1(n, p):
    # `newtonian` refuses p > n, where the far kernel is not subharmonic
    # (so the quotients need not be monotone); the kernel sum itself is
    # built here, with its second centre outside every ball
    centres = np.stack([np.zeros(n), 2.5 * np.eye(n)[0]])
    field = flow._kernel_sum_field(n, radial.KernelSpec(p=p), np.ones(2), centres)
    report = flow.densities(field, np.zeros(n), p)
    want = exact_theta_v(n, p, (0.0, 2.5), report.radii)
    assert abs(report.theta["V"] - want) <= report.bracket["V"] + report.noise_bound


@pytest.mark.parametrize("n,p,d", [(4, 3.9, 0.1), (4, 3.0, 1.0), (3, 2.5, 1.0), (6, 3.5, 0.3),
                                   (8, 5.0, 0.5), (4, 3.0, 2.5)])
def test_off_centre_sums_stay_within_bracket_and_noise(n, p, d):
    # a second kernel whose centre the shells may cross: S has a kink at t = d
    field = flow.newtonian_potential_field(p, [(1.0, np.zeros(n)), (1.0, d * np.eye(n)[0])], n)
    report = flow.densities(field, np.zeros(n), p)
    want = exact_theta_v(n, p, (0.0, d), report.radii)
    assert abs(report.theta["V"] - want) <= report.bracket["V"] + report.noise_bound


# The oracle grid of the exact means: n, p on both sides of 2 and of n, and
# d/r for the shell of radius 1/4 (p <= n, where `newtonian` sums a second
# mass inside the balls) or of radius 1 (p > n, the second centre outside
# every ball, where the sum is built with `_kernel_sum_field`).
GRID_RATIOS = (0.3, 0.999, 1.0, 1.001, 2.0, 5.0)


def grid_settings():
    for n in (3, 4, 6, 8, 12, 16):
        for p in sorted({1.5, 2.5, n - 0.5, float(n), n + 0.5}):
            for ratio in GRID_RATIOS:
                if p <= n or ratio > 1.0:
                    yield n, p, ratio


def grid_field(n, p, ratio):
    """(field, offset): unit kernels at the origin and at the offset on e1."""
    d = ratio * (0.25 if p <= n else 1.0)
    centres = [(1.0, np.zeros(n)), (1.0, d * np.eye(n)[0])]
    if p <= n:
        return flow.newtonian_potential_field(p, centres, n), d
    return flow._kernel_sum_field(n, radial.KernelSpec(p=p), np.ones(2),
                                  np.stack([c for _, c in centres])), d


@pytest.mark.parametrize("n,p,ratio", list(grid_settings()))
def test_exact_means_reach_the_hypergeometric_means(n, p, ratio):
    # each mean within 1e-13 (relative) of hyp2f1, or within its gap to the
    # coarse rule where that is larger
    field, d = grid_field(n, p, ratio)
    radii = np.array([1.0, 0.5, 0.25, 0.125, d, 0.9 * d, 1.1 * d])
    fine, coarse, absolute, _ = field.means(np.zeros(n))(radii)
    want = np.array([sphere_mean(n, p, 0.0, r) + sphere_mean(n, p, d, r) for r in radii])
    assert np.all(np.abs(fine - want) <= np.maximum(np.abs(fine - coarse), 1e-13 * np.abs(want)))
    assert np.all(absolute >= np.abs(fine))


@pytest.mark.parametrize("n,p,ratio", list(grid_settings()))
def test_exact_mean_densities_reach_the_hypergeometric_curve(n, p, ratio):
    # every S quotient within bracket + noise_bound of the exact curve's,
    # and theta_V within its own of the exact ball averages'; --quad reaches
    # M only, so 256 points serve
    field, d = grid_field(n, p, ratio)
    report = flow.densities(field, np.zeros(n), p, quad=flow.sphere_quad(n, 256))
    curve = [sphere_mean(n, p, 0.0, r) + sphere_mean(n, p, d, r) for r in report.radii]
    want = radial.quotients(curve, report.radii, p)
    assert np.all(np.abs(report.quotients["S"] - want)
                  <= report.bracket["S"] + report.noise_bound)
    assert abs(report.theta["V"] - exact_theta_v(n, p, (0.0, d), report.radii)) <= (
        report.bracket["V"] + report.noise_bound)


@pytest.mark.parametrize("n", [3, 4, 8, 16])
@pytest.mark.parametrize("excess", [1.0, 1.5])
def test_a_sphere_through_a_pole_at_p_from_n_plus_1_is_refused(capsys, n, excess):
    # the mean over the sphere of radius 1/2 through the kernel's pole
    # diverges: one line and exit 3, not a NaN or a sampled number
    centre = ["0.5"] + ["0"] * (n - 1)
    code = cli.main(["density", "riesz", "--p", str(n + excess), "--n", str(n), "--center",
                     *centre, "--quad", "256", "--no-timestamp"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == (f"error: the sphere mean of K_{n + excess:g} over the sphere of "
                            f"radius 0.5 through its pole diverges at p >= n + 1 = {n + 1}\n")


def log_mean(n, d, t):
    """Mean of log |x - c| over |x| = t, |c| = d, as the polar-angle
    integral with weight sin^(n-2) (at n = 2, log max(t, d))."""
    if n == 2:
        return np.log(max(t, d))
    norm, _ = quad(lambda a: np.sin(a) ** (n - 2), 0.0, np.pi, epsabs=0.0, epsrel=1e-13)
    total, _ = quad(lambda a: 0.5 * np.log((t - d) ** 2 + 4.0 * t * d * np.sin(0.5 * a) ** 2)
                    * np.sin(a) ** (n - 2), 0.0, np.pi, points=[1e-12, 1e-8, 1e-4, 1e-2],
                    epsabs=0.0, epsrel=1e-13, limit=400)
    return total / norm


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
@pytest.mark.parametrize("ratio", GRID_RATIOS)
def test_exact_means_of_the_log_kernel(n, ratio):
    # p = 2, whose kernel changes sign at 1: within 1e-12 absolute per unit
    # of |log|, the means of absolute values bounding the means
    field = flow.riesz_kernel_field(1.0, 2.0, n, center=0.7 * np.eye(n)[0])
    radii = np.array([2.0, 0.7 / ratio, 0.35])
    fine, _, absolute, _ = field.means(np.zeros(n))(radii)
    want = np.array([log_mean(n, 0.7, r) for r in radii])
    assert np.all(np.abs(fine - want) <= 1e-12 * np.maximum(1.0, absolute))
    assert np.all(absolute >= np.abs(fine))


def test_the_worst_sampled_setting_reads_exactly_two():
    # the shell through the second pole at n = 3, p = 3, d = r = 0.5: its
    # sampled report read 1.97940 in the first S quotient
    field = flow.newtonian_potential_field(3.0, [(1.0, np.zeros(3)), (1.0, 0.5 * np.eye(3)[0])],
                                           3)
    report = flow.densities(field, np.zeros(3), 3.0)
    assert abs(report.quotients["S"][0] - 2.0) <= 1e-12


def exact_rule_mean(monkeypatch, n, p, d, r):
    """(the float fine mean, its rounding bound, the same rule in 40 digits)
    of the unit kernel at distance d over the sphere of radius r: the nodes
    are the float angles of `flow._polar_panels`, and the log weights are
    those of its float panel edges, Gauss nodes and weights, computed
    exactly, so only the rounding that the bound covers is left out."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    angles, logs, _ = flow._polar_panels(n, p)
    top = 0.5 * math.pi
    grades = top * flow.MEAN_RATIO ** np.arange(flow.MEAN_LEVELS + 1)
    lo = np.concatenate([[top], grades[1:], np.zeros(flow.MEAN_LEVELS + 1)])
    hi = np.concatenate([[math.pi], grades[:-1], grades])
    panels = []  # the log factors of the panels the mean sums
    kernel_of_square = flow.weighted_kernel_of_square
    monkeypatch.setattr(flow, "weighted_kernel_of_square", lambda spec, w, q, factor: (
        panels.extend(factor), kernel_of_square(spec, w, q, factor))[1])
    fine, _, _, rounding = flow._sphere_means(radial.KernelSpec(p=p), n, 1.0, d, np.array([r]))
    norm = mp.log(mp.pi) / 2 + mp.loggamma(mp.mpf(n - 1) / 2) - mp.loggamma(mp.mpf(n) / 2)
    total = mp.mpf(0)
    for factor in panels:
        row = next(i for i, logs_i in enumerate(logs) if np.array_equal(logs_i, factor))
        if row < lo.size:
            x, w = _numerics.gauss_jacobi(flow.MEAN_NODES, 0.0)
            weights = [mp.log((mp.mpf(hi[row]) - mp.mpf(lo[row])) * mp.mpf(wi)) for wi in w]
        else:  # the Gauss-Jacobi panel of theta^(n-p)
            x, w = _numerics.gauss_jacobi(flow.MEAN_NODES, n - p)
            weights = [mp.log(mp.mpf(top)) + mp.log(mp.mpf(wi)) - (n - p) * mp.log(mp.mpf(xi))
                       for xi, wi in zip(x, w)]
        for theta, log_weight in zip(angles[row, :flow.MEAN_NODES], weights):
            q = (mp.mpf(r) - mp.mpf(d)) ** 2 + 4 * mp.mpf(r) * mp.mpf(d) * mp.sin(
                mp.mpf(theta) / 2) ** 2
            value = mp.log(q) / 2 if p == 2.0 else (-1 if p > 2.0 else 1) * q ** (
                mp.mpf(2 - p) / 2)
            total += value * mp.exp(log_weight + (n - 2) * mp.log(mp.sin(mp.mpf(theta))) - norm)
    return float(fine[0]), float(rounding[0]), total


@pytest.mark.parametrize("n,p,d,r", [
    (16, 16.0, 0.5, 0.5),  # the pole panel, whose log weight and exponent cancel at about 77
    (3, 3.0, 0.5, 0.5),
    (3, 3.0, 0.3, 1.0),
    (4, 5.5, 2.0, 1.0),
    (8, 2.0, 1.0, 1.001),  # the log kernel, changing sign on the sphere
    (12, 1.5, 0.999, 1.0),
], ids=["n16-p16-through", "n3-p3-through", "n3-p3-far", "n4-p5.5-outside", "n8-log",
        "n12-p1.5-near"])
def test_an_exact_mean_is_within_its_rounding_bound(monkeypatch, n, p, d, r):
    fine, rounding, exact = exact_rule_mean(monkeypatch, n, p, d, r)
    assert abs(fine - exact) <= np.finfo(float).eps * rounding


@pytest.mark.parametrize("n,p,d,r", [
    (4, 3.0, 1e160, 1.0),
    (3, 2.5, 1e200, 0.3),
    (8, 2.001, 1e300, 1.0),
    (3, 3.0, 1.0, 1e160),  # the radius, not the centre, beyond 1e154
    (4, 3.0, 1e154, 5e153),  # q overflows on the panels toward theta = pi only
], ids=["n4-p3-1e160", "n3-p2.5-1e200", "n8-p2.001-1e300", "n3-p3-radius", "n4-p3-mixed"])
def test_a_mean_whose_squared_distance_overflows_is_within_its_rounding_bound(n, p, d, r):
    # such a mean reads q / max(r, d)^2, and its bound covers that rounding
    fine, _, _, rounding = flow._sphere_means(radial.KernelSpec(p=p), n, 1.0, d, np.array([r]))
    want = sphere_mean(n, p, d, r)
    eps = np.finfo(float).eps
    assert eps * rounding[0] <= 1e-10 * abs(want)
    assert abs(fine[0] - want) <= eps * (rounding[0] + abs(want))


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_a_mean_whose_squared_distance_overflows_is_refused_at_p_up_to_2(p):
    with pytest.raises(flow.DomainError, match="^the sphere mean of a kernel centre at distance "
                       "1e\\+160 from x0 is refused at p <= 2: its squared distance overflows$"):
        flow._sphere_means(radial.KernelSpec(p=p), 4, 1.0, 1e160, np.array([1.0, 0.5]))


# The certified maxima of a kernel sum (`ScalarField.maxima`) against the
# largest of `values` on 2^16 random points of each sphere: it may not
# exceed the upper end plus the rounding bound, and the two ends lie within
# 1e-13 relative plus that bound, except where the offsets span R^n and
# the maximum over their ball lies inside it (the interior case).  The
# points' norms are 1 within 2 eps, which moves each distance by as much
# and `values`, a power 2 - p of it, by |2 - p| times that and its own
# rounding: (4 |2 - p| + 8) eps relative allows for both.


@functools.lru_cache(maxsize=2)
def sphere_points(n):
    g = np.random.default_rng(n).standard_normal((1 << 16, n))
    return g / np.linalg.norm(g, axis=1)[:, None]


def check_certificate(field, x0, radii, p, interior=False):
    points = sphere_points(field.n)
    lower, upper, rounding = field.maxima(x0)(radii)
    for r, low, up, err in zip(radii, lower, upper, rounding):
        sampled = float(field.values(x0 + r * points).max())
        slack = (4.0 * abs(2.0 - p) + 8.0) * np.finfo(float).eps * abs(sampled)
        assert sampled <= up + err + slack, (r, sampled, up, err)
        assert low <= up + err
        if interior:  # on the circle the points are dense enough to reach the attained end
            assert low <= sampled + 1e-6 * abs(sampled), (r, low, sampled)
        else:
            assert up - low <= 1e-13 * abs(up) + err, (r, low, up, err)


@pytest.mark.parametrize("n,p,ratio", list(grid_settings()))
def test_the_certified_max_holds_on_the_oracle_grid(n, p, ratio):
    # on the ray of the centres, beyond the first, and off it, on the
    # sphere through the second centre's distance and the deepest default
    # one; on the ray the maximum is also the closed form
    field, d = grid_field(n, p, ratio)
    radii = np.array([d, 1.0 / 32])
    check_certificate(field, 0.3 * d * np.eye(n)[1], radii, p)
    x0 = -0.3 * d * np.eye(n)[0]
    check_certificate(field, x0, radii, p)
    lower, upper, rounding = field.maxima(x0)(radii)
    closed = radial.kernel(radial.KernelSpec(p=p), radii + 0.3 * d) + radial.kernel(
        radial.KernelSpec(p=p), radii + 1.3 * d)
    assert np.all(np.abs(lower - closed) <= upper - lower + rounding + 4e-15 * np.abs(closed))


@pytest.mark.parametrize("n", range(2, 17))
def test_the_certified_max_holds_for_random_kernel_sums(n):
    rng = np.random.default_rng(1000 + n)
    for p in sorted({1.5, 2.0, 3.0, float(n)}):
        k = 2 if n == 2 else int(rng.integers(2, 4))
        field = flow._kernel_sum_field(n, radial.KernelSpec(p=p), rng.uniform(0.2, 2.0, k),
                                       rng.normal(scale=0.6, size=(k, n)))
        check_certificate(field, rng.normal(scale=0.1, size=n), np.array([1.0, 0.125, 1 / 32]), p)


def test_the_certified_max_holds_inside_three_masses():
    # three unit masses around x0 in the plane: the offsets span R^2 and,
    # on the small spheres, the maximum over their ball lies inside it; the
    # lower end is still attained on the sphere and the upper end holds
    angles = 2.0 * math.pi * np.arange(3) / 3.0
    centres = 0.5 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    field = flow._kernel_sum_field(2, radial.KernelSpec(p=2.0), np.ones(3), centres)
    radii = flow.default_radii()
    lower, upper, _ = field.maxima(np.zeros(2))(radii)
    assert upper[-1] - lower[-1] > 1e-6  # the interior case
    check_certificate(field, np.zeros(2), radii, 2.0, interior=True)
