"""Volume densities against exact averages of Riesz kernels.

The sphere mean of |x - c|^(2-p) over the sphere of radius t about 0,
with |c| = d, is max(t, d)^(2-p) 2F1((p-2)/2, (p-n)/2; n/2; (min/max)^2)
(`scipy.special.hyp2f1`), and the ball average is V(r) = n r^-n int_0^r
t^(n-1) S(t) dt (`scipy.integrate.quad`, with a breakpoint at d).  The
reported V density must lie within its bracket (plus the half-sample
noise bound, for kernels that are sampled off centre) of the deepest
quotient of the exact curve.
"""

import json

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.integrate import quad  # noqa: E402
from scipy.special import hyp2f1  # noqa: E402

from rieszlab import cli, flow, radial  # noqa: E402


def sphere_mean(n, p, d, t):
    """Mean of the standard kernel K_p(|x - c|) over |x| = t, |c| = d."""
    big, small = max(t, d), min(t, d)
    mean = big ** (2.0 - p) * hyp2f1((p - 2.0) / 2.0, (p - n) / 2.0, n / 2.0, (small / big) ** 2)
    return -mean if p > 2.0 else mean


def volume_average(n, p, d, r):
    """n r^-n int_0^r t^(n-1) S(t) dt of the kernel centred at distance d."""
    if d == 0.0:  # S(t) = K(t) = -t^(2-p)
        return -n * r ** (2.0 - p) / (n + 2.0 - p)
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
