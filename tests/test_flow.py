import dataclasses
import json
import math
import pickle
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import plain_densities as plain
from rieszlab import _numerics, cli, flow, linalg, radial, subeq
from rieszlab.errors import DomainError, NumericalError


@pytest.fixture(scope="module")
def quad3():
    return flow.sphere_quad(3, 2048, seed=0)


@pytest.fixture(scope="module")
def quad4():
    return flow.sphere_quad(4, 4096, seed=0)


def average(kind, u, x0, r, quad, p=None):
    """The M, S or V average of u at one radius, read off its curve (V
    needs the exponent p)."""
    return float(flow.average_curves(u, (kind,), x0, [r], quad, p)[kind].values[0])


def volume_shells(levels):
    """Shells of a V curve over `levels` radii: the ladder's Gauss-Jacobi
    ball and Gauss-Legendre annuli, and its half-order companion on the
    two deepest radii."""
    return (flow.JACOBI_NODES + (levels - 1) * flow.ANNULUS_NODES
            + flow.JACOBI_NODES // 2 + flow.ANNULUS_NODES // 2)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_sphere_quad_deterministic():
    a = flow.SphereQuad(4, 512, seed=9)
    b = flow.SphereQuad(4, 512, seed=9)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, flow.SphereQuad(4, 512, seed=10).points)


@pytest.mark.parametrize("size", [300, 1000, 12])
def test_sphere_quad_needs_a_power_of_two(size):
    # Sobol points are balanced only in power-of-two prefixes
    with pytest.raises(DomainError, match="power of two"):
        flow.SphereQuad(3, size)


@pytest.mark.parametrize("size", [2**21, 2**31])
def test_sphere_quad_refuses_more_than_2_to_the_20_points(monkeypatch, size):
    # refused before the Sobol draw allocates anything
    monkeypatch.setattr(flow, "sobol", lambda *args: pytest.fail("sobol was called"))
    with pytest.raises(DomainError, match=rf"at most 2\^20, 16 times the largest default, "
                                          rf"got {size}$"):
        flow.SphereQuad(3, size)


def test_the_quadrature_cap_is_16_times_the_largest_default():
    assert flow.QUAD_SIZE_MAX == 1 << 20 == 16 * max(flow.default_quad_size(n)
                                                      for n in range(2, 17))


@pytest.mark.parametrize("n", range(2, 9))
def test_the_leading_half_of_a_sphere_set_is_the_set_of_half_the_size(n):
    # the doubling self-test reads the leading half of the points as the
    # set of half the size; equal bytes, for every power-of-two size
    for seed in (0, 1, 7):
        full = flow.SphereQuad(n, 16384, seed).points
        for size in (16 << j for j in range(10)):
            half = flow.SphereQuad(n, size, seed).points
            assert half.tobytes() == full[:size].tobytes(), (n, size, seed)


def test_sphere_quad_unit_norms(quad4):
    norms = np.linalg.norm(quad4.points, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-12


def test_sphere_quad_doubling_self_consistency(quad4):
    # averaging a smooth non-radial function with the half sample moves the
    # result by less than a conservative noise bound
    u = flow.quadratic_field(np.diag([1.0, -0.5, 2.0, 0.25]))
    full = average("S", u, np.zeros(4), 1.0, quad4)
    half = average("S", u, np.zeros(4), 1.0, flow.sphere_quad(4, quad4.size // 2, quad4.seed))
    assert abs(full - half) <= 5e-3


# ---------------------------------------------------------------------------
# averages
# ---------------------------------------------------------------------------


def test_constant_field_averages(quad3):
    c = 2.5
    u = flow.ScalarField(n=3, values=lambda pts: np.full(np.asarray(pts).shape[0], c))
    assert flow.spherical_max(u, np.zeros(3), 0.7, quad3) == pytest.approx(c, abs=1e-12)
    for kind in "SV":
        assert average(kind, u, np.zeros(3), 0.7, quad3, 3.0) == pytest.approx(c, abs=1e-12)


def test_kernel_averages_match_radial_reduction(quad4):
    # u = K_3 on R^4: S(r) = K_3(r) exactly, V(r) = (4/3) K_3(r)
    u = flow.riesz_kernel_field(1.0, 3.0, 4)
    spec = radial.KernelSpec(p=3.0)
    for r in (0.25, 1.0, 2.0):
        assert average("S", u, np.zeros(4), r, quad4) == pytest.approx(
            radial.kernel(spec, r), rel=1e-12
        )
        assert average("V", u, np.zeros(4), r, quad4, 3.0) == pytest.approx(
            4.0 / 3.0 * radial.kernel(spec, r), rel=1e-6
        )


def test_log_modulus_max_is_exact(quad4):
    u = flow.log_modulus_coordinate_field(2)
    for r in (0.3, 1.0, 5.0):
        assert flow.spherical_max(u, np.zeros(4), r, quad4) == pytest.approx(math.log(r))


def test_log_modulus_spherical_constant(quad4):
    # mean of log|z_1| over the unit 3-sphere is -1/2
    u = flow.log_modulus_coordinate_field(2)
    assert average("S", u, np.zeros(4), 1.0, quad4) == pytest.approx(-0.5, abs=2e-3)


def test_sampled_max_is_the_sample_maximum_below_the_supremum(quad3):
    # non-radial smooth field without a closed-form max: M is the sampled
    # maximum, at most the true supremum lam_max / 2 = 1.5 and close to it
    u = flow.quadratic_field(np.diag([3.0, -1.0, 0.5]))
    curve = flow.average_curves(u, ("M",), np.zeros(3), [1.0], quad3)["M"]
    m = float(curve.values[0])
    assert 1.49 < m <= 1.5
    assert m == float(u.values(quad3.points).max())
    # the leading-half maximum reads the half set, never above M
    assert curve.half_values[0] == float(u.values(quad3.points[:quad3.size // 2]).max()) <= m


def test_average_requires_positive_radius(quad3):
    u = flow.zero_field(3)
    with pytest.raises(DomainError):
        average("S", u, np.zeros(3), 0.0, quad3)


_AVERAGE_ROUTES = {
    "densities-S-V": lambda u, x0, radii, q: flow.densities(u, x0, 3.0, radii=radii, quad=q,
                                                            kinds=("S", "V")),
    "mass-density": lambda u, x0, radii, q: flow.mass_density(u, x0, 3.0, radii=radii, quad=q),
    **{f"curve-{kind}": (lambda u, x0, radii, q, kind=kind:
                         flow.average_curves(u, (kind,), x0, radii, q)[kind]) for kind in "MSV"},
    "spherical_max": lambda u, x0, radii, q: [flow.spherical_max(u, x0, r, q) for r in radii],
    "infinitesimal_holder": (lambda u, x0, radii, q:
                             flow.infinitesimal_holder(u, x0, 1.5, radii, q)),
    # the Hoelder estimate and the decay check (at its centre and at a path
    # point) take no radius list: only the centre rows apply to them
    "holder_estimate": lambda u, x0, radii, q: flow.holder_estimate(u, x0, 0.1, 1.0, 1.5, q),
    "decay-center": (lambda u, x0, radii, q:
                     flow.density_decay_check(u, x0, [np.full(3, 0.5)], 1.5, q)),
    "decay-path": (lambda u, x0, radii, q:
                   flow.density_decay_check(u, np.full(3, 0.5), [x0], 1.5, q)),
}
_CENTER_ONLY = ("holder_estimate", "decay-center", "decay-path")
_BALLS = [
    ([0.8, 0.4, 0.0], [0.0, 0.0, 0.0], "positive and finite"),
    ([0.8, 0.4, -0.2], [0.0, 0.0, 0.0], "positive and finite"),
    ([0.8, math.nan, 0.2], [0.0, 0.0, 0.0], "positive and finite"),
    ([math.inf, 0.4, 0.2], [0.0, 0.0, 0.0], "positive and finite"),
    ([0.8, 0.4, 0.2], [0.0, 0.0], "3 finite coordinates"),
    ([0.8, 0.4, 0.2], [0.0, 0.0, 0.0, 0.0], "3 finite coordinates"),
    ([0.8, 0.4, 0.2], [0.0, math.inf, 0.0], "3 finite coordinates"),
    ([0.8, 0.4, 0.2], [math.nan, 0.0, 0.0], "3 finite coordinates"),
]


@pytest.mark.parametrize("radii,center,reason,route", [
    pytest.param(*ball, route, id=f"radii{i}-center{i}-{ball[2]}-{route}")
    for i, ball in enumerate(_BALLS) for route in sorted(_AVERAGE_ROUTES)
    if route not in _CENTER_ONLY or ball[2] == "3 finite coordinates"])
def test_every_average_route_checks_its_balls(quad3, route, radii, center, reason):
    # each ball of every route goes through the same checks, whatever the
    # kind; the field reads every coordinate of its points (the zero field
    # reads none), so a centre of the wrong length is caught by the check,
    # not by numpy's broadcasting
    u = flow.riesz_kernel_field(1.0, 1.5, 3)
    with pytest.raises(DomainError, match=reason):
        _AVERAGE_ROUTES[route](u, np.asarray(center), np.asarray(radii), quad3)


def test_two_kernels_on_one_ray_have_a_closed_form_max(capsys):
    # M(r) = K(r) + K(r + 0.5): the shell of radius 0.5 through the second
    # pole made the sampled maximum read as not monotone
    spec = radial.KernelSpec(p=3.0)
    assert cli.main(["density", "newtonian", "--n", "4", "--p", "3", "--offset", "0.5",
                     "--no-timestamp"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["monotone_ok"] is True and rep["monotone_defect"] == 0.0
    radii = np.asarray(rep["radii"])
    exact = radial.quotients(radial.kernel(spec, radii) + radial.kernel(spec, radii + 0.5),
                             radii, 3.0)
    assert np.allclose(rep["quotients"]["M"], exact, rtol=1e-14, atol=0.0)
    assert np.round(exact, 4).tolist() == [1.3333, 1.1667, 1.0667, 1.0222, 1.0065]
    assert abs(rep["theta"]["M"] - 1.0) <= rep["bracket"]["M"]

    e1 = np.eye(4)[0]
    field = flow.newtonian_potential_field(3.0, [(1.0, np.zeros(4)), (1.0, 0.5 * e1)], 4)
    # beyond both centres on the axis: still one ray, at distances 0.3 and 0.8
    assert field.analytic_max(-0.3 * e1, np.array([0.2])).tolist() == [
        radial.kernel(spec, 0.2 + 0.3) + radial.kernel(spec, 0.2 + 0.8)]
    # between the centres, or off the axis, the maximum is sampled
    quad = flow.sphere_quad(4, 1024)
    for x0 in (0.2 * e1, np.array([0.25, 0.1, 0.0, 0.0])):
        assert field.analytic_max(x0, np.array([0.2])) is None
        assert flow.tangent_flow(field, 3.0, 2.0).analytic_max(x0 / 2.0, np.array([0.1])) is None
        assert flow.max_of_fields(field, flow.zero_field(4)).analytic_max(
            x0, np.array([0.2])) is None
        sampled = dataclasses.replace(field, analytic_max=None)
        assert (flow.spherical_max(field, x0, 0.2, quad)
                == flow.spherical_max(sampled, x0, 0.2, quad))


@pytest.mark.parametrize("argv", [
    ["newtonian", "--n", "4", "--p", "3", "--offset", "0.5",
     "--center", "0.01", "-0.02", "0.03", "-0.04"],
    ["newtonian", "--p", "3", "--n", "4", "--offset", "0.7", "--center", "0.1", "0.2", "0", "0"],
], ids=["offset-0.5", "newtonian"])
def test_a_density_off_the_ray_reads_monotone(capsys, argv):
    # off the ray of centres M is the sampled maximum: its quotients are
    # positive and decrease
    assert cli.main(["density", *argv, "--no-timestamp"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["monotone_ok"] is True and rep["monotone_defect"] == 0.0
    m = np.asarray(rep["quotients"]["M"])
    assert np.all(m > 0.0) and np.all(np.diff(m) < 0.0)


def test_a_centre_a_tiny_distance_from_x0_keeps_its_direction():
    # |c - x0|^2 underflows at 1e-200: the direction is taken from the
    # offset scaled by its largest entry, never from a zero norm
    spec = radial.KernelSpec(p=3.0)
    e1, e2 = np.eye(3)[:2]
    with np.errstate(divide="raise", invalid="raise"):
        one = flow.riesz_kernel_field(1.0, 3.0, 3, center=1e-200 * e1)
        assert one.analytic_max(np.zeros(3), np.array([0.5])).tolist() == [
            radial.kernel(spec, 0.5)]
        for c, on_ray in ((e1, True), (e2, False)):
            field = flow.newtonian_potential_field(3.0, [(1.0, 1e-200 * e1), (1.0, c)], 3)
            got = field.analytic_max(np.zeros(3), np.array([0.5]))
            assert (got is None) is not on_ray


@pytest.mark.parametrize("quad", [None, flow.sphere_quad(3, 256)], ids=["default", "given"])
def test_spherical_max_always_checks_a_closed_form(quad):
    # a closed form below the field: the sampled shell exposes it with or
    # without a given quadrature
    u = dataclasses.replace(flow.riesz_kernel_field(1.0, 3.0, 3),
                            analytic_max=lambda x0, radii: np.full(radii.size, -10.0))
    with pytest.raises(NumericalError, match="exceeds closed form"):
        flow.spherical_max(u, np.zeros(3), 0.5, quad)


# ---------------------------------------------------------------------------
# tangential flow
# ---------------------------------------------------------------------------


def test_kernel_flow_invariance():
    for p in (1.5, 3.0):
        u = flow.riesz_kernel_field(2.0, p, 3)
        assert flow.flow_invariance_defect(u, p) <= 1e-12


def test_log_flow_invariance():
    u = flow.log_modulus_coordinate_field(2)
    assert flow.flow_invariance_defect(u, 2.0) <= 1e-12


def test_flow_invariance_defect_evaluates_the_base_once_per_shell(monkeypatch):
    # the flowed fields read an uncounted copy, so only the base's own three
    # shells are counted; the defect is that of evaluating them per scale
    u = flow.riesz_kernel_field(2.0, 3.0, 3)
    quad = flow.sphere_quad(3, size=256, seed=3)
    expected = 0.0
    for s in (0.5, 2.0):
        flowed = flow.tangent_flow(u, 3.0, s, quad)
        for shell in (0.5, 1.0, 2.0):
            a, _ = flow._clipped(u.values(shell * quad.points))
            b, _ = flow._clipped(flowed.values(shell * quad.points))
            expected = max(expected, float(np.abs(a - b).max()))
    calls = []
    counting = dataclasses.replace(u, values=lambda pts: calls.append(1) or u.values(pts))
    tangent_flow = flow.tangent_flow
    monkeypatch.setattr(flow, "tangent_flow", lambda field, *args: tangent_flow(u, *args))
    assert flow.flow_invariance_defect(counting, 3.0) == expected
    assert len(calls) == 3


def test_partial_kernel_flow_invariance_pointwise():
    u = flow.partial_kernel_field(3.0, 2, 4)
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((64, 4))
    for r in (0.3, 1.0, 4.0):
        flowed = flow.tangent_flow(u, 3.0, r)
        assert np.abs(flowed.values(pts) - u.values(pts)).max() <= 1e-12


def test_flow_semigroup_power_case():
    u = flow.plus_quadratic_field(flow.riesz_kernel_field(1.0, 3.0, 3), 1.0)
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((50, 3))
    r, s = 0.5, 0.25
    once = flow.tangent_flow(flow.tangent_flow(u, 3.0, r), 3.0, s)
    direct = flow.tangent_flow(u, 3.0, r * s)
    assert np.abs(once.values(pts) - direct.values(pts)).max() <= 1e-12


def test_flow_semigroup_log_case(quad4):
    # for p = 2 the two routes differ by M(u_r, s) - (M(u, rs) - M(u, r)),
    # which vanishes because the maxima nest exactly
    u = flow.log_modulus_coordinate_field(2)
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((50, 4))
    r, s = 0.5, 0.25
    once = flow.tangent_flow(flow.tangent_flow(u, 2.0, r, quad4), 2.0, s, quad4)
    direct = flow.tangent_flow(u, 2.0, r * s, quad4)
    assert np.abs(once.values(pts) - direct.values(pts)).max() <= 1e-9


def test_flow_needs_finite_origin_value_below_two():
    u = flow.log_modulus_coordinate_field(2)  # -inf at the origin
    with pytest.raises(DomainError):
        flow.tangent_flow(u, 1.5, 0.5)


@pytest.mark.parametrize("r", [0.0, -0.5, math.nan, math.inf])
def test_flow_scale_must_be_positive_and_finite(r):
    with pytest.raises(DomainError, match="flow scale must be positive and finite"):
        flow.tangent_flow(flow.riesz_kernel_field(1.0, 3.0, 3), 3.0, r)


def test_flow_below_two_subtracts_the_origin_value_read_from_the_field():
    # r^(p-2) (u(rx) - u(0)): two masses, so u(0) is the second kernel's value
    p, r = 1.5, 0.5
    u = flow.newtonian_potential_field(p, [(1.0, np.zeros(3)), (1.0, [1.0, 0.0, 0.0])], 3)
    u0 = u.at(np.zeros(3))
    assert u0 == radial.kernel(radial.KernelSpec(p=p), 1.0)
    pts = np.random.default_rng(6).standard_normal((50, 3))
    flowed = flow.tangent_flow(u, p, r)
    assert np.array_equal(flowed.values(pts), r ** (p - 2.0) * (u.values(r * pts) - u0))


def test_log_flow_matches_the_shifted_formula_bit_for_bit(quad4):
    # at p = 2 the one flow formula r^0 (u(rx) - M(u, r)) is u(rx) - M(u, r)
    # exactly, for the values and the closed-form max
    u = flow.riesz_kernel_field(1.5, 2.0, 4)
    pts = 1.5 * quad4.points[:64]
    for r in (0.3, 1.0, 2.5):
        m_r = flow.spherical_max(u, np.zeros(4), r, quad4)
        flowed = flow.tangent_flow(u, 2.0, r, quad4)
        assert np.array_equal(flowed.values(pts), u.values(r * pts) - m_r)
        for x0, rr in ((np.zeros(4), 0.7), (np.array([0.1, 0.0, 0.2, 0.0]), 1.3)):
            assert np.array_equal(flowed.analytic_max(x0, np.array([rr])),
                                  u.analytic_max(x0 * r, np.array([rr * r])) - m_r)


@pytest.mark.parametrize("radii", [[1.0, math.nan, 0.25], [1.0, 0.5, 0.0], [math.inf, 1.0], []])
def test_flow_spec_needs_finite_positive_radii(radii):
    with pytest.raises(DomainError, match="positive and finite"):
        flow.FlowSpec(p=3.0, radii=radii)


def test_tangent_experiment_needs_a_candidate_on_the_same_space():
    with pytest.raises(DomainError, match="R\\^3, the field on R\\^4"):
        flow.tangent_experiment(flow.riesz_kernel_field(1.0, 3.0, 4), flow.FlowSpec(p=3.0),
                                flow.zero_field(3))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_tangent_experiment_refuses_a_tolerance_that_is_not_positive_and_finite(tol):
    u = flow.riesz_kernel_field(1.0, 3.0, 4)
    with pytest.raises(DomainError, match="tol must be finite and > 0"):
        flow.tangent_experiment(u, flow.FlowSpec(p=3.0), u, tol=tol)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theta,p,n", [(3.0, 3.0, 4), (1.0, 2.5, 5), (2.0, 1.5, 3)])
def test_kernel_density_suite(theta, p, n):
    u = flow.riesz_kernel_field(theta, p, n)
    rep = flow.densities(u, np.zeros(n), p)
    assert rep.theta["M"] == pytest.approx(theta, abs=1e-3)
    assert rep.theta["S"] == pytest.approx(theta, abs=1e-3)
    assert rep.theta["V"] == pytest.approx(theta * n / (n - p + 2.0), rel=1e-2)
    assert rep.residuals["spherical_vs_volume"] <= 1e-2
    assert rep.monotone_ok


def test_log_modulus_density_relations(quad4):
    u = flow.log_modulus_coordinate_field(2)
    rep = flow.densities(u, np.zeros(4), 2.0, quad=quad4)
    for kind in ("M", "S", "V"):
        assert rep.theta[kind] == pytest.approx(1.0, rel=1e-2)
    assert rep.residuals["max_vs_spherical"] <= 1e-2
    assert rep.residuals["spherical_vs_volume"] <= 1e-2
    assert rep.monotone_ok


def test_smooth_field_zero_density(quad3):
    u = flow.quadratic_field(np.diag([1.0, 2.0, 0.5]))
    rep = flow.densities(u, np.zeros(3), 3.0, quad=quad3)
    for kind in ("M", "S", "V"):
        assert abs(rep.theta[kind]) <= 1e-6 + rep.noise_bound


def test_density_quotients_monotone_across_scales():
    u = flow.riesz_kernel_field(1.0, 3.0, 4)
    rep = flow.densities(u, np.zeros(4), 3.0)
    for kind in ("M", "S", "V"):
        q = rep.quotients[kind]
        assert np.all(np.diff(q) <= 1e-6 + rep.noise_bound)


@pytest.mark.parametrize("field,p", [
    (flow.riesz_kernel_field(2.0, 3.0, 3), 3.0),
    (flow.newtonian_potential_field(1.5, [(1.0, np.zeros(3)), (0.5, np.array([2.0, 0, 0]))], 3),
     1.5),
    (flow.log_modulus_coordinate_field(2), 2.0),
])
def test_densities_are_the_radial_estimate_of_each_curve(quad3, quad4, field, p):
    quad = quad3 if field.n == 3 else quad4
    x0 = np.zeros(field.n)
    radii = flow.default_radii()
    rep = flow.densities(field, x0, p, quad=quad)
    defects = []
    for kind in ("M", "S", "V"):
        curve = flow.average_curves(field, (kind,), x0, radii, quad, p)[kind]
        q = radial.quotients(curve.values, radii, p)
        theta, bracket, defect = radial.density_estimate(q)
        assert np.array_equal(rep.quotients[kind], q)
        # the V bracket adds the ladder's quadrature term
        assert (rep.theta[kind], rep.bracket[kind]) == (theta, bracket + curve.quadrature_error)
        assert kind == "V" or curve.quadrature_error == 0.0
        defects.append(defect)
    assert rep.monotone_defect == max(0.0, *defects)


def test_density_rejects_heavy_clipping(quad3):
    u = flow.ScalarField(
        n=3,
        values=lambda pts: np.where(np.asarray(pts)[:, 0] > 0.0, -np.inf, 0.0),
    )
    with pytest.raises(NumericalError):
        flow.densities(u, np.zeros(3), 3.0, quad=quad3)


def test_only_non_finite_values_are_clipped():
    vals, hits = flow._clipped(np.array([[-1e13, -np.inf, np.nan, 1.0],
                                         [np.inf, 0.0, -2e12, 3.0]]))
    assert np.array_equal(vals, [[-1e13, flow.CLIP_FLOOR, flow.CLIP_FLOOR, 1.0],
                                 [flow.CLIP_FLOOR, 0.0, -2e12, 3.0]])
    assert hits.tolist() == [2, 1]


def test_volume_density_needs_p_below_n_plus_2():
    # the kernel's ball average diverges at p >= n + 2 (no finite V to
    # sample); that refusal, and the kernel's own of p outside [1, inf),
    # NaN included, come before any shell or the tangent's flow-invariance
    # defect is evaluated
    def values(pts):
        raise NumericalError("evaluated")

    u = flow.riesz_kernel_field(1.0, 7.0, 4)
    raising = flow.ScalarField(n=4, values=values)
    checks = (lambda v, p, kinds: flow.densities(v, np.zeros(4), p, kinds=kinds),
              lambda v, p, kinds: flow.averages_of_tangent_check(v, p, kinds=kinds))
    for check in checks:
        for v in (u, raising):
            with pytest.raises(DomainError, match="p >= n \\+ 2 = 6"):
                check(v, 7.0, ("M", "S", "V"))
        for p in (math.nan, 0.5, math.inf):
            for kinds in (("M", "S", "V"), ("M", "S")):
                with pytest.raises(DomainError, match=f"kernel needs 1 <= p < inf, got {p}"):
                    check(raising, p, kinds)
        check(u, 7.0, ("M", "S"))
    for p in (math.nan, 0.5, math.inf):
        with pytest.raises(DomainError, match=f"kernel needs 1 <= p < inf, got {p}"):
            flow.mass_density(raising, np.zeros(4), p)


@pytest.mark.parametrize("p", [math.nan, 0.5, math.inf])
def test_the_flow_checks_its_exponent_before_any_evaluation(p):
    def values(pts):
        raise AssertionError("evaluated before the exponent's check")

    raising = flow.ScalarField(n=3, values=values)
    spec = flow.FlowSpec(p=p)
    for call in (lambda: flow.tangent_experiment(raising, spec, raising),
                 lambda: flow.tangent_flow(raising, p, 0.5),
                 lambda: flow.flow_invariance_defect(raising, p)):
        with pytest.raises(DomainError, match=f"^kernel needs 1 <= p < inf, got {p}$"):
            call()


def test_density_rejects_infinite_p(quad3):
    with pytest.raises(DomainError):
        flow.densities(flow.zero_field(3), np.zeros(3), math.inf, quad=quad3)


def _counted(field, x0, means=None):
    """The field with its shell evaluator wrapped to record the radius and
    size of every sampled sphere shell (row) about x0 it is evaluated on;
    given a list `means`, its exact means' evaluator is wrapped to record
    the radii of each call in it."""
    calls = []

    def shells(center, points):
        assert np.array_equal(center, x0)
        evaluate = flow._shell_evaluator(field, center, points)

        def counted(radii):
            calls.extend((round(float(s), 12), points.shape[0]) for s in radii)
            return evaluate(radii)

        return counted

    def exact(center):
        assert np.array_equal(center, x0)
        evaluate = field.means(center)

        def counted(radii):
            means.append([round(float(s), 12) for s in radii])
            return evaluate(radii)

        return counted

    hooks = {"shells": shells}
    if means is not None and field.means is not None:
        hooks["means"] = exact
    return dataclasses.replace(field, **hooks), calls


@pytest.mark.parametrize("field,sampled", [
    # a kernel sum off the ray of its centres, its exact means set aside:
    # every average sampled
    (dataclasses.replace(flow.newtonian_potential_field(
        3.0, [(1.5, np.zeros(3)), (0.5, np.array([2.5, 0.0, 0.0])),
              (0.5, np.array([0.0, 2.5, 0.0]))], 3), means=None), True),
    (flow.riesz_kernel_field(2.0, 2.5, 3), False),
], ids=["sampled-max", "closed-form-max"])
def test_densities_evaluate_each_shell_once(field, sampled, quad3):
    x0 = np.zeros(3)
    radii = flow.default_radii()
    assert (field.analytic_max(x0, radii) is None) is sampled
    means = []
    counted, calls = _counted(field, x0, means)
    rep = flow.densities(counted, x0, 3.0, quad=quad3)
    if sampled:  # M and S share one shell per radius; V adds the shells of its ladders
        assert len(calls) == radii.size + volume_shells(radii.size) == 98
        assert means == []
    else:  # the centred kernel's S and V take one means call; M reads its curve shells
        assert len(calls) == radii.size
        assert [len(set(call)) for call in means] == [radii.size + volume_shells(radii.size)]
    assert {size for _, size in calls} == {quad3.size}
    assert len({radius for radius, _ in calls}) == len(calls)

    # the noise bound is the one the half quadrature gives
    kvals = np.asarray(radial.kernel(radial.KernelSpec(p=3.0), radii), dtype=float)
    noise = 0.0
    half_quad = flow.sphere_quad(3, quad3.size // 2, quad3.seed)
    for kind in ("M", "S", "V"):
        half_curve = flow.average_curves(field, (kind,), x0, radii, half_quad, 3.0)[kind]
        half_q = (half_curve.values[:-1] - half_curve.values[1:]) / (kvals[:-1] - kvals[1:])
        noise = max(noise, float(np.abs(rep.quotients[kind] - half_q).max()))
    assert rep.noise_bound == noise


@pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact-means"])
@pytest.mark.parametrize("kind", "MSV")
def test_each_kind_evaluates_only_its_shells(quad3, kind, exact):
    # sampled (the exact means set aside), each kind evaluates only its own
    # shells; with exact means, S and V read them in one call for every
    # radius of the sweep, and M reads the sphere points only
    x0 = np.zeros(3)
    radii = flow.default_radii()
    field = flow.newtonian_potential_field(3.0, [(1.0, x0), (0.5, np.array([0.3, 0.4, 0.0])),
                                                 (0.5, np.array([0.0, -0.4, 0.2]))], 3)
    means = []
    counted, calls = _counted(field if exact else dataclasses.replace(field, means=None), x0,
                              means)
    flow.average_curves(counted, (kind,), x0, radii, quad3, 3.0)[kind]
    shells = volume_shells(radii.size) if kind == "V" else radii.size
    assert len(calls) == (radii.size if kind == "M" else 0 if exact else shells)
    assert len({radius for radius, _ in calls}) == len(calls)
    assert [len(set(call)) for call in means] == ([shells] if exact and kind != "M" else [])


def test_exact_means_read_no_sphere_point_for_s_and_v(quad3):
    # S and V of a kernel sum off its centres come from its exact means in
    # one call; M's closed form is checked against its curve shells only
    x0 = np.zeros(3)
    radii = flow.default_radii()
    field = flow.newtonian_potential_field(3.0, [(1.0, x0), (0.5, np.array([0.5, 0.0, 0.0]))], 3)
    for kinds, sampled in ((("M", "S", "V"), radii.size), (("S", "V"), 0)):
        means, setups = [], []
        counted, calls = _counted(field, x0, means)
        counted.shells = lambda *args, shells=counted.shells: setups.append(args) or shells(*args)
        report = flow.densities(counted, x0, 3.0, quad=quad3, kinds=kinds)
        assert len(calls) == sampled and len(set(calls)) == sampled
        assert len(setups) == (1 if sampled else 0)  # no projection onto the points either
        assert [len(set(call)) for call in means] == [radii.size + volume_shells(radii.size)]
        assert report.clipped_fraction == 0.0 and report.monotone_ok


def _ladder(field, x0, quad, p, radii, inner, per_annulus, curve="values"):
    """The volume ladder over the decreasing radii, from S curves (their
    `curve` attribute: values or half values): the inner-node
    Gauss-Jacobi ball n int_0^r_min (t/r_min)^(n-1) S(t) dt/r_min, then
    V(b) = (a/b)^n V(a) + n b^-n int_a^b t^(n-1) S(t) dt outwards."""
    n = field.n
    rho, w = _numerics.gauss_jacobi(inner, n + 1.0 - p)
    s_inner = getattr(flow.average_curves(field, ("S",), x0, rho * radii[-1], quad)["S"], curve)
    volume = [n * float(np.sum(w * rho ** (p - 2.0) * s_inner))]
    x, v = np.polynomial.legendre.leggauss(per_annulus)
    for a, b in zip(radii[::-1][:-1], radii[::-1][1:]):
        t = a + 0.5 * (b - a) * (x + 1.0)
        s_annulus = getattr(flow.average_curves(field, ("S",), x0, t, quad)["S"], curve)
        annulus = n * b ** -n * 0.5 * (b - a) * float(np.sum(v * t ** (n - 1) * s_annulus))
        volume.append((a / b) ** n * volume[-1] + annulus)
    return np.array(volume[::-1])


@pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact-means"])
@pytest.mark.parametrize("n,p", [(3, 2.5), (8, 2.5), (4, 5.9)])
def test_volume_average_is_the_ladder_of_shell_means(n, p, exact):
    # V of the innermost ball by the Gauss-Jacobi rule, then each annulus
    # outwards by Gauss-Legendre, from the S means and from the half means
    # (sampled: those of the leading half of the points, the set of half
    # the size; exact: the coarse rule's); the quadrature error is the gap
    # of the deepest quotient to the half-order ladder on the two deepest radii
    field = flow._kernel_sum_field(n, radial.KernelSpec(p=p), np.array([1.5, 0.5]),
                                   np.stack([np.zeros(n), 0.3 * np.eye(n)[0]]))
    field = field if exact else dataclasses.replace(field, means=None)
    quad = flow.sphere_quad(n, 512, seed=1)
    x0 = np.full(n, 0.01)
    radii = np.array([1.0, 0.3, 0.05])
    volume = flow.average_curves(field, ("V",), x0, radii, quad, p)["V"]
    for values, curve in ((volume.values, "values"), (volume.half_values, "half_values")):
        want = _ladder(field, x0, quad, p, radii, flow.JACOBI_NODES, flow.ANNULUS_NODES, curve)
        assert values == pytest.approx(want, rel=1e-13, abs=0.0)
    if not exact:  # the leading half is the set of half the size, bit for bit
        half = flow.average_curves(field, ("V",), x0, radii, flow.sphere_quad(n, 256, seed=1), p)
        assert np.array_equal(volume.half_values, half["V"].values)
    coarse = _ladder(field, x0, quad, p, radii[-2:], flow.JACOBI_NODES // 2,
                     flow.ANNULUS_NODES // 2)
    gap = abs(radial.quotients(volume.values[-2:], radii[-2:], p)[0]
              - radial.quotients(coarse, radii[-2:], p)[0])
    assert volume.quadrature_error == pytest.approx(gap, rel=1e-6)
    assert volume.quadrature_error > 0.0


def test_volume_average_needs_p_and_decreasing_radii(quad3):
    # the inner rule's weight is the kernel's: no default exponent is taken
    u = flow.riesz_kernel_field(1.0, 3.0, 3)
    with pytest.raises(DomainError, match="or without p, got p = None"):
        flow.average_curves(u, ("V",), np.zeros(3), [1.0, 0.5], quad3)["V"]
    with pytest.raises(DomainError, match="strictly decreasing"):
        flow.average_curves(u, ("V",), np.zeros(3), [0.5, 1.0], quad3, 3.0)["V"]
    for p in (5.0, math.nan):
        with pytest.raises(DomainError, match="p >= n \\+ 2 = 5"):
            flow.average_curves(u, ("V",), np.zeros(3), [1.0, 0.5], quad3, p)["V"]
    with pytest.raises(DomainError, match="kernel needs 1 <= p < inf, got nan"):
        flow.densities(u, np.zeros(3), math.nan, quad=quad3)
    for kind in "MS":
        flow.average_curves(u, (kind,), np.zeros(3), [0.5, 1.0], quad3)[kind]


@pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact-means"])
def test_mass_density_evaluates_two_shells_per_radius(quad3, exact):
    # sampled (the exact means set aside, each column read as its value at
    # every point), two shells per radius; with exact means, the centred
    # kernel's two radii per radius in one call
    x0 = np.zeros(3)
    radii = 0.5 ** np.arange(1, 7)
    field = flow.newtonian_potential_field(3.0, [(1.0, x0)], 3)
    means = []
    sampled = dataclasses.replace(field, means=None, shells=_widened(field.shells))
    counted, calls = _counted(field if exact else sampled, x0, means)
    flow.mass_density(counted, x0, 3.0, radii=radii, quad=quad3)
    assert len(calls) == (0 if exact else 2 * radii.size)
    assert len({radius for radius, _ in calls}) == len(calls)
    assert [len(set(call)) for call in means] == ([2 * radii.size] if exact else [])
    if not exact:  # the sampled route reads the values behind the exact means
        want = flow.mass_density(field, x0, 3.0, radii=radii, quad=quad3).ball_masses
        assert flow.mass_density(sampled, x0, 3.0, radii=radii,
                                 quad=quad3).ball_masses == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("p,field", [
    (3.0, flow.riesz_kernel_field(1.0, 3.0, 3)),
    (2.0, flow.newtonian_potential_field(2.0, [(1.0, np.zeros(3))], 3)),
], ids=["p=3", "p=2"])
def test_averages_of_tangent_evaluate_each_shell_once(monkeypatch, quad3, p, field):
    # the flow-invariance defect samples its own grid; only the averages count
    # M reads its curve shells, and S and V the exact means in one call
    monkeypatch.setattr(flow, "flow_invariance_defect", lambda *args, **kwargs: 0.0)
    x0 = np.zeros(3)
    radii = flow.default_radii()
    means = []
    counted, calls = _counted(field, x0, means)
    report = flow.averages_of_tangent_check(counted, p, quad=quad3)
    assert report.passed
    assert len(calls) == radii.size
    assert len({radius for radius, _ in calls}) == len(calls)
    assert [len(set(call)) for call in means] == [radii.size + volume_shells(radii.size)]


@pytest.mark.parametrize("n", range(2, 9))
def test_kernel_sum_shells_match_values(n):
    # off-center x0, 1-3 centers, shells at least 1e-3 s from every center
    rng = np.random.default_rng(100 + n)
    points = flow.sphere_quad(n, 1024, seed=n).points
    checked = 0
    for _ in range(8):
        p = float(rng.choice([1.0, 1.5, 2.0, 2.5, 3.0, float(n)]))
        k = int(rng.integers(1, 4))
        weights = rng.uniform(0.5, 3.0, size=k)
        centers = rng.normal(size=(k, n))
        x0 = rng.normal(size=n)
        fields = [flow.riesz_kernel_field(float(weights[0]), p, n, center=centers[0])]
        if p <= n:
            fields.append(flow.newtonian_potential_field(p, list(zip(weights, centers)), n))
        gaps = np.linalg.norm(centers - x0, axis=1)
        for s in np.geomspace(1e-3, 8.0, 15):
            if np.any(np.abs(gaps - s) < 1e-3 * s):
                continue
            for field in fields:
                want = field.values(x0[None, :] + s * points)
                got = flow._shell_evaluator(field, x0, points)([s])[0]
                # w log d has the absolute error w * (relative error of d)
                scale = np.abs(want) if p != 2.0 else weights.sum()
                assert np.all(np.abs(got - want) <= 1e-13 * scale)
                checked += 1
    assert checked >= 100


NEAR_A_CENTER = [3e-2, -3e-2, 1e-6, -1e-6]


@pytest.mark.parametrize("delta", NEAR_A_CENTER)
def test_kernel_sum_shell_maxima_keep_their_digits_near_a_center(delta):
    # a sample point of the shell lies |delta| s from the center, where q =
    # s (s + 2 t) + |x0 - c|^2 cancels; M reads only the row maximum, where
    # every term is large and q's rounding is relatively small
    for n in range(2, 9):
        rng = np.random.default_rng(n)
        points = flow.sphere_quad(n, 256, seed=n).points
        for p in (1.5, 2.0, 3.0):
            for j in rng.integers(0, points.shape[0], size=4):
                x0 = rng.normal(size=n)
                s = float(rng.uniform(0.1, 3.0))
                field = flow.riesz_kernel_field(1.0, p, n, center=x0 + s * (1.0 + delta) * points[j])
                want = field.values(x0[None, :] + s * points).max()
                got = flow._shell_evaluator(field, x0, points)([s])[0].max()
                assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("delta", NEAR_A_CENTER)
def test_an_off_ray_density_near_a_center_reads_the_theta_m_of_values(delta):
    # the shell of the third curve radius passes |delta| r from the second
    # center, off the ray of the first: M is the sampled maximum
    quad = flow.sphere_quad(3)
    r = flow.default_radii()[2]
    masses = [(1.0, 0.5 * E1), (1.0, r * (1.0 + delta) * quad.points[7])]
    field = flow.newtonian_potential_field(3.0, masses, 3)
    assert field.analytic_max(np.zeros(3), flow.default_radii()) is None
    got = flow.densities(field, np.zeros(3), 3.0, quad=quad).theta["M"]
    plain_field = dataclasses.replace(field, shells=None)
    want = flow.densities(plain_field, np.zeros(3), 3.0, quad=quad).theta["M"]
    assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_kernel_sum_shell_about_a_center_is_the_kernel_of_s(p):
    # |x - c| = s exactly: the shell is one (1, 1) column, w K(s)
    c = np.array([0.3, -1.2, 0.5, 2.0])
    points = flow.sphere_quad(4, 512, seed=1).points
    spec = radial.KernelSpec(p=p)
    single = flow.riesz_kernel_field(1.7, p, 4, center=c)
    double = flow.newtonian_potential_field(p, [(1.7, c), (0.4, c)], 4)
    for s in (1e-3, 0.37, 2.0):
        kernel_s = radial.kernel(spec, s)
        assert np.array_equal(flow._shell_evaluator(single, c, points)([s]), [[1.7 * kernel_s]])
        assert np.array_equal(flow._shell_evaluator(double, c, points)([s]),
                              [[1.7 * kernel_s + 0.4 * kernel_s]])


EPS = np.finfo(float).eps
# the shells against `values` stay within ACCURACY_C * EPS * (2 + |l|),
# l = (2 - p) ln(q) / 2 at the squared distance q of each term, relative;
# at p = 2, l = ln(q) / 2, and the error is absolute, times the weights
ACCURACY_C = 8.0


def _shell_gap(points, p, x0, weights, centers):
    """ACCURACY_C * EPS * (2 + max |l|) per shell point: l as above."""
    q = np.stack([np.sum((x0 + points - c) ** 2, axis=1) for c in centers])
    half_log = 0.5 * np.log(q) * (1.0 if p == 2.0 else 2.0 - p)
    gap = ACCURACY_C * EPS * (2.0 + np.abs(half_log).max(axis=0))
    return gap * weights.sum() if p == 2.0 else gap


@pytest.mark.parametrize("n", range(2, 9))
def test_off_centre_shells_are_accurate(n):
    # x0 at 2g from a centre, shells of radius g: every sample is between g
    # and 3g from it (and 2g to 4g from a second centre), with coordinates
    # of size g, so `values` (sqrt and power) is exact to a few eps there
    rng = np.random.default_rng(300 + n)
    points = flow.sphere_quad(n, 512, seed=n).points
    weights = np.array([1.7, 0.6])
    checked = 0
    for p in sorted({1.0, 1.5, 2.0, 2.5, 3.0, float(n), n + 1.5}):
        for g in np.geomspace(1e-4, 1e2, 7):
            u = rng.normal(size=(3, n))
            u /= np.linalg.norm(u, axis=1)[:, None]
            c = g * u[0]
            x0 = c + 2.0 * g * u[1]
            centers = np.stack([c, x0 + 3.0 * g * u[2]])
            cases = [(flow.riesz_kernel_field(weights[0], p, n, center=c), 1)]
            if p <= n:
                cases.append((flow.newtonian_potential_field(p, list(zip(weights, centers)), n),
                              2))
            for field, k in cases:
                want = field.values(x0[None, :] + g * points)
                got = flow._shell_evaluator(field, x0, points)([g])[0]
                gap = _shell_gap(g * points, p, x0, weights[:k], centers[:k])
                scale = 1.0 if p == 2.0 else np.abs(want)
                assert np.all(np.abs(got - want) <= gap * scale), (p, g, k)
                checked += 1
    assert checked >= 60


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 3.0, 5.5])
def test_an_off_centre_shell_through_its_centre_takes_the_kernel_at_zero(p):
    # x0 = 0, c = 2 e1, the sample point e1 on the shell of radius 2: the
    # squared distance is exactly 0, a -inf hit at p >= 2, K(0) = 0 below
    n = 4
    points = flow.sphere_quad(n, 256, seed=3).points.copy()
    points[7] = np.eye(n)[0]
    field = flow.riesz_kernel_field(1.3, p, n, center=2.0 * np.eye(n)[0])
    got = flow._shell_evaluator(field, np.zeros(n), points)([2.0])[0]
    assert got[7] == (-math.inf if p >= 2.0 else 0.0)
    assert got[7] == field.values(2.0 * points)[7]
    assert np.isfinite(np.delete(got, 7)).all()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_kernel_center_that_is_not_finite_is_refused(value):
    c = np.array([value, 0.0, 0.0])
    with pytest.raises(DomainError, match=r"kernel center \[.*\] is not finite"):
        flow.riesz_kernel_field(1.0, 3.0, 3, center=c)
    with pytest.raises(DomainError, match="is not finite"):
        flow.newtonian_potential_field(3.0, [(1.0, np.zeros(3)), (1.0, c)], 3)


@pytest.mark.parametrize("field", [
    flow.plus_quadratic_field(flow.riesz_kernel_field(1.0, 3.0, 3), 2.0),
    flow.ScalarField(n=3, values=lambda pts: np.sin(np.asarray(pts)).sum(axis=1)),
], ids=["plus-quadratic", "bare"])
def test_fields_without_the_hook_read_shells_through_values(field, quad3):
    assert field.shells is None
    x0 = np.array([0.1, -0.2, 0.05])
    radii = np.array([0.5, 0.25, 0.125])
    curve = flow.average_curves(field, ("S",), x0, radii, quad3)["S"]
    for r, value in zip(radii, curve.values):
        shell = field.values(x0[None, :] + r * quad3.points)
        assert np.array_equal(flow._shell_evaluator(field, x0, quad3.points)([r])[0], shell)
        assert value == float(flow._clipped(shell)[0].mean())


@pytest.mark.parametrize("radii", [[1.0], [], [1.0, 0.5], [0.25, 0.5, 1.0], [1.0, 0.5, 0.5]])
def test_tangent_check_and_holder_need_decreasing_radii(radii):
    # one radius, none, or radii that do not decrease are a domain error,
    # as for the densities, not an IndexError or a silent answer
    with pytest.raises(DomainError, match="strictly decreasing, at least three"):
        flow.averages_of_tangent_check(flow.riesz_kernel_field(1.0, 2.0, 3), 2.0, radii=radii)
    with pytest.raises(DomainError, match="strictly decreasing, at least three"):
        flow.infinitesimal_holder(flow.quadratic_field(1.0, 3), np.zeros(3), 1.5, radii=radii)


def test_curve_csv_evaluates_each_shell_once(tmp_path, quad3):
    x0 = np.zeros(3)
    radii = flow.default_radii()
    field = flow.riesz_kernel_field(1.0, 3.0, 3)
    means = []
    counted, calls = _counted(field, x0, means)
    target = tmp_path / "curves.csv"
    cli._write_curve_csv(str(target), counted, x0, radii, quad3, 3.0)
    # M reads one shell per radius; S and V read the exact means in one call
    assert len(calls) == radii.size
    assert [len(set(call)) for call in means] == [radii.size + volume_shells(radii.size)]
    rows = [f"{kind},{cli._fmt(r)},{cli._fmt(v)},{cli._fmt(q)}" for kind in "MSV"
            for r, v, q in flow.average_curves(field, (kind,), x0, radii, quad3,
                                               3.0)[kind].to_csv_rows(3.0)]
    assert target.read_text() == "\n".join(["kind,r,value,quotient", *rows]) + "\n"


@pytest.mark.parametrize("field", [
    flow.newtonian_potential_field(2.5, [(1.5, np.zeros(3)), (0.5, np.array([0.3, 0.0, 0.0]))], 3),
    flow.plus_quadratic_field(flow.riesz_kernel_field(1.0, 3.0, 3), 2.0),
], ids=["two-centre", "without-hook"])
def test_shell_block_size_does_not_change_a_bit(monkeypatch, field):
    quad = flow.sphere_quad(3, 512, seed=2)
    x0 = np.array([0.01, -0.02, 0.0])

    def reports():
        return pickle.dumps((
            flow.densities(field, np.zeros(3), 2.5, quad=quad),
            flow.densities(field, x0, 3.0, quad=quad),
            flow.mass_density(field, np.zeros(3), 2.5, quad=quad),
            [flow.average_curves(field, (kind,), x0, [1.0, 0.3, 0.05], quad, 3.0)[kind]
             for kind in "MSV"],
        ))

    at_default = reports()
    monkeypatch.setattr(flow, "SHELL_BLOCK", 1)  # one shell per block
    assert reports() == at_default


def test_shell_blocks_hold_at_most_shell_block_values(monkeypatch, quad3):
    # an off-centre kernel, its exact means set aside: every shell sampled
    field = flow.riesz_kernel_field(1.0, 3.0, 3, center=np.full(3, 0.1))
    hook, sizes = field.shells, []

    def shells(x0, points):
        evaluate = hook(x0, points)

        def recorded(radii):
            sizes.append(len(radii) * points.shape[0])
            return evaluate(radii)

        return recorded

    monkeypatch.setattr(flow, "SHELL_BLOCK", 3 * quad3.size)
    flow.densities(dataclasses.replace(field, shells=shells, means=None), np.zeros(3), 3.0,
                   quad=quad3)
    assert max(sizes) == flow.SHELL_BLOCK
    levels = flow.default_radii().size
    assert sum(sizes) == (levels + volume_shells(levels)) * quad3.size


@pytest.mark.parametrize("field", [
    flow.riesz_kernel_field(3.0, 3.0, 8),
    flow.newtonian_potential_field(2.5, [(1.0, np.zeros(8)), (0.5, np.zeros(8))], 8),
], ids=["riesz", "two-masses-at-x0"])
def test_a_centred_kernel_report_is_one_means_call(field):
    # every term centred at x0: S and V read the exact means of all 98
    # radii of the report in one call, and M samples its 6 curve shells,
    # SHELL_BLOCK // 16384 = 4 radii at a time
    x0 = np.zeros(8)
    quad = flow.sphere_quad(8)
    means = []
    counted, calls = _counted(field, x0, means)
    report = flow.densities(counted, x0, 3.0, quad=quad)
    levels = flow.default_radii().size
    assert [len(set(call)) for call in means] == [levels + volume_shells(levels)] == [98]
    assert len(calls) == len(set(calls)) == levels
    assert plain.same_floats(report, plain.densities(field, x0, 3.0, quad=quad))


def _one_radius_low(field, i):
    """The field with its closed-form max 1 too low at the i-th radius only."""
    exact = field.analytic_max

    def lowered(x0, radii):
        return exact(x0, radii) - (np.arange(radii.size) == i)

    return dataclasses.replace(field, analytic_max=lowered)


@pytest.mark.parametrize("shell_block", [flow.SHELL_BLOCK, 1], ids=["one-block", "per-radius"])
@pytest.mark.parametrize("name", ["centred", "on-ray", "sampled"])
def test_a_closed_form_too_low_at_one_radius_is_refused_there(monkeypatch, quad3, name,
                                                              shell_block):
    # M's check compares every curve radius, in one block or one radius per
    # block: the closed form too low at the third radius only is caught
    # there, with that radius's sampled maximum and closed form
    monkeypatch.setattr(flow, "SHELL_BLOCK", shell_block)
    x0 = np.zeros(3)
    field = {"centred": flow.riesz_kernel_field(2.0, 3.0, 3),
             "on-ray": flow.newtonian_potential_field(3.0, [(1.0, x0), (0.5, 2.5 * E1)], 3),
             "sampled": flow.plus_quadratic_field(flow.zero_field(3), 2.0)}[name]
    if name == "sampled":  # the max of |x|^2 over the sphere of radius r is r^2
        field = dataclasses.replace(field, analytic_max=lambda x0, radii: radii ** 2)
    radii = flow.default_radii()
    sampled = float(flow._shell_evaluator(field, x0, quad3.points)(radii[2:3]).max())
    exact = float(field.analytic_max(x0, radii)[2]) - 1.0
    message = f"sampled spherical max {sampled} exceeds closed form {exact}"
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        flow.densities(_one_radius_low(field, 2), x0, 3.0, quad=quad3)
    flow.densities(_one_radius_low(field, radii.size), x0, 3.0, quad=quad3)  # none too low


@pytest.mark.parametrize("name,field", [
    ("riesz-n=8", flow.riesz_kernel_field(3.0, 3.0, 8)),
    ("two-masses-at-x0", flow.newtonian_potential_field(2.5, [(1.0, np.zeros(8)),
                                                             (0.5, np.zeros(8))], 8)),
    ("riesz-n=3", flow.riesz_kernel_field(2.0, 2.5, 3)),
    ("on-ray", flow.newtonian_potential_field(3.0, [(1.0, np.zeros(3)),
                                                   (0.5, 2.5 * np.eye(3)[0])], 3)),
    ("log-coord", flow.log_modulus_coordinate_field(2)),
], ids=lambda value: value if isinstance(value, str) else "")
def test_m_takes_one_closed_form_call_and_reads_centred_shells_as_columns(monkeypatch, name,
                                                                          field):
    # the closed forms of a report come from one call with every curve
    # radius; a centred kernel's shells reach M's check as (k, 1) columns,
    # a sum with a centre off x0 as full rows; the report is the plain one
    x0 = np.zeros(field.n)
    quad = flow.sphere_quad(field.n)
    calls, blocks = [], []
    exact = field.analytic_max
    counted = dataclasses.replace(
        field, analytic_max=lambda x0, radii: calls.append(radii.tolist()) or exact(x0, radii))
    maxima = flow._maxima
    monkeypatch.setattr(flow, "_maxima", lambda radii, vals, closed: (
        blocks.append(vals.shape) or maxima(radii, vals, closed)))
    report = flow.densities(counted, x0, 3.0, quad=quad)
    monkeypatch.undo()
    radii = flow.default_radii()
    assert calls == [radii.tolist()]
    centred = name not in ("on-ray", "log-coord")
    assert {m for _, m in blocks} == {1 if centred else quad.size}
    assert sum(k for k, _ in blocks) == radii.size
    assert plain.same_floats(report, plain.densities(field, x0, 3.0, quad=quad))


@pytest.mark.parametrize("p,masses", [
    (3.0, [(3.0, np.zeros(8))]),
    (2.0, [(3.0, np.zeros(8))]),
    (1.5, [(3.0, np.zeros(8))]),
    (2.5, [(1.0, np.zeros(8)), (0.5, np.zeros(8)), (0.0, np.zeros(8))]),
], ids=["riesz-p=3", "riesz-p=2", "riesz-p=1.5", "three-masses-at-x0"])
def test_a_centred_kernel_s_curve_is_its_weighted_kernels_bit_for_bit(p, masses):
    # each term's mean is its column w K(r): the S curve is the terms'
    # weighted kernels at the radii, summed in their order from zeros
    spec = radial.KernelSpec(p=p)
    field = flow.newtonian_potential_field(p, masses, 8)
    radii = flow.default_radii()
    want = np.zeros(radii.size)
    for w, _ in masses:
        want += radial.weighted_kernel(spec, w, radii.copy())
    curve = flow.average_curves(field, ("S",), np.zeros(8), radii, flow.sphere_quad(8, 256))
    assert curve["S"].values.tobytes() == want.tobytes()
    assert curve["S"].half_values.tobytes() == want.tobytes()


def test_a_centred_overflow_is_refused_in_the_memory_of_a_column():
    # theta * K(r) is -1e308 at radius 1 and overflows at radius 1/2: the
    # means of the 98 radii, one value each, are refused before any sphere
    # shell is read
    import tracemalloc

    quad = flow.SphereQuad(3, 1 << 16)
    field = flow.riesz_kernel_field(1e308, 3.0, 3)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=r"^the sphere mean at radius 0\.5 is not finite"):
            flow.densities(field, np.zeros(3), 3.0, quad=quad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_hit_is_never_the_sampled_maximum():
    # every finite sample of the shell of radius 1/2 about -e1/2 is below
    # CLIP_FLOOR, and its point e1 hits the pole at the origin: M is the
    # largest finite sample, not the clipped hit
    points = flow.sphere_quad(3, 256, seed=1).points.copy()
    points[0] = np.eye(3)[0]
    quad = flow.SphereQuad(3, 256, 1)
    quad.points = points
    field = flow.plus_quadratic_field(flow.riesz_kernel_field(1e300, 3.0, 3), 2.0)
    x0 = -0.5 * np.eye(3)[0]
    curve = flow.average_curves(field, ("M",), x0, [0.5, 0.25], quad)["M"]
    samples = field.values(x0 + 0.5 * points)
    assert np.isinf(samples[0]) and np.nanmax(samples[1:]) < -6e299
    assert curve.values[0] == np.max(samples[1:])


# The kernel-sum shell path as it was before the terms were summed in place:
# a (k, m) array of zeros plus each term in order, every value scanned by
# `_clipped`, and numpy's `mean` (`_reference_rows` in place of
# `flow._shell_rows`).  The shell path must keep its floats; the reports
# below set the exact means aside, so that every average reads it, a
# centred sum's (k, 1) column as its value at every point (`_widened`).  An
# off-centre term is w K of the squared distance, through the same kernel
# helper as the shells; test_off_centre_shells_are_accurate pins that
# helper against `values`.


def _reference_term(spec, weight, r):
    """weight * K(r), with the kernel's value where r = 0 filled in."""
    out = np.full(r.shape, 0.0 if spec.p < 2.0 else -np.inf)
    pos = r > 0.0
    t = r[pos]
    vals = np.log(t) if spec.p == 2.0 else t ** (2.0 - spec.p)
    out[pos] = vals * (-weight if spec.p > 2.0 else weight)
    return out


def _reference_shells(p, masses):
    spec = radial.KernelSpec(p=p)

    def shells(x0, points):
        def evaluate(radii):
            radii = np.asarray(radii, dtype=float)
            out = np.zeros((radii.size, points.shape[0]))
            for w, c in masses:
                a = x0 - np.asarray(c, dtype=float)
                if not a.any():
                    out += _reference_term(spec, w, radii)[:, None]
                    continue
                dist = radii[:, None] * (radii[:, None] + points @ (2.0 * a)) + a.dot(a)
                with np.errstate(divide="ignore", invalid="ignore"):
                    out += radial.weighted_kernel_of_square(spec, w, dist)
            return out

        return evaluate

    return shells


def _reference_rows(field, x0, quad, radii, maxima, means_from=0):
    evaluate = flow._shell_evaluator(field, x0, quad.points)
    step = max(1, flow.SHELL_BLOCK // quad.size)
    means, halves, absolute, hits, tops = [], [], [], [], []
    for lo in range(0, radii.size, step):
        block = radii[lo:lo + step]
        raw = evaluate(block)
        vals, nclip = flow._clipped(raw)
        if np.any(nclip == quad.size):
            raise DomainError("all sphere samples hit the singular set")
        means += list(vals.mean(axis=1))
        halves += list(vals[:, :quad.size // 2].mean(axis=1))
        absolute += list(np.abs(vals).mean(axis=1))
        hits += list(nclip)
        tops += [plain.maximum(field, x0, r, row) for r, row in zip(block[:max(0, maxima - lo)],
                                                                     raw)]
    return (np.array(means), np.array(halves), np.array(absolute), np.zeros(len(means)),
            np.array(hits, dtype=int), np.reshape(tops, (-1, 2)).T, flow._sum_depth(quad.size))


def _widened(shells):
    """The shells hook with a (k, 1) column read as its value at each point."""
    def hook(x0, points):
        evaluate = shells(x0, points)
        return lambda radii: np.broadcast_to(evaluate(radii), (len(radii), points.shape[0]))

    return hook


def _shell_reports(field, p, quad):
    field = dataclasses.replace(field, means=None, shells=_widened(field.shells))
    x0 = np.zeros(field.n)
    radii = [1.0, 0.3, 0.05]
    return pickle.dumps((flow.densities(field, x0, p, quad=quad),
                         flow.mass_density(field, x0, p, quad=quad),
                         [flow.average_curves(field, (kind,), x0, radii, quad, p)[kind]
                          for kind in "MSV"]))


E1 = np.eye(3)[0]


def _potential(p, masses):
    return p, masses, flow.newtonian_potential_field(p, masses, masses[0][1].size)


@pytest.mark.parametrize("p,masses,field", [
    *[(p, [(1.7, np.zeros(3))], flow.riesz_kernel_field(1.7, p, 3)) for p in (1.5, 2.0, 3.0)],
    *[_potential(2.5, [(1.5, np.zeros(n)), (0.5, np.eye(n)[0] * 2.5)]) for n in (3, 6, 8)],
    *[_potential(2.5, [(1.5, np.eye(n)[0] * 2.5), (0.5, np.eye(n)[1] * 2.5)]) for n in (3, 6, 8)],
    _potential(2.5, [(1.5, 2.5 * E1), (0.5, -3.0 * E1)]),
    _potential(3.0, [(0.0, 2.5 * E1), (0.0, np.zeros(3))]),
    _potential(2.0, [(0.0, np.zeros(3)), (0.0, 2.5 * E1)]),
], ids=[*(f"centred-p={p}" for p in (1.5, 2, 3)), *(f"two-centre-n={n}" for n in (3, 6, 8)),
        *(f"off-ray-n={n}" for n in (3, 6, 8)), "far-only", "zero-weight-far-first", "zero-weight-centred-first"])
def test_kernel_sum_shells_keep_the_floats_of_the_zeros_and_mean_path(monkeypatch, p, masses,
                                                                        field):
    quad = flow.sphere_quad(field.n)
    radii = np.array([1.0, 0.3, 0.05])
    rows = field.shells(np.zeros(field.n), quad.points)(radii)
    want = _reference_shells(p, masses)(np.zeros(field.n), quad.points)(radii)
    centred = not any(np.any(c) for _, c in masses)
    assert rows.shape == (radii.size, 1 if centred else quad.size)
    rows = np.broadcast_to(rows, want.shape)
    assert np.array_equal(rows, want) and np.array_equal(np.signbit(rows), np.signbit(want))
    got = _shell_reports(field, p, quad)
    monkeypatch.setattr(flow, "_shell_rows", _reference_rows)
    assert got == _shell_reports(dataclasses.replace(field, shells=_reference_shells(p, masses)),
                                 p, quad)


@pytest.mark.parametrize("shell_block", [flow.SHELL_BLOCK, 1])
def test_three_centre_shells_keep_the_floats_of_the_zeros_and_mean_path(monkeypatch,
                                                                         shell_block):
    # two off-centre terms, each a fresh array summed in place, read in
    # blocks of many shells and of one
    monkeypatch.setattr(flow, "SHELL_BLOCK", shell_block)
    p, masses, field = _potential(2.5, [(1.5, np.zeros(3)), (0.5, 2.5 * E1),
                                        (0.7, -0.4 * np.eye(3)[2])])
    quad = flow.sphere_quad(3)
    radii = np.array([1.0, 0.3, 0.05])
    evaluate = field.shells(np.zeros(3), quad.points)
    want = _reference_shells(p, masses)(np.zeros(3), quad.points)
    for block in (radii, radii[:1], radii[1:]):
        rows = evaluate(block)
        assert np.array_equal(rows, want(block))
    got = _shell_reports(field, p, quad)
    monkeypatch.setattr(flow, "_shell_rows", _reference_rows)
    assert got == _shell_reports(dataclasses.replace(field, shells=_reference_shells(p, masses)),
                                 p, quad)


def test_a_two_centre_density_peaks_below_a_quarter_of_its_points():
    import tracemalloc

    e1 = np.eye(16)[0]
    field = flow.newtonian_potential_field(3.0, [(1.0, np.zeros(16)), (1.0, 0.5 * e1)], 16)
    quad = flow.sphere_quad(16)
    flow.densities(field, np.zeros(16), 3.0, radii=[1.0, 0.5, 0.25], quad=quad)  # imports
    tracemalloc.start()
    try:
        flow.densities(field, np.zeros(16), 3.0, quad=quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert quad.points.nbytes == 8 * 2**20
    assert peak <= quad.points.nbytes / 4  # 2.07 times with (m, n) arrays per centre


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_a_shell_through_a_far_centre_keeps_its_hits(monkeypatch, p):
    # x0 = 0, c = 2 e1 and the quadrature point e1: the shell of radius 2
    # meets c, where the distance is exactly 0
    points = flow.sphere_quad(3, 512, seed=2).points.copy()
    points[5] = E1
    quad = flow.SphereQuad(3, 512, 2)
    quad.points = points
    masses = [(1.0, np.zeros(3)), (1.0, 2.0 * E1)]
    # its exact means set aside, so that S and V read the sampled shells
    field = dataclasses.replace(flow.newtonian_potential_field(p, masses, 3), means=None)
    radii = np.array([2.0, 1.0])
    vals, _ = flow._clipped(flow._shell_evaluator(field, np.zeros(3), points)(radii))
    _, _, _, _, hits, _, _ = flow._shell_rows(field, np.zeros(3), quad, radii, 0)
    reference = _reference_shells(p, masses)(np.zeros(3), points)
    want_vals, want_hits = flow._clipped(reference(radii))
    assert np.array_equal(vals, want_vals) and hits.tolist() == want_hits.tolist()
    assert hits.tolist() == ([0, 0] if p < 2.0 else [1, 0])
    got = pickle.dumps([flow.average_curves(field, (kind,), np.zeros(3), radii, quad, p)[kind]
                        for kind in "MSV"])
    monkeypatch.setattr(flow, "_shell_rows", _reference_rows)
    field = dataclasses.replace(field, shells=_reference_shells(p, masses))
    assert got == pickle.dumps([flow.average_curves(field, (kind,), np.zeros(3), radii, quad,
                                                    p)[kind] for kind in "MSV"])


FAR = 1e160 * np.eye(4)[0]  # |FAR|^2 overflows


@pytest.mark.parametrize("p", [2.001, 3.0])
def test_m_keeps_a_centre_whose_squared_distance_overflows(p):
    # the closed form takes d from math.hypot and the shells scale the term
    # by d, as the exact means do: M and S agree, with no overflow warning
    spec, radii, x0 = radial.KernelSpec(p=p), flow.default_radii(), np.zeros(4)
    quad = flow.sphere_quad(4)
    far = flow.riesz_kernel_field(1.0, p, 4, center=FAR)
    field = flow.newtonian_potential_field(p, [(1.0, x0), (1.0, FAR)], 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = far.shells(x0, quad.points)(radii)
        closed = field.analytic_max(x0, radii)
        curves = flow.average_curves(field, ("M", "S"), x0, radii, quad, p)
    k_far = radial.kernel(spec, 1e160)
    assert np.all(np.abs(rows - k_far) <= 1e-12 * abs(k_far))
    assert np.array_equal(closed, radial.kernel(spec, radii) + radial.kernel(spec, radii + 1e160))
    assert np.all(np.abs(curves["M"].values - curves["S"].values)
                  <= 1e-12 * np.abs(curves["S"].values))


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_m_refuses_a_centre_whose_squared_distance_overflows_at_p_up_to_2(p):
    field = flow.newtonian_potential_field(p, [(1.0, np.zeros(4)), (1.0, FAR)], 4)
    with pytest.raises(DomainError, match="^the sphere mean of a kernel centre at distance "
                       "1e\\+160 from x0 is refused at p <= 2: its squared distance overflows$"):
        flow.average_curves(field, ("M",), np.zeros(4), flow.default_radii(), None, p)


def test_harnack_constants():
    assert flow.harnack_constant(2) == pytest.approx((math.e + 1.0) / (math.e - 1.0), abs=1e-12)
    assert flow.harnack_constant(2) == pytest.approx(2.1640, abs=1e-4)
    assert flow.harnack_constant(4) > flow.harnack_constant(3) > 1.0


# ---------------------------------------------------------------------------
# mass density
# ---------------------------------------------------------------------------


def test_newtonian_mass_density(quad3):
    u = flow.newtonian_potential_field(3.0, [(1.0, np.zeros(3))], 3)
    rep = flow.mass_density(u, np.zeros(3), 3.0, radii=0.5 ** np.arange(1, 7), quad=quad3)
    four_pi = 4.0 * math.pi
    assert np.abs(rep.ball_masses / four_pi - 1.0).max() <= 0.02
    assert rep.theta_mass == pytest.approx(four_pi, rel=0.02)
    assert rep.spherical_residual <= 0.02


def test_harmonic_field_has_no_mass(quad3):
    # a coordinate function is harmonic: the flux vanishes
    u = flow.ScalarField(n=3, values=lambda pts: np.asarray(pts)[:, 0])
    rep = flow.mass_density(u, np.zeros(3), 3.0, radii=0.5 ** np.arange(1, 5), quad=quad3)
    assert np.abs(rep.ball_masses).max() <= 5e-3  # pure quadrature bias


def test_mass_density_requires_n_at_least_three():
    u = flow.zero_field(2)
    with pytest.raises(DomainError):
        flow.mass_density(u, np.zeros(2), 2.0)


@pytest.mark.parametrize("call,message", [
    (lambda u: flow.mass_density(u, np.zeros(3), math.inf),
     "kernel needs 1 <= p < inf, got inf"),
    (lambda u: flow.mass_density(u, np.zeros(3), 3.5), "mass density needs p <= n"),
    (lambda u: flow.tangent_flow(u, math.inf, 0.5), "kernel needs 1 <= p < inf, got inf"),
    (lambda u: flow.average_curves(u, ("X",), np.zeros(3), [0.5]), "unknown average kind 'X'"),
    (lambda u: flow.tangent_experiment(u, flow.FlowSpec(p=3.0, radii=[0.5]), u, metric="l2"),
     "unknown metric 'l2'"),
    (lambda u: flow.unit_ball_volume(-1), "dimension must be >= 0"),
    (lambda u: flow.SphereQuad(1), "sphere quadrature needs n >= 2"),
    (lambda u: flow.SphereQuad(3, 4), "quadrature size too small"),
    (lambda u: flow.averages_of_tangent_check(u, math.inf),
     "kernel needs 1 <= p < inf, got inf"),
    (lambda u: flow.holder_estimate(u, np.ones(3), 0.1, 1.0, 2.0),
     "Hoelder estimates need 1 <= p < 2"),
    (lambda u: flow.holder_estimate(u, np.ones(3), 0.5, 1.0, 1.5), "need 0 < 3 rho <= R"),
    # K_3(0) = -inf
    (lambda u: flow.holder_estimate(u, np.zeros(3), 0.1, 1.0, 1.5),
     "field must be finite at the center"),
    (lambda u: flow.infinitesimal_holder(u, np.ones(3), 2.0), "needs 1 <= p < 2"),
    (lambda u: flow.partial_kernel_hessian(3.0, 2, [1.0]), "point has fewer than m coordinates"),
    (lambda u: flow.partial_kernel_hessian(3.0, 2, [0.0, 0.0, 1.0]),
     "Hessian undefined on the singular slice"),
    (lambda u: flow.max_of_fields(), "need at least one field"),
    (lambda u: flow.max_of_fields(u, flow.zero_field(4)), "dimension mismatch"),
    (lambda u: flow.quadratic_field(1.0), "scalar quadratic needs n"),
], ids=["mass-inf", "mass-above-n", "flow-inf", "average-kind", "metric", "ball-volume",
        "quad-n1", "quad-size", "tangent-infinite-p", "holder-p", "holder-radii",
        "holder-center", "infinitesimal-holder-p", "hessian-short-point", "hessian-on-slice",
        "max-of-nothing", "max-mismatch", "quadratic-without-n"])
def test_flow_refusals(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call(flow.riesz_kernel_field(1.0, 3.0, 3))


# ---------------------------------------------------------------------------
# tangent experiments
# ---------------------------------------------------------------------------


def test_radial_perturbed_flows_to_kernel():
    u = flow.plus_quadratic_field(flow.riesz_kernel_field(1.0, 3.0, 4), 2.0)
    cand = flow.riesz_kernel_field(1.0, 3.0, 4)
    rec = flow.tangent_experiment(u, flow.FlowSpec(p=3.0), cand, metric="sup", tol=1e-3)
    assert rec.converged
    assert np.all(np.diff(rec.distances) < 0.0)


def test_two_mass_potential_flows_to_kernel():
    masses = [(2.0, np.zeros(4)), (1.0, np.array([0.9, 0.0, 0.0, 0.0]))]
    u = flow.newtonian_potential_field(3.0, masses, 4)
    cand = flow.riesz_kernel_field(2.0, 3.0, 4)
    rec = flow.tangent_experiment(u, flow.FlowSpec(p=3.0), cand, metric="l1", tol=1e-2)
    assert rec.converged


def test_smooth_field_flows_to_zero():
    u = flow.quadratic_field(1.0, 4)
    rec = flow.tangent_experiment(u, flow.FlowSpec(p=3.0), flow.zero_field(4),
                                  metric="sup", tol=1e-3)
    assert rec.converged


def test_average_stability_along_flow(quad4):
    # averages of the flowed fields converge to the averages of the limit
    u = flow.plus_quadratic_field(flow.riesz_kernel_field(1.0, 3.0, 4), 2.0)
    limit = flow.riesz_kernel_field(1.0, 3.0, 4)
    gaps = []
    for r in (0.25, 0.0625, 0.015625):
        flowed = flow.tangent_flow(u, 3.0, r)
        gap = 0.0
        for kind in "MSV":
            gap = max(gap, abs(average(kind, flowed, np.zeros(4), 1.0, quad4, 3.0)
                               - average(kind, limit, np.zeros(4), 1.0, quad4, 3.0)))
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] <= 1e-4


def test_tangent_density_matches_source_density(quad4):
    # theta of every computed tangent equals theta of the source field
    u = flow.plus_quadratic_field(flow.riesz_kernel_field(1.0, 3.0, 4), 2.0)
    limit = flow.riesz_kernel_field(1.0, 3.0, 4)
    rep_u = flow.densities(u, np.zeros(4), 3.0, quad=quad4)
    rep_t = flow.densities(limit, np.zeros(4), 3.0, quad=quad4)
    for kind in ("M", "S", "V"):
        combined = rep_u.bracket[kind] + rep_t.bracket[kind] + 1e-6
        assert abs(rep_u.theta[kind] - rep_t.theta[kind]) <= combined


def test_averages_of_tangent_kernel():
    rep = flow.averages_of_tangent_check(flow.riesz_kernel_field(3.0, 3.0, 4), 3.0)
    assert rep.passed and rep.worst_violation <= 1e-9


def test_averages_of_tangent_log_modulus(quad4):
    rep = flow.averages_of_tangent_check(flow.log_modulus_coordinate_field(2), 2.0,
                                         quad=quad4)
    assert rep.passed
    assert "S-const" in rep.note


def test_averages_of_tangent_partial_kernel():
    u = flow.partial_kernel_field(3.0, 2, 4)
    rep = flow.averages_of_tangent_check(u, 3.0, kinds=("M",))
    assert rep.passed


# ---------------------------------------------------------------------------
# catalog fields
# ---------------------------------------------------------------------------


def test_partial_kernel_hessian_on_min_max_boundary():
    p, m, n = 3.0, 2, 4
    u = flow.partial_kernel_field(p, m, n)
    f = subeq.builtin("min-max", n, p=p)
    rng = np.random.default_rng(8)
    for _ in range(25):
        x = rng.standard_normal(n)
        exact = flow.partial_kernel_hessian(p, m, x)
        # margin vanishes identically off the singular slice
        assert abs(f.margin(exact)) <= 1e-8
        vals = linalg.ordered_eigenvalues(exact)
        r = np.linalg.norm(x[:m])
        expected = np.sort(np.r_[-(p - 1.0), np.zeros(n - m), np.ones(m - 1)] / r**p)
        assert np.allclose(vals, expected, atol=1e-10)
    # finite differences agree with the closed form
    x = np.array([0.8, -0.5, 0.3, 1.1])
    fd = linalg.finite_diff_hessian(u.values, x)
    exact = flow.partial_kernel_hessian(p, m, x)
    assert np.linalg.norm(fd - exact) <= 1e-6 * (1.0 + np.linalg.norm(exact))


def test_max_of_kernels_values():
    a = np.array([1.0, 0.0, 0.0])
    k0 = flow.riesz_kernel_field(1.0, 1.5, 3)
    k1 = flow.riesz_kernel_field(1.0, 1.5, 3, center=a)
    u = flow.max_of_fields(k0, k1)
    pts = np.array([[0.2, 0.0, 0.0], [0.9, 0.0, 0.0]])
    expected = np.maximum(k0.values(pts), k1.values(pts))
    assert np.allclose(u.values(pts), expected)


def test_a_combined_field_keeps_the_poles_of_each_part():
    # the kernel's pole is a singular point, the log field's set a distance
    kernel = flow.riesz_kernel_field(1.0, 3.0, 4, center=[0.0, 0.0, 1.0, 0.0])
    log = flow.log_modulus_coordinate_field(2)
    x = np.array([0.0, 0.0, 1.001, 0.0])
    assert log.distance_to_singular(x) == pytest.approx(1.001, rel=1e-15)
    both = flow.max_of_fields(kernel, log)
    assert both.distance_to_singular(x) == kernel.distance_to_singular(x)
    assert both.distance_to_singular(x) == pytest.approx(0.001, rel=1e-12)
    flowed = flow.tangent_flow(both, 3.0, 0.5)
    assert flowed.distance_to_singular(x / 0.5) == pytest.approx(0.002, rel=1e-12)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_field_masses_must_be_finite_and_nonnegative(bad):
    with pytest.raises(DomainError):
        flow.riesz_kernel_field(bad, 3.0, 4)
    with pytest.raises(DomainError):
        flow.newtonian_potential_field(3.0, [(1.0, np.zeros(3)), (bad, np.ones(3))], 3)


def test_newtonian_single_mass_equals_kernel():
    u = flow.newtonian_potential_field(3.0, [(2.0, np.zeros(3))], 3)
    k = flow.riesz_kernel_field(2.0, 3.0, 3)
    pts = np.random.default_rng(0).standard_normal((40, 3))
    assert np.allclose(u.values(pts), k.values(pts), atol=1e-12)


# ---------------------------------------------------------------------------
# density decay and upper semicontinuity
# ---------------------------------------------------------------------------


def test_density_decay_along_ray(quad3):
    a = np.array([1.0, 0.0, 0.0])
    u = flow.newtonian_potential_field(2.0, [(1.0, np.zeros(3)), (1.0, a)], 3)
    path = [np.array([0.0, 0.0, 1.0]) * 2.0 ** (-k) for k in range(2, 10)]
    rep = flow.density_decay_check(u, np.zeros(3), path, 2.0, quad=quad3)
    assert rep.center_theta == pytest.approx(1.0, rel=0.01)
    assert np.all(rep.path_thetas[rep.path_norms <= 2.0**-8] <= 1e-3)
    assert rep.usc_ok


def test_decay_rejects_singular_path_point(quad3):
    u = flow.riesz_kernel_field(1.0, 2.0, 3)
    with pytest.raises(DomainError):
        flow.density_decay_check(u, np.zeros(3), [np.zeros(3)], 2.0, quad=quad3)


# ---------------------------------------------------------------------------
# Hoelder machinery
# ---------------------------------------------------------------------------


def test_holder_estimate_constant_field(quad3):
    u = flow.ScalarField(n=3, values=lambda pts: np.full(np.asarray(pts).shape[0], 3.0),
                         analytic_max=lambda x0, radii: np.full(radii.size, 3.0))
    assert flow.holder_estimate(u, np.zeros(3), 0.2, 1.0, 1.5, quad3) == pytest.approx(0.0)


def test_infinitesimal_holder_of_kernel():
    u = flow.riesz_kernel_field(1.0, 1.5, 3)
    got = flow.infinitesimal_holder(u, np.zeros(3), 1.5, radii=0.5 ** np.arange(9))
    assert got == pytest.approx(1.0, abs=1e-12)


def test_holder_bound_dominates_sampled_quotients(quad3):
    p, alpha = 1.5, 0.5
    u = flow.riesz_kernel_field(1.0, p, 3)
    rho, big_r = 0.3, 1.0
    bound = flow.holder_estimate(u, np.zeros(3), rho, big_r, p, quad3)
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((1000, 3))
    pts = rho * pts / np.linalg.norm(pts, axis=1)[:, None]
    pts *= rng.uniform(0.0, 1.0, 1000)[:, None] ** (1.0 / 3.0)
    vals = u.values(pts)
    ii = rng.integers(0, 1000, 2000)
    jj = rng.integers(0, 1000, 2000)
    keep = ii != jj
    quot = np.abs(vals[ii[keep]] - vals[jj[keep]]) / np.linalg.norm(
        pts[ii[keep]] - pts[jj[keep]], axis=1
    ) ** alpha
    assert quot.max() <= bound


def test_holder_flow_seminorm_bound():
    p = 1.5
    u = flow.riesz_kernel_field(1.0, p, 3)
    rec = flow.tangent_experiment(u, flow.FlowSpec(p=p), flow.riesz_kernel_field(1.0, p, 3),
                                  metric="sup", tol=1e-3)
    assert rec.converged
    assert rec.holder_bound_ok
    assert rec.holder_seminorms.max() <= rec.holder_bound * (1.0 + 1e-6)


def _redrawn_tangent_experiment(field, spec, candidate, metric, tol, beta=None, quad=None):
    """Reference: the tangent experiment that redraws its 2048 seminorm
    pairs from a fresh default_rng(11) at every radius and computes their
    gaps each time, as numpy's row norms."""
    def clipped(vals):
        return np.where(np.isfinite(vals), vals, flow.CLIP_FLOOR)

    def two_point_quotient(values, pts, alpha, rng, pairs):
        ii = rng.integers(0, pts.shape[0], size=pairs)
        jj = rng.integers(0, pts.shape[0], size=pairs)
        keep = ii != jj
        ii, jj = ii[keep], jj[keep]
        gaps = np.linalg.norm(pts[ii] - pts[jj], axis=1)
        keep = gaps > 0
        return (np.abs(values[ii] - values[jj])[keep] / gaps[keep] ** alpha).max()

    p = spec.p
    pts = flow.comparison_grid(spec, field.n)
    rng = np.random.default_rng(13)
    cand_vals = clipped(candidate.values(pts))
    distances, seminorms = [], []
    for r in spec.radii:
        vals = clipped(flow.tangent_flow(field, p, r, quad).values(pts))
        diff = vals - cand_vals
        if metric == "sup":
            distances.append(float(np.abs(diff).max()))
        else:
            distances.append(float(np.abs(diff).max()
                                   + two_point_quotient(diff, pts, beta, rng, 512)))
        seminorms.append(float(two_point_quotient(vals, pts, 2.0 - p,
                                                  np.random.default_rng(11), 2048)))
    rep = flow.densities(field, np.zeros(field.n), p, kinds=("M",), quad=quad)
    bound = rep.theta["M"] + rep.bracket["M"] + rep.noise_bound + 1e-6
    seminorms = np.asarray(seminorms)
    return flow.ConvergenceRecord(
        metric=metric, radii=spec.radii, distances=np.asarray(distances),
        converged=bool(distances[-1] <= tol), tolerance=tol, holder_seminorms=seminorms,
        holder_bound=bound, holder_bound_ok=bool(seminorms[-3:].max() <= bound * (1.0 + 1e-3)
                                                 + 1e-9))


@pytest.mark.parametrize("metric", ["sup", "holder"])
@pytest.mark.parametrize("field,p", [
    (flow.riesz_kernel_field(1.0, 1.5, 3), 1.5),
    (flow.riesz_kernel_field(1.7, 1.3, 3), 1.3),
    (flow.plus_quadratic_field(flow.riesz_kernel_field(0.8, 1.6, 4), 2.0), 1.6),
])
def test_tangent_records_equal_those_that_redraw_the_pairs_at_every_radius(field, p, metric):
    spec = flow.FlowSpec(p=p)
    candidate = flow.riesz_kernel_field(1.0, p, field.n)
    beta = 0.5 * (2.0 - p) if metric == "holder" else None
    got = flow.tangent_experiment(field, spec, candidate, metric=metric, tol=1e-6, beta=beta)
    want = _redrawn_tangent_experiment(field, spec, candidate, metric, 1e-6, beta)
    for f in dataclasses.fields(flow.ConvergenceRecord):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
        else:
            assert type(a) is type(b) and a == b, f.name
    assert got.distances.any()  # the candidate differs from some flowed fields


def test_holder_metric_distance():
    p = 1.5
    u = flow.riesz_kernel_field(1.0, p, 3)
    rec = flow.tangent_experiment(u, flow.FlowSpec(p=p), flow.riesz_kernel_field(1.0, p, 3),
                                  metric="holder", beta=0.3, tol=1e-6)
    assert rec.converged


def test_holder_parameter_validation(quad3):
    u = flow.riesz_kernel_field(1.0, 1.5, 3)
    with pytest.raises(DomainError):
        flow.holder_estimate(u, np.zeros(3), 0.5, 1.0, 1.5, quad3)  # 3 rho > R
    with pytest.raises(DomainError):
        flow.holder_estimate(u, np.zeros(3), 0.2, 1.0, 3.0, quad3)  # p >= 2


def test_ray_limit_equivalence():
    # (u(y) - u(0)) / |y|^alpha approaches the max-density along rays
    p, alpha = 1.5, 0.5
    u = flow.riesz_kernel_field(1.0, p, 3)
    rng = np.random.default_rng(9)
    rays = rng.standard_normal((20, 3))
    rays /= np.linalg.norm(rays, axis=1)[:, None]
    vals = (u.values(1e-6 * rays) - u.at(np.zeros(3))) / 1e-6**alpha
    assert np.abs(vals - 1.0).max() <= 1e-3


def test_holder_metric_validates_beta():
    u = flow.riesz_kernel_field(1.0, 1.5, 3)
    with pytest.raises(DomainError):
        flow.tangent_experiment(u, flow.FlowSpec(p=1.5), u, metric="holder", beta=0.9)
    with pytest.raises(DomainError):
        flow.tangent_experiment(u, flow.FlowSpec(p=3.0), u, metric="holder", beta=0.1)


@pytest.mark.parametrize("kind", "MSV")
def test_average_of_fully_singular_sphere_rejected(quad3, kind):
    # one rule for every evaluated shell: an M-only request is refused too
    u = flow.ScalarField(n=3, values=lambda pts: np.full(np.asarray(pts).shape[0], -np.inf))
    with pytest.raises(DomainError, match=r"every sphere sample at radius \S+ is non-finite"):
        average(kind, u, np.zeros(3), 1.0, quad3, 3.0)


def test_max_curve_nondecreasing_for_subharmonic_fields(quad4):
    # on a ball, the spherical maximum coincides with the ball supremum
    # and must grow with the radius
    radii_up = np.array([2.0, 1.0, 0.5, 0.25, 0.125])
    for u in (flow.riesz_kernel_field(1.0, 3.0, 4),
              flow.log_modulus_coordinate_field(2),
              flow.partial_kernel_field(3.0, 2, 4)):
        curve = flow.average_curves(u, ("M",), np.zeros(4), radii_up, quad4)["M"]
        assert np.all(np.diff(curve.values) <= 1e-12)  # radii descend, so M descends


def test_density_at_p_equal_one(quad3):
    # p = 1 has no two-sided max/spherical comparison constant; only the
    # one-sided inequality is reported
    u = flow.riesz_kernel_field(1.0, 1.0, 3)
    rep = flow.densities(u, np.zeros(3), 1.0, quad=quad3)
    assert rep.theta["M"] == pytest.approx(1.0, abs=1e-3)
    assert "comparison_upper" not in rep.residuals
    assert rep.residuals["comparison_lower"] <= 1e-9


def test_decay_along_smooth_ray_of_pure_kernel(quad3):
    # the kernel is smooth away from its pole, so path densities vanish
    u = flow.riesz_kernel_field(1.0, 2.0, 3)
    path = [np.array([1.0, 0.0, 0.0]) * 2.0 ** (-k) for k in range(1, 6)]
    rep = flow.density_decay_check(u, np.zeros(3), path, 2.0, quad=quad3, levels=10)
    assert np.all(rep.path_thetas <= 1e-6)
    assert rep.center_theta == pytest.approx(1.0, rel=1e-6)


def test_partial_kernel_max_quotients_monotone(quad4):
    # the max average obeys the double monotonicity even for the
    # non-convex certification of the partial kernel
    u = flow.partial_kernel_field(3.0, 2, 4)
    rep = flow.densities(u, np.zeros(4), 3.0, quad=quad4, kinds=("M",))
    assert rep.monotone_ok


# ---------------------------------------------------------------------------
# densities against the plain reference (tests/plain_densities.py)
# ---------------------------------------------------------------------------

DENSITY_P = {2: 2.0, 3: 2.5, 4: 3.0, 5: 1.5, 6: 4.0, 7: 3.5, 8: 5.0}


def _density_fields(n, p):
    """(name, field, reference field) pairs: the reference sets its kernel
    sum's closed-form max up at every radius, and its quadratic by einsum."""
    e = np.eye(n)
    masses = {"riesz": [(1.7, np.zeros(n))],
              "newtonian": [(1.3, np.zeros(n)), (0.6, 2.5 * e[0])],
              "two-kernel": [(1.0, np.zeros(n)), (1.0, e[0])],
              "three-kernel": [(1.0, np.zeros(n)), (0.8, 0.75 * e[0]),
                               (0.5, 0.3 * e[1] - 0.2 * e[0])]}
    out = []
    for name, pairs in masses.items():
        field = (flow.riesz_kernel_field(pairs[0][0], p, n) if name == "riesz"
                 else flow.newtonian_potential_field(p, pairs, n))
        weights, centers = zip(*pairs)
        out.append((name, field, dataclasses.replace(
            field, analytic_max=plain.kernel_sum_max(p, weights, centers))))
    riesz = flow.riesz_kernel_field(1.7, p, n)
    out.append(("radial-perturbed", flow.plus_quadratic_field(riesz, 2.0),
                plain.plus_quadratic(riesz, 2.0)))
    if n % 2 == 0:
        log = flow.log_modulus_coordinate_field(n // 2)
        out.append(("log-coord", log, log))
    return out


def _density_outcome(densities, field, x0, p, quad):
    try:
        report = densities(field, x0, p, quad=quad)
    except (DomainError, NumericalError) as exc:
        return type(exc).__name__, str(exc)
    return report, report.curves


@pytest.mark.parametrize("n", range(2, 17))
def test_the_centred_kernel_volume_density_is_within_its_bracket(n):
    # the exact quotient is theta n / (n - p + 2), compared as a fraction;
    # the V bracket holds the ladder's rounding (at n = 6 and 7, p = 3,
    # theta_V reads 2.2e-15 high, beyond the monotone and quadrature gaps)
    for p in sorted({1.5, 2.5, 3.0, float(n), n + 1.9}):
        report = flow.densities(flow.riesz_kernel_field(3.0, p, n), np.zeros(n), p)
        exact = Fraction(3) * n / (n - Fraction(p) + 2)
        assert abs(Fraction(report.theta["V"]) - exact) <= Fraction(report.bracket["V"]), p


@pytest.mark.parametrize("n", [3, 4, 6])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_a_sign_changing_volume_density_is_within_its_bracket(n, p):
    # the centred kernel plus c x_1 on antipodal point pairs: the linear
    # term cancels from each pair, so the volume quotient is still
    # theta n / (n - p + 2), but the shells change sign and their sums
    # cancel; at c = 1e9, p = 3 the miss is 1e-11 at n = 4 and 6, beyond
    # a bound read from the absolute values of the shell means
    quad = flow.SphereQuad(n, 1024, seed=1)
    quad.points[1::2] = -quad.points[0::2]
    kernel = flow.riesz_kernel_field(3.0, p, n)
    exact = Fraction(3) * n / (n - Fraction(p) + 2)
    for c in (1e6, 1e9):
        field = flow.ScalarField(n=n, values=lambda pts, c=c: kernel.values(pts) + c * pts[:, 0])
        report = flow.densities(field, np.zeros(n), p, quad=quad, kinds=("V",))
        assert abs(Fraction(report.theta["V"]) - exact) <= Fraction(report.bracket["V"]), c


@pytest.mark.parametrize("n", range(2, 9))
def test_densities_equal_the_plain_reference_bit_for_bit(n):
    # x0: the origin (closed-form M), off the ray of the centres (sampled
    # M), and -e1/2 with e1 a quadrature point, whose shell of radius 1/2
    # meets the origin (a clipped hit at p >= 2, too many for 128 points
    # or fewer); each field is read at the three x0 in turn, then at the
    # origin again, so a closed form set up for one x0 cannot serve another
    p = DENSITY_P[n]
    e1 = np.eye(n)[0]
    off_ray = 0.3 * np.linspace(1.0, -0.5, n)
    fields = _density_fields(n, p)
    hits = {False: 0, True: 0}
    for size in (8, 64, 128, 256, 4096):
        quad = flow.SphereQuad(n, size, seed=n)
        quad.points[0] = e1
        for name, field, reference in fields:
            for x0 in (np.zeros(n), off_ray, -0.5 * e1, np.zeros(n)):
                got = _density_outcome(flow.densities, field, x0, p, quad)
                want = _density_outcome(plain.densities, reference, x0, p, quad)
                assert plain.same_floats(got, want), (name, size, x0)
                if not isinstance(got[0], str):
                    hits[got[0].clipped_fraction > 0.0] += 1
    assert hits[False] and (hits[True] or p < 2.0)  # K(0) = 0 below p = 2


@pytest.mark.parametrize("m", [8, 256, 4096, 65536])
def test_sampled_shell_rows_are_numpys_row_sums_bit_for_bit(m):
    # a sampled shell's mean, leading-half mean and mean of absolute values
    # are numpy's row sums of its clipped values, whether its block of
    # SHELL_BLOCK values holds all nine shells (m = 8) or one (m = 65536):
    # rows of wide exponents, of subnormals, of one sign each and with poles
    rng = np.random.default_rng(m)
    v = rng.standard_normal((9, m)) * np.exp(rng.uniform(-300.0, 300.0, (9, 1)))
    v[0, 3], v[1, m - 1], v[2, m // 2] = math.inf, math.nan, -math.inf
    v[3] = 5e-324 * rng.integers(-3, 4, m)
    v[5], v[6] = -np.abs(v[5]), np.abs(v[6])
    field = flow.ScalarField(n=3, values=None,
                             shells=lambda x0, points: lambda radii: v[radii.astype(int) - 1])
    quad = flow.SphereQuad(3, m)
    means, halves, magnitudes, rounding, hits, tops, depth = flow._shell_rows(
        field, np.zeros(3), quad, np.arange(1.0, 10.0), 0)
    clipped = np.where(np.isfinite(v), v, flow.CLIP_FLOOR)
    assert means.tobytes() == (clipped.sum(axis=1) / m).tobytes()
    assert halves.tobytes() == (clipped[:, :m // 2].sum(axis=1) / (m // 2)).tobytes()
    assert magnitudes.tobytes() == (np.abs(clipped).sum(axis=1) / m).tobytes()
    assert hits.tolist() == [1, 1, 1, 0, 0, 0, 0, 0, 0]
    assert not rounding.any() and tops.shape == (2, 0) and depth == flow._sum_depth(m)


# The column products of `flow.quadratic_field` rest on the order in which
# numpy's einsum adds them: this pins it, so that a numpy release that
# changes that order fails here rather than moving a report's floats.


@pytest.mark.parametrize("n", range(1, 9))
def test_quadratic_field_equals_the_einsum_bit_for_bit(n):
    rng = np.random.default_rng(n)
    b = rng.standard_normal((n, n))
    diagonal = np.diag(rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n))
    diagonal[0, 0] = 0.0
    for a in (diagonal, 2.5, b + b.T, np.zeros((n, n))):
        field = flow.quadratic_field(a, n)
        a = np.asarray(a if np.ndim(a) else a * np.eye(n), dtype=float)
        a = 0.5 * (a + a.T)
        for m in (1, 2, 3, 257, 2049):
            pts = rng.standard_normal((m, n)) * np.exp(rng.uniform(-20.0, 20.0, (m, 1)))
            pts[rng.random((m, n)) < 0.2] = 0.0
            pts[rng.random((m, n)) < 0.2] = -0.0
            pts[m // 2] = -0.0
            pts[-1] = 0.0  # the origin
            want = 0.5 * np.einsum("mi,ij,mj->m", pts, a, pts)
            if n == 2 and m <= 2 and np.any(a != np.diag(np.diag(a))):
                # einsum sums these shapes in another order: the last bit may differ
                scale = 0.5 * np.einsum("mi,ij,mj->m", np.abs(pts), np.abs(a), np.abs(pts))
                assert np.all(np.abs(field.values(pts) - want) <= 8 * np.finfo(float).eps * scale)
            else:
                assert field.values(pts).tobytes() == want.tobytes()
