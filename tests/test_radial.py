import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rieszlab import radial, riesz
from rieszlab.errors import DomainError

INF = math.inf


def kernel_plus_square(p):
    spec = riesz.KernelSpec(p=p)
    return radial.RadialProfile(
        fn=lambda r: np.asarray(riesz.kernel(spec, r)) + np.asarray(r) ** 2,
        name="kernel+r^2",
    )


def max_kernel_const(p, c):
    spec = riesz.KernelSpec(p=p)
    return radial.RadialProfile(
        fn=lambda r: np.maximum(np.asarray(riesz.kernel(spec, r)), c),
        name=f"max(kernel,{c})",
    )


def pair_quotient(prof, p, r, t):
    """(psi(r) - psi(t)) / (K(r) - K(t)), the quotient over two radii."""
    return float(radial.quotients([prof(r), prof(t)], [r, t], p)[0])


# ---------------------------------------------------------------------------
# jets and membership
# ---------------------------------------------------------------------------


def test_kernel_jet_on_increasing_boundary():
    for p in (1.5, 2.0, 3.0):
        for t in (0.25, 1.0, 4.0):
            jet = radial.OneVarJet(t=t, lam=t ** (1.0 - p), a=(1.0 - p) * t**-p)
            # equality in the second-order term, strictly positive slope
            assert jet.a + (p - 1.0) * jet.lam / t == pytest.approx(0.0, abs=1e-15)
            assert radial.rp_up_membership(p, jet)


def test_positive_jet_in_all_increasing_cones():
    jet = radial.OneVarJet(t=1.0, lam=1.0, a=1.0)
    for p in (1.0, 1.5, 2.0, 5.0, INF):
        assert radial.rp_up_membership(p, jet)


def test_jet_requires_positive_radius():
    with pytest.raises(DomainError):
        radial.OneVarJet(t=0.0, lam=1.0, a=1.0)


def test_membership_rejects_bad_exponent():
    with pytest.raises(DomainError):
        radial.rp_up_membership(0.5, radial.OneVarJet(1.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# kernel convexity
# ---------------------------------------------------------------------------

GRID = np.geomspace(0.05, 4.0, 40)


def test_kernel_is_affine_in_its_own_variable():
    for p in (1.5, 2.0, 3.0):
        rep = radial.kp_convexity_test(radial.kernel_profile(p), p, GRID)
        assert rep.passed and rep.worst_violation <= 1e-12


def test_max_with_constant_is_convex():
    rep = radial.kp_convexity_test(max_kernel_const(3.0, -0.5), 3.0, GRID)
    assert rep.passed


def test_strictly_concave_profile_fails():
    # -r^2 is strictly concave as a function of K_3(r)
    prof = radial.RadialProfile(fn=lambda r: -np.asarray(r) ** 2, name="-r^2")
    rep = radial.kp_convexity_test(prof, 3.0, GRID)
    assert not rep.passed


# ---------------------------------------------------------------------------
# quotients and one-variable densities
# ---------------------------------------------------------------------------


def test_quotient_of_scaled_kernel_is_constant():
    prof = radial.kernel_profile(3.0, theta=3.0)
    for r, t in ((1.0, 0.5), (0.25, 0.125), (2.0, 0.01)):
        assert pair_quotient(prof, 3.0, r, t) == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.000000001, 3.0, 7.5])
def test_quotients_match_pairwise_quotients_bit_for_bit(p):
    prof = kernel_plus_square(p)
    spec = riesz.KernelSpec(p=p)
    radii = 1.5 * 0.4 ** np.arange(9)
    q = radial.quotients(prof(radii), radii, p)
    for j in range(radii.size - 1):
        r, t = radii[j], radii[j + 1]
        scalar = (prof(r) - prof(t)) / (riesz.kernel(spec, r) - riesz.kernel(spec, t))
        assert q[j] == pair_quotient(prof, p, r, t) == scalar


def test_density_estimate_reads_the_deepest_quotients():
    theta, bracket, defect = radial.density_estimate([5.0, 4.0, 4.5, 3.0])
    assert (theta, bracket, defect) == (3.0, 1.5, 0.5)
    assert radial.density_estimate([1.0, 2.0, 3.0]) == (3.0, 0.0, 1.0)


@pytest.mark.parametrize("radii", [[1.0], [], [1.0, 0.5], [0.25, 0.5, 1.0], [1.0, 0.5, 0.5]])
def test_density_radii_are_strictly_decreasing_and_at_least_three(radii):
    with pytest.raises(DomainError, match="strictly decreasing, at least three"):
        radial.density_radii(radii)
    prof = radial.kernel_profile(3.0)
    with pytest.raises(DomainError, match="strictly decreasing, at least three"):
        radial.one_var_density(prof, 3.0, radii)


def test_one_var_density_reads_only_the_three_deepest_radii():
    prof = radial.kernel_profile(3.0, theta=2.0)
    radii = radial.geometric_radii(1.0, 7)
    assert (radial.one_var_density(prof, 3.0, radii)
            == radial.one_var_density(prof, 3.0, radii[-3:]))


def test_density_of_scaled_kernel():
    prof = radial.kernel_profile(2.5, theta=3.0)
    theta, bracket = radial.one_var_density(prof, 2.5, radial.geometric_radii(1.0, 6))
    assert theta == pytest.approx(3.0, rel=1e-12)
    assert bracket <= 1e-12


def test_density_of_perturbed_kernel():
    # smooth perturbation r^2 contributes nothing to the density (p > 2)
    prof = kernel_plus_square(3.0)
    radii = radial.geometric_radii(1.0, 16)
    theta, bracket = radial.one_var_density(prof, 3.0, radii)
    assert theta == pytest.approx(1.0, abs=1e-3)
    assert abs(theta - 1.0) <= bracket + 1e-9
    # oracle from the spec example: the quotient at r ~ 1e-4 is within
    # O(r^2 / K) of 1
    q = pair_quotient(prof, 3.0, 2e-4, 1e-4)
    assert q == pytest.approx(1.0, abs=1e-10)


def test_density_of_constant_profile():
    prof = radial.RadialProfile(fn=lambda r: np.full_like(np.asarray(r, dtype=float), 2.0))
    theta, bracket = radial.one_var_density(prof, 3.0, radial.geometric_radii(1.0, 5))
    assert theta == 0.0 and bracket == 0.0


def test_density_rejects_infinite_p():
    prof = radial.kernel_profile(3.0)
    with pytest.raises(DomainError):
        radial.one_var_density(prof, INF, radial.geometric_radii(1.0, 5))


@pytest.mark.parametrize("radii", [[1.0, math.nan, 0.25], [1.0, 0.5, -INF], [INF, 1.0, 0.5]])
def test_density_radii_must_be_positive_and_finite(radii):
    with pytest.raises(DomainError, match="positive and finite"):
        radial.density_radii(radii)
    with pytest.raises(DomainError, match="positive and finite"):
        radial.one_var_density(radial.kernel_profile(3.0), 3.0, radii)


@pytest.mark.parametrize("r", [math.nan, INF, 0.0, -1.0])
def test_profile_rejects_radii_outside_its_interval(r):
    with pytest.raises(DomainError, match="radius outside"):
        radial.kernel_profile(3.0)([1.0, r])


def test_profile_interval_is_open_at_its_finite_end():
    prof = radial.RadialProfile(fn=lambda r: 1.0 - r, r_max=2.0)
    assert prof(1.5) == -0.5
    with pytest.raises(DomainError, match=r"radius outside \(0, 2.0\)"):
        prof(2.0)


def test_density_requires_decreasing_radii():
    prof = radial.kernel_profile(3.0)
    with pytest.raises(DomainError):
        radial.one_var_density(prof, 3.0, [0.1, 0.5, 1.0])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1.5, 2.0, 3.0]),
    st.floats(min_value=-3.0, max_value=-0.5),
    st.floats(min_value=0.01, max_value=0.45),
    st.floats(min_value=0.01, max_value=0.45),
)
def test_quotient_double_monotonicity(p, log2_t1, step1, step2):
    # quotients of a kernel-convex increasing profile never decrease when
    # both radii move up
    prof = max_kernel_const(p, -0.25) if p > 2 else kernel_plus_square(p)
    t1 = 2.0**log2_t1
    r1 = t1 * (1.0 + step1)
    t2 = t1 * (1.0 + step2)
    r2 = r1 * (1.0 + step2)
    q_small = pair_quotient(prof, p, r1, t1)
    q_big = pair_quotient(prof, p, r2, t2)
    assert q_small <= q_big + 1e-9


def test_lipschitz_bound_from_endpoint_quotients():
    # difference quotients on [a, b] are bounded by the top quotient times
    # the max kernel slope
    p = 3.0
    prof = kernel_plus_square(p)
    a, b = 0.5, 2.0
    spec = riesz.KernelSpec(p=p)
    grid = np.linspace(a, b, 30)
    vals = prof(grid)
    top_quotient = pair_quotient(prof, p, b * 1.5, b)
    k_slope = float(np.max(np.asarray(riesz.kernel_deriv1(spec, grid))))
    for i in range(len(grid) - 1):
        for j in range(i + 1, len(grid)):
            dq = abs(vals[j] - vals[i]) / (grid[j] - grid[i])
            assert dq <= top_quotient * k_slope + 1e-9


# ---------------------------------------------------------------------------
# limit forms of the density
# ---------------------------------------------------------------------------

PROFILES_FOR_LIMITS = ["kernel", "kernel+r2", "max-const"]


def _limit_profile(name, p):
    if name == "kernel":
        return radial.kernel_profile(p), 1.0
    if name == "kernel+r2":
        return kernel_plus_square(p), 1.0
    const = -0.5 if p >= 2 else 0.5
    return max_kernel_const(p, const), (1.0 if p < 2 else 1.0)


@pytest.mark.parametrize("name", PROFILES_FOR_LIMITS)
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_density_limit_forms(name, p):
    prof, _ = _limit_profile(name, p)
    radii = radial.geometric_radii(0.125, 14)
    theta, _ = radial.one_var_density(prof, p, radii)
    spec = riesz.KernelSpec(p=p)
    kvals = np.asarray(riesz.kernel(spec, radii))
    values = np.asarray(prof(radii))
    if p < 2.0:
        # (psi(r) - psi(0+)) / K(r) decreases down to the density
        psi0 = float(prof(np.asarray([1e-30]))[0])
        ratios = (values - psi0) / kvals
        assert np.all(np.diff(ratios) <= 1e-9)   # non-increasing as r shrinks
        # the end-point quotient sits below the deepest two-radius quotient
        assert ratios[-1] <= theta + 1e-9
        assert ratios[-1] == pytest.approx(theta, abs=1e-5)
    else:
        # psi(r) / K(r) -> density: the offset psi - theta K stays bounded
        # (here monotonically shrinking), so the ratio gap decays like 1/|K|
        offsets = np.abs(values - theta * kvals)
        assert np.all(np.diff(offsets) <= 1e-9)
        ratios = values / kvals
        gaps = np.abs(ratios - theta)
        assert np.all(np.diff(gaps) <= 1e-9)
        assert gaps[-1] <= gaps[0] + 1e-9


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

CLASS_GRID = np.linspace(0.05, 0.95, 48)


def test_classify_increasing():
    prof = radial.RadialProfile(fn=lambda r: np.asarray(r, dtype=float))
    assert radial.classify_profile(prof, CLASS_GRID).kind == radial.INCREASING


def test_classify_decreasing_convex():
    prof = radial.RadialProfile(fn=lambda r: 1.0 / np.asarray(r, dtype=float), r_max=1.0)
    assert radial.classify_profile(prof, CLASS_GRID).kind == radial.DECREASING_CONVEX


def test_classify_dip():
    c = 0.4
    prof = radial.RadialProfile(fn=lambda r: (np.asarray(r, dtype=float) - c) ** 2)
    result = radial.classify_profile(prof, CLASS_GRID)
    assert result.kind == radial.DECREASING_THEN_INCREASING
    step = CLASS_GRID[1] - CLASS_GRID[0]
    assert abs(result.breakpoint - c) <= step + 1e-12


def test_classify_rejects_oscillation():
    prof = radial.RadialProfile(fn=lambda r: np.sin(12.0 * np.asarray(r, dtype=float)))
    assert radial.classify_profile(prof, CLASS_GRID).kind == radial.NOT_SUBAFFINE_RADIAL


def test_classify_needs_enough_points():
    prof = radial.RadialProfile(fn=lambda r: np.asarray(r, dtype=float))
    with pytest.raises(DomainError):
        radial.classify_profile(prof, [0.1, 0.2, 0.3])


def test_kp_convexity_needs_three_radii():
    with pytest.raises(DomainError, match=r"^need at least three grid radii$"):
        radial.kp_convexity_test(radial.kernel_profile(3.0), 3.0, [1.0, 2.0])
