import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rieszlab import radial, subeq
from rieszlab.errors import DomainError

INF = math.inf


def kernel_plus_square(p):
    spec = radial.KernelSpec(p=p)
    return radial.RadialProfile(
        fn=lambda r: np.asarray(radial.kernel(spec, r)) + np.asarray(r) ** 2,
        name="kernel+r^2",
    )


def max_kernel_const(p, c):
    spec = radial.KernelSpec(p=p)
    return radial.RadialProfile(
        fn=lambda r: np.maximum(np.asarray(radial.kernel(spec, r)), c),
        name=f"max(kernel,{c})",
    )


def pair_quotient(prof, p, r, t):
    """(psi(r) - psi(t)) / (K(r) - K(t)), the quotient over two radii."""
    return float(radial.quotients([prof(r), prof(t)], [r, t], p)[0])


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_log_kernel_at_e():
    assert radial.kernel(radial.KernelSpec(p=2.0), math.e) == pytest.approx(1.0, abs=1e-15)


def test_standard_kernel_p3():
    spec = radial.KernelSpec(p=3.0)
    assert radial.kernel(spec, 2.0) == pytest.approx(-0.5, abs=1e-15)


def test_kernel_monotone_increasing():
    for p in (1.0, 1.5, 2.0, 3.0, 4.5):
        spec = radial.KernelSpec(p=p)
        t = np.geomspace(0.01, 100.0, 64)
        vals = np.asarray(radial.kernel(spec, t))
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(np.asarray(radial.kernel_deriv1(spec, t)) > 0.0)


def test_barred_kernel_derivative_exact():
    for p in (1.3, 2.0, 2.5, 4.0):
        spec = radial.KernelSpec(p=p, normalization="barred")
        for t in (0.1, 1.0, 7.5):
            assert radial.kernel_deriv1(spec, t) == pytest.approx(t ** (1.0 - p), rel=1e-15)


def test_kernel_derivatives_match_finite_differences():
    for p in (1.4, 2.0, 3.2):
        for norm in ("standard", "barred"):
            spec = radial.KernelSpec(p=p, normalization=norm)
            for t in (0.3, 1.7):
                h = 1e-6 * t
                fd1 = (radial.kernel(spec, t + h) - radial.kernel(spec, t - h)) / (2 * h)
                assert radial.kernel_deriv1(spec, t) == pytest.approx(fd1, rel=1e-7)
                fd2 = (
                    radial.kernel(spec, t + h)
                    - 2 * radial.kernel(spec, t)
                    + radial.kernel(spec, t - h)
                ) / h**2
                assert radial.kernel_deriv2(spec, t) == pytest.approx(fd2, rel=1e-3)


def reference_kernel(spec, t):
    """The kernel's formulas, each a separate array expression."""
    p = spec.p
    if p == 2.0:
        return np.log(t)
    if spec.normalization == "standard":
        return t ** (2.0 - p) if p < 2.0 else -(t ** (2.0 - p))
    return t ** (2.0 - p) / (2.0 - p)


@pytest.mark.parametrize("norm", ["standard", "barred"])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.5])
def test_weighted_kernel_has_the_floats_of_weight_times_kernel(p, norm):
    # the sign folded into the weight and the in-place product change no bit;
    # at 0 both weighted routes give w K(0), K(0) being 0 for p < 2 and -inf
    # otherwise (NaN at weight 0), without a warning
    spec = radial.KernelSpec(p=p, normalization=norm)
    t = np.random.default_rng(0).uniform(1e-3, 50.0, 1000)
    assert np.array_equal(radial.kernel(spec, t), reference_kernel(spec, t))
    assert radial.kernel(spec, 0.37) == float(reference_kernel(spec, np.float64(0.37)))
    for w in (0.7, -1.3, 0.0):
        buffer = t.copy()
        weighted = radial.weighted_kernel(spec, w, buffer)
        assert weighted is buffer  # computed in place
        reference = w * reference_kernel(spec, t)
        assert np.array_equal(weighted, reference)
        assert np.array_equal(np.signbit(weighted), np.signbit(reference))
        at_zero = w * (0.0 if p < 2.0 else -INF)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for route in (radial.weighted_kernel, radial.weighted_kernel_of_square):
                assert np.array_equal(route(spec, w, np.zeros(3)), np.full(3, at_zero),
                                      equal_nan=True), route


def test_kernel_domain_errors():
    spec = radial.KernelSpec(p=3.0)
    with pytest.raises(DomainError):
        radial.kernel(spec, 0.0)
    with pytest.raises(DomainError):
        radial.kernel(spec, -1.0)
    with pytest.raises(DomainError):
        radial.KernelSpec(p=0.5)


@pytest.mark.parametrize("fn", [radial.kernel, radial.kernel_deriv1, radial.kernel_deriv2])
@pytest.mark.parametrize("t", [math.nan, [1.0, math.nan], 0.0, [2.0, -1.0]])
def test_kernel_arguments_that_are_not_positive_are_refused(fn, t):
    for p in (1.5, 2.0, 3.0):
        with pytest.raises(DomainError, match="kernel arguments must be positive"):
            fn(radial.KernelSpec(p=p), t)


PSD3 = subeq.builtin("p", 3)


@pytest.mark.parametrize("call,message", [
    (lambda: radial.KernelSpec(3.0, "weird"), "unknown normalization 'weird'"),
    (lambda: radial.kernel_hessian(1.0, 3.0, np.zeros(3)),
     "kernel Hessian undefined at the origin"),
    (lambda: radial.radial_harmonic_check(PSD3, -1.0, 2.0, [1.0]), "theta must be >= 0"),
    (lambda: radial.radial_harmonic_check(PSD3, 1.0, math.inf, [1.0]),
     "needs a finite characteristic"),
], ids=["normalization", "hessian-at-origin", "negative-theta", "infinite-p"])
def test_kernel_refusals(call, message):
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# radial harmonic check
# ---------------------------------------------------------------------------

RADII = (0.1, 1.0, 10.0)


def test_radial_harmonic_laplacian_exact():
    f = subeq.builtin("laplacian", 4)
    rep = radial.radial_harmonic_check(f, theta=1.0, p=4.0, radii=RADII, seed=0)
    assert rep.passed
    # the trace of the kernel Hessian vanishes identically
    h = radial.kernel_hessian(1.0, 4.0, np.array([0.3, 0.2, -0.7, 0.1]))
    assert np.trace(h) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("family,params,n,p", [
    ("p-convex", {"p": 2.5}, 4, 2.5),
    ("sigma-k", {"k": 2}, 4, 2.0),
    ("pdelta", {"delta": 1.0}, 3, 1.5),
    ("min-max", {"p": 3.0}, 4, 3.0),
])
def test_radial_harmonic_on_boundary(family, params, n, p):
    f = subeq.builtin(family, n, **params)
    rep = radial.radial_harmonic_check(f, theta=1.0, p=p, radii=RADII, seed=1)
    assert rep.passed, rep.worst_violation
    rep2 = radial.radial_harmonic_check(f, theta=2.0, p=p, radii=RADII, seed=2)
    assert rep2.passed


def test_radial_harmonic_zero_multiple():
    f = subeq.builtin("sigma-k", 4, k=2)
    rep = radial.radial_harmonic_check(f, theta=0.0, p=2.0, radii=(1.0,), seed=0)
    assert rep.passed and rep.worst_violation == 0.0


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
    spec = radial.KernelSpec(p=p)
    radii = 1.5 * 0.4 ** np.arange(9)
    q = radial.quotients(prof(radii), radii, p)
    for j in range(radii.size - 1):
        r, t = radii[j], radii[j + 1]
        scalar = (prof(r) - prof(t)) / (radial.kernel(spec, r) - radial.kernel(spec, t))
        assert q[j] == pair_quotient(prof, p, r, t) == scalar


def test_a_quotient_that_is_not_finite_is_refused():
    # the values 1/r and the kernel K_1 = r are finite at every radius, but
    # the slope -1 / (r_j r_{j+1}) overflows to -inf near 1e-300: two such
    # slopes gave a NaN convexity violation
    reciprocal = radial.RadialProfile(fn=lambda r: 1.0 / r, name="1/t")
    with pytest.raises(DomainError, match=r"^the quotient over the radii 1e-300 and 1e-200 is "
                                          r"not finite$"):
        radial.kp_convexity_test(reciprocal, 1.0, [1e-300, 1e-200, 1e-100, 1.0])
    with pytest.raises(DomainError, match=r"^the quotient over the radii 1e-200 and 1e-300 is "
                                          r"not finite$"):
        radial.quotients([1e200, 1e300], [1e-200, 1e-300], 1.0)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_a_stack_of_curves_has_each_curve_s_quotients(p):
    radii = 1.5 * 0.4 ** np.arange(6)
    stack = np.random.default_rng(0).standard_normal((2, 3, radii.size))
    q = radial.quotients(stack, radii, p)
    assert q.shape == (2, 3, radii.size - 1)
    for i, j in np.ndindex(2, 3):
        assert q[i, j].tobytes() == radial.quotients(stack[i, j], radii, p).tobytes()
    # a non-finite quotient is refused by the first in row-major order
    stack[0, 2, 4] = stack[1, 0, 1] = math.inf
    with pytest.raises(DomainError, match=f"^the quotient over the radii {radii[3]:.6g} and "):
        radial.quotients(stack, radii, p)


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


def test_a_profile_is_refused_at_a_radius_where_it_is_not_finite():
    # K_400 is -inf at r = 0.05: an increasing profile was classified
    # not-subaffine-radial; 1/t is inf at a subnormal radius: its NaN slope
    # was a NaN convexity violation
    reciprocal = radial.RadialProfile(fn=lambda r: 1.0 / r, name="1/t")
    with np.errstate(over="ignore", divide="ignore"):
        with pytest.raises(DomainError, match=r"^the profile 1\*K_400 at radius 0.05 is not "
                                              r"finite$"):
            radial.classify_profile(radial.kernel_profile(400.0), np.geomspace(0.05, 1.0, 16))
        with pytest.raises(DomainError, match=r"^the profile 1/t at radius 9.99989e-321 is not "
                                              r"finite$"):
            radial.kp_convexity_test(reciprocal, 1.0, [1e-320, 0.5, 1.0])
    # NaN too; a profile without a name is psi
    with pytest.raises(DomainError, match=r"^the profile psi at radius 0.5 is not finite$"):
        radial.RadialProfile(fn=lambda r: np.where(r < 0.75, np.nan, r))([0.5, 1.0])


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
    spec = radial.KernelSpec(p=p)
    grid = np.linspace(a, b, 30)
    vals = prof(grid)
    top_quotient = pair_quotient(prof, p, b * 1.5, b)
    k_slope = float(np.max(np.asarray(radial.kernel_deriv1(spec, grid))))
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
    spec = radial.KernelSpec(p=p)
    kvals = np.asarray(radial.kernel(spec, radii))
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
