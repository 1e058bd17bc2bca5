import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eigensolve_transitivity as eigensolved
from rieszlab import cli, linalg, subeq
from rieszlab.errors import DomainError, InvariantError


def random_sym(seed, n=4):
    return linalg.symmetrize(np.random.default_rng(seed).standard_normal((n, n)))


@pytest.mark.parametrize("x,label", [
    (2.0, "2"), (0.5, "0.5"), (1e300, "1e+300"), (3, "3"), (math.inf, "inf"),
    (2.0000001, "2.0000001"), (0.25 + 0.8 * 3, "2.6500000000000004"),
])
def test_parameters_print_short_only_when_that_round_trips(x, label):
    assert subeq.fmt_param(x) == label
    assert float(label) == x


def test_trace_power_margin_is_the_plain_power_sum_where_floats_hold_it():
    # rows whose powers are normal floats keep the unscaled formula bit for bit
    f = subeq.builtin("trace-power", 5, k=3, q=3.0)
    lams = np.sort(np.random.default_rng(0).standard_normal((200, 5)) * 10.0, axis=-1)
    plain = (np.sign(lams) * np.abs(lams) ** 3.0)[:, :3].sum(axis=-1)
    assert np.array_equal(f.eig_margin(lams), plain)


@pytest.mark.parametrize("q", [1e300, 1e-300, 400.0])
def test_trace_power_margin_sign_survives_over_and_underflow(q):
    # the sign of the head's power sum is that of its largest entry, ties aside
    f = subeq.builtin("trace-power", 4, k=2, q=q)
    lams = np.sort(np.random.default_rng(1).standard_normal((200, 4)) * 10.0 ** np.arange(-3, 5)
                   .repeat(25)[:, None], axis=-1)
    values = f.eig_margin(lams)
    assert np.isfinite(values).all()
    if q > 1.0:
        head = lams[:, :2]
        expected = np.sign(head[np.arange(200), np.abs(head).argmax(axis=1)])
        assert np.array_equal(np.sign(values), expected)


# ---------------------------------------------------------------------------
# built-in margins
# ---------------------------------------------------------------------------


def test_p1_equals_psd_cone():
    p1 = subeq.builtin("p-convex", 4, p=1.0)
    psd = subeq.builtin("p", 4)
    for seed in range(20):
        a = random_sym(seed)
        assert p1.margin(a) == pytest.approx(psd.margin(a), abs=1e-12)


def test_pn_margin_is_trace():
    lap = subeq.builtin("p-convex", 4, p=4.0)
    for seed in range(20):
        a = random_sym(seed)
        assert lap.margin(a) == pytest.approx(float(np.trace(a)), abs=1e-10)


def test_min_max_boundary_example():
    f = subeq.builtin("min-max", 4, p=3.0)
    a = np.diag([-2.0, 1.0, 1.0, 1.0])
    assert f.margin(a) == pytest.approx(0.0, abs=1e-12)


def test_fractional_p_convex_margin():
    f = subeq.builtin("p-convex", 4, p=2.5)
    a = np.diag([-1.0, 0.0, 2.0, 5.0])
    # lam_1 + lam_2 + 0.5 lam_3
    assert f.margin(a) == pytest.approx(-1.0 + 0.0 + 0.5 * 2.0, abs=1e-12)


def test_trace_power_signed_powers():
    f = subeq.builtin("trace-power", 3, k=3, q=3.0)
    a = np.diag([-2.0, 1.0, 1.0])
    assert f.margin(a) == pytest.approx((-8.0) + 1.0 + 1.0, abs=1e-12)


def test_builtin_parameter_validation():
    with pytest.raises(DomainError):
        subeq.builtin("p-convex", 3, p=5.0)
    with pytest.raises(DomainError):
        subeq.builtin("sigma-k", 3, k=0)
    with pytest.raises(DomainError):
        subeq.builtin("largest-convex", 3, p=3.0)
    with pytest.raises(DomainError):
        subeq.builtin("pdelta", 3, delta=-1.0)
    with pytest.raises(DomainError):
        subeq.builtin("no-such-family", 3)
    with pytest.raises(DomainError):
        subeq.builtin("p-convex", 3)  # missing p


@pytest.mark.parametrize("family,n,params,message", [
    ("min-max", 3, {"p": 0.5}, "min-max needs p >= 1, got 0.5"),
    ("min-2", 3, {"p": 0.5}, "min-2 needs p >= 1, got 0.5"),
    ("dual-min-2", 3, {"p": 0.5}, "dual-min-2 needs p >= 1, got 0.5"),
    ("dual-min-2", 1, {"p": 2.0}, "dual-min-2 needs n >= 2"),
    ("trace-power", 3, {"k": 2, "q": 0.0}, "trace-power needs q > 0, got q=0.0"),
    ("trace-power", 3, {"k": 2, "q": -1.0}, "trace-power needs q > 0, got q=-1.0"),
    ("garding-pdelta", 3, {"delta": 0.0, "k": 1}, "garding-pdelta needs delta > 0, got 0.0"),
    ("garding-pdelta", 3, {"delta": 1.0, "k": 4}, "garding-pdelta needs 1 <= k <= 3, got k=4"),
    ("garding-pdelta", 3, {"delta": 1.0, "k": 0}, "garding-pdelta needs 1 <= k <= 3, got k=0"),
    ("p-convex", 3, {"p": 1.0, "k": 2}, "family 'p-convex' got unknown parameters \\['k'\\]"),
])
def test_family_parameter_refusals(family, n, params, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        subeq.builtin(family, n, **params)


@pytest.mark.parametrize("n,count", [(2, 512), (4, 512), (5, 2048)])
def test_default_plane_count(n, count):
    assert len(subeq.sample_grassmannian(n, 1).planes) == count


def test_laplacian_alias():
    lap = subeq.builtin("laplacian", 5)
    assert lap.name == "p-convex(p=5)"
    assert lap.closed_form == 5.0


@pytest.mark.parametrize("alias", ["psd", "P"])
def test_laplacian_is_the_only_alias(alias):
    assert alias not in subeq.family_names()
    with pytest.raises(DomainError):
        subeq.builtin(alias, 3)


@pytest.mark.parametrize("family,params,n,closed", [
    ("p", {}, 3, 1.0),
    ("p-convex", {"p": 2.5}, 4, 2.5),
    ("sigma-k", {"k": 2}, 6, 3.0),
    ("pdelta", {"delta": 1.0}, 3, 1.5),
    ("min-max", {"p": 3.0}, 4, 3.0),
    ("min-max", {"p": 3.0}, 1, 1.0),
    ("min-2", {"p": 3.0}, 4, 3.0),
    ("trace-power", {"k": 3, "q": 5.0}, 4, 1.0 + 2.0 ** (1.0 / 5.0)),
    ("subaffine", {}, 3, math.inf),
    ("subaffine", {}, 1, 1.0),
    ("largest-convex", {"p": 2.0}, 4, 2.0),
    ("dual-min-max", {"p": 3.0}, 4, None),
    ("dual-min-2", {"p": 3.0}, 4, None),
    ("full-space", {}, 3, None),
])
def test_builtin_closed_forms(family, params, n, closed):
    assert subeq.builtin(family, n, **params).closed_form == closed


def test_constructions_carry_closed_forms():
    base = subeq.builtin("sigma-k", 4, k=2)
    assert subeq.complex_lift("sigma-k", 4, k=2).closed_form == 4.0
    assert subeq.quaternionic_lift("sigma-k", 4, k=2).closed_form == 8.0
    assert subeq.uniform_elliptic_regularization(base, 1.0).closed_form == \
        pytest.approx(2.0 * 4 * 2.0 / (4 + 2.0))
    subaffine = subeq.builtin("subaffine", 3)
    assert subeq.uniform_elliptic_regularization(subaffine, 1.0).closed_form == 6.0
    sample = subeq.sample_grassmannian(3, 2, count=16, seed=0)
    assert subeq.geometric(sample).closed_form == 2.0
    assert subeq.dual(base).closed_form is None


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def test_dual_of_psd_is_subaffine():
    sub = subeq.dual(subeq.builtin("p", 2))
    assert sub.margin(np.diag([-1.0, 2.0])) == pytest.approx(2.0, abs=1e-12)


def test_dual_min_2_closed_form():
    n, p = 5, 2.5
    d = subeq.dual(subeq.builtin("min-2", n, p=p))
    for seed in range(20):
        a = random_sym(seed, n)
        lams = linalg.ordered_eigenvalues(a)
        assert d.margin(a) == pytest.approx(lams[-1] + (p - 1.0) * lams[-2], abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_dual_is_involution(seed):
    f = subeq.builtin("sigma-k", 4, k=2)
    dd = subeq.dual(subeq.dual(f))
    a = random_sym(seed)
    assert dd.margin(a) == pytest.approx(f.margin(a), abs=1e-12)


def test_dual_min_max_boundary_maps():
    # boundary of min-max(p) maps to boundary of min-max(q), (p-1)(q-1) = 1
    p = 3.0
    q = 1.0 + 1.0 / (p - 1.0)
    f = subeq.builtin("min-max", 4, p=p)
    g = subeq.builtin("min-max", 4, p=q)
    dual_f = subeq.dual(f)
    for seed in range(30):
        a = random_sym(seed)
        s_dual = dual_f.margin(a)
        s_g = g.margin(a)
        assert (s_dual >= -1e-12) == (s_g >= -1e-12) or abs(s_g) < 1e-9


# ---------------------------------------------------------------------------
# lifts
# ---------------------------------------------------------------------------


def test_complex_lift_identity_member():
    f = subeq.complex_lift("p", 1)
    a = np.eye(2)
    assert f.margin(a) >= -subeq.MEMBER_TOL * (1.0 + np.linalg.norm(a))


def test_complex_lift_detects_negative_hermitian_part():
    f = subeq.complex_lift("p", 2)
    a = np.diag([-3.0, -3.0, 1.0, 1.0])  # hermitian part has a negative eigenvalue
    assert f.margin(a) < -subeq.MEMBER_TOL * (1.0 + np.linalg.norm(a))


def test_lift_margin_matches_reduced_spectrum():
    f = subeq.complex_lift("p-convex", 3, p=2.0)
    base = subeq.builtin("p-convex", 3, p=2.0)
    # diagonal matrix diag(a, a) has hermitian part with reduced spectrum a
    diag = np.array([0.5, -1.0, 2.0])
    a = np.diag(np.r_[diag, diag])
    assert f.margin(a) == pytest.approx(base.eig_margin(np.sort(diag)), abs=1e-10)


def test_lift_dimension():
    assert subeq.complex_lift("p", 3).n == 6
    assert subeq.quaternionic_lift("p", 2).n == 8


# ---------------------------------------------------------------------------
# geometric subequations
# ---------------------------------------------------------------------------


def test_geometric_identity_margin():
    gs = subeq.sample_grassmannian(4, 2, count=64, seed=0)
    f = subeq.geometric(gs)
    assert f.margin(np.eye(4)) == pytest.approx(2.0, abs=1e-10)


def test_grassmann_samples_compare_by_identity():
    # the generated == would compare the plane stacks through bool and raise
    gs = subeq.sample_grassmannian(3, 2, count=2, seed=0)
    other = subeq.sample_grassmannian(3, 2, count=2, seed=0)
    assert (gs == other) is False and (gs != other) is True
    assert gs == gs and gs in [other, gs] and other not in [gs]


GEOMETRIC_SAMPLES = [(3, 2, 128), (5, 3, 128), (7, 3, 256)]


@pytest.mark.parametrize("n,p,k", GEOMETRIC_SAMPLES)
def test_geometric_margins_are_plane_traces(n, p, k):
    # reference: min over W of tr(W^T A W), contracted with W on both sides
    gs = subeq.sample_grassmannian(n, p, count=k, seed=3)
    stack = gs.stacked()
    a = np.stack([random_sym(seed, n) * 10.0 ** (seed % 7 - 3) for seed in range(40)])
    traces = np.einsum("kip,...ij,kjp->...k", stack, a, stack).min(axis=-1)
    bound = 1e-13 * (1.0 + np.linalg.norm(a, axis=(1, 2)))
    assert np.all(np.abs(subeq.geometric(gs).margin(a) - traces) <= bound)


@pytest.mark.parametrize("n,p,k", GEOMETRIC_SAMPLES)
def test_geometric_identity_margin_is_p(n, p, k):
    # every plane trace of Id is p; the margin is p up to rounding
    f = subeq.geometric(subeq.sample_grassmannian(n, p, count=k, seed=3))
    assert f.margin(np.eye(n)) == pytest.approx(p, abs=16 * n * np.finfo(float).eps)


def one_plane(columns):
    """The geometric subequation of one plane: its margin is the trace over it."""
    return subeq.geometric(subeq.GrassmannSample([columns]))


def test_one_plane_margin_of_line_projector():
    p_e = linalg.projector_onto(np.eye(4)[0])
    assert one_plane(np.eye(4)[:, :2]).margin(p_e) == pytest.approx(1.0, abs=1e-14)


def test_one_plane_margin_pencil_expansion():
    # tr_W(P_perp - (pbar-1) P_e) = p - c * pbar with c = tr_W(P_e)
    rng = np.random.default_rng(5)
    e = linalg.random_unit_vector(6, rng)
    f = one_plane(subeq.sample_grassmannian(6, 3, count=1, seed=9).planes[0].columns)
    c = f.margin(linalg.projector_onto(e))
    for pbar in (1.0, 2.5, 7.0):
        a = linalg.projector_perp(e) - (pbar - 1.0) * linalg.projector_onto(e)
        assert f.margin(a) == pytest.approx(3.0 - c * pbar, abs=1e-12)


def test_one_plane_margin_rotation_covariance():
    rng = np.random.default_rng(13)
    for seed in range(5):
        a = linalg.symmetrize(rng.standard_normal((5, 5)))
        w = subeq.sample_grassmannian(5, 2, count=1, seed=seed).planes[0].columns
        gaussian = np.random.default_rng(seed + 100).standard_normal((1, 5, 5))
        g = subeq.invariance_rotation(subeq.builtin("p", 5), gaussian)[0]
        assert one_plane(g @ w).margin(g @ a @ g.T) == pytest.approx(one_plane(w).margin(a),
                                                                      abs=1e-10)


def test_geometric_projector_of_sampled_plane():
    gs = subeq.sample_grassmannian(4, 2, count=32, seed=1)
    w0 = gs.planes[0].columns
    f = subeq.geometric(gs)
    assert f.margin(w0 @ w0.T) >= -1e-10


def test_geometric_agrees_with_p2_margin_sign():
    # oracle: the exact geometric subequation of all 2-planes in R^4 is the
    # 2-convexity cone; a 512-plane sample disagrees on at most 2% of
    # samples, and only near the boundary (measured 4/1000 for this seed)
    gs = subeq.sample_grassmannian(4, 2, count=512, seed=11)
    fg = subeq.geometric(gs)
    p2 = subeq.builtin("p-convex", 4, p=2.0)
    rng = np.random.default_rng(42)
    disagreements = 0
    for _ in range(1000):
        a = linalg.symmetrize(rng.standard_normal((4, 4)))
        m_true, m_geo = p2.margin(a), fg.margin(a)
        if (m_true >= 0) != (m_geo >= 0):
            disagreements += 1
            assert abs(m_true) < 0.3  # only near the boundary
    assert disagreements <= 20


def test_geometric_monotone_under_more_planes():
    big = subeq.sample_grassmannian(4, 2, count=128, seed=5)
    small = subeq.GrassmannSample(big.stacked()[:32], angle_tol=big.angle_tol)
    f_big = subeq.geometric(big)
    f_small = subeq.geometric(small)
    for seed in range(20):
        a = random_sym(seed)
        assert f_big.margin(a) <= f_small.margin(a) + 1e-12


def test_geometric_empty_sample_rejected():
    with pytest.raises(DomainError):
        subeq.GrassmannSample([])


# ---------------------------------------------------------------------------
# Garding branches and regularization
# ---------------------------------------------------------------------------


def test_det_branch_one_is_psd_cone():
    b = subeq.builtin("garding-det", 3, k=1)
    psd = subeq.builtin("p", 3)
    for seed in range(10):
        a = random_sym(seed, 3)
        assert b.margin(a) == pytest.approx(psd.margin(a), abs=1e-12)


def test_p_fold_sum_branch_one_is_p_convex():
    b = subeq.builtin("garding-sum", 4, p=2, k=1)
    p2 = subeq.builtin("p-convex", 4, p=2.0)
    for seed in range(10):
        a = random_sym(seed)
        assert b.margin(a) == pytest.approx(p2.margin(a), abs=1e-10)


def test_branch_index_validation():
    with pytest.raises(DomainError):
        subeq.builtin("garding-det", 3, k=5)
    with pytest.raises(DomainError):
        subeq.builtin("garding-sum", 4, p=2, k=7)
    with pytest.raises(DomainError):
        subeq.builtin("garding-pdelta", 3, k=1)  # missing delta


@pytest.mark.parametrize("family,params", [
    ("sigma-k", {}),
    ("garding-det", {}),
    ("garding-pdelta", {"delta": 0.5}),
    ("garding-sum", {"p": 2}),
])
def test_integer_parameters_are_not_truncated(family, params):
    # a fractional k is refused, never read as its integer part
    for k in (2.5, 1.9, 1.0000001):
        with pytest.raises(DomainError, match=f"{family} needs an integer k, got k={k}"):
            subeq.builtin(family, 4, **params, k=k)
    # an integral float is that integer: same name, closed form and margins
    exact = subeq.builtin(family, 4, **params, k=2)
    floated = subeq.builtin(family, 4, **params, k=2.0)
    assert (floated.name, floated.closed_form) == (exact.name, exact.closed_form)
    a = np.stack([random_sym(seed) for seed in range(5)])
    assert np.array_equal(floated.margin(a), exact.margin(a))


def test_regularization_of_psd_matches_pdelta():
    reg = subeq.uniform_elliptic_regularization(subeq.builtin("p", 3), 0.7)
    pd = subeq.builtin("pdelta", 3, delta=0.7)
    for seed in range(20):
        a = random_sym(seed, 3)
        assert reg.margin(a) == pytest.approx(pd.margin(a), abs=1e-10)


def test_regularization_small_delta_converges():
    f = subeq.builtin("sigma-k", 4, k=2)
    a = random_sym(3)
    base = f.margin(a)
    gaps = [abs(subeq.uniform_elliptic_regularization(f, d).margin(a) - base)
            for d in (1e-1, 1e-3, 1e-5)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_regularization_rejects_nonpositive_delta():
    with pytest.raises(DomainError):
        subeq.uniform_elliptic_regularization(subeq.builtin("p", 3), 0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_parameters_rejected(value):
    for family, params in (("p-convex", {"p": value}), ("min-max", {"p": value}),
                           ("pdelta", {"delta": value}), ("trace-power", {"k": 2, "q": value}),
                           ("largest-convex", {"p": value})):
        with pytest.raises(DomainError, match="finite"):
            subeq.builtin(family, 4, **params)
    with pytest.raises(DomainError, match="finite"):
        subeq.uniform_elliptic_regularization(subeq.builtin("p", 3), value)
    with pytest.raises(DomainError, match="finite"):
        subeq.builtin("garding-pdelta", 3, delta=value, k=1)
    with pytest.raises(DomainError, match="finite"):
        subeq.check_uniform_ellipticity(value, 3, sample_count=10)


# ---------------------------------------------------------------------------
# property checks
# ---------------------------------------------------------------------------

ALL_BUILTINS = [
    ("p", {}, 3),
    ("p-convex", {"p": 2.5}, 4),
    ("sigma-k", {"k": 2}, 4),
    ("pdelta", {"delta": 1.0}, 3),
    ("min-max", {"p": 3.0}, 4),
    ("min-2", {"p": 3.0}, 4),
    ("dual-min-max", {"p": 3.0}, 4),
    ("dual-min-2", {"p": 3.0}, 4),
    ("trace-power", {"k": 4, "q": 3.0}, 4),
    ("subaffine", {}, 3),
    ("largest-convex", {"p": 2.0}, 4),
    ("garding-det", {"k": 2}, 4),
    ("garding-pdelta", {"delta": 0.5, "k": 3}, 4),
    ("garding-sum", {"p": 2, "k": 4}, 4),
]


@pytest.mark.parametrize("family,params,n", ALL_BUILTINS)
def test_positivity_and_cone(family, params, n):
    f = subeq.builtin(family, n, **params)
    assert subeq.check_positivity(f, sample_count=100, seed=0).passed
    assert subeq.check_cone(f, sample_count=100, seed=1).passed


@pytest.mark.parametrize("family,params,n", ALL_BUILTINS)
def test_maximum_principle_builtin(family, params, n):
    assert subeq.check_maximum_principle(subeq.builtin(family, n, **params)).passed


def test_maximum_principle_fails_for_full_space():
    report = subeq.check_maximum_principle(subeq.builtin("full-space", 3))
    assert not report.passed
    assert report.worst_violation == 1.0


def test_st_invariance_orthogonal():
    f = subeq.builtin("sigma-k", 4, k=2)
    assert subeq.check_st_invariance(f, sample_count=40, seed=0).passed


def test_st_invariance_unitary_and_symplectic():
    fc = subeq.complex_lift("p-convex", 2, p=1.5)
    assert subeq.check_st_invariance(fc, sample_count=25, seed=0).passed
    fq = subeq.quaternionic_lift("p", 2)
    assert subeq.check_st_invariance(fq, sample_count=15, seed=0).passed


def _group_defect(g, structures):
    eye = np.eye(g.shape[-1])
    orthogonal = np.abs(g @ g.swapaxes(-1, -2) - eye).max()
    commutes = max(np.abs(g @ s - s @ g).max() for s in structures)
    return max(orthogonal, commutes)


@pytest.mark.parametrize("n", range(2, 9))
def test_unitary_rotations_lie_in_u_n(n):
    # Cayley transforms of skew matrices in the J-commutant
    gaussians = np.random.default_rng(0).standard_normal((20, 2 * n, 2 * n))
    g = subeq.invariance_rotation(subeq.complex_lift("p", n), gaussians)
    assert _group_defect(g, linalg.Structure.complex(n).units) <= 1e-13
    assert (np.linalg.det(g) > 0.0).all()


@pytest.mark.parametrize("n", range(1, 5))
def test_symplectic_rotations_lie_in_sp_n(n):
    gaussians = np.random.default_rng(0).standard_normal((20, 4 * n, 4 * n))
    g = subeq.invariance_rotation(subeq.quaternionic_lift("p", n), gaussians)
    assert _group_defect(g, linalg.Structure.quaternionic(n).units) <= 1e-13
    assert (np.linalg.det(g) > 0.0).all()


def test_st_invariance_is_relative_to_huge_margins():
    # rounding of margins near 1e300 is not a violation ...
    for f in (subeq.builtin("dual-min-max", 3, p=1e300), subeq.builtin("min-max", 3, p=1e300),
              subeq.builtin("trace-power", 3, k=2, q=50.0)):
        assert subeq.check_st_invariance(f, sample_count=20, seed=0).passed
    # ... while a margin that is not invariant fails at any scale
    for scale in (1.0, 1e300):
        corner = subeq.Subequation(name="corner", n=3, invariance="O(n)",
                                   margin=lambda a, s=scale: s * a[..., 0, 0])
        report = subeq.check_st_invariance(corner, sample_count=20, seed=0)
        assert not report.passed and report.worst_violation > 0.1


def test_st_invariance_sampled_grassmannian_skipped():
    gs = subeq.sample_grassmannian(4, 2, count=16, seed=0)
    report = subeq.check_st_invariance(subeq.geometric(gs))
    assert report.skipped
    assert "finite sample" in report.note


def test_uniform_ellipticity_bounds():
    assert subeq.check_uniform_ellipticity(1.0, 3, sample_count=300, seed=0).passed
    assert subeq.check_uniform_ellipticity(0.25, 4, sample_count=300, seed=1).passed


@pytest.mark.parametrize("family,params,n", ALL_BUILTINS)
def test_margin_monotone_along_identity(family, params, n):
    f = subeq.builtin(family, n, **params)
    assert subeq.margin_monotonicity_check(f, sample_count=60, seed=2).passed


def test_property_report_pass_definition():
    report = subeq.PropertyReport("x", 1, worst_violation=2.0, tolerance=1.0)
    assert cli._sanitize(report)["pass"] is False
    at_tolerance = dataclasses.replace(report, worst_violation=np.float64(1.0))
    assert cli._sanitize(at_tolerance)["pass"] is True
    # a violation that could not be read fails
    assert not dataclasses.replace(report, worst_violation=math.nan).passed
    with pytest.raises(TypeError):
        subeq.PropertyReport("x", 1, worst_violation=0.0, tolerance=1.0, passed=True)


# ---------------------------------------------------------------------------
# transitivity
# ---------------------------------------------------------------------------


def test_transitivity_dense_sample_short_chains():
    gs = subeq.sample_grassmannian(3, 2, count=512, seed=3, angle_tol=0.15)
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        res = subeq.transitivity_check(gs, x, y)
        assert res.found, res.reason
        assert 1 <= len(res.chain) <= 3
        # certificate: endpoints contain x and y, consecutive planes intersect
        for point, plane_idx in ((x, res.chain[0]), (y, res.chain[-1])):
            w = gs.planes[plane_idx].columns
            ph = point / np.linalg.norm(point)
            assert np.linalg.norm(ph - w @ (w.T @ ph)) <= gs.angle_tol
        for i, j in zip(res.chain, res.chain[1:]):
            cosines = np.linalg.svd(gs.planes[i].columns.T @ gs.planes[j].columns,
                                    compute_uv=False)
            assert np.arccos(min(cosines.max(), 1.0)) <= gs.angle_tol


def test_transitivity_single_plane_fails():
    gs = subeq.sample_grassmannian(3, 2, count=1, seed=1, angle_tol=1e-3)
    w = gs.planes[0]
    x = w.columns[:, 0]
    y = np.cross(w.columns[:, 0], w.columns[:, 1])
    res = subeq.transitivity_check(gs, x, y)
    assert not res.found
    assert "y" in res.reason


def test_transitivity_two_plane_chain():
    w1 = np.eye(3)[:, :2]          # span(e1, e2)
    w2 = np.eye(3)[:, 1:]          # span(e2, e3)
    gs = subeq.GrassmannSample([w1, w2], angle_tol=1e-3)
    res = subeq.transitivity_check(gs, np.array([1.0, 0, 0]), np.array([0, 0, 1.0]))
    assert res.found
    assert res.chain == (0, 1)


def test_transitivity_rejects_zero_vector():
    gs = subeq.sample_grassmannian(3, 2, count=4, seed=0)
    with pytest.raises(DomainError):
        subeq.transitivity_check(gs, np.zeros(3), np.ones(3))


def _dense_adjacency(sample):
    stack = sample.stacked()
    k, _, p = stack.shape
    grams = np.einsum("inp,jnq->ijpq", stack, stack).reshape(k * k, p, p)
    adjacent = (np.linalg.svd(grams, compute_uv=False).max(axis=1)
                >= np.cos(sample.angle_tol)).reshape(k, k)
    np.fill_diagonal(adjacent, False)
    return adjacent


def _line_plane_angles(sample, v):
    """Reference: the principal angle from the line through v to each
    sampled plane, arccos of the one singular value of W^T v / |v|."""
    vh = np.asarray(v, dtype=float) / np.linalg.norm(v)
    cols = np.einsum("knp,n->kp", sample.stacked(), vh)[:, :, None]
    return np.arccos(np.minimum(np.linalg.svd(cols, compute_uv=False)[:, 0], 1.0))


def _dense_transitivity(sample, x, y, adjacent=None):
    """Reference: the whole k x k adjacency, goals checked when popped."""
    if adjacent is None:
        adjacent = _dense_adjacency(sample)

    def containing(v):
        return np.flatnonzero(_line_plane_angles(sample, v) <= sample.angle_tol)

    starts, goals = containing(x), set(containing(y).tolist())
    if starts.size == 0:
        return subeq.TransitivityResult(False, (), "no sampled plane contains x")
    if not goals:
        return subeq.TransitivityResult(False, (), "no sampled plane contains y")
    parent = {int(s): -1 for s in starts}
    frontier = [int(s) for s in starts]
    while frontier:
        nxt = []
        for node in frontier:
            if node in goals:
                chain = [node]
                while parent[chain[-1]] != -1:
                    chain.append(parent[chain[-1]])
                return subeq.TransitivityResult(True, tuple(reversed(chain)))
            for nbr in np.flatnonzero(adjacent[node]).tolist():
                if nbr not in parent:
                    parent[nbr] = node
                    nxt.append(nbr)
        frontier = nxt
    return subeq.TransitivityResult(False, (), "plane graph disconnected between x and y")


@pytest.mark.parametrize("p,n,tols", [
    (2, 3, (0.08, 0.2)),
    (2, 4, (1e-3, 0.01, 0.05, 0.2)),
    (3, 5, (0.08, 0.2)),
])
def test_transitivity_matches_dense_pop_order_bfs(p, n, tols):
    lengths = set()
    for seed in range(3):
        for tol in tols:
            gs = subeq.sample_grassmannian(n, p, count=256, seed=seed, angle_tol=tol)
            adjacent = _dense_adjacency(gs)
            rng = np.random.default_rng(seed)
            for _ in range(3):
                i, j = rng.choice(256, size=2, replace=False)
                x = gs.planes[i].columns @ rng.standard_normal(p)
                y = gs.planes[j].columns @ rng.standard_normal(p)
                res = subeq.transitivity_check(gs, x, y)
                assert res == _dense_transitivity(gs, x, y, adjacent)
                lengths.add(len(res.chain) if res.found else res.reason)
            # an endpoint off every sampled plane
            off = rng.standard_normal(n)
            assert subeq.transitivity_check(gs, x, off) == _dense_transitivity(gs, x, off, adjacent)
    if n == 4:
        assert max(v for v in lengths if isinstance(v, int)) >= 3
        assert "plane graph disconnected between x and y" in lengths


@pytest.mark.parametrize("p,n,tol", [(1, 3, 0.2), (1, 4, 0.4), (2, 4, 2.0), (2, 3, 4.0)])
def test_transitivity_matches_dense_reference_for_lines_and_wide_tolerances(p, n, tol):
    found = set()
    for seed in range(3):
        gs = subeq.sample_grassmannian(n, p, count=128, seed=seed, angle_tol=tol)
        adjacent = _dense_adjacency(gs)
        rng = np.random.default_rng(seed)
        for _ in range(4):
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            res = subeq.transitivity_check(gs, x, y)
            assert res == _dense_transitivity(gs, x, y, adjacent)
            found.add(len(res.chain) if res.found else res.reason)
    # angle_tol >= pi/2 puts every endpoint in every plane: one-plane chains
    assert (found == {1}) == (tol >= math.pi / 2)


@pytest.mark.parametrize("tol", [0.15, 0.9, 1.0, 1.2, 2.0])
def test_endpoints_lie_in_the_planes_within_the_tolerance_angle(tol):
    # containment compares the principal angle from the line to the plane
    # with angle_tol, as adjacency compares the angle between planes
    gs = subeq.sample_grassmannian(5, 2, count=512, seed=0, angle_tol=tol)
    cos_sq_tol = math.cos(tol) * abs(math.cos(tol))
    rng = np.random.default_rng(5)
    for scale in (0.0, 0.05, 0.3, 1.0, 10.0):  # off a sampled plane by about `scale`
        x = gs.planes[int(rng.integers(512))].columns @ rng.standard_normal(2)
        x += scale * np.linalg.norm(x) * rng.standard_normal(5)
        got = subeq._containing_planes(gs, x, cos_sq_tol)
        want = np.flatnonzero(_line_plane_angles(gs, x) <= tol)
        assert got.tolist() == want.tolist()
        assert (got.size == 512) == (tol >= math.pi / 2)


def test_transitivity_disconnected_pair():
    e = np.eye(4)
    gs = subeq.GrassmannSample([e[:, :2], e[:, 2:]], angle_tol=1e-3)
    res = subeq.transitivity_check(gs, e[0], e[3])
    assert res == _dense_transitivity(gs, e[0], e[3])
    assert not res.found and "disconnected" in res.reason


def test_transitivity_memory_is_per_row():
    import tracemalloc

    gs = subeq.sample_grassmannian(5, 2, count=2048, seed=4, angle_tol=0.15)
    rng = np.random.default_rng(4)
    x = gs.planes[3].columns @ rng.standard_normal(2)
    y = gs.planes[1500].columns @ rng.standard_normal(2)
    tracemalloc.start()
    try:
        res = subeq.transitivity_check(gs, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.found
    assert peak < 32 * 2**20  # the dense Gram tensor alone is 134 MB


def _band_planes(n, p, tol, rng):
    """W0 = span(e_1, ..., e_p) and planes at a smallest principal angle of
    exactly tol and tol -+ 1e-13 to it, span(cos t e_i + sin t e_(p+i)),
    one of them with its other angles wider; then the same planes turned
    by one random rotation, whose Gram blocks carry rounding.  The lower
    bound on lambda_max of a block of W0 and a plane at tol falls within
    BOUND_MARGIN of cos_sq_tol, so the block goes to the eigensolver."""
    planes = [np.eye(n)[:, :p]]
    for t, spread in ((tol, 0.0), (tol - 1e-13, 0.0), (tol + 1e-13, 0.0), (tol, 0.2)):
        angles = t + spread * np.arange(p)
        w = np.zeros((n, p))
        w[np.arange(p), np.arange(p)] = np.cos(angles)
        w[p + np.arange(p), np.arange(p)] = np.sin(angles)
        planes.append(w)
    turn = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return planes + [turn @ w for w in planes]


def _count_eigensolved_rows(monkeypatch, module):
    """Patch module's ordered_eigenvalues to count the matrices it is given."""
    rows = []

    def counting(a):
        rows.append(len(a))
        return linalg.ordered_eigenvalues(a)

    monkeypatch.setattr(module, "ordered_eigenvalues", counting)
    return rows


@pytest.mark.parametrize("p,n", [(2, 3), (2, 5), (3, 6), (3, 7)])
@pytest.mark.parametrize("tol", [0.05, 0.15, 1.0, math.pi / 2, 2.0])
def test_transitivity_bounds_decide_as_the_eigensolver(monkeypatch, p, n, tol):
    rng = np.random.default_rng(p * 10 + n)
    band = _band_planes(n, p, tol, rng) if n >= 2 * p else []  # two p-planes in R^3 meet
    drawn = subeq.sample_grassmannian(n, p, count=384, seed=n).stacked()
    gs = subeq.GrassmannSample([*band, *drawn], angle_tol=tol)
    stack, cos_sq_tol = gs.stacked(), eigensolved.cos_sq(tol)
    rows = _count_eigensolved_rows(monkeypatch, subeq)
    adjacency_row = subeq._adjacency(stack, cos_sq_tol)
    for node in [*range(len(band)), *rng.choice(np.arange(len(band), len(stack)), 12)]:
        got = adjacency_row(node)
        assert np.array_equal(got, eigensolved.adjacency_row(stack, node, cos_sq_tol))
    if band and tol < math.pi / 2:  # the band's blocks went to the eigensolver
        assert sum(rows) >= len(band)
    for _ in range(4):
        i, j = rng.choice(len(stack), size=2, replace=False)
        x = stack[i] @ rng.standard_normal(p)
        y = stack[j] @ rng.standard_normal(p)
        assert subeq.transitivity_check(gs, x, y) == eigensolved.transitivity_check(gs, x, y)


def test_transitivity_bounds_spare_most_eigensolves(monkeypatch):
    # the default g2r5 sample at tol 0.15; endpoints off the planes, a chain of three
    gs = subeq.sample_grassmannian(5, 2, seed=4, angle_tol=0.15)
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal(5), rng.standard_normal(5)
    bounded = _count_eigensolved_rows(monkeypatch, subeq)
    every = _count_eigensolved_rows(monkeypatch, eigensolved)
    res = subeq.transitivity_check(gs, x, y)
    assert len(res.chain) == 3 and res == eigensolved.transitivity_check(gs, x, y)
    assert len(every) == 14 and sum(every) == 2048 * len(every)
    assert 0 < sum(bounded) < 0.4 * sum(every)


@pytest.mark.parametrize("endpoint", [[1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [1.0, np.nan, 0.0],
                                      [np.inf, 0.0, 0.0]])
def test_transitivity_rejects_bad_endpoints(endpoint):
    gs = subeq.sample_grassmannian(3, 2, count=8, seed=0)
    with pytest.raises(DomainError):
        subeq.transitivity_check(gs, np.asarray(endpoint), np.ones(3))
    with pytest.raises(DomainError):
        subeq.transitivity_check(gs, np.ones(3), np.asarray(endpoint))


@pytest.mark.parametrize("n,p", [(3, 5), (3, 0), (4, -1)])
def test_grassmannian_needs_p_between_1_and_n(n, p):
    with pytest.raises(DomainError):
        subeq.sample_grassmannian(n, p, count=4)


def test_grassmannian_p_equals_n_allowed():
    gs = subeq.sample_grassmannian(3, 3, count=4, seed=0)
    assert (gs.n, gs.p) == (3, 3)


def per_plane_sample(n, p, count, seed):
    """Reference: the sampler as it was, one draw, QR and sign fix per plane."""
    rng = np.random.default_rng(seed)
    planes = []
    for _ in range(count):
        q, r = np.linalg.qr(rng.standard_normal((n, p)))
        planes.append(q * np.sign(np.diag(r)))
    return np.stack(planes)


@pytest.mark.parametrize("n", range(1, 17))
def test_batched_sampler_equals_the_per_plane_loop_bitwise(n):
    for p in sorted({1, 2, 3, n // 2, n} & set(range(1, n + 1))):
        for count in (1, 7, 64):
            for seed in (0, 1, 12345):
                stack = subeq.sample_grassmannian(n, p, count=count, seed=seed).stacked()
                ref = per_plane_sample(n, p, count, seed)
                # equal bytes: sign bits of zeros included
                assert stack.shape == ref.shape and stack.tobytes() == ref.tobytes(), \
                    (n, p, count, seed)


def test_sample_stack_is_one_read_only_array():
    gs = subeq.sample_grassmannian(4, 2, count=16, seed=0)
    stack = gs.stacked()
    assert gs.stacked() is stack and stack.shape == (16, 4, 2)
    assert not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 1.0
    assert all(np.array_equal(w.columns, s) for w, s in zip(gs.planes, stack))
    with pytest.raises(dataclasses.FrozenInstanceError):
        gs.planes = gs.planes[:1]
    # the public constructor copies a stack the same way
    built = subeq.GrassmannSample(gs.stacked()[:3], angle_tol=gs.angle_tol)
    assert built.stacked() is built.stacked() and not built.stacked().flags.writeable
    assert np.array_equal(built.stacked(), stack[:3])


def test_grassmann_sample_checks_the_stack_once_with_the_frame_message():
    stack = np.stack([np.eye(4)[:, :2]] * 5)
    planes = subeq.GrassmannSample(stack).planes
    assert [w.columns.shape for w in planes] == [(4, 2)] * 5
    assert all(not w.columns.flags.writeable for w in planes)
    assert stack.flags.writeable  # the caller's array is copied, not frozen
    # one bad plane refuses the stack, with the message a sample of that plane gives
    bad = stack.copy()
    bad[3, :, 1] = [1.0, 1.0, 0.0, 0.0]
    with pytest.raises(InvariantError) as one:
        subeq.GrassmannSample(bad[3:4])
    with pytest.raises(InvariantError) as batched:
        subeq.GrassmannSample(bad)
    assert str(batched.value) == str(one.value)
    assert str(one.value).startswith("columns not orthonormal: defect ")
    with pytest.raises(InvariantError, match="3-d"):
        subeq.GrassmannSample(stack[0])


def test_grassmann_sample_holds_its_own_read_only_planes():
    # margin over span(e1, e2) and span(e2, e3) of diag(-5, 0, 1) is -5;
    # with e3 for e1 the first plane would read 1
    a = np.diag([-5.0, 0.0, 1.0])
    e = np.eye(3)
    arrays = np.stack([np.eye(3)[:, :2], np.eye(3)[:, 1:]])
    for planes, mutate in (([e[:, :2], np.eye(3)[:, 1:]], e),
                           (arrays, arrays[0])):
        gs = subeq.GrassmannSample(planes)
        f = subeq.geometric(gs)
        assert f.margin(a) == -5.0
        mutate[:, 0] = [0.0, 0.0, 1.0]
        assert np.array_equal(gs.planes[0].columns, np.eye(3)[:, :2])
        assert np.array_equal(gs.stacked()[0], np.eye(3)[:, :2])
        again = subeq.geometric(gs)
        for g in (f, again):
            assert np.array_equal(g.preferred_direction, [1.0, 0.0, 0.0])
            assert g.margin(a) == -5.0
        for w in gs.planes:
            with pytest.raises(ValueError):
                w.columns[0, 0] = 2.0


def test_grassmann_sample_rejects_non_orthonormal():
    with pytest.raises(InvariantError):
        subeq.GrassmannSample([np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])])


def test_grassmann_sample_rejects_nan_columns():
    with pytest.raises(InvariantError, match="columns not orthonormal: defect nan"):
        subeq.GrassmannSample([np.full((3, 2), np.nan)])


@pytest.mark.parametrize("kwargs,message", [
    ({"count": 2.5}, "integer count, got count=2.5"),
    ({"count": math.nan}, "integer count, got count=nan"),
    ({"count": "3"}, "integer count"),
    ({"count": 0}, "count >= 1, got count=0"),
    ({"count": -1}, "count >= 1, got count=-1"),
    ({"n": 4.5}, "integer n, got n=4.5"),
    ({"p": 1.5}, "integer p, got p=1.5"),
    ({"n": math.inf}, "integer n, got n=inf"),
])
def test_grassmannian_refuses_bad_sizes(kwargs, message):
    args = {"n": 4, "p": 2, "count": 8, **kwargs}
    with pytest.raises(DomainError, match=message):
        subeq.sample_grassmannian(**args)


def test_grassmannian_takes_integral_floats_as_integers():
    exact = subeq.sample_grassmannian(4, 2, count=8, seed=2)
    floated = subeq.sample_grassmannian(4.0, 2.0, count=8.0, seed=2)
    assert np.array_equal(floated.stacked(), exact.stacked())


def test_an_unknown_invariance_tag_has_no_rotation_sampler():
    f = subeq.Subequation(name="bogus", n=3, invariance="bogus",
                          margin=lambda a: np.zeros(np.shape(a)[:-2]))
    with pytest.raises(DomainError, match=r"^no rotation sampler for invariance tag 'bogus'$"):
        subeq.check_st_invariance(f, 3)


def test_trace_power_closed_form_beyond_every_float_is_inf():
    # 1 + 2^(1/q) overflows at q = 1e-300
    assert subeq.builtin("trace-power", 3, k=3.0, q=1e-300).closed_form == math.inf
