import dataclasses
import math

import numpy as np
import pytest

from rieszlab import linalg, riesz, subeq
from rieszlab.errors import DomainError, NumericalError, SolverError

INF = math.inf


# ---------------------------------------------------------------------------
# increasing characteristic: closed forms
# ---------------------------------------------------------------------------

CLOSED_FORMS = [
    ("sigma-k", {"k": 2}, 4, 2.0),
    ("sigma-k", {"k": 3}, 6, 2.0),
    ("pdelta", {"delta": 1.0}, 3, 1.5),
    ("trace-power", {"k": 4, "q": 3.0}, 4, 1.0 + 3.0 ** (1.0 / 3.0)),
    ("p-convex", {"p": 2.5}, 5, 2.5),
    ("min-max", {"p": 3.0}, 4, 3.0),
    ("min-2", {"p": 3.0}, 4, 3.0),
    ("largest-convex", {"p": 2.0}, 4, 2.0),
]


@pytest.mark.parametrize("family,params,n,expected", CLOSED_FORMS)
def test_increasing_characteristic_closed_forms(family, params, n, expected):
    f = subeq.builtin(family, n, **params)
    p, bracket = riesz.increasing_characteristic(f)
    assert p == pytest.approx(expected, abs=1e-6)
    assert bracket <= 1e-8


@pytest.mark.parametrize("delta", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("lift", [subeq.complex_lift, subeq.quaternionic_lift])
@pytest.mark.parametrize("family,params,n", [
    ("p-convex", {"p": 1.0}, 3),
    ("sigma-k", {"k": 2}, 3),
    ("pdelta", {"delta": 1.0}, 2),
    ("trace-power", {"k": 2, "q": 3.0}, 2),
])
def test_regularized_lift_closed_forms(family, params, n, lift, delta):
    f = subeq.uniform_elliptic_regularization(lift(family, n, **params), delta)
    p, _ = riesz.increasing_characteristic(f)
    assert p == pytest.approx(f.closed_form, abs=1e-8)


def test_subaffine_has_infinite_characteristic():
    p, bracket = riesz.increasing_characteristic(subeq.builtin("subaffine", 4))
    assert p == INF and bracket == 0.0


def test_direction_independence():
    f = subeq.builtin("sigma-k", 4, k=2)
    pair = riesz.characteristic_pair(f, check_directions=8, seed=5)
    assert pair.p == pytest.approx(2.0, abs=1e-6)


def test_a_direction_dependent_characteristic_is_refused():
    # three planes of G(2, R^4) are not spherically transitive: the
    # characteristic along the default direction fails along another one
    f = subeq.geometric(subeq.sample_grassmannian(4, 2, count=3, seed=1))
    assert riesz.increasing_characteristic(f) == (2.0000000004438334, 9.167706593871117e-10)
    with pytest.raises(SolverError, match="characteristic depends on direction for geometric"):
        riesz.characteristic_pair(f, check_directions=1, seed=0)


def test_an_infinite_characteristic_is_checked_in_other_directions():
    f = subeq.builtin("subaffine", 4)
    pair = riesz.characteristic_pair(f, check_directions=3)
    assert (pair.p, pair.p_bracket) == (INF, 0.0)


def test_direction_window_grows_with_the_characteristic():
    # at p = 200 the window is 1e-9 p = 2e-7, wider than 10 tol = 1e-8
    f = subeq.builtin("min-max", 4, p=200.0)
    stacks = []
    counted = dataclasses.replace(f, margin=lambda a: stacks.append(a) or f.margin(a))
    p = riesz.characteristic_pair(counted, check_directions=4).p
    assert p == pytest.approx(200.0, abs=1e-8)
    # the last margin call reads the pencils of the 4 directions at p -/+ 1e-9 p
    rng = np.random.default_rng(0)
    pencils = [linalg.projector_perp(e2) - (t - 1.0) * linalg.projector_onto(e2)
               for e2 in (linalg.random_unit_vector(4, rng) for _ in range(4))
               for t in (p - 1e-9 * p, p + 1e-9 * p)]
    assert np.array_equal(stacks[-1], pencils)


def test_a_negative_direction_count_is_refused():
    f = subeq.builtin("sigma-k", 4, k=2)
    with pytest.raises(DomainError, match="check_directions must be >= 0, got -1"):
        riesz.characteristic_pair(f, check_directions=-1)


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("family,params,n", [
    ("sigma-k", {"k": 10}, 10),
    ("sigma-k", {"k": 6}, 6),
    ("p-convex", {"p": 1.0}, 5),
])
def test_characteristic_one_in_random_directions(family, params, n, seed):
    # margin(P_perp) is zero only up to rounding when the characteristic is 1
    f = subeq.builtin(family, n, **params)
    pair = riesz.characteristic_pair(f, check_directions=1, seed=seed)
    assert pair.p == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("family,params,n", [("p", {}, 3), ("p-convex", {"p": 1.0}, 4),
                                             ("sigma-k", {"k": 5}, 5)])
def test_characteristic_one_is_exact(family, params, n):
    # P_perp lies on the boundary: p is exactly 1, with no bisection
    assert riesz.increasing_characteristic(subeq.builtin(family, n, **params)) == (1.0, 0.0)


def test_characteristic_certificate():
    # the matrix margin of Id - t P_e changes sign across [p - tol, p + tol]
    f = subeq.builtin("pdelta", 3, delta=1.0)
    p, _ = riesz.increasing_characteristic(f)
    e = f.direction()
    band = 1e-7 * (1.0 + math.sqrt(f.n - 1.0 + (p - 1.0) ** 2))

    def margin(t):
        return float(f.margin(linalg.projector_perp(e) - (t - 1.0) * linalg.projector_onto(e)))

    assert margin(p - riesz.DEFAULT_TOL) >= -band
    assert margin(p + riesz.DEFAULT_TOL) <= band


def test_garding_pdelta_branches_share_characteristic():
    n, delta = 3, 1.0
    expected = n * (1.0 + 1.0 / delta)
    for k in (2, 3):
        branch = subeq.builtin("garding-pdelta", n, delta=delta, k=k)
        p, _ = riesz.increasing_characteristic(branch)
        assert p == pytest.approx(expected, abs=1e-6)


def test_garding_fold_sum_branches():
    # the first C(n-1, p-1) branches share characteristic p; the rest are infinite
    n, p = 4, 2
    for k in (1, 2, 3):
        branch = subeq.builtin("garding-sum", n, p=p, k=k)
        val, _ = riesz.increasing_characteristic(branch)
        assert val == pytest.approx(2.0, abs=1e-6)
    branch = subeq.builtin("garding-sum", n, p=p, k=4)
    val, _ = riesz.increasing_characteristic(branch)
    assert val == INF


def garding_cases(family, n):
    if family == "garding-det":
        return [{"k": k} for k in range(1, n + 1)]
    if family == "garding-pdelta":
        return [{"delta": d, "k": k} for d in (0.25, 1.0, 3.0) for k in range(1, n + 1)]
    return [{"p": p, "k": k} for p in range(1, n + 1) for k in range(1, math.comb(n, p) + 1)]


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("family", ["garding-det", "garding-pdelta", "garding-sum"])
def test_garding_closed_forms_match_the_solver(family, n):
    tol = riesz.DEFAULT_TOL
    for params in garding_cases(family, n):
        f = subeq.builtin(family, n, **params)
        p, _ = riesz.increasing_characteristic(f, tol=tol)
        if math.isinf(f.closed_form):
            assert p == f.closed_form, params
        else:
            assert abs(p - f.closed_form) <= 10.0 * tol, params


# ---------------------------------------------------------------------------
# decreasing characteristic and duality
# ---------------------------------------------------------------------------


def test_laplacian_decreasing_characteristic():
    q, _ = riesz.decreasing_characteristic(subeq.builtin("laplacian", 5))
    assert q == pytest.approx(5.0, abs=1e-6)


def test_psd_cone_decreasing_is_infinite():
    q, _ = riesz.decreasing_characteristic(subeq.builtin("p", 3))
    assert q == INF


def test_full_space_decreasing_is_a_solver_error():
    # dual(Sym(n)) is empty: its margin at P_perp is far below zero, so the
    # solve of the dual refuses rather than answering q = 1
    with pytest.raises(SolverError, match=r"no sign change for dual\(full-space\)"):
        riesz.decreasing_characteristic(subeq.builtin("full-space", 3))


def test_min_max_decreasing_characteristic():
    q, _ = riesz.decreasing_characteristic(subeq.builtin("min-max", 4, p=3.0))
    assert q == pytest.approx(1.5, abs=1e-6)


CATALOG = [
    ("p", {}, 3),
    ("p-convex", {"p": 2.5}, 4),
    ("laplacian", {}, 4),
    ("sigma-k", {"k": 2}, 4),
    ("pdelta", {"delta": 1.0}, 3),
    ("min-max", {"p": 3.0}, 4),
    ("min-2", {"p": 3.0}, 4),
    ("dual-min-max", {"p": 3.0}, 4),
    ("dual-min-2", {"p": 3.0}, 4),
    ("trace-power", {"k": 4, "q": 3.0}, 4),
    ("subaffine", {}, 3),
    ("largest-convex", {"p": 2.0}, 4),
]


@pytest.mark.parametrize("family,params,n", CATALOG)
def test_dual_route_agreement(family, params, n):
    f = subeq.builtin(family, n, **params)
    q, _ = riesz.decreasing_characteristic(f)
    p_dual, _ = riesz.increasing_characteristic(subeq.dual(f))
    if math.isinf(q):
        assert math.isinf(p_dual)
    else:
        assert q == pytest.approx(p_dual, abs=1e-6)


@pytest.mark.parametrize("family,params,n", CATALOG)
def test_pair_constraint(family, params, n):
    pair = riesz.characteristic_pair(subeq.builtin(family, n, **params))
    if math.isfinite(pair.p) and math.isfinite(pair.q):
        assert (pair.p - 1.0) * (pair.q - 1.0) >= 1.0 - 1e-6


def test_min_max_pair_equality():
    pair = riesz.characteristic_pair(subeq.builtin("min-max", 4, p=3.0))
    assert (pair.p - 1.0) * (pair.q - 1.0) == pytest.approx(1.0, abs=1e-6)


def test_pair_constraint_violation_raises():
    with pytest.raises(NumericalError):
        riesz.CharacteristicPair(p=1.5, q=1.5, p_bracket=0.0, q_bracket=0.0)


def test_lift_scaling():
    for family, params, n, base in [("p-convex", {"p": 1.5}, 3, 1.5),
                                    ("sigma-k", {"k": 2}, 4, 2.0),
                                    ("pdelta", {"delta": 1.0}, 3, 1.5)]:
        pc, _ = riesz.increasing_characteristic(subeq.complex_lift(family, n, **params))
        assert pc == pytest.approx(2.0 * base, abs=1e-5)
    pq, _ = riesz.increasing_characteristic(subeq.quaternionic_lift("p-convex", 2, p=1.5))
    assert pq == pytest.approx(6.0, abs=1e-5)


def test_regularization_characteristic_map():
    n, p0, delta = 4, 2.0, 1.0
    f = subeq.uniform_elliptic_regularization(subeq.builtin("p-convex", n, p=p0), delta)
    p, _ = riesz.increasing_characteristic(f)
    assert p == pytest.approx(p0 * n * (1.0 + delta) / (n + delta * p0), abs=1e-6)


def test_geometric_characteristic_from_plane_direction():
    gs = subeq.sample_grassmannian(4, 2, count=128, seed=5)
    f = subeq.geometric(gs)
    p, _ = riesz.increasing_characteristic(f)
    assert p == pytest.approx(2.0, abs=1e-6)


def test_full_space_direction_tests_agree():
    # -P_e is a member, so the characteristic is infinite via both routes
    p, _ = riesz.increasing_characteristic(subeq.builtin("full-space", 3))
    assert p == INF


@pytest.mark.parametrize("f", [
    subeq.builtin("full-space", 3),
    subeq.complex_lift("full-space", 2),
    subeq.uniform_elliptic_regularization(subeq.builtin("full-space", 4), 1.0),
], ids=lambda f: f.name)
def test_characteristic_pair_of_all_of_sym_n_is_a_domain_error(f):
    # F = Sym(n) has an empty dual, so its decreasing pencil has nothing to bisect
    with pytest.raises(DomainError, match="contains -Id, so it is all of Sym"):
        riesz.characteristic_pair(f)


# ---------------------------------------------------------------------------
# sandwich checks
# ---------------------------------------------------------------------------

def test_sandwich_for_p_convex_itself():
    f = subeq.builtin("p-convex", 4, p=2.5)
    assert riesz.sandwich_check(f, 2.5, sample_count=400, seed=0).passed


def test_sandwich_for_sigma_k():
    f = subeq.builtin("sigma-k", 4, k=2)
    assert riesz.sandwich_check(f, 2.0, sample_count=400, seed=1).passed


def test_sandwich_detects_wrong_characteristic():
    # claiming characteristic 2 for the min-max family with p = 3 breaks
    # the upper inclusion on boundary samples
    f = subeq.builtin("min-max", 4, p=3.0)
    rep = riesz.sandwich_check(f, 2.0, sample_count=400, seed=2)
    assert not rep.passed


def test_sandwich_at_an_infinite_characteristic_is_skipped(monkeypatch):
    # no finite sandwich exists: the suite reports its own skip, building no
    # bounding family and drawing no sample
    monkeypatch.setattr(riesz, "builtin", lambda *args, **kw: pytest.fail("builtin called"))
    rep = riesz.sandwich_check(subeq.builtin("subaffine", 3), math.inf, sample_count=100)
    assert rep == subeq.PropertyReport("sandwich", 0, 0.0, 0.0, skipped=True,
                                       note="infinite characteristic: no finite sandwich")
    assert (rep.passed, rep.skipped) == (True, True)


@pytest.mark.parametrize("p", [math.inf, 2.0])
def test_sandwich_needs_a_sample_at_any_characteristic(p):
    with pytest.raises(DomainError, match=r"^sample count must be >= 1, got 0$"):
        riesz.sandwich_check(subeq.builtin("subaffine", 3), p, sample_count=0)


def test_sandwich_says_when_the_lower_inclusion_went_untested():
    # no sample of pdelta at n = 8 lands in min-2(p): only the upper half is tested
    f = subeq.builtin("pdelta", 8, delta=1.0)
    rep = riesz.sandwich_check(f, riesz.increasing_characteristic(f)[0], 1000)
    assert rep.passed
    assert rep.note.startswith("p=1.77778, lower premise hit 0 (min-2(p) in F untested), ")
    rep = riesz.sandwich_check(subeq.builtin("sigma-k", 4, k=2), 2.0, 1000)
    assert "lower premise hit 8, " in rep.note and "untested" not in rep.note


def test_the_membership_band_is_the_band_of_a_unit_projector():
    assert riesz.MEMBER_BAND == subeq.MEMBER_TOL * (1.0 + 1.0)


@pytest.mark.parametrize("offset,shift", [(-100.0, 10.0), (100.0, -10.0)])
def test_sandwich_counts_unbracketed_boundary_shifts(offset, shift):
    # lam_1 + offset crosses 0 outside [-10, 10] along the identity ray, so
    # every odd sample keeps one end of its bracket
    f = subeq._spectral(linalg.ordered_eigenvalues, lambda lams: lams[..., 0] + offset,
                        name="far", n=4, invariance="O(n)")
    a = linalg.symmetrize(np.random.default_rng(0).standard_normal((5, 4, 4)))
    assert np.array_equal(riesz._boundary_shifts(f, a), np.full(5, shift))
    assert riesz.sandwich_check(f, 2.0, 10).note.endswith(", unbracketed 5")
    assert riesz.sandwich_check(subeq.builtin("sigma-k", 4, k=2), 2.0, 10).note.endswith(
        ", unbracketed 0")


def test_characteristic_rejects_bad_tolerance():
    for solve in (riesz.increasing_characteristic, riesz.decreasing_characteristic):
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="finite"):
                solve(subeq.builtin("p", 3), tol=tol)


def test_no_crossing_inside_bracket_is_a_solver_error():
    # the min-max family with p = 1e7 crosses the boundary beyond the largest
    # bracket, [1, 2**22], whose float spacing still resolves tol = 1e-9
    f = subeq.builtin("min-max", 3, p=1e7)
    with pytest.raises(SolverError, match=r"\[1, 4194304\]: a wider bracket would not resolve"):
        riesz.increasing_characteristic(f)


@pytest.mark.parametrize("p", [65.0, 200.0, 4e6])
def test_bracket_doubles_past_64(p):
    f = subeq.builtin("min-max", 3, p=p)
    value, bracket = riesz.increasing_characteristic(f)
    assert value == pytest.approx(p, abs=1e-8) and bracket <= 1e-9


def test_tolerance_below_float_spacing_is_a_solver_error():
    # near p = 40 floats are 7.1e-15 apart, so bisection to 1e-15 would stall
    f = subeq.builtin("min-max", 3, p=40.0)
    with pytest.raises(SolverError, match="stalls"):
        riesz.increasing_characteristic(f, tol=1e-15)


def test_nan_margin_is_a_solver_error():
    # a margin formula that overflows to NaN inside the bracket [1, 64]
    def eig_margin(lams):
        return np.where(lams[..., 0] < -10.0, math.nan, lams[..., 0] + 2.0 * lams[..., 1])

    f = subeq._spectral(linalg.ordered_eigenvalues, eig_margin, name="nan-below-11", n=3,
                        invariance="O(n)")
    with pytest.raises(SolverError, match="NaN"):
        riesz.increasing_characteristic(f)


@pytest.mark.parametrize("family", ["p", "laplacian", "full-space"])
def test_characteristic_pair_needs_two_dimensions(family):
    with pytest.raises(DomainError, match="n >= 2"):
        riesz.characteristic_pair(subeq.builtin(family, 1))


def nan_margins(a):
    return np.full(np.shape(a)[:-2], np.nan)


@pytest.mark.parametrize("call,error,message", [
    (lambda: riesz.CharacteristicPair(0.5, 2.0, 0.0, 0.0), NumericalError,
     "characteristics must be >= 1, got (0.5, 2.0)"),
    (lambda: riesz.increasing_characteristic(subeq.Subequation(
        name="nan", n=3, invariance="O(n)", margin=nan_margins)),
     SolverError, "margin of nan is NaN: its formula overflows here"),
], ids=["pair-below-1", "nan-matrix-margin"])
def test_riesz_refusals(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message
