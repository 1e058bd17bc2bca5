"""The characteristic solver on spectra.

One bisection serves every subequation: one matrix margin per step, or
for a spectral one 31 points of spectrum(Id) - t spectrum(P_e) per call.
Every spectral answer must be the matrix route's, bit for bit, and the
checks (infinity and t = 1 tests, the bracket guard) must still read
matrix margins; check_directions reads two matrix margins per further
direction.  Both sides of a pair are solved in lockstep over F alone, the
dual's margin being -margin(-A): each answer and each refusal must be
those of the sequential solver kept in ``sequential_solver``.
"""

import dataclasses
import math

import numpy as np
import pytest

import sequential_solver as sequential
from rieszlab import linalg, riesz, subeq
from rieszlab.errors import DomainError, NumericalError, SolverError

DIMENSIONS = (2, 4, 9, 16)


def family_params(family, n):
    """Parameters valid at dimension n, away from the bracket's dyadic points."""
    return {
        "p": {}, "subaffine": {}, "full-space": {},
        "p-convex": {"p": 1.0 + 0.6 * (n - 1)},
        "sigma-k": {"k": max(1, n // 2)},
        "pdelta": {"delta": 0.7},
        "min-max": {"p": 2.2},
        "min-2": {"p": 1.7},
        "dual-min-max": {"p": 3.0},
        "dual-min-2": {"p": 2.3},
        "trace-power": {"k": 1.0 + 0.5 * (n - 1), "q": 1.5},
        "largest-convex": {"p": 1.0 + 0.45 * (n - 1)},
        "laplacian": {},
        "garding-det": {"k": 2},
        "garding-pdelta": {"delta": 0.5, "k": 2},
        "garding-sum": {"p": 2, "k": n - 1},
    }[family]


FAMILIES = ["p", "p-convex", "sigma-k", "pdelta", "min-max", "min-2", "dual-min-max",
            "dual-min-2", "trace-power", "subaffine", "largest-convex", "full-space"]

BASES = {
    **{f"{family} n={n}": (lambda family=family, n=n:
                           subeq.builtin(family, n, **family_params(family, n)))
       for family in FAMILIES for n in DIMENSIONS},
    "garding det": lambda: subeq.builtin("garding-det", 4, k=2),
    "garding p-fold-sum": lambda: subeq.builtin("garding-sum", 4, p=2, k=3),
    "garding pdelta": lambda: subeq.builtin("garding-pdelta", 4, delta=0.5, k=2),
    "complex sigma-k": lambda: subeq.complex_lift("sigma-k", 3, k=2),
    "complex min-max": lambda: subeq.complex_lift("min-max", 2, p=2.5),
    "quaternionic p-convex": lambda: subeq.quaternionic_lift("p-convex", 2, p=1.5),
    "quaternionic sigma-k": lambda: subeq.quaternionic_lift("sigma-k", 2, k=2),
    # every registry family lifted, on R^6 and R^8
    **{f"{variant} {family} m={m}": (lambda lift=lift, family=family, m=m:
                                    lift(family, m, **family_params(family, m)))
       for variant, lift, m in (("complex", subeq.complex_lift, 3),
                                ("quaternionic", subeq.quaternionic_lift, 2))
       for family in subeq.family_names()},
}

CONSTRUCTIONS = {
    "plain": lambda f: f,
    "dual": subeq.dual,
    "regularized": lambda f: subeq.uniform_elliptic_regularization(f, 0.6),
}


def matrix_route(f):
    """The same subequation without its spectrum: the solver reads matrix margins only."""
    return dataclasses.replace(f, spectrum=None, eig_margin=None)


def outcome(solve):
    try:
        return solve()
    except SolverError as exc:
        return ("SolverError", str(exc))


def directions(n):
    return [None, *(linalg.random_unit_vector(n, np.random.default_rng(seed))
                   for seed in (11, 12))]


@pytest.mark.parametrize("construction", sorted(CONSTRUCTIONS))
@pytest.mark.parametrize("base", sorted(BASES))
def test_spectral_solver_equals_matrix_route_bitwise(base, construction):
    f = CONSTRUCTIONS[construction](BASES[base]())
    assert f.spectrum is not None
    g = matrix_route(f)
    for e in directions(f.n):
        spectral = outcome(lambda: riesz.increasing_characteristic(f, e))
        assert spectral == outcome(lambda: riesz.increasing_characteristic(g, e)), e
        spectral = outcome(lambda: riesz.decreasing_characteristic(f, e))
        assert spectral == outcome(lambda: riesz.decreasing_characteristic(g, e)), e


def test_bracket_past_128_equals_matrix_route():
    # q = 201 and p = 200: both sides bisect on a doubled bracket [1, 256]
    for f in (subeq.builtin("p-convex", 3, p=2.01), subeq.builtin("min-max", 3, p=200.0)):
        for e in directions(3):
            for solve in (riesz.increasing_characteristic, riesz.decreasing_characteristic):
                assert solve(f, e) == solve(matrix_route(f), e)


@pytest.mark.parametrize("n", DIMENSIONS)
@pytest.mark.parametrize("family", FAMILIES)
def test_certificate_holds_at_the_solvers_p(family, n):
    # sigma-k at n = 16, k = 8 has margin slope C(15, 7) = 6435 in p, so the
    # margin at the solver's p is far outside the band; the sign change is not
    f = subeq.builtin(family, n, **family_params(family, n))
    p, _ = riesz.increasing_characteristic(f)
    if math.isinf(p):
        return
    assert riesz.bisection_certificate(f, p)["ok"]
    assert not riesz.bisection_certificate(f, p + 1e-3)["ok"]
    if p - 1e-3 >= 1.0:
        assert not riesz.bisection_certificate(f, p - 1e-3)["ok"]


def plain_bisection(g, lo, hi, tol):
    """Final bracket of plain bisection for g(lo) >= 0 > g(hi): the oracle
    for the section replay."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        assert lo < mid < hi
        if g(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def replay(search, g, calls):
    """Drive a generator of point lists, like ``riesz._bisection``, with the
    values of g; the lengths of its lists go into ``calls``."""
    try:
        ts = next(search)
        while True:
            calls.append(len(ts))
            ts = search.send([g(t) for t in ts])
    except StopIteration as stop:
        return stop.value


@pytest.mark.parametrize("lo,hi,tol", [(1.0, 64.0, 1e-9), (1.0, 128.0, 1e-9),
                                       (1.0, 2.0 ** 22, 1e-9), (1.0, 64.0, 0.3),
                                       (1.0, 64.0, 1e-13)])
def test_section_replay_is_plain_bisection(lo, hi, tol):
    # a margin with many sign changes: the replay must follow plain
    # bisection's path, not find some other root
    def g(t):
        return math.sin(7.3 * t) + 0.2 * math.cos(131.0 * t) - 0.05 * (t - 20.0)

    assert g(lo) >= 0.0 > g(hi)
    for levels, size in ((riesz.SECTION_LEVELS, 31), (1, 1)):
        calls = []
        bracket = replay(riesz._bisection(lo, hi, tol, levels), g, calls)
        assert bracket == plain_bisection(g, lo, hi, tol)
        assert set(calls) == {size}


def test_swapped_eig_margin_fails_the_bracket_guard():
    # the spectra say p = 3.7 and q = 3.7 / 0.7, the matrix margins p = 3.5
    # and q = 7: the two matrix margins at each side's final bracket
    # disagree with it, since the dual's are -margin(-A)
    f = subeq.builtin("p-convex", 4, p=3.5)
    wrong = dataclasses.replace(f, eig_margin=subeq.builtin("p-convex", 4, p=3.7).eig_margin)
    with pytest.raises(SolverError, match=r"^matrix margins of p-convex\(p=3.5\) do not confirm"):
        riesz.increasing_characteristic(wrong)
    with pytest.raises(SolverError,
                       match=r"^matrix margins of dual\(p-convex\(p=3.5\)\) do not confirm"):
        riesz.decreasing_characteristic(wrong)
    # in the pair, F's side fails first
    with pytest.raises(SolverError, match=r"^matrix margins of p-convex\(p=3.5\) do not confirm"):
        riesz.characteristic_pair(wrong)


def counted(f, calls):
    """f with its matrix margin appending the number of matrices of each
    call to ``calls``."""
    def margin(a):
        calls.append(len(np.reshape(a, (-1, f.n, f.n))))
        return f.margin(a)
    return dataclasses.replace(f, margin=margin)


def test_checks_read_matrix_margins():
    f = subeq.builtin("p-convex", 4, p=3.5)
    calls = []
    riesz.increasing_characteristic(counted(f, calls))
    # margin(-P_e) and margin(P_perp), then the two ends of the bracket
    assert sum(calls) == 4
    calls.clear()
    riesz.increasing_characteristic(counted(f, calls), check_directions=2, seed=3)
    # each further direction: the pencil at p - w and p + w, in one call
    assert sum(calls) == 4 + 2 * 2
    assert calls[-1] == 2 * 2


def test_dual_cross_check_reads_matrix_margins():
    # the dual is bisected on spectra once; its checks read F's margins at
    # P_e and -P_perp, then at the negated ends of its bracket
    f = subeq.builtin("p-convex", 4, p=3.5)
    calls = []
    q, _ = riesz.decreasing_characteristic(counted(f, calls))
    assert q == pytest.approx(3.5 / 0.5, abs=1e-8)
    assert sum(calls) == 4
    calls.clear()
    # the pair: -Id and both sides' starts in one call, both brackets' ends in another
    riesz.characteristic_pair(counted(f, calls))
    assert calls == [1 + 2 + 2, 2 + 2]


def test_non_spectral_decreasing_pencil_is_bisected_once(monkeypatch):
    # without a spectrum the matrix route is the only route: no second solve
    f = matrix_route(subeq.builtin("p-convex", 4, p=3.5))
    bisection, runs = riesz._bisection, []
    monkeypatch.setattr(riesz, "_bisection", lambda *args: runs.append(args) or bisection(*args))
    q, _ = riesz.decreasing_characteristic(f)
    assert q == pytest.approx(3.5 / 0.5, abs=1e-8)
    assert len(runs) == 1
    assert runs[0][-1] == 1  # one level: one matrix margin per step


@pytest.mark.parametrize("family,params,n", [("p-convex", {"p": 2.5}, 4),
                                             ("sigma-k", {"k": 2}, 5),
                                             ("trace-power", {"k": 2.5, "q": 1.5}, 4)])
@pytest.mark.parametrize("construction", sorted(CONSTRUCTIONS))
def test_boundary_shifts_on_spectra_match_matrices(family, params, n, construction):
    f = CONSTRUCTIONS[construction](subeq.builtin(family, n, **params))
    a = np.stack([linalg.symmetrize(np.random.default_rng(seed).standard_normal((n, n)))
                  for seed in range(40)])
    shifts = riesz._boundary_shifts(f, a)
    assert np.allclose(shifts, riesz._boundary_shifts(matrix_route(f), a), rtol=0, atol=1e-14)


def same_outcome(solve, reference):
    """The solver's answer is the reference's, float for float (their
    reprs are equal), or both refuse with the same type and message."""
    def run(call):
        try:
            return repr(call())
        except (DomainError, NumericalError, SolverError) as exc:
            return type(exc).__name__, str(exc)
    outcome = run(solve)
    assert outcome == run(reference)
    return outcome


def assert_as_sequential(f, es):
    """Both sides along each direction of es (None for F's own) and the
    pair, with and without further directions, as the sequential solver."""
    for e in es:
        for name in ("increasing_characteristic", "decreasing_characteristic"):
            same_outcome(lambda: getattr(riesz, name)(f, e),
                         lambda: getattr(sequential, name)(f, e))
    same_outcome(lambda: riesz.characteristic_pair(f),
                 lambda: sequential.characteristic_pair(f))
    same_outcome(lambda: riesz.characteristic_pair(f, check_directions=2, seed=4),
                 lambda: sequential.characteristic_pair(f, check_directions=2, seed=4))


@pytest.mark.parametrize("construction", sorted(CONSTRUCTIONS))
@pytest.mark.parametrize("base", sorted(BASES))
def test_lockstep_solver_equals_the_sequential_one(base, construction):
    f = CONSTRUCTIONS[construction](BASES[base]())
    assert_as_sequential(f, directions(f.n))


CATALOG = [
    *(lambda family=family, params=params, n=n: subeq.builtin(family, n, **params)
      for family, params, n in [
          ("sigma-k", {"k": 2}, 4), ("sigma-k", {"k": 3}, 6), ("sigma-k", {"k": 1}, 5),
          ("p-convex", {"p": 1.0}, 4), ("p-convex", {"p": 2.5}, 5), ("p-convex", {"p": 4.0}, 4),
          ("pdelta", {"delta": 0.5}, 3), ("pdelta", {"delta": 1.0}, 3),
          ("pdelta", {"delta": 3.0}, 3), ("trace-power", {"k": 4, "q": 3.0}, 4),
          ("trace-power", {"k": 3, "q": 5.0}, 4), ("min-max", {"p": 3.0}, 4),
          ("min-2", {"p": 3.0}, 4), ("largest-convex", {"p": 2.0}, 4)]),
    lambda: subeq.uniform_elliptic_regularization(subeq.builtin("p-convex", 4, p=2.0), 1.0),
    lambda: subeq.complex_lift("p-convex", 3, p=1.0),
    lambda: subeq.quaternionic_lift("p", 2),
]


@pytest.mark.parametrize("build", CATALOG, ids=lambda build: build().name)
def test_catalog_pairs_equal_the_sequential_solver(build):
    f = build()
    for g in (f, matrix_route(f)):
        assert_as_sequential(g, directions(f.n))
        for seed in range(3):
            same_outcome(lambda: riesz.characteristic_pair(g, check_directions=3, seed=seed),
                         lambda: sequential.characteristic_pair(g, check_directions=3, seed=seed))


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("planes", [3, 64])
def test_geometric_characteristics_equal_the_sequential_solver(planes, count):
    f = subeq.geometric(subeq.sample_grassmannian(count + 2, count, count=planes, seed=1))
    assert_as_sequential(f, directions(f.n))


def skewed_min_max(p):
    """min-max(p) read through A -> D A D with D = diag(1, 2, 1, 1): not
    spherically transitive.  Along e_1 its characteristic is 1 + 4 (p - 1)
    and its dual's 1 + 4 / (p - 1), beyond the largest bracket for p - 1 = 1e-7."""
    base = subeq.builtin("min-max", 4, p=p)
    d = np.diag([1.0, 2.0, 1.0, 1.0])
    return subeq.Subequation(name="skewed", n=4, margin=lambda a: base.margin(d @ a @ d),
                             invariance="sampled-ST")


@pytest.mark.parametrize("call,error,message", [
    # the direction check of F fails before the dual's side does
    (lambda solver: solver.characteristic_pair(skewed_min_max(1.0 + 1e-7), check_directions=1),
     SolverError, "characteristic depends on direction for skewed"),
    (lambda solver: solver.characteristic_pair(skewed_min_max(1.0 + 1e-7)),
     SolverError, "no boundary crossing for dual(skewed)"),
    # F's side fails before the dual's side
    (lambda solver: solver.characteristic_pair(subeq.builtin("min-max", 3, p=1e7)),
     SolverError, "no boundary crossing for min-max(p=1e+07)"),
    # -Id before the arguments
    (lambda solver: solver.characteristic_pair(subeq.builtin("full-space", 3), tol=0.0),
     DomainError, "full-space contains -Id"),
    (lambda solver: solver.characteristic_pair(subeq.builtin("p", 3), tol=0.0,
                                               check_directions=-1),
     DomainError, "tol must be finite and > 0, got 0.0"),
    (lambda solver: solver.characteristic_pair(subeq.builtin("p", 3), check_directions=-1),
     DomainError, "check_directions must be >= 0, got -1"),
    (lambda solver: solver.increasing_characteristic(subeq.builtin("min-max", 3, p=40.0),
                                                     tol=1e-15),
     SolverError, "bisection stalls"),
    (lambda solver: solver.characteristic_pair(subeq._spectral(
        linalg.ordered_eigenvalues,
        lambda lams: np.where(lams[..., 0] < -10.0, math.nan, lams[..., 0] + 2.0 * lams[..., 1]),
        name="nan-below-11", n=3, invariance="O(n)")),
     SolverError, "margin of nan-below-11 is NaN"),
], ids=["direction-before-dual", "dual", "increasing-before-dual", "whole-space-before-tol",
        "tol-before-directions", "directions", "stall", "nan-section"])
def test_refusals_come_in_the_sequential_order(call, error, message):
    assert same_outcome(lambda: call(riesz), lambda: call(sequential))[:1] == (error.__name__,)
    with pytest.raises(error) as caught:
        call(riesz)
    assert str(caught.value).startswith(message)


SPECTRAL_PAIRS = {
    "pdelta n=3": lambda: subeq.builtin("pdelta", 3, delta=0.5),
    "regularized p-convex": lambda: subeq.uniform_elliptic_regularization(
        subeq.builtin("p-convex", 4, p=2.0), 1.0),
    "complex pdelta": lambda: subeq.complex_lift("pdelta", 3, delta=1.0),
    "quaternionic min-max": lambda: subeq.quaternionic_lift("min-max", 2, p=2.0),
}


@pytest.mark.parametrize("name", sorted(SPECTRAL_PAIRS))
def test_a_spectral_pair_makes_at_most_three_eigensolves(name, monkeypatch):
    eigensolves = []
    solve = linalg.ordered_eigenvalues

    def counting(a):
        eigensolves.append(1)
        return solve(a)

    monkeypatch.setattr(linalg, "ordered_eigenvalues", counting)
    monkeypatch.setattr(subeq, "ordered_eigenvalues", counting)
    f = SPECTRAL_PAIRS[name]()
    # both sides bisect: the sequential solver makes 13 eigensolves
    pair = sequential.characteristic_pair(f)
    assert math.isfinite(pair.p) and math.isfinite(pair.q)
    assert len(eigensolves) == 13
    eigensolves.clear()
    margins = []
    assert riesz.characteristic_pair(counted(f, margins)) == pair
    assert len(eigensolves) <= 3
    # the directions: one more stacked margin call, one more eigensolve
    plain = len(margins), len(eigensolves)
    margins.clear()
    eigensolves.clear()
    riesz.characteristic_pair(counted(f, margins), check_directions=3, seed=1)
    assert (len(margins), len(eigensolves)) == (plain[0] + 1, plain[1] + 1)
    assert margins[-1] == 3 * 2
