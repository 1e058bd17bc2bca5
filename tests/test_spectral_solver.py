"""The characteristic solver on spectra.

One bisection serves every subequation: one matrix margin per step, or
for a spectral one 31 points of spectrum(Id) - t spectrum(P_e) per call.
Every spectral answer must be the matrix route's, bit for bit, and the
checks (infinity and t = 1 tests, the bracket guard) must still read
matrix margins; check_directions reads two matrix margins per further
direction.  The decreasing characteristic is the increasing one of the
dual, so its margins are those of ``riesz.dual``.
"""

import dataclasses
import math

import numpy as np
import pytest

from rieszlab import linalg, riesz, subeq
from rieszlab.errors import SolverError

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
    return [None, *(linalg.random_unit_vector(n, seed) for seed in (11, 12))]


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

        def sections(ts):
            calls.append(len(ts))
            return [g(t) for t in ts]

        bracket = riesz._bisect_sections(sections, lo, hi, tol, levels)
        assert bracket == plain_bisection(g, lo, hi, tol)
        assert set(calls) == {size}


def test_swapped_eig_margin_fails_the_bracket_guard(monkeypatch):
    # the spectra say p = 3.7 and q = 3.7 / 0.7, the matrix margins p = 3.5 and
    # q = 7: the two matrix margins at each final bracket disagree with it
    f = subeq.builtin("p-convex", 4, p=3.5)
    wrong = dataclasses.replace(f, eig_margin=subeq.builtin("p-convex", 4, p=3.7).eig_margin)
    with pytest.raises(SolverError, match="do not confirm"):
        riesz.increasing_characteristic(wrong)
    monkeypatch.setattr(riesz, "dual", lambda g: dataclasses.replace(
        subeq.dual(g), eig_margin=subeq.dual(wrong).eig_margin))
    with pytest.raises(SolverError, match="do not confirm"):
        riesz.decreasing_characteristic(f)


def counted(f, calls):
    """f with its matrix margin counting into ``calls``."""
    def margin(a):
        calls.append(1)
        return f.margin(a)
    return dataclasses.replace(f, margin=margin)


def test_checks_read_matrix_margins(monkeypatch):
    f = subeq.builtin("p-convex", 4, p=3.5)
    calls = []
    riesz.increasing_characteristic(counted(f, calls))
    # margin(-P_e) and margin(P_perp), then the two ends of the bracket
    assert len(calls) == 4
    calls.clear()
    riesz.increasing_characteristic(counted(f, calls), check_directions=2, seed=3)
    # each further direction: the pencil at p - w and p + w
    assert len(calls) == 4 + 2 * 2
    calls.clear()
    monkeypatch.setattr(riesz, "dual", lambda g: counted(subeq.dual(g), calls))
    riesz.decreasing_characteristic(f)
    # margin(-P_e) and margin(P_perp) of dual(F), then the two ends of its
    # spectral bracket
    assert len(calls) == 4


def test_dual_cross_check_reads_matrix_margins(monkeypatch):
    # a spectral dual is bisected on spectra once; its bracket guard reads
    # the same four matrix margins as the increasing side
    calls = []
    monkeypatch.setattr(riesz, "dual", lambda f: counted(subeq.dual(f), calls))
    q, _ = riesz.decreasing_characteristic(subeq.builtin("p-convex", 4, p=3.5))
    assert q == pytest.approx(3.5 / 0.5, abs=1e-8)
    assert len(calls) == 4


def test_non_spectral_decreasing_pencil_is_bisected_once(monkeypatch):
    # without a spectrum the matrix route is the only route: no second solve
    f = matrix_route(subeq.builtin("p-convex", 4, p=3.5))
    replay, runs = riesz._bisect_sections, []
    monkeypatch.setattr(riesz, "_bisect_sections", lambda *args: runs.append(args) or replay(*args))
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
    a = np.stack([linalg.random_symmetric(n, seed) for seed in range(40)])
    shifts = riesz._boundary_shifts(f, a)
    assert np.allclose(shifts, riesz._boundary_shifts(matrix_route(f), a), rtol=0, atol=1e-14)
