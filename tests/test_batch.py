"""Batched margins and the stacked property suites.

``margin`` of a stack must give exactly the floats of ``margin`` of each
of its matrices, and every suite must give the same ``PropertyReport`` as the serial
one-sample-at-a-time loops kept below as the reference.
"""

import dataclasses
import math

import numpy as np
import pytest

from rieszlab import linalg, radial, riesz, subeq
from rieszlab.errors import DomainError, NumericalError, SolverError


def sym_stack(n, m, seed):
    """Mixed-sign, PSD-like and scaled samples, so that margins of every
    sign and size are exercised."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, n, n))
    a = 0.5 * (g + g.swapaxes(-1, -2))
    a[1::3] += 3.0 * np.eye(n)
    a[2::3] *= 10.0
    return a


def ref_commutant(a, structure):
    """The part of A commuting with the units, written out from them:
    (A - JAJ)/2, or (A - IAI - JAJ - KAK)/4."""
    if len(structure.units) == 1:
        (j,) = structure.units
        return 0.5 * (a - j @ a @ j)
    i, j, k = structure.units
    return 0.25 * (a - i @ a @ i - j @ a @ j - k @ a @ k)


def assert_rows_match(f, stack):
    batch = f.margin(stack)
    assert batch.shape == (len(stack),)
    rows = [f.margin(a) for a in stack]
    assert all(np.shape(m) == () for m in rows)
    assert np.array_equal(batch, rows)


FAMILY_PARAMS = {
    "p": lambda n: {},
    "p-convex": lambda n: {"p": 1.0 + 0.37 * (n - 1)},
    "sigma-k": lambda n: {"k": max(1, n // 2)},
    "pdelta": lambda n: {"delta": 0.7},
    "min-max": lambda n: {"p": 2.2},
    "min-2": lambda n: {"p": 1.7},
    "dual-min-max": lambda n: {"p": 3.0},
    "dual-min-2": lambda n: {"p": 2.0},
    "trace-power": lambda n: {"k": 1.0 + 0.5 * (n - 1), "q": 1.5},
    "subaffine": lambda n: {},
    "largest-convex": lambda n: {"p": 1.0 + 0.5 * (n - 1)},
    "full-space": lambda n: {},
}


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
@pytest.mark.parametrize("n", range(2, 17))
def test_builtin_batch_matches_scalar(family, n):
    f = subeq.builtin(family, n, **FAMILY_PARAMS[family](n))
    assert_rows_match(f, sym_stack(n, 12, n))


@pytest.mark.parametrize("k", [1, 2, 5, 9, 16])
def test_sigma_k_batch_matches_scalar_for_every_k(k):
    assert_rows_match(subeq.builtin("sigma-k", 16, k=k), sym_stack(16, 12, k))


@pytest.mark.parametrize("family,params", [("sigma-k", {"k": 2}), ("p-convex", {"p": 2.5}),
                                           ("min-2", {"p": 2.0}), ("pdelta", {"delta": 1.0})])
def test_constructions_batch_matches_scalar(family, params):
    n = 4
    f = subeq.builtin(family, n, **params)
    # the same margins without a spectrum: the constructions' matrix route
    plain = dataclasses.replace(f, spectrum=None, eig_margin=None)
    stack = sym_stack(n, 15, 1)
    for h in (subeq.dual(f), subeq.dual(subeq.dual(f)),
              subeq.uniform_elliptic_regularization(f, 0.8),
              subeq.dual(subeq.uniform_elliptic_regularization(f, 0.8)),
              subeq.dual(plain), subeq.uniform_elliptic_regularization(plain, 0.8)):
        assert_rows_match(h, stack)


@pytest.mark.parametrize("lift,mult", [(subeq.complex_lift, 2), (subeq.quaternionic_lift, 4)])
@pytest.mark.parametrize("family,params", [("sigma-k", {"k": 2}), ("p-convex", {"p": 1.5}),
                                           ("pdelta", {"delta": 1.0}), ("min-max", {"p": 2.0})])
def test_lift_batch_matches_scalar(lift, mult, family, params):
    f = lift(family, 3, **params)
    structure = (linalg.Structure.complex if mult == 2 else linalg.Structure.quaternionic)(3)
    # hermitian parts have the clustered spectra the lifts require
    stack = ref_commutant(sym_stack(3 * mult, 10, mult), structure)
    assert_rows_match(f, stack)
    assert_rows_match(subeq.dual(f), stack)


def test_cluster_reduce_rejects_a_stack_with_one_unclustered_row():
    spectra = np.array([[1.0, 1.0, 2.0, 2.0], [1.0, 1.5, 2.0, 2.0]])
    with pytest.raises(NumericalError):
        linalg.cluster_reduce(spectra, 2)


@pytest.mark.parametrize("operator,k,kwargs", [("det", 1, {}), ("det", 3, {}),
                                               ("p-fold-sum", 1, {"p": 2}),
                                               ("p-fold-sum", 4, {"p": 2}),
                                               ("pdelta", 1, {"delta": 0.5}),
                                               ("pdelta", 2, {"delta": 2.0})])
def test_garding_batch_matches_scalar(operator, k, kwargs):
    family = {"det": "garding-det", "p-fold-sum": "garding-sum", "pdelta": "garding-pdelta"}
    assert_rows_match(subeq.builtin(family[operator], 4, k=k, **kwargs), sym_stack(4, 12, k))


@pytest.mark.parametrize("n,p", [(3, 2), (5, 3)])
def test_geometric_batch_matches_scalar(n, p):
    f = subeq.geometric(subeq.sample_grassmannian(n, p, count=128, seed=4))
    assert_rows_match(f, sym_stack(n, 12, 2))


def trace_values(a):
    return np.trace(a, axis1=-2, axis2=-1)


def test_subequation_needs_one_margin():
    with pytest.raises(TypeError):
        subeq.Subequation(name="trace", n=3, invariance="O(n)")
    with pytest.raises(TypeError):
        subeq.Subequation(name="trace", n=3, margin=trace_values, margin_batch=trace_values,
                          invariance="O(n)")


def test_custom_subequation_from_one_stack_function():
    f = subeq.Subequation(name="trace", n=3, invariance="O(n)", margin=trace_values)
    stack = sym_stack(3, 6, 0)
    assert_rows_match(f, stack)
    assert f.margin(stack.reshape(2, 3, 3, 3)).shape == (2, 3)


def test_margin_of_one_matrix_is_a_scalar_array():
    f = subeq.builtin("sigma-k", 4, k=2)
    a = sym_stack(4, 1, 0)[0]
    assert f.margin(a).shape == ()
    assert float(f.margin(a)) == f.margin(a[None])[0]


# ---------------------------------------------------------------------------
# linalg on stacks
# ---------------------------------------------------------------------------


def test_ordered_eigenvalues_of_a_stack_match_one_by_one():
    stack = sym_stack(6, 9, 3)
    vals = linalg.ordered_eigenvalues(stack)
    assert vals.shape == (9, 6)
    for a, row in zip(stack, vals):
        assert np.array_equal(row, linalg.ordered_eigenvalues(a))


def test_ordered_eigenvalues_rejects_non_finite_stack():
    stack = sym_stack(3, 4, 0)
    stack[2, 0, 1] = np.nan
    with pytest.raises(DomainError):
        linalg.ordered_eigenvalues(stack)


def test_elementary_symmetric_rows_match_one_by_one():
    lams = np.random.default_rng(5).standard_normal((4, 3, 7))
    e = linalg.elementary_symmetric_all(lams, 5)
    assert e.shape == (4, 3, 5)
    for i in range(4):
        for j in range(3):
            assert np.array_equal(e[i, j], linalg.elementary_symmetric_all(lams[i, j], 5))


def test_cluster_reduce_rows_match_one_by_one():
    structure = linalg.Structure.quaternionic(2)
    spectra = linalg.ordered_eigenvalues(ref_commutant(sym_stack(8, 5, 7), structure))
    reduced = linalg.cluster_reduce(spectra, 4)
    assert reduced.shape == (5, 2)
    for row, out in zip(spectra, reduced):
        assert np.array_equal(out, linalg.cluster_reduce(row, 4))


def test_standard_structures_are_built_once_and_read_only():
    assert linalg.Structure.complex(3) is linalg.Structure.complex(3)
    q = linalg.Structure.quaternionic(2)
    assert q is linalg.Structure.quaternionic(2)
    for unit in (*linalg.Structure.complex(3).units, *q.units):
        with pytest.raises(ValueError):
            unit[0, 0] = 1.0


def gaussian_stack(n, seeds):
    """One n x n standard-normal draw per seed."""
    return np.stack([np.random.default_rng(seed).standard_normal((n, n)) for seed in seeds])


def test_random_rotations_match_one_by_one():
    f = subeq.builtin("p", 5)
    stack = subeq.invariance_rotation(f, gaussian_stack(5, [3, 4, 5]))
    for seed, g in zip((3, 4, 5), stack):
        assert np.array_equal(g, ref_invariance_rotation(f, seed))
        assert np.linalg.det(g) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# serial reference suites: one sample at a time, scalar margins
# ---------------------------------------------------------------------------


def ref_shift_into(f, a, budget=64):
    a = linalg.as_matrices(a)
    if f.margin(a) >= 0.0:
        return a
    t = 1.0
    eye = np.eye(f.n)
    for _ in range(budget):
        shifted = a + t * eye
        if f.margin(shifted) >= 0.0:
            return shifted
        t *= 2.0
    raise SolverError(f"could not shift a sample into {f.name}")


def ref_rotation(f, g):
    """The rotation of F's group from one n x n Gaussian matrix: O(n) the
    sign-fixed QR factor with det +1; U(n) and Sp(n) the Cayley transform
    of one projected skew matrix."""
    if f.invariance == "O(n)":
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, -1] = -q[:, -1]
        return q
    omega = 0.5 * (g - g.T)
    if f.invariance == "U(n)":
        omega = ref_commutant(omega, linalg.Structure.complex(f.n // 2))
    else:
        omega = ref_commutant(omega, linalg.Structure.quaternionic(f.n // 4))
    eye = np.eye(f.n)
    return np.linalg.solve(eye - 0.5 * omega, eye + 0.5 * omega)


def ref_invariance_rotation(f, seed):
    return ref_rotation(f, np.random.default_rng(seed).standard_normal((f.n, f.n)))


@pytest.mark.parametrize("f", [subeq.builtin("p", 4), subeq.complex_lift("p", 2),
                               subeq.quaternionic_lift("p", 1)], ids=["O", "U", "Sp"])
def test_invariance_rotations_match_one_by_one(f):
    stack = subeq.invariance_rotation(f, gaussian_stack(f.n, [3, 4, 5]))
    for g, seed in zip(stack, [3, 4, 5]):
        assert np.array_equal(g, ref_invariance_rotation(f, seed))
        assert np.array_equal(g, subeq.invariance_rotation(f, gaussian_stack(f.n, [seed]))[0])


def ref_report(name, count, worst, tol, note=""):
    return subeq.PropertyReport(name=name, sample_count=count, worst_violation=float(worst),
                                tolerance=float(tol), note=note)


def ref_samples(seed, sample_count, per_sample, n):
    """Each sample's (per_sample, n, n) Gaussians, read in order from one
    stream: a symmetric matrix from the first, then a PSD matrix or a
    rotation from the second."""
    rng = np.random.default_rng(seed)
    for _ in range(sample_count):
        g = rng.standard_normal((per_sample, n, n))
        yield (0.5 * (g[0] + g[0].T), *g[1:])


def ref_psd(g):
    return g @ g.T / g.shape[0]


def ref_positivity(f, sample_count, seed):
    def one(a, g):
        a = ref_shift_into(f, a)
        return max(0.0, -f.margin(a + ref_psd(g)))

    return ref_report("positivity", sample_count,
                      max(one(*s) for s in ref_samples(seed, sample_count, 2, f.n)),
                      subeq.MEMBER_TOL)


def ref_cone(f, sample_count, seed):
    def one(a):
        a = ref_shift_into(f, a)
        return max(max(0.0, -f.margin(t * a)) for t in (0.0, 0.5, 2.0, 10.0))

    return ref_report("cone", sample_count,
                      max(one(*s) for s in ref_samples(seed, sample_count, 1, f.n)),
                      subeq.MEMBER_TOL)


def ref_st_invariance(f, sample_count, seed):
    def one(a, g):
        g = ref_rotation(f, g)
        margin = f.margin(a)
        return abs(f.margin(g @ a @ g.T) - margin) / max(1.0 + np.linalg.norm(a), abs(margin))

    return ref_report("st-invariance", sample_count,
                      max(one(*s) for s in ref_samples(seed, sample_count, 2, f.n)), 1e-8)


def ref_uniform_ellipticity(delta, n, sample_count, seed):
    d = delta / n

    def op(a):
        lams = linalg.ordered_eigenvalues(a)
        return float(lams[0] + d * lams.sum())

    def one(a, g):
        psd = ref_psd(g)
        diff = op(a + psd) - op(a)
        tr = float(np.trace(psd))
        return max(0.0, d * tr - diff, diff - (1.0 + d) * tr)

    return ref_report("uniform-ellipticity", sample_count,
                      max(one(*s) for s in ref_samples(seed, sample_count, 2, n)), 1e-9,
                      note=f"delta={delta:g}, n={n}")


def ref_monotonicity(f, sample_count, seed, t_grid=(0.0, 0.25, 0.5, 1.0, 2.0, 4.0)):
    eye = np.eye(f.n)

    def one(a):
        a = ref_shift_into(f, a)
        values = [f.margin(a + t * eye) for t in t_grid]
        return max(max(0.0, values[j] - values[j + 1]) for j in range(len(values) - 1))

    return ref_report("margin-monotonicity", sample_count,
                      max(one(*s) for s in ref_samples(seed, sample_count, 1, f.n)), 1e-9)


def ref_sandwich(f, p, sample_count, seed, tol=1e-8):
    lower = subeq.builtin("min-2", f.n, p=p)
    upper = subeq.builtin("min-max", f.n, p=p)
    eye = np.eye(f.n)
    worst = 0.0
    lower_hits = member_hits = unbracketed = 0
    for i, (a,) in enumerate(ref_samples(seed, sample_count, 1, f.n)):
        if i % 2 == 1:
            lo, hi = -10.0, 10.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if float(f.margin(a + mid * eye)) >= 0.0:
                    hi = mid
                else:
                    lo = mid
            unbracketed += lo == -10.0 or hi == 10.0
            a = a + (hi + 0.05 * math.erf(np.trace(a) / math.sqrt(2 * f.n))) * eye
        m_f = float(f.margin(a))
        if float(lower.margin(a)) >= 0.0:
            lower_hits += 1
            worst = max(worst, -m_f)
        if m_f >= 0.0:
            member_hits += 1
            worst = max(worst, -float(upper.margin(a)))
    worst = max(0.0, worst)
    return subeq.PropertyReport(
        name="sandwich", sample_count=sample_count, worst_violation=worst, tolerance=tol,
        note=f"p={p:g}, lower premise hit {lower_hits}"
             f"{'' if lower_hits else ' (min-2(p) in F untested)'}, member hit {member_hits}, "
             f"unbracketed {unbracketed}")


def ref_radial_harmonic(f, theta, p, radii, seed, directions=4, tol=1e-8):
    rng = np.random.default_rng(seed)
    worst = 0.0
    count = 0
    for r in radii:
        for _ in range(directions):
            h = radial.kernel_hessian(theta, p, r * linalg.random_unit_vector(f.n, rng))
            worst = max(worst, abs(float(f.margin(h))))
            count += 1
    return subeq.PropertyReport(name="radial-harmonic", sample_count=count,
                                worst_violation=worst, tolerance=tol,
                                note=f"theta={theta:g}, p={p:g}")


def assert_same_report(rep, ref):
    # repr also tells -0.0 from 0.0, which the reports print
    assert rep == ref
    assert repr(rep.worst_violation) == repr(ref.worst_violation)


# The property-suite family mix of the benchmark's verify-suites workload,
# with fixed parameters.
SUITE_MIX = [
    ("positivity", "sigma-k", {"k": 2}), ("positivity", "min-2", {"p": 1.7}),
    ("cone", "p-convex", {"p": 2.5}), ("cone", "trace-power", {"k": 2.5, "q": 1.5}),
    ("invariance", "pdelta", {"delta": 0.7}), ("invariance", "largest-convex", {"p": 2.5}),
    ("monotonicity", "min-max", {"p": 2.2}), ("monotonicity", "sigma-k", {"k": 3}),
]
SUITES = {
    "positivity": (subeq.check_positivity, ref_positivity),
    "cone": (subeq.check_cone, ref_cone),
    "invariance": (subeq.check_st_invariance, ref_st_invariance),
    "monotonicity": (subeq.margin_monotonicity_check, ref_monotonicity),
}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("suite,family,params", SUITE_MIX)
@pytest.mark.parametrize("n", [4, 8])
def test_suites_match_serial_reference(seed, suite, family, params, n):
    f = subeq.builtin(family, n, **params)
    batched, serial = SUITES[suite]
    assert_same_report(batched(f, 13, seed), serial(f, 13, seed))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("lift,family,params,m", [
    (subeq.complex_lift, "sigma-k", {"k": 2}, 2), (subeq.quaternionic_lift, "pdelta",
                                                   {"delta": 0.9}, 1),
    (subeq.complex_lift, "sigma-k", {"k": 3}, 4), (subeq.quaternionic_lift, "pdelta",
                                                   {"delta": 1.3}, 2)])
def test_lifted_invariance_matches_serial_reference(seed, lift, family, params, m):
    f = lift(family, m, **params)
    assert_same_report(subeq.check_st_invariance(f, 7, seed), ref_st_invariance(f, 7, seed))
    assert_same_report(subeq.check_positivity(f, 7, seed), ref_positivity(f, 7, seed))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [4, 8, 16])
def test_uniform_ellipticity_matches_serial_reference(seed, n):
    delta = 0.25 + 0.8 * seed
    assert_same_report(subeq.check_uniform_ellipticity(delta, n, 17, seed),
                       ref_uniform_ellipticity(delta, n, 17, seed))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("family,params,n", [("p-convex", {"p": 2.5}, 4),
                                             ("pdelta", {"delta": 0.7}, 8),
                                             ("sigma-k", {"k": 2}, 4)])
def test_sandwich_and_radial_match_serial_reference(seed, family, params, n):
    f = subeq.builtin(family, n, **params)
    p, _ = riesz.increasing_characteristic(f)
    for count in (1, 2, 9):
        assert_same_report(riesz.sandwich_check(f, p, count, seed),
                           ref_sandwich(f, p, count, seed))
    assert_same_report(radial.radial_harmonic_check(f, 1.5, p, [0.5, 1.0, 2.0], seed),
                       ref_radial_harmonic(f, 1.5, p, [0.5, 1.0, 2.0], seed))


@pytest.mark.parametrize("seed", range(3))
def test_reports_do_not_depend_on_the_block_size(monkeypatch, seed):
    # blocks of 4 rows split 11 samples into 4 + 4 + 3
    monkeypatch.setattr(subeq, "SAMPLE_BLOCK_ROWS", 4)
    for suite, family, params in SUITE_MIX:
        f = subeq.builtin(family, 4, **params)
        batched, serial = SUITES[suite]
        assert_same_report(batched(f, 11, seed), serial(f, 11, seed))
    assert_same_report(subeq.check_uniform_ellipticity(0.7, 4, 11, seed),
                       ref_uniform_ellipticity(0.7, 4, 11, seed))
    f = subeq.builtin("p-convex", 4, p=2.5)
    assert_same_report(riesz.sandwich_check(f, 2.5, 11, seed), ref_sandwich(f, 2.5, 11, seed))
    assert math.isnan(subeq.check_cone(nan_outside(3, 1.0, math.inf), 11, seed).worst_violation)


# neither positive nor a cone nor monotone, so every suite but ue reads
# violations that differ from sample to sample
WAVY = subeq._spectral(linalg.ordered_eigenvalues,
                       lambda lams: lams[..., 0] - 0.5 * lams[..., -1] + np.cos(lams.sum(axis=-1)),
                       name="wavy", n=4, invariance="O(n)")


@pytest.mark.parametrize("suite", [
    lambda count: subeq.check_positivity(WAVY, count, 3),
    lambda count: subeq.check_cone(WAVY, count, 3),
    lambda count: subeq.check_st_invariance(WAVY, count, 3),
    lambda count: subeq.margin_monotonicity_check(WAVY, count, 3),
    lambda count: subeq.check_uniform_ellipticity(0.7, 4, count, 3),
    lambda count: riesz.sandwich_check(WAVY, 2.0, count, 3),
], ids=["positivity", "cone", "invariance", "monotonicity", "ue", "sandwich"])
def test_worst_violation_is_nondecreasing_in_the_sample_count(suite):
    # a count-k run's samples are the first k of any longer run with the same seed
    worst = [suite(count).worst_violation for count in (1, 7, 1024, 1025)]
    assert worst == sorted(worst)


def test_each_suite_call_builds_one_generator(monkeypatch):
    calls = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *args: calls.append(args)
                        or default_rng(*args))
    subeq.check_positivity(subeq.builtin("sigma-k", 4, k=2), 300, 0)
    assert calls == [(0,)]
    subeq.check_st_invariance(subeq.complex_lift("sigma-k", 2, k=2), 300, 5)
    assert calls == [(0,), (5,)]
    riesz.sandwich_check(subeq.builtin("sigma-k", 4, k=2), 2.0, 300, 7)
    assert calls == [(0,), (5,), (7,)]


def traced_peak(fn, *args):
    import tracemalloc

    tracemalloc.start()
    try:
        rep = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rep, peak


@pytest.mark.parametrize("check", [
    subeq.check_positivity, subeq.check_cone, subeq.check_st_invariance,
    subeq.margin_monotonicity_check, lambda f, count, seed: subeq.check_uniform_ellipticity(
        2.5, 16, count, seed)], ids=["positivity", "cone", "invariance", "monotonicity", "ue"])
def test_suite_memory_does_not_grow_with_the_sample_count(check):
    # a stacked read holds at most SAMPLE_BLOCK_ROWS matrices
    count = 4 * subeq.SAMPLE_BLOCK_ROWS + 3
    f = subeq.builtin("p-convex", 16, p=2.5)
    rep, peak = traced_peak(check, f, count, 0)
    assert rep.passed and rep.sample_count == count
    assert peak < 16 * 2**20  # positivity: about 40 MB with every sample in one stack


def test_sandwich_memory_does_not_grow_with_the_sample_count():
    count = 4 * subeq.SAMPLE_BLOCK_ROWS + 3
    f = subeq.builtin("p-convex", 16, p=2.5)
    rep, peak = traced_peak(riesz.sandwich_check, f, 2.5, count, 0)
    assert rep.passed and rep.sample_count == count
    assert peak < 8 * 2**20  # about 17 MB with every sample in one stack


def test_shift_into_stack_matches_one_by_one():
    f = subeq.builtin("sigma-k", 5, k=3)
    stack = sym_stack(5, 9, 8) - 4.0 * np.eye(5)
    shifted = subeq.shift_into(f, stack)
    for a, out in zip(stack, shifted):
        assert np.array_equal(out, ref_shift_into(f, a))
        assert np.array_equal(subeq.shift_into(f, a), out)


def test_shift_into_gives_up_on_unreachable_samples():
    f = subeq.builtin("full-space", 3)
    never = subeq.Subequation(name="never", n=3, invariance="O(n)",
                              margin=lambda a: np.full(np.shape(a)[:-2], -1.0))
    assert np.array_equal(subeq.shift_into(f, np.zeros((2, 3, 3))), np.zeros((2, 3, 3)))
    with pytest.raises(SolverError):
        subeq.shift_into(never, np.zeros((2, 3, 3)))


@pytest.mark.parametrize("read,eigensolves", [
    (lambda f: subeq.check_positivity(f, 10, 0), 2),
    (lambda f: subeq.check_cone(f, 10, 0), 2),
    (lambda f: subeq.margin_monotonicity_check(f, 10, 0), 2),
    (lambda f: subeq.check_st_invariance(f, 10, 0), 1),
    (lambda f: subeq.check_uniform_ellipticity(0.7, 4, 10, 0), 1),
    (lambda f: riesz.sandwich_check(f, 2.5, 10, 0), 3),
], ids=["positivity", "cone", "monotonicity", "invariance", "ue", "sandwich"])
def test_a_suite_block_makes_few_eigensolves(read, eigensolves, monkeypatch):
    # one block of 10 samples on a spectral F: shift_into and the boundary
    # shifts take one spectrum of the block, each check one stacked read
    calls = []
    solve = linalg.ordered_eigenvalues

    def counted(a):
        calls.append(1)
        return solve(a)

    monkeypatch.setattr(linalg, "ordered_eigenvalues", counted)
    monkeypatch.setattr(subeq, "ordered_eigenvalues", counted)
    f = subeq.builtin("p-convex", 4, p=2.5)
    a = linalg.symmetrize(np.random.default_rng(0).standard_normal((10, 4, 4)))
    assert not (f.margin(a) >= 0.0).all()  # the cone's shift_into has rows to move
    calls.clear()
    read(f)
    assert len(calls) == eigensolves


def counting(f, rows):
    """F with a margin that records how many matrices each read covers."""
    def margin(a):
        rows.append(int(np.prod(np.shape(a)[:-2])))
        return f.margin(a)

    return dataclasses.replace(f, margin=margin)


def matrix_route(f):
    """F without its spectrum map: every read goes through its margin."""
    return dataclasses.replace(f, spectrum=None, eig_margin=None)


@pytest.mark.parametrize("read,first,last", [
    (lambda f: subeq.check_positivity(f, 10, 0), [10], [10]),
    (lambda f: subeq.check_cone(f, 10, 0), [40], [40]),
    (lambda f: subeq.check_st_invariance(f, 10, 0), [20], [20]),
    (lambda f: subeq.shift_into(matrix_route(f), sym_stack(4, 6, 0) - 4.0 * np.eye(4)),
     [6], []),
    (lambda f: riesz.sandwich_check(f, 2.5, 10, 0), [10], [10]),
    (lambda f: radial.radial_harmonic_check(f, 1.0, 2.5, [0.5, 1.0]), [8], [8]),
], ids=["positivity", "cone", "st-invariance", "shift", "sandwich", "radial-harmonic"])
def test_checks_read_stacks_through_the_one_margin(read, first, last):
    # a margin replaced on the object sees every stack of matrices the checks
    # evaluate, one stacked read per check; a spectral F's shift_into and
    # boundary shifts move along spectra, so the shift reads a matrix-route F
    rows = []
    read(counting(subeq.builtin("p-convex", 4, p=2.5), rows))
    assert rows[:len(first)] == first
    assert rows[len(rows) - len(last):] == last


# ---------------------------------------------------------------------------
# NaN margins fail the worst-case reductions
# ---------------------------------------------------------------------------


def nan_outside(n, lo, hi):
    """Trace margin that reads NaN for traces outside [lo, hi]."""
    def values(a):
        tr = trace_values(a)
        return np.where((lo <= tr) & (tr <= hi), tr, math.nan)

    return subeq.Subequation(name="nan-trace", n=n, invariance="O(n)", margin=values)


def test_nan_margin_fails_the_cone_check():
    rep = subeq.check_cone(nan_outside(3, 1.0, math.inf), 10, 0)  # scaling by 0 reads NaN
    assert math.isnan(rep.worst_violation)
    assert not rep.passed


def test_nan_margin_fails_the_monotonicity_check():
    # members have trace >= 0, so A + 4 Id has trace >= 12 and reads NaN
    rep = subeq.margin_monotonicity_check(nan_outside(3, -math.inf, 10.0), 10, 0)
    assert math.isnan(rep.worst_violation)
    assert not rep.passed


def test_nan_margin_fails_the_radial_check():
    f = nan_outside(3, math.inf, math.inf)  # every margin is NaN
    rep = radial.radial_harmonic_check(f, 1.0, 2.0, [1.0], seed=0)
    assert math.isnan(rep.worst_violation)
    assert not rep.passed
