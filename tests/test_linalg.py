import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rieszlab import linalg, subeq
from rieszlab.errors import DomainError, InvariantError, NumericalError
from rieszlab.radial import KernelSpec, kernel, kernel_hessian


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------


def test_eigenvalues_identity():
    assert np.allclose(linalg.ordered_eigenvalues(np.eye(3)), [1.0, 1.0, 1.0])


def test_eigenvalues_diagonal_sorted():
    vals = linalg.ordered_eigenvalues(np.diag([2.0, -1.0, 0.0]))
    assert np.allclose(vals, [-1.0, 0.0, 2.0])


def test_eigenvalues_projector_pencil():
    # P_perp - (p-1) P_e with p = 3 in R^4 has spectrum (-2, 1, 1, 1)
    e = np.eye(4)[0]
    a = linalg.projector_perp(e) - 2.0 * linalg.projector_onto(e)
    assert np.allclose(linalg.ordered_eigenvalues(a), [-2.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_symmetrization_is_exact():
    a = linalg.as_matrices([[1.0, 2.0], [0.0, 3.0]])
    assert a[0, 1] == a[1, 0] == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ordered_eigenvalues_rejects_nonfinite(bad):
    with pytest.raises(DomainError, match="finite"):
        linalg.ordered_eigenvalues(np.diag([bad, 1.0]))


def test_ordered_eigenvalues_match_general_solver():
    # np.linalg.eigvals runs the nonsymmetric LAPACK routine: an independent reference
    for seed in range(12):
        a = linalg.symmetrize(np.random.default_rng(seed).standard_normal((7, 7)))
        reference = np.sort(np.linalg.eigvals(a).real)
        assert np.allclose(linalg.ordered_eigenvalues(a), reference, atol=1e-11)


def test_ordered_eigenvalues_repeat_runs_are_bit_identical():
    a = linalg.symmetrize(np.random.default_rng(5).standard_normal((6, 6)))
    assert np.array_equal(linalg.ordered_eigenvalues(a), linalg.ordered_eigenvalues(a))


# ---------------------------------------------------------------------------
# projectors and radial Hessians
# ---------------------------------------------------------------------------


def test_projector_coordinate_direction():
    assert np.allclose(linalg.projector_onto([1.0, 0.0]), np.diag([1.0, 0.0]))


def test_projectors_sum_to_identity():
    rng = np.random.default_rng(0)
    for _ in range(5):
        e = linalg.random_unit_vector(5, rng)
        total = linalg.projector_onto(e) + linalg.projector_perp(e)
        assert np.allclose(total, np.eye(5), atol=1e-14)


def test_projector_diagonal_direction():
    e = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(linalg.projector_onto(e), [[0.5, 0.5], [0.5, 0.5]])


def test_projector_rejects_non_unit():
    with pytest.raises(InvariantError):
        linalg.projector_onto([1.0, 1.0])


def test_radial_hessian_identity_case():
    x = np.array([0.3, -1.2, 0.4])
    r = np.linalg.norm(x)
    assert np.allclose(linalg.radial_hessian(r, 1.0, x), np.eye(3), atol=1e-14)


def test_radial_hessian_kernel_jet():
    # jet of the barred kernel gives |x|^-p (P_perp - (p-1) P)
    p = 2.7
    x = np.array([0.9, -0.1, 0.5, 0.2])
    r = np.linalg.norm(x)
    got = linalg.radial_hessian(r ** (1.0 - p), (1.0 - p) * r**-p, x)
    assert np.allclose(got, kernel_hessian(1.0, p, x), atol=1e-14)


def test_radial_hessian_spectrum():
    rng = np.random.default_rng(3)
    lam, a = 0.7, -2.3
    x = rng.standard_normal(5)
    r = np.linalg.norm(x)
    vals = linalg.ordered_eigenvalues(linalg.radial_hessian(lam, a, x))
    expected = np.sort(np.r_[np.full(4, lam / r), a])
    assert np.allclose(vals, expected, atol=1e-10)


def test_radial_hessian_rejects_origin():
    with pytest.raises(DomainError):
        linalg.radial_hessian(1.0, 1.0, np.zeros(3))


# ---------------------------------------------------------------------------
# hermitian parts
# ---------------------------------------------------------------------------


def test_hermitian_part_identity():
    j = linalg.Structure.complex(2)
    assert np.allclose(linalg.hermitian_part(np.eye(4), j), np.eye(4))
    assert np.allclose(linalg.reduced_eigenvalues(np.eye(4), j), [1.0, 1.0])


def test_complex_hermitian_part_of_pencil():
    # hermitian part of P_perp - (p-1) P_e is P_{Ce-perp} - (p/2 - 1) P_{Ce}
    n, p = 3, 2.5
    j = linalg.Structure.complex(n)
    e = np.eye(2 * n)[0]
    a = linalg.projector_perp(e) - (p - 1.0) * linalg.projector_onto(e)
    ac = linalg.hermitian_part(a, j)
    je = j.units[0] @ e
    p_ce = np.outer(e, e) + np.outer(je, je)
    expected = (np.eye(2 * n) - p_ce) - (p / 2.0 - 1.0) * p_ce
    assert np.allclose(ac, expected, atol=1e-14)
    assert np.allclose(linalg.reduced_eigenvalues(a, j), [1.0 - p / 2.0, 1.0, 1.0], atol=1e-10)


def test_quaternionic_hermitian_part_of_pencil():
    n, p = 2, 3.0
    s = linalg.Structure.quaternionic(n)
    e = np.eye(4 * n)[0]
    a = linalg.projector_perp(e) - (p - 1.0) * linalg.projector_onto(e)
    red = linalg.reduced_eigenvalues(a, s)
    assert np.allclose(red, [1.0 - p / 4.0, 1.0], atol=1e-10)


def test_hermitian_part_commutes_with_structure():
    rng = np.random.default_rng(7)
    j = linalg.Structure.complex(3)
    for _ in range(10):
        a = linalg.symmetrize(rng.standard_normal((6, 6)))
        ac = linalg.hermitian_part(a, j)
        comm = ac @ j.units[0] - j.units[0] @ ac
        assert np.abs(comm).max() <= 1e-10 * (1.0 + np.linalg.norm(a))


def test_hermitian_multiplicity_pattern():
    rng = np.random.default_rng(11)
    j = linalg.Structure.complex(4)
    s = linalg.Structure.quaternionic(2)
    for _ in range(10):
        a = linalg.symmetrize(rng.standard_normal((8, 8)))
        linalg.reduced_eigenvalues(a, j)   # raises on a bad pattern
        linalg.reduced_eigenvalues(a, s)


def test_hermitian_part_dimension_mismatch():
    with pytest.raises(DomainError):
        linalg.hermitian_part(np.eye(4), linalg.Structure.complex(3))


def test_multiplicity_violation_detected():
    with pytest.raises(NumericalError):
        linalg.cluster_reduce(np.array([1.0, 2.0, 3.0, 4.0]), 2)
    assert np.allclose(linalg.cluster_reduce(np.array([1.0, 1.0, 3.0, 3.0]), 2), [1.0, 3.0])


def test_quaternion_structure_relations():
    s = linalg.Structure.quaternionic(2)
    eye = np.eye(8)
    i, j, k = s.units
    for m in s.units:
        assert np.allclose(m @ m, -eye, atol=1e-14)
        assert np.allclose(m.T @ m, eye, atol=1e-14)
    assert np.allclose(i @ j, k, atol=1e-14)


def test_structure_multiplicity_and_average():
    rng = np.random.default_rng(5)
    for s, mult in ((linalg.Structure.complex(3), 2), (linalg.Structure.quaternionic(2), 4)):
        assert (s.dim, s.multiplicity) == (6 if mult == 2 else 8, mult)
        a = linalg.symmetrize(rng.standard_normal((s.dim, s.dim)))
        # the written-out projections, bit for bit
        if mult == 2:
            (j,) = s.units
            expected = 0.5 * (a - j @ a @ j)
        else:
            i, j, k = s.units
            expected = 0.25 * (a - i @ a @ i - j @ a @ j - k @ a @ k)
        assert np.array_equal(s.average(a), expected)
        for u in s.units:
            assert np.abs(expected @ u - u @ expected).max() <= 1e-12


def test_structure_rejects_bad_units():
    j = linalg.Structure.complex(2).units[0]
    i, jq, k = linalg.Structure.quaternionic(1).units
    for units, match in [((), "one unit"), ((j, j), "one unit"),
                         ((np.eye(3),), "divisible by 2"), ((np.eye(2)[:1],), "square"),
                         ((i, jq, np.eye(8)), "divisible by 4"), ((2.0 * j,), "J\\^2"),
                         ((np.eye(4),), "J\\^2"), ((-j @ j,), "J\\^2"),
                         ((i, jq, -k), "IJ != K"), ((i, 2.0 * jq, k), "J\\^2")]:
        with pytest.raises(InvariantError, match=match):
            linalg.Structure(units)
    # square -Id but not orthogonal: J conjugated by a non-orthogonal S
    t = np.diag([2.0, 1.0])
    skew = t @ np.array([[0.0, -1.0], [1.0, 0.0]]) @ np.linalg.inv(t)
    with pytest.raises(InvariantError, match="not orthogonal"):
        linalg.Structure((skew,))


def test_structure_copies_its_units_read_only():
    j = linalg.Structure.complex(1).units[0].copy()
    s = linalg.Structure((j,))
    assert j.flags.writeable and not s.units[0].flags.writeable
    j[0, 1] = 5.0
    assert s.units[0][0, 1] == -1.0


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def test_frames_and_structures_compare_by_identity():
    # the generated == would compare the arrays through bool and raise
    frame = subeq.Frame(np.eye(3)[:, :2])
    j = linalg.Structure.complex(1).units[0]
    structure = linalg.Structure((j,))
    assert (frame == subeq.Frame(np.eye(3)[:, :2])) is False
    assert (structure == linalg.Structure((j.copy(),))) is False
    assert frame == frame and frame in [frame] and structure in [structure]
    assert len({frame, structure}) == 2


# ---------------------------------------------------------------------------
# elementary symmetric functions
# ---------------------------------------------------------------------------


def sigma(lams, k):
    """sigma_k alone: the last of sigma_1, ..., sigma_k."""
    return linalg.elementary_symmetric_all(lams, k)[-1]


def test_sigma_basic_values():
    assert sigma([1, 1, 1], 2) == 3.0
    assert sigma([-2, 1, 1, 1], 2) == -3.0
    assert sigma([-2, 1, 1, 1], 1) == 1.0


def test_sigma_out_of_range():
    with pytest.raises(DomainError):
        sigma([1.0, 2.0], 3)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=7),
       st.data())
def test_sigma_matches_enumeration(lams, data):
    import itertools

    k = data.draw(st.integers(min_value=1, max_value=len(lams)))
    expected = sum(
        float(np.prod(combo)) for combo in itertools.combinations(lams, k)
    )
    assert sigma(lams, k) == expected


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def test_fd_hessian_quadratic_exact():
    rng = np.random.default_rng(21)
    a = linalg.symmetrize(rng.standard_normal((4, 4)))

    def f(pts):
        return np.array([0.5 * x @ a @ x for x in pts])

    x = rng.standard_normal(4)
    x *= 1.2 / np.linalg.norm(x)
    h = linalg.finite_diff_hessian(f, x)
    assert np.abs(h - a).max() <= 1e-8


def test_fd_hessian_matches_kernel_closed_form():
    rng = np.random.default_rng(22)
    for p in (1.3, 2.0, 3.0, 4.0):
        spec = KernelSpec(p=p, normalization="barred")

        def f(pts, _spec=spec):
            return np.array([kernel(_spec, float(np.linalg.norm(x))) for x in pts])

        x = rng.standard_normal(4)
        x *= rng.uniform(0.7, 1.6) / np.linalg.norm(x)
        h = linalg.finite_diff_hessian(f, x)
        exact = kernel_hessian(1.0, p, x)
        assert np.linalg.norm(h - exact) <= 1e-6 * np.linalg.norm(exact)


def test_fd_hessian_singular_stencil_rejected():
    def f(pts):
        pts = np.asarray(pts)
        with np.errstate(divide="ignore"):
            return np.log(np.linalg.norm(pts, axis=1))

    with pytest.raises(DomainError):
        linalg.finite_diff_hessian(f, np.zeros(3))


def test_log_modulus_hermitian_part_vanishes():
    # log|z_1| is locally the real part of a holomorphic function, so its
    # complex-hermitian Hessian part is zero (in particular PSD) away
    # from the singular plane.
    from rieszlab.flow import log_modulus_coordinate_field

    u = log_modulus_coordinate_field(2)
    j = linalg.Structure.complex(2)
    x = np.array([0.3, -0.7, 0.4, 0.2])
    h = linalg.finite_diff_hessian(u.values, x)
    hc = linalg.hermitian_part(h, j)
    assert np.abs(hc).max() <= 1e-5
    assert linalg.ordered_eigenvalues(hc)[0] >= -1e-5


# ---------------------------------------------------------------------------
# random constructors
# ---------------------------------------------------------------------------


def gaussians(n, seed, count=1):
    return np.random.default_rng(seed).standard_normal((count, n, n))


def test_random_constructors_deterministic():
    assert np.array_equal(subeq._psd(gaussians(5, 1)), subeq._psd(gaussians(5, 1)))
    f = subeq.builtin("p", 5)
    assert np.array_equal(subeq.invariance_rotation(f, gaussians(5, 1)),
                          subeq.invariance_rotation(f, gaussians(5, 1)))


def test_random_psd_nonnegative_spectrum():
    for seed in range(8):
        vals = linalg.ordered_eigenvalues(subeq._psd(gaussians(6, seed))[0])
        assert vals[0] >= -1e-10


def test_random_rotation_orthogonal():
    for g in subeq.invariance_rotation(subeq.builtin("p", 6), gaussians(6, 0, 8)):
        assert np.abs(g.T @ g - np.eye(6)).max() <= 1e-10
        assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("call,error,message", [
    (lambda: linalg.ordered_eigenvalues(np.ones((2, 3))), InvariantError,
     "expected square matrices, got shape (2, 3)"),
    (lambda: linalg.cluster_reduce(np.arange(5.0), 2), DomainError,
     "spectrum length not divisible by the multiplicity"),
], ids=["non-square", "cluster-length"])
def test_linalg_refusals(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message
