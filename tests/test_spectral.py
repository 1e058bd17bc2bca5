"""The spectral representation of invariant subequations.

Every built-in family (the Garding branches among them) and lift, and
every dual and regularization of one, has margins
``eig_margin(spectrum(A))``; its spectrum map is linear along the
identity; and its margins are the floats of the matrix formulas that
define the dual and the regularization.
"""

import numpy as np
import pytest

from rieszlab import linalg, subeq

N = 4
DELTA = 0.6

FAMILY_PARAMS = {
    "p": {},
    "p-convex": {"p": 2.3},
    "sigma-k": {"k": 2},
    "pdelta": {"delta": 0.7},
    "min-max": {"p": 2.2},
    "min-2": {"p": 1.7},
    "dual-min-max": {"p": 3.0},
    "dual-min-2": {"p": 2.0},
    "trace-power": {"k": 2.5, "q": 1.5},
    "subaffine": {},
    "largest-convex": {"p": 2.5},
    "full-space": {},
}

BASES = {
    **{f"builtin {family}": (lambda family=family, params=params:
                              subeq.builtin(family, N, **params))
       for family, params in FAMILY_PARAMS.items()},
    "garding det": lambda: subeq.builtin("garding-det", N, k=2),
    "garding p-fold-sum": lambda: subeq.builtin("garding-sum", N, p=2, k=3),
    "garding pdelta": lambda: subeq.builtin("garding-pdelta", N, delta=0.5, k=2),
    "complex sigma-k": lambda: subeq.complex_lift("sigma-k", 2, k=2),
    "complex min-max": lambda: subeq.complex_lift("min-max", 2, p=2.5),
    "quaternionic p-convex": lambda: subeq.quaternionic_lift("p-convex", 1, p=1.0),
    "quaternionic sigma-k": lambda: subeq.quaternionic_lift("sigma-k", 2, k=2),
}

CONSTRUCTIONS = {
    "plain": lambda f: f,
    "dual": subeq.dual,
    "regularized": lambda f: subeq.uniform_elliptic_regularization(f, DELTA),
    "dual-regularized": lambda f: subeq.dual(subeq.uniform_elliptic_regularization(f, DELTA)),
}


def sym_stack(n, m, seed):
    """Mixed-sign, shifted and scaled symmetric samples."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, n, n))
    a = 0.5 * (g + g.swapaxes(-1, -2))
    a[1::3] += 3.0 * np.eye(n)
    a[2::3] *= 10.0
    return a


def is_lift(f):
    return f.invariance != "O(n)"


@pytest.mark.parametrize("construction", sorted(CONSTRUCTIONS))
@pytest.mark.parametrize("base", sorted(BASES))
def test_margins_are_eig_margin_of_spectrum(base, construction):
    f = CONSTRUCTIONS[construction](BASES[base]())
    assert f.spectrum is not None and f.eig_margin is not None
    stack = sym_stack(f.n, 12, 3)
    assert np.array_equal(f.margin_batch(stack), f.eig_margin(f.spectrum(stack)))
    rows = [f.eig_margin(f.spectrum(a)) for a in stack]
    assert np.array_equal([f.margin(a) for a in stack], rows)


@pytest.mark.parametrize("construction", sorted(CONSTRUCTIONS))
@pytest.mark.parametrize("base", sorted(BASES))
def test_spectrum_is_linear_along_the_identity(base, construction):
    f = CONSTRUCTIONS[construction](BASES[base]())
    eye = np.eye(f.n)
    at_id = f.spectrum(eye)
    assert np.ptp(at_id) <= 1e-12 * np.abs(at_id).max()
    # the pencil Id - p P_e, with P_e along the preferred direction
    p_line = linalg.projector_onto(f.direction())
    mu = f.spectrum(p_line)
    for p in (0.5, 1.0, 3.0, 40.0):
        expected = np.sort(at_id - p * mu)
        assert np.abs(f.spectrum(eye - p * p_line) - expected).max() <= 1e-12 * (1.0 + p)
    # the identity ray A + t Id
    for a in sym_stack(f.n, 6, 5):
        spec = f.spectrum(a)
        for t in (-7.0, 0.25, 3.0):
            scale = 1.0 + abs(t) + linalg.fro(a)
            assert np.abs(f.spectrum(a + t * eye) - (spec + t * at_id)).max() <= 1e-12 * scale


@pytest.mark.parametrize("base", sorted(BASES))
def test_regularization_is_the_shifted_matrix_margin(base):
    f = BASES[base]()
    reg = subeq.uniform_elliptic_regularization(f, DELTA)
    stack = sym_stack(f.n, 12, 7)
    shifted = stack + (DELTA / f.n) * np.trace(stack, axis1=-2, axis2=-1)[..., None, None] \
        * np.eye(f.n)
    assert np.array_equal(reg.margin_batch(stack), f.margin_batch(shifted))


@pytest.mark.parametrize("regularize", [False, True])
@pytest.mark.parametrize("base", sorted(BASES))
def test_dual_is_the_negated_margin_of_minus_a(base, regularize):
    f = BASES[base]()
    if regularize:
        f = subeq.uniform_elliptic_regularization(f, DELTA)
    stack = sym_stack(f.n, 12, 9)
    got = subeq.dual(f).margin_batch(stack)
    reference = -f.margin_batch(-stack)
    if is_lift(f):
        # reduced spectra of -A and A can differ in the last bits
        np.testing.assert_allclose(got, reference, rtol=1e-12, atol=1e-12)
    else:
        assert np.array_equal(got, reference)


def test_non_spectral_constructions_carry_no_spectrum():
    g = subeq.geometric(subeq.sample_grassmannian(3, 2, count=32, seed=1))
    for h in (g, subeq.dual(g), subeq.uniform_elliptic_regularization(g, DELTA)):
        assert h.spectrum is None and h.eig_margin is None
