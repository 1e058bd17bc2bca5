"""Dense symmetric-matrix primitives.

Everything here is a pure function of its inputs; the random unit vector
draws from the Generator it is given and never touches global RNG state.
Matrices are small (n <= 16 in practice) and dense.
Every spectrum comes from ``ordered_eigenvalues``, the one call of LAPACK's
``np.linalg.eigvalsh`` (margins, plane-graph angles as eigenvalues of Gram
products, Gauss-Jacobi nodes); no eigenvectors are needed, and the call is
deterministic for a given input on a given machine and BLAS build.  The
spectral helpers also take (..., n, n) stacks and give, row by row, the
same floats as one matrix at a time.

``row_norms(x)`` is ``np.linalg.norm(x, axis=1)`` bit for bit, at a
fraction of its time on the short rows of point sets: it repeats
numpy's pairwise summation order with one operation per column.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, InvariantError, NumericalError, SolverError

UNIT_NORM_TOL = 1e-12
STRUCTURE_TOL = 1e-12
CLUSTER_TOL = 1e-8
FD_STEP = 1e-4


def symmetrize(a) -> np.ndarray:
    """Symmetric part of a matrix or of each matrix in a (..., n, n) stack."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.swapaxes(-1, -2))


def as_matrices(a) -> np.ndarray:
    """Coerce a matrix or a (..., n, n) stack to symmetric ndarrays."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvariantError(f"expected square matrices, got shape {a.shape}")
    return symmetrize(a)


def row_norms(x) -> np.ndarray:
    """Euclidean norm of each row of an (m, n) array: the floats of
    ``np.linalg.norm(x, axis=1)``, whose sum of a row's squares is
    numpy's pairwise sum.  That sum is one running sum for n < 8; for
    8 <= n <= 128, eight running sums over the columns j = i mod 8,
    combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the leftover
    columns in order.  Here each step is one column operation over all
    rows, not a reduction per row; wider rows, and squares whose rows are
    not contiguous (numpy then sums them in another order), take numpy's
    own reduction."""
    x = np.asarray(x, dtype=float)
    n = x.shape[1]
    s = x * x
    if not 0 < n <= 128 or not s.flags.c_contiguous:
        return np.sqrt(np.add.reduce(s, axis=1))
    if n < 8:
        acc = s[:, 0].copy()
        for j in range(1, n):
            acc += s[:, j]
        return np.sqrt(acc, out=acc)
    tail = n - n % 8
    r = s[:, :8]
    for j in range(8, tail, 8):
        r = r + s[:, j:j + 8]
    acc = (r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3])
    acc += (r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7])
    for j in range(tail, n):
        acc += s[:, j]
    return np.sqrt(acc, out=acc)


def ordered_eigenvalues(a) -> np.ndarray:
    """Ascending eigenvalues lambda_1 <= ... <= lambda_n of a matrix, or of
    each matrix in a (..., n, n) stack along the last axis, from LAPACK on
    finite entries only."""
    a = as_matrices(a)
    if not np.isfinite(a).all():
        raise DomainError("matrix entries must be finite")
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"symmetric eigensolver failed: {exc}") from exc


# ---------------------------------------------------------------------------
# directions and projectors
# ---------------------------------------------------------------------------


def unit_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(-1)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise InvariantError(f"|norm - 1| = {abs(norm - 1.0):.3e} exceeds {UNIT_NORM_TOL}")
    return v


def projector_onto(e) -> np.ndarray:
    """Rank-one orthogonal projector e (x) e onto the line through e."""
    e = unit_vector(e)
    return np.outer(e, e)


def projector_perp(e) -> np.ndarray:
    """Projector onto the hyperplane orthogonal to e."""
    e = unit_vector(e)
    return np.eye(e.size) - np.outer(e, e)


def radial_hessian(lam: float, a: float, x) -> np.ndarray:
    """Hessian of a radial function with one-variable jet (lam, a) at x != 0.

    Returns (lam/|x|) P_perp + a P_line, whose spectrum is lam/|x| with
    multiplicity n-1 and a with multiplicity 1.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise DomainError("radial Hessian is undefined at the origin")
    u = x / r
    p_line = np.outer(u, u)
    return (lam / r) * (np.eye(x.size) - p_line) + a * p_line


# ---------------------------------------------------------------------------
# complex / quaternionic structures and hermitian parts
# ---------------------------------------------------------------------------


def _quaternion_left_blocks(n: int):
    """Left multiplication by i, j, k on H^n in stacked (a, b, c, d) coordinates."""
    z = np.zeros((n, n))
    e = np.eye(n)
    li = np.block([[z, -e, z, z], [e, z, z, z], [z, z, z, -e], [z, z, e, z]])
    lj = np.block([[z, z, -e, z], [z, z, z, e], [e, z, z, z], [z, -e, z, z]])
    lk = np.block([[z, z, z, -e], [z, z, -e, z], [z, e, z, z], [e, z, z, z]])
    return li, lj, lk


@dataclass(frozen=True, eq=False)
class Structure:
    """A complex structure (J,) on R^{2n} or a quaternionic one (I, J, K)
    on R^{4n}: orthogonal units with square -Id, and IJ = K.  The units
    are stored read-only."""

    units: tuple

    def __post_init__(self):
        if len(self.units) not in (1, 3):
            raise InvariantError("a structure has one unit (J) or three (I, J, K)")
        units = tuple(np.array(u, dtype=float) for u in self.units)
        dim = units[0].shape[0] if units[0].ndim else 0
        eye = np.eye(dim)
        for label, u in zip("J" if len(units) == 1 else "IJK", units):
            if u.shape != (dim, dim) or not dim or dim % self.multiplicity:
                raise InvariantError(f"structure units must be square, of one positive "
                                     f"dimension divisible by {self.multiplicity}")
            if float(np.abs(u @ u + eye).max()) > STRUCTURE_TOL:
                raise InvariantError(f"{label}^2 != -Id")
            if float(np.abs(u.T @ u - eye).max()) > STRUCTURE_TOL:
                raise InvariantError(f"{label} is not orthogonal")
            u.flags.writeable = False
        if len(units) == 3 and float(np.abs(units[0] @ units[1] - units[2]).max()) > STRUCTURE_TOL:
            raise InvariantError("IJ != K")
        object.__setattr__(self, "units", units)

    @property
    def dim(self) -> int:
        return self.units[0].shape[0]

    @property
    def multiplicity(self) -> int:
        """How often the average of a symmetric matrix repeats each eigenvalue."""
        return len(self.units) + 1

    def average(self, a: np.ndarray) -> np.ndarray:
        """(A - sum of u A u over the units) / multiplicity: the part of A,
        or of each matrix in a (..., d, d) stack, that commutes with every
        unit."""
        out = a
        for u in self.units:
            out = out - u @ a @ u
        return out / self.multiplicity

    @staticmethod
    @lru_cache(maxsize=None)
    def complex(n: int) -> "Structure":
        """The standard J(x, y) = (-y, x) on R^{2n}, built once per n."""
        z = np.zeros((n, n))
        eye = np.eye(n)
        return Structure((np.block([[z, -eye], [eye, z]]),))

    @staticmethod
    @lru_cache(maxsize=None)
    def quaternionic(n: int) -> "Structure":
        """Left multiplication by i, j, k on H^n = R^{4n}, built once per n."""
        return Structure(_quaternion_left_blocks(n))


def hermitian_part(a, structure: Structure) -> np.ndarray:
    """Hermitian symmetric part of A with respect to a complex or
    quaternionic structure: (A - JAJ)/2, resp. (A - IAI - JAJ - KAK)/4.
    A may be a (..., n, n) stack."""
    a = as_matrices(a)
    if structure.dim != a.shape[-1]:
        raise DomainError("matrix and structure dimensions differ")
    return structure.average(a)


def cluster_reduce(vals: np.ndarray, multiplicity: int) -> np.ndarray:
    """Collapse an ascending spectrum (or each row of a (..., n) stack of
    spectra) into clusters of the given size.

    Cluster widths beyond 1e-8 * (1 + spectral radius) mean the spectrum
    does not have the expected degeneracy; that is a numerical error.
    """
    vals = np.asarray(vals, dtype=float)
    if vals.shape[-1] % multiplicity:
        raise DomainError("spectrum length not divisible by the multiplicity")
    tol = CLUSTER_TOL * (1.0 + np.abs(vals).max(axis=-1, initial=0.0))
    groups = vals.reshape(*vals.shape[:-1], vals.shape[-1] // multiplicity, multiplicity)
    widths = (groups.max(axis=-1) - groups.min(axis=-1)).max(axis=-1, initial=0.0)
    if (widths > tol).any():
        raise NumericalError(
            f"spectrum not {multiplicity}-fold degenerate: cluster width {widths.max():.3e}"
        )
    return groups.sum(axis=-1) / multiplicity  # the mean, without np.mean's overhead


def reduced_eigenvalues(a, structure) -> np.ndarray:
    """Deduplicated ascending spectrum of the hermitian part.

    The hermitian part of a 2n x 2n (resp. 4n x 4n) matrix has each
    eigenvalue with multiplicity 2 (resp. 4); the reduced list keeps one
    representative per cluster.
    """
    return cluster_reduce(ordered_eigenvalues(hermitian_part(a, structure)),
                          structure.multiplicity)


# ---------------------------------------------------------------------------
# elementary symmetric functions
# ---------------------------------------------------------------------------


def elementary_symmetric_all(lams, k: int) -> np.ndarray:
    """sigma_1, ..., sigma_k of a spectrum, or of each row of a (..., n)
    stack, along the last axis.

    One update per eigenvalue, e_j += lam * e_{j-1} for all j at once;
    the right side is formed before the update, as in the descending
    scalar recurrence, and entries above the current degree stay 0.  The
    degree axis comes first so that a 1-D spectrum updates by scalars.
    """
    lams = np.asarray(lams, dtype=float)
    n = lams.shape[-1]
    if not 1 <= k <= n:
        raise DomainError(f"k must satisfy 1 <= k <= {n}, got {k}")
    e = np.zeros((k + 1, *lams.shape[-2::-1]))
    e[0] = 1.0
    lower, upper = e[:-1], e[1:]
    for lam in lams.T:
        upper += lam * lower
    return upper.T


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


def finite_diff_hessian(values: Callable, x) -> np.ndarray:
    """Second-order central-difference Hessian, symmetrized, with step
    h = FD_STEP (1 + |x|).

    `values` maps an (m, n) array of points to their m values, as
    ``ScalarField.values`` does.  Evaluation at (or too near) a singular
    point of the field surfaces as a DomainError.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    n = x.size
    h = FD_STEP * (1.0 + float(np.linalg.norm(x)))
    pts = [x]
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        pts.extend((x + ei, x - ei))
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            pts.extend((x + ei + ej, x + ei - ej, x - ei + ej, x - ei - ej))
    vals = np.asarray(values(np.array(pts)), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DomainError("finite-difference stencil touches a singular point")
    u0 = vals[0]
    hess = np.zeros((n, n))
    for i in range(n):
        up, dn = vals[1 + 2 * i], vals[2 + 2 * i]
        hess[i, i] = (up - 2.0 * u0 + dn) / h**2
    idx = 1 + 2 * n
    for i in range(n):
        for j in range(i + 1, n):
            pp, pm, mp, mm = vals[idx : idx + 4]
            idx += 4
            hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4.0 * h**2)
    return symmetrize(hess)


# ---------------------------------------------------------------------------
# seeded random constructor
# ---------------------------------------------------------------------------


def random_unit_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)
