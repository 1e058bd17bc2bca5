"""Dense symmetric-matrix primitives.

Everything here is a pure function of its inputs; random constructors
take an explicit seed and never touch global RNG state.  Matrices are
small (n <= 16 in practice) and dense.  Spectra come from LAPACK
through ``np.linalg.eigvalsh`` alone (no eigenvectors are needed), which is
deterministic for a given input on a given machine and BLAS build.  The
spectral helpers also take (..., n, n) stacks and give, row by row, the
same floats as one matrix at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, InvariantError, NumericalError, SolverError

UNIT_NORM_TOL = 1e-12
FRAME_TOL = 1e-10
STRUCTURE_TOL = 1e-12
CLUSTER_TOL = 1e-8

DEFAULT_FD_STEP = 1e-4


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
# directions, projectors, frames
# ---------------------------------------------------------------------------


def unit_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(-1)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise InvariantError(f"|norm - 1| = {abs(norm - 1.0):.3e} exceeds {UNIT_NORM_TOL}")
    return v


def coordinate_direction(n: int, axis: int = 0) -> np.ndarray:
    e = np.zeros(n)
    e[axis] = 1.0
    return e


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


def _check_orthonormal(cols: np.ndarray) -> None:
    """Refuse an n x p matrix, or a (k, n, p) stack of them, whose Gram
    matrices differ from Id by more than FRAME_TOL in any entry."""
    gram = cols.swapaxes(-1, -2) @ cols
    defect = float(np.abs(gram - np.eye(cols.shape[-1])).max())
    if not defect <= FRAME_TOL:  # NaN entries fail too
        raise InvariantError(f"columns not orthonormal: defect {defect:.3e}")


@dataclass(frozen=True, eq=False)
class Frame:
    """n x p matrix with orthonormal columns spanning a p-plane."""

    columns: np.ndarray

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2:
            raise InvariantError("frame columns must form a 2-d array")
        _check_orthonormal(cols)
        object.__setattr__(self, "columns", cols)

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    @property
    def p(self) -> int:
        return self.columns.shape[1]


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


def _evaluate_field(field, pts: np.ndarray) -> np.ndarray:
    if hasattr(field, "values"):
        return np.asarray(field.values(pts), dtype=float)
    return np.asarray([float(field(p)) for p in pts], dtype=float)


def finite_diff_hessian(field: Callable, x, h: float | None = None) -> np.ndarray:
    """Second-order central-difference Hessian, symmetrized.

    `field` is either a callable on a single point or an object with a
    vectorized ``values`` method.  Evaluation at (or too near) a
    singular point of the field surfaces as a DomainError.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    n = x.size
    if h is None:
        h = DEFAULT_FD_STEP * (1.0 + float(np.linalg.norm(x)))
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
    vals = _evaluate_field(field, np.array(pts))
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
# seeded random constructors
# ---------------------------------------------------------------------------


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def random_psd(n: int, seed=0) -> np.ndarray:
    g = _rng(seed).standard_normal((n, n))
    return g @ g.T / n


def random_rotations(n: int, seeds) -> np.ndarray:
    """Stack of Haar-ish rotations, one per seed, via sign-fixed QR; det
    fixed to +1."""
    g = np.stack([_rng(seed).standard_normal((n, n)) for seed in seeds])
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    flip = np.linalg.det(q) < 0
    q[flip, :, -1] = -q[flip, :, -1]
    return q


def random_symmetric(n: int, seed=0) -> np.ndarray:
    g = _rng(seed).standard_normal((n, n))
    return 0.5 * (g + g.T)


def random_unit_vector(n: int, seed=0) -> np.ndarray:
    v = _rng(seed).standard_normal(n)
    return v / np.linalg.norm(v)
