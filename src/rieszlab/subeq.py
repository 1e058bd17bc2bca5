"""Subequation algebra: built-in families (the Garding branches among
them), duals, lifts, geometric constructions and structural property
checks.

A subequation is represented through a continuous margin function m with
member(A) <=> m(A) >= 0, interior {m > 0} and boundary {m = 0}.  All the
built-in families are functions of the ordered eigenvalues, so their
margins are rotation invariant up to eigensolver rounding.  They, the
lifts and their duals and regularizations are spectral:
m(A) = eig_margin(spectrum(A)).  One margin serves a single matrix and
any (..., n, n) stack, with the same floats row by row; the property
suites evaluate whole sample stacks with it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, InvariantError, SolverError
from .linalg import (
    Structure,
    as_matrices,
    elementary_symmetric_all,
    ordered_eigenvalues,
    reduced_eigenvalues,
    symmetrize,
)

MEMBER_TOL = 1e-9
FRAME_TOL = 1e-10
# transitivity: how far a bound on lambda_max must clear cos_sq_tol to
# decide a Gram block without the eigensolver
BOUND_MARGIN = 1e-12
# A sampling suite's stacked margin read holds at most this many matrices, so
# its memory does not grow with the sample count.  Even, so a block of one read
# per sample (the sandwich's) starts on an even sample.
SAMPLE_BLOCK_ROWS = 1024


def fmt_param(x: float) -> str:
    """A parameter as names print it: `:g` (6 digits) when that
    reads back as the same float, else the shortest round-trip repr."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


@dataclass(frozen=True)
class Subequation:
    """Named margin function plus metadata.

    ``margin`` maps one symmetric (n, n) matrix to a 0-d margin and an
    (..., n, n) stack to the (...) margins, with the same floats row by
    row; ``float(margin(A))`` is the real number of one matrix.

    A spectral subequation also carries ``spectrum``, which maps an
    (..., n, n) stack to ascending (..., k) spectra (the ordered
    eigenvalues, or the reduced spectrum of a lift), and ``eig_margin``,
    the constraint on such spectra; its margins are
    ``eig_margin(spectrum(A))``, built only by ``_spectral``.  The
    spectrum map is linear along the identity: for all A and real s, t,
    spectrum(s Id + t A) = sort(s spectrum(Id) + t spectrum(A)), and
    spectrum(Id) is a constant vector.  Both fields are None for the
    other subequations.  ``closed_form`` is the catalog's increasing
    characteristic, set by the constructors that know it.
    """

    name: str
    n: int
    margin: Callable
    invariance: str  # one of "O(n)", "U(n)", "Sp(n)", "sampled-ST"
    spectrum: Callable | None = None
    eig_margin: Callable | None = None
    preferred_direction: np.ndarray | None = None
    closed_form: float | None = None

    def direction(self) -> np.ndarray:
        if self.preferred_direction is not None:
            return self.preferred_direction
        e = np.zeros(self.n)
        e[0] = 1.0
        return e


def _spectral(spectrum: Callable, eig_margin: Callable, **meta) -> Subequation:
    """Spectral subequation with margins eig_margin(spectrum(A)); ``meta``
    holds the other constructor fields."""
    return Subequation(spectrum=spectrum, eig_margin=eig_margin,
                       margin=lambda a: eig_margin(spectrum(a)), **meta)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------
#
# Each builder checks its parameters and returns one margin on ascending
# spectra of shape (..., n); one matrix's margin applies it to a 1-D spectrum.


def _branch(i):
    return lambda lams: lams[..., i]


def _pair(i, j, c):
    return lambda lams: lams[..., i] + c * lams[..., j]


def _shifted_branch(i, c):
    return lambda lams: lams[..., i] + c * lams.sum(axis=-1)


def _fractional_sum(p):
    """Sum of the first floor(p) entries plus the fractional part of p
    times the next one."""
    k = int(math.floor(p))
    frac = p - k

    def m(values):
        s = values[..., :k].sum(axis=-1)
        if frac > 0.0:
            s = s + frac * values[..., k]
        return s

    return m


def _psd_eig_margin(n):
    return _branch(0)


def _p_convex_eig_margin(n, p):
    if not 1.0 <= p <= n:
        raise DomainError(f"p-convex needs 1 <= p <= n, got p={p}")
    return _fractional_sum(p)


def integral(family: str, name: str, value) -> int:
    """An integer parameter as an int; a fractional, non-finite or
    non-numeric value is refused, not truncated."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise DomainError(f"{family} needs an integer {name}, got {name}={value}")
    return whole


def _sigma_k_eig_margin(n, k):
    k = integral("sigma-k", "k", k)
    if not 1 <= k <= n:
        raise DomainError(f"sigma-k needs 1 <= k <= n, got k={k}")
    return lambda lams: elementary_symmetric_all(lams, k).min(axis=-1)


def _pdelta_eig_margin(n, delta):
    if delta <= 0:
        raise DomainError(f"pdelta needs delta > 0, got {delta}")
    return _shifted_branch(0, delta / n)


def _min_max_eig_margin(n, p):
    if p < 1:
        raise DomainError(f"min-max needs p >= 1, got {p}")
    return _pair(0, -1, p - 1.0)


def _min_2_eig_margin(n, p):
    if p < 1:
        raise DomainError(f"min-2 needs p >= 1, got {p}")
    if n < 2:
        raise DomainError("min-2 needs n >= 2")
    return _pair(0, 1, p - 1.0)


def _dual_margin(eig_margin):
    """The dual's constraint on ascending spectra: -eig_margin(-A), the
    spectrum of -A being the reversed, negated spectrum of A."""
    return lambda lams: -eig_margin(-lams[..., ::-1])


def _signed_power(t: np.ndarray, q: float) -> np.ndarray:
    return np.sign(t) * np.abs(t) ** q


def _trace_power_eig_margin(n, k, q):
    if not 1.0 <= k <= n:
        raise DomainError(f"trace-power needs 1 <= k <= n, got k={k}")
    if q <= 0:
        raise DomainError(f"trace-power needs q > 0, got q={q}")
    head = _fractional_sum(k)
    width = math.ceil(k)
    normal = np.finfo(float)

    def eig_margin(lams):
        # The sign is invariant under positive scaling of the spectrum.  Where
        # the largest power of the head leaves the normal floats (q near
        # 1e300), the sum would over- or underflow, so those rows take the
        # powers of their head divided by its largest entry; what then
        # underflows is negligible against that entry's power 1.
        lams = lams[..., :width]
        top = np.abs(lams).max(axis=-1, keepdims=True)
        with np.errstate(over="ignore", under="ignore"):
            peak = top**q
            rescale = (top > 0.0) & ~((peak >= normal.tiny) & (peak <= normal.max / width))
            scaled = np.where(rescale, lams / np.where(rescale, top, 1.0), lams)
            return head(_signed_power(scaled, q))

    return eig_margin


def _trace_power_closed(n, k, q):
    try:
        return 1.0 + (float(k) - 1.0) ** (1.0 / q)
    except OverflowError:  # q near 0: the characteristic is beyond every float
        return math.inf


def _subaffine_eig_margin(n):
    return _branch(-1)


def _largest_convex_eig_margin(n, p):
    if not 1.0 <= p < n:
        raise DomainError(f"largest-convex needs 1 <= p < n, got p={p}")
    return _shifted_branch(0, (p - 1.0) / (n - p))


def _full_space_eig_margin(n):
    return lambda lams: np.ones(lams.shape[:-1])


# The Garding branches of three hyperbolic polynomials: the k-th ascending
# root of det, of the pdelta operator and of the product of all p-fold sums.


def _garding_det_eig_margin(n, k):
    k = integral("garding-det", "k", k)
    if not 1 <= k <= n:
        raise DomainError(f"garding-det needs 1 <= k <= {n}, got k={k}")
    return _branch(k - 1)


def _garding_pdelta_eig_margin(n, delta, k):
    k = integral("garding-pdelta", "k", k)
    if delta <= 0:
        raise DomainError(f"garding-pdelta needs delta > 0, got {delta}")
    if not 1 <= k <= n:
        raise DomainError(f"garding-pdelta needs 1 <= k <= {n}, got k={k}")
    return _shifted_branch(k - 1, delta / n)


def _garding_sum_eig_margin(n, p, k):
    """k-th smallest sum of p eigenvalues."""
    k = integral("garding-sum", "k", k)
    if int(p) != p or not 1 <= p <= n:
        raise DomainError(f"garding-sum needs an integer p in [1, {n}], got p={p}")
    count = math.comb(n, int(p))
    if not 1 <= k <= count:
        raise DomainError(f"garding-sum needs 1 <= k <= C({n}, {int(p)}) = {count}, got k={k}")
    subsets = np.array(list(itertools.combinations(range(n), int(p))))
    return lambda lams: np.sort(lams[..., subsets].sum(axis=-1), axis=-1)[..., k - 1]


class Family(NamedTuple):
    """A built-in family: its spectral-margin builder (which checks the
    parameter ranges), parameter names and closed-form increasing
    characteristic ``closed(n, **params)``, or None where the catalog has
    none."""

    build: Callable
    params: tuple
    closed: Callable | None


_FAMILIES = {
    "p": Family(_psd_eig_margin, (), lambda n: 1.0),
    "p-convex": Family(_p_convex_eig_margin, ("p",), lambda n, p: float(p)),
    "sigma-k": Family(_sigma_k_eig_margin, ("k",), lambda n, k: n / int(k)),
    "pdelta": Family(_pdelta_eig_margin, ("delta",),
                     lambda n, delta: n * (1.0 + delta) / (n + delta)),
    # at n = 1 min-max and subaffine are the PSD cone
    "min-max": Family(_min_max_eig_margin, ("p",),
                      lambda n, p: float(p) if n > 1 else 1.0),
    "min-2": Family(_min_2_eig_margin, ("p",), lambda n, p: float(p)),
    "dual-min-max": Family(lambda n, p: _dual_margin(_min_max_eig_margin(n, p)), ("p",), None),
    "dual-min-2": Family(lambda n, p: _dual_margin(_min_2_eig_margin(n, p)), ("p",), None),
    "trace-power": Family(_trace_power_eig_margin, ("k", "q"), _trace_power_closed),
    "subaffine": Family(_subaffine_eig_margin, (), lambda n: math.inf if n > 1 else 1.0),
    "largest-convex": Family(_largest_convex_eig_margin, ("p",), lambda n, p: float(p)),
    "full-space": Family(_full_space_eig_margin, (), None),
    "garding-det": Family(_garding_det_eig_margin, ("k",),
                          lambda n, k: 1.0 if int(k) == 1 else math.inf),
    "garding-pdelta": Family(_garding_pdelta_eig_margin, ("delta", "k"),
                             lambda n, delta, k: n * (1.0 + delta) / (
                                 n + delta if int(k) == 1 else delta)),
    # only the first C(n-1, p-1) branches are finite
    "garding-sum": Family(_garding_sum_eig_margin, ("p", "k"),
                          lambda n, p, k: float(p) if int(k) <= math.comb(n - 1, int(p) - 1)
                          else math.inf),
}

# the one alias: p-convex with p = n
LAPLACIAN = "laplacian"


def family_names() -> list[str]:
    return sorted([*_FAMILIES, LAPLACIAN])


def family_params(family: str) -> tuple:
    """Parameter names a built-in family needs."""
    if family == LAPLACIAN:
        return ()
    if family not in _FAMILIES:
        raise DomainError(f"unknown family {family!r}; known: {family_names()}")
    return _FAMILIES[family].params


def builtin(family: str, n: int, **params) -> Subequation:
    """Construct a built-in family by name, with its closed-form
    characteristic when the catalog has one."""
    if family == LAPLACIAN:
        family, params = "p-convex", {"p": float(n), **params}
    required = family_params(family)
    missing = [r for r in required if r not in params]
    if missing:
        raise DomainError(f"family {family!r} needs parameters {missing}")
    extra = [p for p in params if p not in required]
    if extra:
        raise DomainError(f"family {family!r} got unknown parameters {extra}")
    nonfinite = [k for k, v in sorted(params.items()) if not math.isfinite(v)]
    if nonfinite:
        raise DomainError(f"family {family!r} needs finite parameters, got "
                          + ", ".join(f"{k}={params[k]}" for k in nonfinite))
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    entry = _FAMILIES[family]
    eig_margin = entry.build(n, **params)
    closed = None if entry.closed is None else entry.closed(n, **params)
    label = family if not params else family + "(" + ",".join(
        f"{k}={fmt_param(v)}" for k, v in sorted(params.items())) + ")"
    return _spectral(ordered_eigenvalues, eig_margin, name=label, n=n, invariance="O(n)",
                     closed_form=closed)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def dual(f: Subequation) -> Subequation:
    """Dual subequation: margin_dual(A) = -margin(-A), an involution.  A spectral
    F keeps its spectrum map, reading the spectrum of -A as the reversed, negated
    spectrum of A, so its dual's margin is -margin(-A) up to eigensolver rounding."""
    meta = dict(name=f"dual({f.name})", n=f.n, invariance=f.invariance,
                preferred_direction=f.preferred_direction)
    if f.spectrum is not None:
        return _spectral(f.spectrum, _dual_margin(f.eig_margin), **meta)
    return Subequation(margin=lambda a: -f.margin(-as_matrices(a)), **meta)


def _lift(kind: str, base: Subequation, structure: Structure, invariance: str) -> Subequation:
    """The base eigenvalue constraint applied to the reduced spectrum of
    the hermitian part with respect to the structure."""
    closed = base.closed_form
    return _spectral(
        lambda a: reduced_eigenvalues(a, structure),
        base.eig_margin,
        name=f"{kind}({base.name})",
        n=structure.dim,
        invariance=invariance,
        closed_form=None if closed is None else closed * (structure.dim / base.n),
    )


def complex_lift(family: str, n: int, **params) -> Subequation:
    """Complex analogue on R^{2n}: the base eigenvalue constraint applied
    to the spectrum of the hermitian part (A - JAJ)/2."""
    # the base is built first: it checks n before the structure needs it
    return _lift("complex", builtin(family, n, **params), Structure.complex(n), "U(n)")


def quaternionic_lift(family: str, n: int, **params) -> Subequation:
    """Quaternionic analogue on R^{4n} via (A - IAI - JAJ - KAK)/4."""
    return _lift("quaternionic", builtin(family, n, **params), Structure.quaternionic(n),
                 "Sp(n)")


@dataclass(frozen=True, eq=False)
class Frame:
    """n x p matrix with orthonormal columns spanning a p-plane: a view of
    one plane of the `GrassmannSample` that checked it."""

    columns: np.ndarray


@dataclass(frozen=True, eq=False)
class GrassmannSample:
    """Finite sample of p-planes in R^n standing in for a compact set of
    the Grassmannian; `angle_tol` drives intersection and containment
    tests.  The planes, a (k, n, p) array-like, are copied once into the
    read-only stack that `stacked()` returns; every Gram matrix must be
    within FRAME_TOL of Id in each entry.  `planes` become frames viewing
    that stack."""

    planes: Sequence
    angle_tol: float = 1e-3
    _stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.angle_tol) and self.angle_tol > 0):
            raise DomainError(f"angle_tol must be finite and > 0, got {self.angle_tol}")
        if len(self.planes) == 0:
            raise DomainError("Grassmann sample must be non-empty")
        stack = np.array(self.planes, dtype=float)
        if stack.ndim != 3:
            raise InvariantError("a frame stack must form a 3-d array")
        defect = float(np.abs(stack.swapaxes(1, 2) @ stack - np.eye(stack.shape[2])).max())
        if not defect <= FRAME_TOL:  # NaN entries fail too
            raise InvariantError(f"columns not orthonormal: defect {defect:.3e}")
        stack.flags.writeable = False
        object.__setattr__(self, "planes", [Frame(plane) for plane in stack])
        object.__setattr__(self, "_stack", stack)

    @property
    def n(self) -> int:
        return self._stack.shape[1]

    @property
    def p(self) -> int:
        return self._stack.shape[2]

    def stacked(self) -> np.ndarray:
        return self._stack


def sample_grassmannian(n: int, p: int, count: int | None = None, seed=0,
                        angle_tol: float = 1e-3) -> GrassmannSample:
    """`count` p-planes in R^n, each the span of a Gaussian n x p draw:
    one (count, n, p) draw, one stacked QR factorization with the signs
    of R's diagonal moved into Q, and one orthonormality check for the
    stack."""
    n, p = integral("Grassmann sample", "n", n), integral("Grassmann sample", "p", p)
    if not 1 <= p <= n:
        raise DomainError(f"Grassmannian G(p, R^n) needs 1 <= p <= n, got p={p}, n={n}")
    if count is None:
        count = 512 if n <= 4 else 2048
    count = integral("Grassmann sample", "count", count)
    if count < 1:
        raise DomainError(f"Grassmann sample needs count >= 1, got count={count}")
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((count, n, p)))
    q *= np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    return GrassmannSample(q, angle_tol=angle_tol)


def geometric(sample: GrassmannSample) -> Subequation:
    """Outer approximation of the geometric subequation of a plane
    sample: margin(A) = min over sampled W of tr_W(A).  Finitely many
    constraints mean the margin can only overestimate membership;
    adding planes never increases it."""
    stack = sample.stacked()  # (k, n, p)
    # tr(W^T A W) = <A, W W^T>: one row of plane projectors per plane
    projectors = np.einsum("kip,kjp->kij", stack, stack).reshape(len(stack), -1)

    def values(a) -> np.ndarray:
        a = as_matrices(a)
        rows = a.reshape(*a.shape[:-2], projectors.shape[1])
        return np.einsum("...i,ki->...k", rows, projectors).min(axis=-1)

    e = sample.planes[0].columns[:, 0].copy()
    return Subequation(
        name=f"geometric(G({sample.p},R^{sample.n}))#{len(sample.planes)}",
        n=sample.n,
        margin=values,
        invariance="sampled-ST",
        preferred_direction=e,
        closed_form=float(sample.p),
    )


def uniform_elliptic_regularization(f: Subequation, delta: float) -> Subequation:
    """Shifted family A -> A + (delta/n) tr(A) Id fed through F's margin.
    A spectral F keeps its eig_margin and reads the spectrum of the shifted
    matrix.  A closed form c of F becomes c n (1 + delta) / (n + delta c),
    or n (1 + delta) / (n / c + delta) where c n (1 + delta) is not finite
    (c = inf, or overflow)."""
    if not math.isfinite(delta) or delta <= 0:
        raise DomainError(f"regularization needs a finite delta > 0, got {delta}")
    c = delta / f.n
    eye = np.eye(f.n)

    def shifted(a) -> np.ndarray:
        a = as_matrices(a)
        return a + c * np.trace(a, axis1=-2, axis2=-1)[..., None, None] * eye

    closed = f.closed_form
    if closed is not None:
        top = closed * f.n * (1.0 + delta)
        closed = (top / (f.n + delta * closed) if math.isfinite(top)
                  else f.n * (1.0 + delta) / (f.n / closed + delta))
    meta = dict(name=f"regularized({f.name},delta={fmt_param(delta)})", n=f.n,
                invariance=f.invariance, preferred_direction=f.preferred_direction,
                closed_form=closed)
    if f.spectrum is not None:
        return _spectral(lambda a: f.spectrum(shifted(a)), f.eig_margin, **meta)
    return Subequation(margin=lambda a: f.margin(shifted(a)), **meta)


# ---------------------------------------------------------------------------
# property checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyReport:
    """A property suite's worst violation over its samples; it passes when
    that is at most the tolerance, so a NaN violation fails."""

    name: str
    sample_count: int
    worst_violation: float
    tolerance: float
    passed: bool = field(init=False)
    skipped: bool = False
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.worst_violation <= self.tolerance))


def worst_case(violations) -> float:
    """Largest violation, at least 0.  A NaN violation propagates, so the
    report fails instead of passing on a margin that could not be read;
    adding 0.0 turns a -0.0 from the reduction into 0.0."""
    return float(np.max(violations, initial=0.0)) + 0.0


def ray_margins(f: Subequation, a: np.ndarray) -> Callable:
    """(t, rows) -> the margins of A[rows] + t Id along the identity ray,
    for an (m, n, n) stack A and t one shift or one per row; t = None reads
    A[rows] itself, and rows defaults to all.  A spectral F makes one
    eigensolve, of A with Id appended, here: the spectrum of A + t Id is
    spectrum(A) + t spectrum(Id), in the same order, so each read is
    eig_margin on spectra.  Any other F reads the stacked matrices."""
    if f.spectrum is None:
        eye = np.eye(f.n)
        return lambda t=None, rows=slice(None): f.margin(
            a[rows] if t is None else a[rows] + np.multiply.outer(t, eye))
    spectra = f.spectrum(np.concatenate([a, np.eye(f.n)[None]]))
    lams, ray = spectra[:-1], spectra[-1]
    return lambda t=None, rows=slice(None): f.eig_margin(
        lams[rows] if t is None else lams[rows] + np.multiply.outer(t, ray))


def shift_into(f: Subequation, a: np.ndarray) -> np.ndarray:
    """Return A + t Id with margin >= 0, moving along the identity ray:
    t = 0 for members, otherwise the first of 1, 2, 4, ..., 2^63 that works.
    A may be a (..., n, n) stack; each matrix gets its own t.  Each round
    decides the rows still outside by ``ray_margins``: a spectral F by
    eig_margin(spectrum(A) + t spectrum(Id)) from one eigensolve of the
    stack, any other F by the margins of the stacked A + t Id.  The matrices
    returned are A + t Id either way."""
    a = as_matrices(a)
    stack = a.reshape(-1, *a.shape[-2:])
    out = stack.copy()
    margins = ray_margins(f, stack)
    todo = np.flatnonzero(~(margins() >= 0.0))
    t = 1.0
    eye = np.eye(f.n)
    for _ in range(64):
        if not todo.size:
            break
        inside = margins(t, todo) >= 0.0
        out[todo[inside]] = stack[todo[inside]] + t * eye
        todo = todo[~inside]
        t *= 2.0
    if todo.size:
        raise SolverError(f"could not shift a sample into {f.name}")
    return out.reshape(a.shape)


def require_samples(sample_count: int) -> None:
    """Sampling suites need at least one sample to report a worst case."""
    if sample_count < 1:
        raise DomainError(f"sample count must be >= 1, got {sample_count}")


def require_tol(tol: float) -> None:
    """Tolerances must be finite and > 0."""
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol}")


def worst_over_samples(seed, sample_count: int, n: int, per_sample: int, violations,
                       reads: int = 1) -> float:
    """Worst case of ``violations(g)`` over blocks of samples, where g is
    the block's (rows, per_sample, n, n) standard-normal draw from one
    ``default_rng(seed)``.  A check whose stacked margin read holds
    ``reads`` matrices per sample draws blocks of max(1, SAMPLE_BLOCK_ROWS
    // reads) samples, so no read holds more than SAMPLE_BLOCK_ROWS
    matrices.  Sample i reads the i-th run of per_sample * n * n Gaussians
    in that stream, so the result does not depend on the block size and a
    shorter run's samples are a prefix of a longer one's; requires
    sample_count >= 1."""
    require_samples(sample_count)
    rng = np.random.default_rng(seed)
    block = max(1, SAMPLE_BLOCK_ROWS // reads)
    return worst_case([worst_case(violations(rng.standard_normal(
        (min(block, sample_count - i), per_sample, n, n))))
        for i in range(0, sample_count, block)])


def _psd(g: np.ndarray) -> np.ndarray:
    """G G^T / n for each Gaussian n x n matrix G of a stack."""
    return g @ g.swapaxes(-1, -2) / g.shape[-1]


def check_positivity(f: Subequation, sample_count: int = 200, seed=0) -> PropertyReport:
    """Members stay members after adding a PSD matrix."""

    def violations(g):
        return -f.margin(shift_into(f, symmetrize(g[:, 0])) + _psd(g[:, 1]))

    worst = worst_over_samples(seed, sample_count, f.n, 2, violations)
    return PropertyReport("positivity", sample_count, worst, MEMBER_TOL)


def check_cone(f: Subequation, sample_count: int = 200, seed=0) -> PropertyReport:
    """Members stay members under scaling by t >= 0: t = 0, 1/2, 2, 10, all
    in one stacked margin read."""
    scales = (0.0, 0.5, 2.0, 10.0)

    def violations(g):
        a = shift_into(f, symmetrize(g[:, 0]))
        return -f.margin(np.multiply.outer(scales, a))

    worst = worst_over_samples(seed, sample_count, f.n, 1, violations, len(scales))
    return PropertyReport("cone", sample_count, worst, MEMBER_TOL)


def _cayley(omega: np.ndarray) -> np.ndarray:
    """(I - omega/2)^-1 (I + omega/2): a rotation for skew omega, and one
    commuting with every matrix that commutes with omega."""
    eye = np.eye(omega.shape[-1])
    return np.linalg.solve(eye - 0.5 * omega, eye + 0.5 * omega)


def invariance_rotation(f: Subequation, gaussians: np.ndarray) -> np.ndarray:
    """Random rotations of F's declared group, one per matrix of an (m, n, n)
    standard-normal stack.  An O(n) rotation is the sign-fixed Q of the QR
    factorization, with det fixed to +1; the U(n) and Sp(n) rotations are
    Cayley transforms of the skew parts projected onto the commutant of the
    standard structure."""
    if f.invariance == "O(n)":
        q, r = np.linalg.qr(gaussians)
        q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
        flip = np.linalg.det(q) < 0
        q[flip, :, -1] = -q[flip, :, -1]
        return q
    if f.invariance == "U(n)":
        structure = Structure.complex(f.n // 2)
    elif f.invariance == "Sp(n)":
        structure = Structure.quaternionic(f.n // 4)
    else:
        raise DomainError(f"no rotation sampler for invariance tag {f.invariance!r}")
    return _cayley(structure.average(0.5 * (gaussians - gaussians.swapaxes(-1, -2))))


def check_st_invariance(f: Subequation, sample_count: int = 100, seed=0) -> PropertyReport:
    """|margin(g A g^T) - margin(A)| over random rotations of the declared
    group, relative to max(1 + |A|_F, |margin(A)|): margins that scale like
    the entries are judged absolutely, larger margins (huge parameters or
    powers) relative to their own size, where rounding is proportionate.

    For sampled-Grassmannian subequations a finite plane sample breaks
    exact invariance, so the check is skipped with a warning.
    """
    require_samples(sample_count)
    if f.invariance == "sampled-ST":
        return PropertyReport(
            "st-invariance", 0, 0.0, 0.0, skipped=True,
            note=f"invariance tag {f.invariance!r}: finite sample breaks exact invariance",
        )

    def violations(g):
        a = symmetrize(g[:, 0])
        rot = invariance_rotation(f, g[:, 1])
        moved, margins = f.margin(np.stack([rot @ a @ rot.swapaxes(-1, -2), a]))
        # one norm per sample: a batched norm rounds differently
        scale = np.maximum(1.0 + np.array([np.linalg.norm(x) for x in a]), np.abs(margins))
        return np.abs(moved - margins) / scale

    worst = worst_over_samples(seed, sample_count, f.n, 2, violations, 2)
    return PropertyReport("st-invariance", sample_count, worst, 1e-8)


def check_maximum_principle(f: Subequation) -> PropertyReport:
    """0 must not be interior: margin(0) <= 0."""
    m0 = f.margin(np.zeros((f.n, f.n)))
    return PropertyReport("maximum-principle", 1, worst_case(m0), 1e-12)


def check_uniform_ellipticity(delta: float, n: int, sample_count: int = 1000,
                              seed=0) -> PropertyReport:
    """Two-sided ellipticity bounds for the operator lam_min + (delta/n) tr.

    Checks (delta/n) tr(P) <= F(A+P) - F(A) <= (1 + delta/n) tr(P) on
    seeded samples with P PSD, reading A + P and A in one stacked margin.
    """
    require_samples(sample_count)
    if not math.isfinite(delta) or delta <= 0:
        raise DomainError(f"delta must be finite and > 0, got {delta}")
    d = delta / n
    op = builtin("pdelta", n, delta=delta).margin

    def violations(g):
        a = symmetrize(g[:, 0])
        psd = _psd(g[:, 1])
        moved, base = op(np.stack([a + psd, a]))
        diff = moved - base
        tr = np.trace(psd, axis1=-2, axis2=-1)
        return [d * tr - diff, diff - (1.0 + d) * tr]

    worst = worst_over_samples(seed, sample_count, n, 2, violations, 2)
    return PropertyReport("uniform-ellipticity", sample_count, worst, 1e-9,
                          note=f"delta={delta:g}, n={n}")


def margin_monotonicity_check(f: Subequation, sample_count: int = 100, seed=0) -> PropertyReport:
    """margin(A + t Id) must be nondecreasing in t = 0, 1/4, 1/2, 1, 2, 4
    along the identity ray from members, all six in one stacked margin
    read; this is what makes the characteristic bisection well posed."""
    shifts = np.multiply.outer((0.0, 0.25, 0.5, 1.0, 2.0, 4.0), np.eye(f.n))[:, None]

    def violations(g):
        values = f.margin(shift_into(f, symmetrize(g[:, 0])) + shifts)
        return values[:-1] - values[1:]

    worst = worst_over_samples(seed, sample_count, f.n, 1, violations, len(shifts))
    return PropertyReport("margin-monotonicity", sample_count, worst, 1e-9)


# ---------------------------------------------------------------------------
# transitivity on plane samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransitivityResult:
    found: bool
    chain: tuple
    reason: str = ""


def _containing_planes(sample: GrassmannSample, x, cos_sq_tol: float) -> np.ndarray:
    """The planes W within `angle_tol` of the line through x, by the rule
    of adjacency: |W^T x|^2 / |x|^2 >= cos_sq_tol = cos(tol) |cos(tol)|."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != sample.n:
        raise DomainError(f"transitivity endpoints must have length {sample.n}, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise DomainError("transitivity endpoints must be finite")
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise DomainError("transitivity endpoints must be nonzero")
    proj = np.einsum("knp,n->kp", sample.stacked(), x / norm)
    return np.flatnonzero(np.einsum("kp,kp->k", proj, proj) >= cos_sq_tol)


def _adjacency(stack: np.ndarray, cos_sq_tol: float) -> Callable[[int], np.ndarray]:
    """node -> whether lambda_max(G^T G) >= cos_sq_tol for each Gram block
    G = W_node^T W_j of the (k, n, p) stack.  The bounds of
    `transitivity_check` come from one product W_node^T C with the
    columns C of every plane; the blocks they leave undecided are formed
    by `einsum`, with the floats of the whole row's, for one batched
    eigensolve."""
    k, n, p = stack.shape
    columns = stack.transpose(1, 2, 0).reshape(n, p * k)  # column b k + j: column b of W_j

    def row(node: int) -> np.ndarray:
        blocks = (stack[node].T @ columns).reshape(p, p, k)  # [a, b, j]: entry (a, b) of G_j
        diagonals = (blocks * blocks).sum(axis=0)  # [b, j]: entry (b, b) of G_j^T G_j
        adjacent = diagonals.max(axis=0) >= cos_sq_tol + BOUND_MARGIN
        undecided = np.flatnonzero(~adjacent & (diagonals.sum(axis=0)
                                                >= cos_sq_tol - BOUND_MARGIN))
        if undecided.size:
            grams = np.einsum("np,jnq->jpq", stack[node], stack[undecided])
            adjacent[undecided] = (ordered_eigenvalues(grams.swapaxes(1, 2) @ grams)[:, -1]
                                   >= cos_sq_tol)
        return adjacent

    return row


def transitivity_check(sample: GrassmannSample, x, y) -> TransitivityResult:
    """BFS for a chain of sampled planes from one containing x to one
    containing y, stepping only between planes whose smallest principal
    angle is below the sample tolerance.

    Adjacency is built one row at a time, for the nodes the search
    expands: a row is a (k, p, p) Gram stack G, so memory is O(k p^2)
    beyond one copy of the planes' columns, and a chain of length d costs
    about d rows rather than the whole k x k graph.  Most blocks are
    decided by two bounds on lambda_max(G^T G), both sums of G's squared
    entries: the largest diagonal entry of G^T G from below and its trace
    from above.  A block whose lower bound is at least cos_sq_tol +
    BOUND_MARGIN is adjacent, one whose upper bound is below cos_sq_tol -
    BOUND_MARGIN is not; the margin is far beyond the rounding of the
    bounds and of the eigensolver, so these are the eigensolver's
    decisions.  The blocks left undecided, if any, go to one batched
    eigensolve of their G^T G.  Goals are checked when a node is
    discovered; the first goal discovered while expanding depth
    d - 1 is the first goal a level-order BFS would pop at depth d, so the
    chain is the same as the one from the dense graph.
    """
    # angle below tol <=> sigma_max(W_node^T W_j) >= cos(tol) <=> lambda_max of
    # its G^T G >= cos(tol) |cos(tol)|, which every pair meets for tol >= pi/2;
    # a line is within tol of a plane by the same rule
    cos_sq_tol = math.cos(sample.angle_tol) * abs(math.cos(sample.angle_tol))
    starts = _containing_planes(sample, x, cos_sq_tol)
    goals = _containing_planes(sample, y, cos_sq_tol)
    if starts.size == 0:
        return TransitivityResult(False, (), "no sampled plane contains x")
    if goals.size == 0:
        return TransitivityResult(False, (), "no sampled plane contains y")
    stack = sample.stacked()
    adjacency_row = _adjacency(stack, cos_sq_tol)
    is_goal = np.zeros(len(stack), dtype=bool)
    is_goal[goals] = True
    seen = np.zeros(len(stack), dtype=bool)
    seen[starts] = True
    parent = np.full(len(stack), -1)

    def chain_to(node: int) -> TransitivityResult:
        chain = [node]
        while parent[chain[-1]] != -1:
            chain.append(int(parent[chain[-1]]))
        return TransitivityResult(True, tuple(reversed(chain)))

    hits = starts[is_goal[starts]]
    if hits.size:
        return chain_to(int(hits[0]))
    # a row's new nodes come in ascending order: its first goal is the first
    # that a scan of the row would meet
    frontier = starts
    while frontier.size:
        nxt = []
        for node in frontier.tolist():
            new = np.flatnonzero(adjacency_row(node) & ~seen)
            seen[new] = True
            parent[new] = node
            hits = new[is_goal[new]]
            if hits.size:
                return chain_to(int(hits[0]))
            nxt.append(new)
        frontier = np.concatenate(nxt)
    return TransitivityResult(False, (), "plane graph disconnected between x and y")
