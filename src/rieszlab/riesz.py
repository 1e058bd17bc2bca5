"""Riesz characteristics and kernels.

The increasing characteristic of a spherically-transitive cone
subequation is the unique p with P_{e-perp} - (p-1) P_e = Id - p P_e on
the boundary; it is found by bisection on the margin along that pencil,
on [1, hi] with hi = 64 doubled while the margin there is still >= 0.
The decreasing characteristic is the increasing one of the dual, whose
margin is -margin(-A): one solver serves both.

One bisection serves every F, replaying plain bisection on dyadic
sections of the bracket: one matrix margin per step, or for a spectral F
31 points per call from two spectra (spec(Id - t P_e) is spectrum(Id) -
t spectrum(P_e), reversed), whose final bracket two matrix margins must
confirm.  The infinity and t = 1 tests, ``bisection_certificate`` and
``check_directions`` read matrix margins: each further direction is
checked by two of them, not solved again.
Kernels come in two normalizations: the `standard` one (plain powers /
log) and the `barred` one whose first derivative is exactly r^(1-p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, SolverError
from .linalg import (
    projector_onto,
    projector_perp,
    random_symmetric,
    random_unit_vector,
    unit_vector,
)
from .subeq import (BOUNDARY_BAND, MEMBER_TOL, SAMPLE_BLOCK_ROWS, PropertyReport, Subequation,
                    builtin, dual, require_samples, worst_case)

# The characteristic bracket starts as [1, 64]; its upper end doubles while
# the margin there is still >= 0.
P_BRACKET_MAX = 64.0
# A spectral bisection call evaluates the 31 interior points of a dyadic
# 32-section of the bracket.
SECTION_LEVELS = 5
DEFAULT_TOL = 1e-9

INF = math.inf


@dataclass(frozen=True)
class CharacteristicPair:
    """Increasing and decreasing characteristics with bisection widths."""

    p: float
    q: float
    p_bracket: float
    q_bracket: float

    def __post_init__(self):
        if self.p < 1.0 or self.q < 1.0:
            raise NumericalError(f"characteristics must be >= 1, got ({self.p}, {self.q})")
        if math.isfinite(self.p) and math.isfinite(self.q):
            if (self.p - 1.0) * (self.q - 1.0) < 1.0 - 1e-6:
                raise NumericalError(
                    f"pair constraint violated: (p-1)(q-1) = {(self.p - 1) * (self.q - 1):.9f}"
                )


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelSpec:
    p: float
    normalization: str = "standard"

    def __post_init__(self):
        if not (1.0 <= self.p < INF):
            raise DomainError(f"kernel needs 1 <= p < inf, got {self.p}")
        if self.normalization not in ("standard", "barred"):
            raise DomainError(f"unknown normalization {self.normalization!r}")


def _check_positive(t):
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0):  # NaN fails too
        raise DomainError("kernel arguments must be positive")
    return t


def _normalized(spec: KernelSpec, weight: float, t: np.ndarray) -> np.ndarray:
    """weight * kernel from t = log r (p = 2) or r^(2-p), in place: the sign
    of the standard kernel for p > 2 goes into the weight, as -w x has the
    floats of w (-x)."""
    p = spec.p
    if p != 2.0 and spec.normalization == "barred":
        t /= 2.0 - p
    t *= -weight if p > 2.0 and spec.normalization == "standard" else weight
    return t


def _weighted_kernel(spec: KernelSpec, weight: float, t: np.ndarray) -> np.ndarray:
    """weight * kernel(spec, t) for t > 0, unchecked, computed in place on the
    float array t, which it returns.  `**=` keeps the scalar-exponent fast
    paths of `**` (sqrt, reciprocal), so the floats are those of
    `t ** (2 - p)`."""
    if spec.p == 2.0:
        np.log(t, out=t)
    else:
        t **= 2.0 - spec.p
    return _normalized(spec, weight, t)


def _weighted_kernel_of_square(spec: KernelSpec, weight: float, q: np.ndarray) -> np.ndarray:
    """weight * kernel(spec, sqrt(q)) for squared distances q >= 0,
    unchecked, computed in place on the float array q, which it returns:
    with L = ln q, w L / 2 at p = 2, else exp(a) with a = (2 - p) L / 2,
    then the normalization and signed weight of `_weighted_kernel`.  One
    log and one exp, no sqrt and no pow.

    For the q given, the result is within (1 + |a|) eps relative of
    w K(sqrt(q)) (eps = 2^-52; the rounding of a costs about |a| eps), and
    at p = 2 within |w| eps (1 + |L| / 2) absolute.  q = 0 gives the
    kernel's value at 0: 0 when p < 2, else -inf (NaN for a zero weight).
    """
    np.log(q, out=q)
    if spec.p == 2.0:
        q *= 0.5 * weight
        return q
    q *= 0.5 * (2.0 - spec.p)
    np.exp(q, out=q)
    return _normalized(spec, weight, q)


def kernel(spec: KernelSpec, t):
    """Increasing radial kernel; scalar in, scalar out (arrays broadcast)."""
    out = _weighted_kernel(spec, 1.0, _check_positive(t).copy())
    return out if out.ndim else float(out)


def kernel_deriv1(spec: KernelSpec, t):
    t = _check_positive(t)
    p = spec.p
    if p == 2.0:
        out = 1.0 / t
    elif spec.normalization == "standard":
        out = abs(2.0 - p) * t ** (1.0 - p)
    else:
        out = t ** (1.0 - p)
    return out if out.ndim else float(out)


def kernel_deriv2(spec: KernelSpec, t):
    t = _check_positive(t)
    p = spec.p
    if p == 2.0:
        out = -1.0 / (t * t)
    elif spec.normalization == "standard":
        out = abs(2.0 - p) * (1.0 - p) * t ** (-p)
    else:
        out = (1.0 - p) * t ** (-p)
    return out if out.ndim else float(out)


def kernel_hessian(theta: float, p: float, x) -> np.ndarray:
    """Hessian of theta * K_barred_p(|x|): theta |x|^-p (P_perp - (p-1) P)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise DomainError("kernel Hessian undefined at the origin")
    e = x / r
    pe = np.outer(e, e)
    return theta * r ** (-p) * (np.eye(x.size) - pe - (p - 1.0) * pe)


# ---------------------------------------------------------------------------
# characteristic solver
# ---------------------------------------------------------------------------


def _membership_band(norm: float) -> float:
    return MEMBER_TOL * (1.0 + norm)


def _nan_margin(f: Subequation) -> SolverError:
    return SolverError(f"margin of {f.name} is NaN: its formula overflows here")


def _margin_at(f: Subequation, a: np.ndarray) -> float:
    """f.margin(a) for the solver: a NaN margin (a family formula that
    overflows) is on neither side of the boundary, so it is an error."""
    m = f.margin(a)
    if math.isnan(m):
        raise _nan_margin(f)
    return m


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol}")


def _matrix_pencil(f: Subequation, e: np.ndarray):
    """t -> margin(Id - t P_e), one matrix margin per t; Id - t P_e is
    P_perp - (t-1) P_e.  The root sought is where the map turns negative."""
    p_line = projector_onto(e)
    p_perp = projector_perp(e)
    return lambda t: _margin_at(f, p_perp - (t - 1.0) * p_line)


def _spectral_pencil(f: Subequation, e: np.ndarray):
    """The same map on a list of t >= 1, from two spectra: for t > 0 the
    spectrum of Id - t P_e is spectrum(Id) - t spectrum(P_e) reversed, since
    spectrum(Id) is constant and spectrum(P_e) ascending."""
    spec_id = f.spectrum(np.eye(f.n))
    spec_e = f.spectrum(projector_onto(e))

    def g(ts):
        values = f.eig_margin((spec_id - np.multiply.outer(ts, spec_e))[..., ::-1])
        if np.isnan(values).any():
            raise _nan_margin(f)
        return values.tolist()

    return g


def _check_inside(lo: float, mid: float, hi: float) -> None:
    """A bisection whose midpoint rounds to an end of its bracket would
    never end: tol is below the float spacing there."""
    if not lo < mid < hi:
        raise SolverError(f"bisection stalls at {mid!r}, where floats are {math.ulp(mid):.2g} "
                          "apart: tol is smaller")


def _bisect_sections(g, lo: float, hi: float, tol: float, levels: int):
    """Final bracket [lo, hi] of plain bisection for a decreasing map with
    value >= 0 at lo and < 0 at hi, from one call of g per dyadic section
    of 2^levels parts: g maps the list of the section's interior points,
    each the midpoint plain bisection computes, to the list of their
    values, and plain bisection's steps are replayed on those values.
    With one level this is plain bisection."""
    parts = 1 << levels
    while hi - lo > tol:
        x = [lo] * parts + [hi]
        step = parts
        while step > 1:
            for k in range(step // 2, parts, step):
                x[k] = 0.5 * (x[k - step // 2] + x[k + step // 2])
            step //= 2
        values = g(x[1:-1])
        i, j = 0, parts
        while j - i > 1 and x[j] - x[i] > tol:
            k = (i + j) // 2
            _check_inside(x[i], x[k], x[j])
            if values[k - 1] >= 0.0:
                i = k
            else:
                j = k
        lo, hi = x[i], x[j]
    return lo, hi


def _characteristic(f: Subequation, e: np.ndarray, tol: float):
    """Increasing characteristic of F along e and the bracket width: inf
    when -P_e is a member, exactly 1 when P_perp is on the boundary up to
    the membership band, a SolverError when P_perp is outside beyond it,
    else the root of ``_matrix_pencil`` in [1, hi], with hi = 64 doubled
    while the value at hi is >= 0 and its float spacing is below tol."""
    band = _membership_band(1.0)
    if _margin_at(f, -projector_onto(e)) >= -band:
        return INF, 0.0
    g = _matrix_pencil(f, e)
    g1 = g(1.0)
    if abs(g1) <= band:
        return 1.0, 0.0
    if g1 < 0.0:
        raise SolverError(f"no sign change for {f.name}: margin already negative at 1.0")
    spectral = f.spectrum is not None
    if spectral:
        sections, levels = _spectral_pencil(f, e), SECTION_LEVELS
    else:
        sections, levels = (lambda ts: [g(t) for t in ts]), 1
    hi = P_BRACKET_MAX
    while sections([hi])[0] >= 0.0:
        if math.ulp(2.0 * hi) >= tol:
            raise SolverError(f"no boundary crossing for {f.name} in [1, {hi:.0f}]: a wider "
                              f"bracket would not resolve tol = {tol:g}")
        hi *= 2.0
    lo, hi = _bisect_sections(sections, 1.0, hi, tol, levels)
    if spectral and not g(lo) >= 0.0 > g(hi):
        raise SolverError(f"matrix margins of {f.name} do not confirm its spectral "
                          f"bracket [{lo!r}, {hi!r}]")
    return 0.5 * (lo + hi), hi - lo


def increasing_characteristic(f: Subequation, e=None, tol: float = DEFAULT_TOL,
                              check_directions: int = 0, seed=0):
    """Increasing characteristic of F and the final bracket width (see
    ``_characteristic``).  Each of the ``check_directions`` random
    directions e2 is checked with matrix margins, not solved again: an
    infinite value needs -P_e2 in F up to the membership band, a finite
    one a pencil along e2 that is >= 0 at value - w (unless that is below
    1) and < 0 at value + w, where w = max(10 tol, 1e-9 |value|)."""
    _check_tol(tol)
    if check_directions < 0:
        raise DomainError(f"check_directions must be >= 0, got {check_directions}")
    e = unit_vector(e if e is not None else f.direction())
    value, bracket = _characteristic(f, e, tol)
    if check_directions:
        rng = np.random.default_rng(seed)
        w = max(10.0 * tol, 1e-9 * abs(value))
        for _ in range(check_directions):
            e2 = random_unit_vector(f.n, rng)
            if value == INF:
                holds = _margin_at(f, -projector_onto(e2)) >= -_membership_band(1.0)
            else:
                g = _matrix_pencil(f, e2)
                holds = (value - w < 1.0 or g(value - w) >= 0.0) and g(value + w) < 0.0
            if not holds:
                raise SolverError(f"characteristic depends on direction for {f.name}: "
                                  f"{value} does not hold along e2 = {e2.tolist()}")
    return value, bracket


def decreasing_characteristic(f: Subequation, e=None, tol: float = DEFAULT_TOL):
    """Decreasing characteristic of F and the bracket width: the increasing
    characteristic of the dual, finite exactly when P_e is interior to F."""
    _check_tol(tol)
    e = unit_vector(e if e is not None else f.direction())
    return _characteristic(dual(f), e, tol)


def characteristic_pair(f: Subequation, tol: float = DEFAULT_TOL,
                        check_directions: int = 0, seed=0) -> CharacteristicPair:
    if f.n == 1:
        raise DomainError("characteristic pair needs n >= 2: at n = 1, P_perp = 0 and "
                          "(p-1)(q-1) >= 1 cannot hold")
    if _margin_at(f, -np.eye(f.n)) >= 0.0:
        # a cone subequation with F + P in F contains -Id only if F = Sym(n)
        raise DomainError(f"{f.name} contains -Id, so it is all of Sym(n): its dual is "
                          "empty and has no characteristic")
    p, pb = increasing_characteristic(f, tol=tol, check_directions=check_directions, seed=seed)
    q, qb = decreasing_characteristic(f, tol=tol)
    return CharacteristicPair(p=p, q=q, p_bracket=pb, q_bracket=qb)


def bisection_certificate(f: Subequation, p: float, e=None, tol: float = DEFAULT_TOL) -> dict:
    """Matrix margins at p and p -/+ tol: a monotone-crossing witness.  It
    holds when the margin changes sign across [p - tol, p + tol], with the
    band as rounding slack; the margin at p itself is reported, not judged,
    since its size is the slope of the margin times the distance to the
    root."""
    g = _matrix_pencil(f, unit_vector(e if e is not None else f.direction()))
    below = g(p - tol) if p - tol >= 1.0 else None
    above = g(p + tol)
    band = BOUNDARY_BAND * (1.0 + math.sqrt(f.n - 1.0 + (p - 1.0) ** 2))  # |Id - p P_e|
    return {
        "margin_at": g(p),
        "margin_below": below,
        "margin_above": above,
        "band": band,
        "ok": (below is None or below >= -band) and above <= band,
    }


# ---------------------------------------------------------------------------
# structural verifications
# ---------------------------------------------------------------------------


def radial_harmonic_check(f: Subequation, theta: float, p: float, radii,
                          seed=0, directions: int = 4, tol: float = 1e-8) -> PropertyReport:
    """Kernel Hessians must sit on the boundary of F at every radius."""
    if theta < 0:
        raise DomainError("theta must be >= 0")
    if not math.isfinite(p):
        raise DomainError("needs a finite characteristic")
    rng = np.random.default_rng(seed)
    hessians = [kernel_hessian(theta, p, r * random_unit_vector(f.n, rng))
                for r in radii for _ in range(directions)]
    stack = np.reshape(hessians, (-1, f.n, f.n))
    worst = worst_case(np.abs(f.margin_batch(stack)))
    return PropertyReport(
        name="radial-harmonic",
        sample_count=len(hessians),
        worst_violation=worst,
        tolerance=tol,
        note=f"theta={theta:g}, p={p:g}",
    )


def _boundary_shifts(f: Subequation, a: np.ndarray) -> np.ndarray:
    """Upper ends of the bisection brackets, started at [-10, 10] and halved
    60 times, for the t with A + t Id on the boundary of F, one per matrix
    of the stack.  A spectral F is bisected on spectra: the spectrum of
    A + t Id is spectrum(A) + t spectrum(Id), in the same order."""
    if f.spectrum is not None:
        lams = f.spectrum(a)
        spec_id = f.spectrum(np.eye(f.n))

        def margins(t):
            return f.eig_margin(lams + np.multiply.outer(t, spec_id))
    else:
        eye = np.eye(f.n)

        def margins(t):
            return f.margin_batch(a + t[:, None, None] * eye)

    lo = np.full(len(a), -10.0)
    hi = np.full(len(a), 10.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        inside = margins(mid) >= 0.0
        hi = np.where(inside, mid, hi)
        lo = np.where(inside, lo, mid)
    return hi


def _sandwich_block(f: Subequation, lower: Subequation, upper: Subequation, rng,
                    rows: int) -> tuple:
    """Worst violation and premise hit counts of the next ``rows`` samples
    drawn from ``rng``; the block starts on an even sample."""
    a = np.empty((rows, f.n, f.n))
    jitter = np.empty(rows // 2)
    for i in range(rows):
        a[i] = random_symmetric(f.n, rng)
        if i % 2 == 1:
            jitter[i // 2] = rng.uniform(-0.05, 0.05)
    # slide the odd samples to the F-boundary along the identity ray, then jitter
    odd = a[1::2]
    a[1::2] = odd + (_boundary_shifts(f, odd) + jitter)[:, None, None] * np.eye(f.n)
    m_f = f.margin_batch(a)
    lower_hit = lower.margin_batch(a) >= 0.0
    member = m_f >= 0.0
    worst = worst_case([np.where(lower_hit, -m_f, 0.0),
                        np.where(member, -upper.margin_batch(a), 0.0)])
    return worst, int(lower_hit.sum()), int(member.sum())


def sandwich_check(f: Subequation, p: float, sample_count: int = 1000, seed=0,
                   tol: float = 1e-8) -> PropertyReport:
    """Inclusion test min-2(p) inside F inside min-max(p) on seeded samples.

    Half of the samples are raw Gaussians, half are recentred near the
    boundary of F along the identity ray, where a wrong characteristic
    shows up immediately.  Samples are drawn and checked in blocks of at
    most SAMPLE_BLOCK_ROWS.
    """
    require_samples(sample_count)
    lower = builtin("min-2", f.n, p=p)
    upper = builtin("min-max", f.n, p=p)
    rng = np.random.default_rng(seed)
    blocks = [_sandwich_block(f, lower, upper, rng, min(SAMPLE_BLOCK_ROWS, sample_count - start))
              for start in range(0, sample_count, SAMPLE_BLOCK_ROWS)]
    worst = worst_case([b[0] for b in blocks])
    return PropertyReport(
        name="sandwich",
        sample_count=sample_count,
        worst_violation=worst,
        tolerance=tol,
        note=f"p={p:g}, lower premise hit {sum(b[1] for b in blocks)}, "
             f"member hit {sum(b[2] for b in blocks)}",
    )
