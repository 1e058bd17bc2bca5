"""Riesz characteristics and kernels.

The increasing characteristic of a spherically-transitive cone
subequation is the unique p with P_{e-perp} - (p-1) P_e on the boundary;
it is found by bisection on the margin along that matrix pencil.  The
decreasing characteristic is the increasing characteristic of the dual.
Kernels come in two normalizations: the `standard` one (plain powers /
log) and the `barred` one whose first derivative is exactly r^(1-p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, SolverError
from .linalg import (
    fro,
    projector_onto,
    projector_perp,
    random_symmetric,
    random_unit_vector,
    unit_vector,
)
from .subeq import (BOUNDARY_BAND, MEMBER_TOL, SAMPLE_BLOCK_ROWS, PropertyReport, Subequation,
                    builtin, dual, require_samples, worst_case)

P_BRACKET_MAX = 64.0
P_BRACKET_HARD_MAX = 128.0
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

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "p_bracket": self.p_bracket,
            "q_bracket": self.q_bracket,
        }


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
    if np.any(t <= 0.0):
        raise DomainError("kernel arguments must be positive")
    return t


def kernel(spec: KernelSpec, t):
    """Increasing radial kernel; scalar in, scalar out (arrays broadcast)."""
    t = _check_positive(t)
    p = spec.p
    if p == 2.0:
        out = np.log(t)
    elif spec.normalization == "standard":
        out = t ** (2.0 - p) if p < 2.0 else -(t ** (2.0 - p))
    else:
        out = t ** (2.0 - p) / (2.0 - p)
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


def kernel_range(spec: KernelSpec) -> tuple[float, float]:
    """Open interval of attained kernel values."""
    p = spec.p
    if p == 2.0:
        return (-INF, INF)
    return (0.0, INF) if p < 2.0 else (-INF, 0.0)


def kernel_inverse(spec: KernelSpec, s):
    """Radius with kernel(r) = s; DomainError outside the attained range."""
    s = np.asarray(s, dtype=float)
    p = spec.p
    lo, hi = kernel_range(spec)
    if np.any(s <= lo) or np.any(s >= hi):
        raise DomainError(f"value outside kernel range ({lo}, {hi})")
    if p == 2.0:
        out = np.exp(s)
    elif spec.normalization == "standard":
        out = s ** (1.0 / (2.0 - p)) if p < 2.0 else (-s) ** (-1.0 / (p - 2.0))
    else:
        out = ((2.0 - p) * s) ** (1.0 / (2.0 - p))
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


def _margin_at(f: Subequation, a: np.ndarray) -> float:
    """f.margin(a) for the solver: a NaN margin (a family formula that
    overflows) is on neither side of the boundary, so it is an error."""
    m = f.margin(a)
    if math.isnan(m):
        raise SolverError(f"margin of {f.name} is NaN: its formula overflows here")
    return m


def _pencil_margin(f: Subequation, p_perp: np.ndarray, p_line: np.ndarray, pbar: float) -> float:
    return _margin_at(f, p_perp - (pbar - 1.0) * p_line)


def _bisect_decreasing(g, lo: float, hi: float, tol: float):
    """Root of a decreasing g with g(lo) >= 0 > g(hi)."""
    glo, ghi = g(lo), g(hi)
    if glo < 0.0:
        raise SolverError(f"no sign change: margin already negative at {lo}")
    if ghi > 0.0:
        return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), hi - lo


def increasing_characteristic(f: Subequation, e=None, tol: float = DEFAULT_TOL,
                              check_directions: int = 0, seed=0):
    """Increasing characteristic of F and the final bracket width.

    Returns (inf, 0.0) when -P_e is a member (both the membership form
    and its dual restatement are evaluated and must agree), and (1, 0.0)
    when margin(P_perp) is negative only within the membership band.
    Otherwise bisection runs on [1, 64], widening once to 128 before
    failing.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol}")
    e = unit_vector(e if e is not None else f.direction())
    p_line = projector_onto(e)
    p_perp = projector_perp(e)

    m_minus = _margin_at(f, -p_line)
    m_dual = _margin_at(dual(f), p_line)  # equals -m_minus by construction
    band = _membership_band(1.0)
    infinite_primal = m_minus >= -band
    infinite_dual = not (m_dual > band)
    if infinite_primal != infinite_dual:
        raise SolverError(
            "infinity tests disagree: margin(-P_e) = "
            f"{m_minus:.3e}, dual margin(P_e) = {m_dual:.3e}"
        )
    if infinite_primal:
        return INF, 0.0

    def g(pbar):
        return _pencil_margin(f, p_perp, p_line, pbar)

    if -band <= g(1.0) < 0.0:
        # P_perp on the boundary up to rounding: the characteristic is 1
        value, bracket = 1.0, 0.0
    else:
        result = _bisect_decreasing(g, 1.0, P_BRACKET_MAX, tol)
        if result is None:
            result = _bisect_decreasing(g, 1.0, P_BRACKET_HARD_MAX, tol)
        if result is None:
            raise SolverError(
                f"no boundary crossing for {f.name} in [1, {P_BRACKET_HARD_MAX}] "
                "although -P_e is not a member"
            )
        value, bracket = result

    if check_directions:
        rng = np.random.default_rng(seed)
        for _ in range(check_directions):
            e2 = random_unit_vector(f.n, rng)
            v2, _ = increasing_characteristic(f, e2, tol)
            if not math.isclose(v2, value, abs_tol=10.0 * tol):
                raise SolverError(
                    f"characteristic depends on direction for {f.name}: "
                    f"{value} vs {v2}"
                )
    return value, bracket


def decreasing_characteristic(f: Subequation, e=None, tol: float = DEFAULT_TOL,
                              cross_check: bool = True):
    """Decreasing (dual) characteristic of F and the bracket width.

    Finite exactly when P_e is interior.  Cross-checked against the
    increasing characteristic of the dual subequation.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol}")
    e = unit_vector(e if e is not None else f.direction())
    p_line = projector_onto(e)
    p_perp = projector_perp(e)

    band = _membership_band(1.0)
    if _margin_at(f, p_line) <= band:
        value, bracket = INF, 0.0
    else:

        def h(qbar):
            return _margin_at(f, -p_perp + (qbar - 1.0) * p_line)

        if h(1.0) >= -band:
            value, bracket = 1.0, 0.0
        else:
            result = _bisect_decreasing(lambda q: -h(q), 1.0, P_BRACKET_MAX, tol)
            if result is None:
                result = _bisect_decreasing(lambda q: -h(q), 1.0, P_BRACKET_HARD_MAX, tol)
            if result is None:
                raise SolverError(f"no decreasing-boundary crossing for {f.name}")
            value, bracket = result

    if cross_check:
        dual_p, _ = increasing_characteristic(dual(f), e, tol)
        both_inf = math.isinf(value) and math.isinf(dual_p)
        if not both_inf and not math.isclose(dual_p, value, abs_tol=10.0 * tol):
            raise SolverError(
                f"dual route disagrees for {f.name}: q = {value}, p_dual = {dual_p}"
            )
    return value, bracket


def characteristic_pair(f: Subequation, tol: float = DEFAULT_TOL,
                        check_directions: int = 0, seed=0) -> CharacteristicPair:
    if f.n == 1:
        raise DomainError("characteristic pair needs n >= 2: at n = 1, P_perp = 0 and "
                          "(p-1)(q-1) >= 1 cannot hold")
    p, pb = increasing_characteristic(f, tol=tol, check_directions=check_directions, seed=seed)
    q, qb = decreasing_characteristic(f, tol=tol)
    return CharacteristicPair(p=p, q=q, p_bracket=pb, q_bracket=qb)


def bisection_certificate(f: Subequation, p: float, e=None, tol: float = DEFAULT_TOL) -> dict:
    """Margin values at p and p -/+ tol: a monotone-crossing witness."""
    e = unit_vector(e if e is not None else f.direction())
    p_line = projector_onto(e)
    p_perp = projector_perp(e)
    at = _pencil_margin(f, p_perp, p_line, p)
    below = _pencil_margin(f, p_perp, p_line, p - tol) if p - tol >= 1.0 else None
    above = _pencil_margin(f, p_perp, p_line, p + tol)
    scale = 1.0 + fro(p_perp - (p - 1.0) * p_line)
    return {
        "margin_at": at,
        "margin_below": below,
        "margin_above": above,
        "band": BOUNDARY_BAND * scale,
        "ok": abs(at) <= BOUNDARY_BAND * scale
        and (below is None or below >= -BOUNDARY_BAND * scale)
        and above <= BOUNDARY_BAND * scale,
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
        passed=worst <= tol,
        note=f"theta={theta:g}, p={p:g}",
    )


def _boundary_shifts(f: Subequation, a: np.ndarray, steps: int = 60) -> np.ndarray:
    """Upper ends of the bisection brackets, started at [-10, 10], for the
    t with A + t Id on the boundary of F, one per matrix of the stack."""
    eye = np.eye(f.n)
    lo = np.full(len(a), -10.0)
    hi = np.full(len(a), 10.0)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        inside = f.margin_batch(a + mid[:, None, None] * eye) >= 0.0
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
        passed=worst <= tol,
        note=f"p={p:g}, lower premise hit {sum(b[1] for b in blocks)}, "
             f"member hit {sum(b[2] for b in blocks)}",
    )
