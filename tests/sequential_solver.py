"""The sequential characteristic solver, kept as the tests' reference.

Each side is solved on its own: the increasing characteristic by
bisection along Id - t P_e, the decreasing one as the increasing
characteristic of ``subeq.dual(F)``; a spectral F is bisected in dyadic
sections from spectrum(Id) and spectrum(P_e), each side computing them
again, and every matrix margin is its own call.  The solver in
``rieszlab.riesz`` must return the same floats and refuse with the same
errors.
"""

from __future__ import annotations

import math

import numpy as np

from rieszlab.errors import DomainError, SolverError
from rieszlab.linalg import projector_onto, projector_perp, random_unit_vector, unit_vector
from rieszlab.riesz import DEFAULT_TOL, INF, MEMBER_BAND, P_BRACKET_MAX, CharacteristicPair
from rieszlab.subeq import Subequation, dual

# A spectral bisection call evaluates the 31 interior points of a dyadic
# 32-section of the bracket.
SECTION_LEVELS = 5


def _nan_margin(f: Subequation) -> SolverError:
    return SolverError(f"margin of {f.name} is NaN: its formula overflows here")


def _margin_at(f: Subequation, a: np.ndarray) -> float:
    """float(f.margin(a)) for the solver: a NaN margin (a family formula
    that overflows) is on neither side of the boundary, so it is an error."""
    m = float(f.margin(a))
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
    if _margin_at(f, -projector_onto(e)) >= -MEMBER_BAND:
        return INF, 0.0
    g = _matrix_pencil(f, e)
    g1 = g(1.0)
    if abs(g1) <= MEMBER_BAND:
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
                holds = _margin_at(f, -projector_onto(e2)) >= -MEMBER_BAND
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
    return increasing_characteristic(dual(f), e, tol)


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
