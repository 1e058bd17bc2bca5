"""Riesz characteristics and kernels.

The increasing characteristic of a spherically-transitive cone
subequation is the unique p with P_{e-perp} - (p-1) P_e = Id - p P_e on
the boundary, e = F.direction(), found by bisection on the margin along
that pencil, on [1, hi] with hi = 64 doubled while the margin there is
still >= 0.  The decreasing characteristic is that of the dual, whose
margin is -margin(-A): one solver serves both sides, in lockstep over F.

Each side replays plain bisection along the path that regula falsi on
its bracket's ends predicts, in rounds: a round asks for every midpoint
of that path at once, and both sides' points make one call, eig_margin
from spectrum(Id) and spectrum(P_e) for a spectral F, whose final bracket
matrix margins must confirm, else a stacked margin call.  The tests at
-P_e, P_perp and the pair's -Id, the confirmations and the pair's pencils
in further directions (two each) are each one stacked margin call.
Kernels come in two normalizations: the `standard` one (plain powers /
log) and the `barred` one whose derivative is r^(1-p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, SolverError
from .linalg import (
    projector_onto,
    projector_perp,
    random_unit_vector,
    symmetrize,
    unit_vector,
)
from .subeq import (MEMBER_TOL, PropertyReport, Subequation, _worst_over_samples, builtin,
                    require_samples, worst_case)

# The characteristic bracket starts as [1, 64]; its upper end doubles while
# the margin there is still >= 0.
P_BRACKET_MAX = 64.0
DEFAULT_TOL = 1e-9
# The solver's membership band: MEMBER_TOL (1 + |P_e|), for a unit projector P_e.
MEMBER_BAND = 2.0 * MEMBER_TOL

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


def _nan_margin(name: str) -> SolverError:
    return SolverError(f"margin of {name} is NaN: its formula overflows here")


def _checked(name: str, m: float) -> float:
    """A margin for the solver: NaN (an overflowing formula) is an error."""
    if math.isnan(m):
        raise _nan_margin(name)
    return m


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol}")


def _side_name(f: Subequation, sign: float) -> str:
    return f.name if sign > 0 else f"dual({f.name})"


def _bisection(lo: float, hi: float, tol: float, lo_value: float, hi_value: float):
    """Plain bisection for a decreasing map with value lo_value >= 0 at lo
    and hi_value < 0 at hi, as a generator of rounds: each round predicts
    the root by regula falsi on the bracket's ends, yields the midpoints
    plain bisection computes on the path to that root down to tol,
    receives their values, replays plain bisection on them up to the first
    whose sign the prediction got wrong and starts again from there.
    Returns the final bracket (lo, hi)."""
    while hi - lo > tol:
        root = lo + (hi - lo) * (lo_value / (lo_value - hi_value))
        path, a, b = [], lo, hi
        while b - a > tol:
            mid = 0.5 * (a + b)
            if not a < mid < b:  # tol is below the float spacing: no end
                break
            path.append(mid)
            a, b = (mid, b) if mid <= root else (a, mid)
        if not path:
            raise SolverError(f"bisection stalls at {mid!r}, where floats are "
                              f"{math.ulp(mid):.2g} apart: tol is smaller")
        values = yield path
        for mid, value in zip(path, values):
            if value >= 0.0:
                lo, lo_value = mid, value
            else:
                hi, hi_value = mid, value
            if (value >= 0.0) != (mid <= root):
                break
    return lo, hi


def _search(name: str, tol: float, perp: float):
    """The final bracket, as a generator like ``_bisection``, of a map with
    value perp >= 0 at 1: [1, 64], its upper end doubled while the value
    there is >= 0 and 2 hi resolves tol."""
    hi = P_BRACKET_MAX
    while (hi_value := (yield [hi])[0]) >= 0.0:
        if math.ulp(2.0 * hi) >= tol:
            raise SolverError(f"no boundary crossing for {name} in [1, {hi:.0f}]: a wider "
                              f"bracket would not resolve tol = {tol:g}")
        hi *= 2.0
    return (yield from _bisection(1.0, hi, tol, perp, hi_value))


def _check_directions(f: Subequation, value: float, tol: float, count: int, seed):
    """Check ``value`` along ``count`` random directions e2 by matrix margins
    (a generator yielding their stack), not by solving again: an infinite
    value needs -P_e2 in F up to the membership band, a finite one a
    pencil along e2 that is >= 0 at value - w (unless that is below 1) and
    < 0 at value + w, where w = max(10 tol, 1e-9 |value|)."""
    rng = np.random.default_rng(seed)
    e2s = [random_unit_vector(f.n, rng) for _ in range(count)]
    w = max(10.0 * tol, 1e-9 * abs(value))
    ts = [INF] if value == INF else [t for t in (value - w, value + w) if t >= 1.0]
    margins = yield np.array([-projector_onto(e2) if value == INF
                              else projector_perp(e2) - (t - 1.0) * projector_onto(e2)
                              for e2 in e2s for t in ts])
    for i, e2 in enumerate(e2s):
        *below, above = margins[i * len(ts):(i + 1) * len(ts)]
        holds = all(_checked(f.name, m) >= 0.0 for m in below)
        if holds:
            above = _checked(f.name, above)
            holds = above >= -MEMBER_BAND if value == INF else above < 0.0
        if not holds:
            raise SolverError(f"characteristic depends on direction for {f.name}: "
                              f"{value} does not hold along e2 = {e2.tolist()}")


def _side(f: Subequation, p_line: np.ndarray, p_perp: np.ndarray, sign: float, tol: float,
          check_directions: int, seed, whole: list):
    """(value, width) of one side along e, sign 1 for F and -1 for its dual,
    as a generator of requests for its margins at a stack of matrices or at
    a list of points t of Id - t P_e: inf when -P_e is a member, exactly 1
    when P_perp is on the boundary up to the membership band, a SolverError
    when P_perp is outside beyond it, else the root found by ``_search``,
    for a spectral F with a final bracket that two matrix margins confirm;
    F's side of a pair refuses an F containing ``whole`` = [-Id]."""
    name = _side_name(f, sign)
    minus_line, perp, *minus_id = yield np.array([-p_line, p_perp, *whole])
    if minus_id and _checked(name, minus_id[0]) >= 0.0:
        # a cone subequation with F + P in F contains -Id only if F = Sym(n)
        raise DomainError(f"{f.name} contains -Id, so it is all of Sym(n): its dual is "
                          "empty and has no characteristic")
    _check_tol(tol)
    if check_directions < 0:
        raise DomainError(f"check_directions must be >= 0, got {check_directions}")
    if _checked(name, minus_line) >= -MEMBER_BAND:
        value, width = INF, 0.0
    elif abs(_checked(name, perp)) <= MEMBER_BAND:
        value, width = 1.0, 0.0
    elif perp < 0.0:
        raise SolverError(f"no sign change for {name}: margin already negative at 1.0")
    else:
        lo, hi = yield from _search(name, tol, perp)
        if f.spectrum is not None:
            lo_margin, hi_margin = yield np.array([p_perp - (t - 1.0) * p_line
                                                   for t in (lo, hi)])
            if not _checked(name, lo_margin) >= 0.0 > _checked(name, hi_margin):
                raise SolverError(f"matrix margins of {name} do not confirm its spectral "
                                  f"bracket [{lo!r}, {hi!r}]")
        value, width = 0.5 * (lo + hi), hi - lo
    if check_directions:
        yield from _check_directions(f, value, tol, check_directions, seed)
    return value, width


def _solve(f: Subequation, tol: float, signs: tuple, check_directions: int = 0,
           seed=0) -> list:
    """[value, width] of each side of ``signs`` (``_side``) along
    e = F.direction(), in lockstep over F alone: each round answers all
    sides' requests in one call, a spectral F's points before matrices.
    All values are evaluated first; errors are raised in the order of one
    side after the other: the pair's -Id refusal, F's side (its direction
    check last), the dual's side."""
    e = unit_vector(f.direction())
    p_line = projector_onto(e)
    p_perp = projector_perp(e)
    sides = {s: _side(f, p_line, p_perp, s, tol, check_directions if s > 0 else 0, seed,
                      [-np.eye(f.n)] if len(signs) == 2 and s > 0 else []) for s in signs}
    results, pending, replies, spectra = {}, {}, dict.fromkeys(signs), None
    while replies:
        for s, reply in replies.items():
            try:
                pending[s] = sides[s].send(reply)
            except StopIteration as stop:
                results[s] = stop.value
            except SolverError as exc:
                results[s] = exc
        asked = {s: r for s, r in pending.items() if isinstance(r, list)}
        if asked and f.spectrum is not None:
            # spectrum(Id - t P_e) is spectrum(Id) - t spectrum(P_e) reversed; the dual's
            # eig_margin negates F's at the negated, unreversed row, as subeq.dual's does
            if spectra is None:
                spectra = f.spectrum(np.array([np.eye(f.n), p_line]))
            rows = [spectra[0] - np.multiply.outer(ts, spectra[1]) for ts in asked.values()]
            values = f.eig_margin(np.concatenate([r[:, ::-1] if s > 0 else -r
                                                  for s, r in zip(asked, rows)]))
        elif pending:
            # without a spectrum, points t are the stack Id - t P_e = P_perp - (t-1) P_e
            asked = pending
            stacks = [p_perp - np.multiply.outer(np.subtract(r, 1.0), p_line)
                      if isinstance(r, list) else r for r in asked.values()]
            values = f.margin(np.concatenate([a if s > 0 else -a
                                              for s, a in zip(asked, stacks)]))
        replies, start = {}, 0
        for s in list(asked):
            r = pending.pop(s)
            part = values[start:start + len(r)]
            replies[s], start = (part if s > 0 else -part).tolist(), start + len(r)
            if isinstance(r, list) and any(map(math.isnan, replies[s])):
                results[s] = _nan_margin(_side_name(f, s))
                del replies[s]
    for s in signs:
        if isinstance(results[s], SolverError):
            raise results[s]
    return [x for s in signs for x in results[s]]


def increasing_characteristic(f: Subequation, tol: float = DEFAULT_TOL):
    """Increasing characteristic of F and the final bracket width along
    F.direction() (see ``_side``)."""
    return tuple(_solve(f, tol, (1.0,)))


def decreasing_characteristic(f: Subequation, tol: float = DEFAULT_TOL):
    """Decreasing characteristic of F and the bracket width: the increasing
    characteristic of the dual, finite exactly when P_e is interior to F."""
    return tuple(_solve(f, tol, (-1.0,)))


def characteristic_pair(f: Subequation, tol: float = DEFAULT_TOL,
                        check_directions: int = 0, seed=0) -> CharacteristicPair:
    """Both characteristics, p checked in further directions (``_check_directions``)."""
    if f.n == 1:
        raise DomainError("characteristic pair needs n >= 2: at n = 1, P_perp = 0 and "
                          "(p-1)(q-1) >= 1 cannot hold")
    p, pb, q, qb = _solve(f, tol, (1.0, -1.0), check_directions, seed)
    return CharacteristicPair(p=p, q=q, p_bracket=pb, q_bracket=qb)


# ---------------------------------------------------------------------------
# structural verifications
# ---------------------------------------------------------------------------


def radial_harmonic_check(f: Subequation, theta: float, p: float, radii,
                          seed=0) -> PropertyReport:
    """Kernel Hessians in 4 random directions must sit on the boundary of F
    at every radius, up to 1e-8."""
    if theta < 0:
        raise DomainError("theta must be >= 0")
    if not math.isfinite(p):
        raise DomainError("needs a finite characteristic")
    rng = np.random.default_rng(seed)
    hessians = [kernel_hessian(theta, p, r * random_unit_vector(f.n, rng))
                for r in radii for _ in range(4)]
    stack = np.reshape(hessians, (-1, f.n, f.n))
    worst = worst_case(np.abs(f.margin(stack)))
    return PropertyReport(
        name="radial-harmonic",
        sample_count=len(hessians),
        worst_violation=worst,
        tolerance=1e-8,
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
            return f.margin(a + t[:, None, None] * eye)

    lo = np.full(len(a), -10.0)
    hi = np.full(len(a), 10.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        inside = margins(mid) >= 0.0
        hi = np.where(inside, mid, hi)
        lo = np.where(inside, lo, mid)
    return hi


def sandwich_check(f: Subequation, p: float, sample_count: int = 1000,
                   seed=0) -> PropertyReport:
    """Inclusion test min-2(p) inside F inside min-max(p) on seeded samples,
    up to 1e-8.

    Sample i is A_i = sym(G_i) for the i-th Gaussian matrix of the suites'
    one stream.  Even samples stay raw; an odd one slides along the identity
    ray onto the boundary of F, where a wrong characteristic shows up
    immediately, then moves off it by 0.05 erf(tr A_i / sqrt(2n)) Id.  A_i
    is a standard Gaussian on Sym(n) in the Frobenius basis, so its trace
    is N(0, n) and independent of its traceless part, which alone fixes the
    boundary point: the jitter is uniform on (-0.05, 0.05) and independent
    of that point, with no further draw.  The note counts the samples that
    met each premise and the odd ones whose boundary was not bracketed.
    An infinite p has no finite sandwich: its report is skipped, once the
    sample count is checked.
    """
    require_samples(sample_count)
    if math.isinf(p):
        return PropertyReport("sandwich", 0, 0.0, 0.0, skipped=True,
                              note="infinite characteristic: no finite sandwich")
    lower = builtin("min-2", f.n, p=p)
    upper = builtin("min-max", f.n, p=p)
    eye = np.eye(f.n)
    hits = [0, 0, 0]  # lower premise, member, unbracketed

    def violations(g):
        a = symmetrize(g[:, 0])
        odd = a[1::2]
        shifts = _boundary_shifts(f, odd)
        jitter = 0.05 * np.array([math.erf(x) for x in
                                  np.trace(odd, axis1=-2, axis2=-1) / math.sqrt(2 * f.n)])
        a[1::2] = odd + (shifts + jitter)[:, None, None] * eye
        m_f = f.margin(a)
        lower_hit = lower.margin(a) >= 0.0
        member = m_f >= 0.0
        hits[0] += int(lower_hit.sum())
        hits[1] += int(member.sum())
        # a bracket end that never moved leaves the shift at exactly -10 or 10
        hits[2] += int(np.count_nonzero(np.abs(shifts) == 10.0))
        return [np.where(lower_hit, -m_f, 0.0), np.where(member, -upper.margin(a), 0.0)]

    worst = _worst_over_samples(seed, sample_count, f.n, 1, violations)
    return PropertyReport(
        name="sandwich",
        sample_count=sample_count,
        worst_violation=worst,
        tolerance=1e-8,
        note=f"p={p:g}, lower premise hit {hits[0]}, member hit {hits[1]}, "
             f"unbracketed {hits[2]}",
    )
