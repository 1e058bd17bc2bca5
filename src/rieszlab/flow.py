"""Scalar fields, spherical/volume averages, tangential flows, densities
and their cross-relations, plus the built-in example fields.

Every average (M, S and V, scalar or curve) comes from one sweep,
`average_curves` over `_shell_rows`: after checking each radius, it reads
every shell the request needs once -- the curve radii for M and S, then
the node radii behind V (`_volume_ladder`).  M has one hook, the field's
certified maxima (`ScalarField.maxima`), read at every curve radius in one
call; a closed form is a certificate whose two ends are equal.

A kernel sum sum_k w_k K(|x - c_k|) (`riesz`, `newtonian`) reads no sphere
point.  The mean of one term over a sphere depends only on its radius and
the centre's distance, a 1-D integral in the polar angle (`_sphere_means`):
S and V read those means, and the half curve is the rule with half the
nodes, so the noise bound is the rule's error estimate.  Its maximum is a
concave one on the span of the centres' offsets, certified at every radius
(`_kernel_sum_maxima`): the attained maximum, with its gap and rounding in
the M bracket.

Any other field is sampled on a seeded low-discrepancy sphere point set
shared across all radii of a run, in blocks of at most `SHELL_BLOCK`
values.  Sharing the point set makes quotients of exactly
scale-homogeneous fields exact (the quadrature error cancels), and the
noise bound of M, S and V alike comes from comparing against the first
half of the sample.  M is the field's certified max, which no sampled
shell may exceed, or else the sampled maximum of the shell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from ._numerics import check_sobol_dim, gauss_jacobi, ndtri, sobol
from .errors import DomainError, NumericalError
from .linalg import row_norms
from .radial import (KernelSpec, density_estimate, density_radii, geometric_radii, kernel,
                     kernel_hessian, quotients, weighted_kernel, weighted_kernel_of_square)
from .subeq import PropertyReport, fmt_param, integral, require_tol

CLIP_FLOOR = -1e12
MAX_CLIPPED_FRACTION = 1e-3
# nodes of the volume ladder in the innermost ball and per annulus
JACOBI_NODES = 32
ANNULUS_NODES = 8
# values per block of sampled sphere shells: bounds their arrays
SHELL_BLOCK = 1 << 16
# sphere points per set, 16 times the largest default: 2^20 points at n = 16
# peak at about 165 MB of RSS while they are drawn (the finished set is 128 MiB)
QUAD_SIZE_MAX = 1 << 20
# sphere points drawn per block: bounds the draw's temporaries, so a set
# peaks at little more than its own array
QUAD_BLOCK = 1 << 10
# relative radius step of the backward difference behind the mass density
MASS_FD_STEP = 1e-3
# the polar-angle rule of the exact sphere means (`_sphere_means`): Gauss
# nodes per panel (the coarse rule takes half), the ratio of the panels
# graded toward the angle 0 below pi/2, and their smallest edge
MEAN_NODES = 24
MEAN_RATIO = 0.2
MEAN_FLOOR = 1e-18
MEAN_LEVELS = math.ceil(math.log(0.5 * math.pi / MEAN_FLOOR) / math.log(1.0 / MEAN_RATIO))


def unit_ball_volume(k: float) -> float:
    """Volume of the unit ball in dimension k (real k >= 0 allowed)."""
    if k < 0:
        raise DomainError("dimension must be >= 0")
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)


def sphere_surface_area(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def harnack_constant(n: int) -> float:
    """1 / phi(1/e) with phi(lam) = (1 - lam) / (1 + lam)^(n-1)."""
    lam = 1.0 / math.e
    return (1.0 + lam) ** (n - 1) / (1.0 - lam)


@lru_cache(maxsize=32)
def harnack_sup_constant(p: float, n: int) -> float:
    """Best constant in the two-sided max/spherical density comparison: 1
    over the grid maximum of lam^(p-2) phi(lam) above p = 2, below it of psi
    = A lam^(2-p) - expm1(ln A), A = 1 / phi, on log-spaced nodes as well
    (psi peaks near ((2-p)/n)^(1/(p-1)), below any fixed node as p -> 1).
    Where no node is positive the peak underflows: C(p, n) is inf."""
    lams = np.linspace(1e-6, 1.0 - 1e-6, 20001)
    if p > 2.0:
        c = float(np.max(lams ** (p - 2.0) * ((1.0 - lams) / (1.0 + lams) ** (n - 1))))
    elif p < 2.0:
        lams = np.concatenate([np.geomspace(np.finfo(float).tiny, lams[-1], 8192), lams])
        log_a = (n - 1) * np.log1p(lams) - np.log1p(-lams)
        c = float(np.max(np.exp(log_a) * lams ** (2.0 - p) - np.expm1(log_a)))
    else:
        return 1.0
    return 1.0 / c if c > 0.0 else math.inf


# ---------------------------------------------------------------------------
# sphere quadrature
# ---------------------------------------------------------------------------


def default_quad_size(n: int) -> int:
    """Sphere points per shell: 4096 up to n = 4, doubling at n = 5, 9 and 13.
    Beyond n = 16 the Sobol table refuses the dimension."""
    return 4096 if n <= 4 else 16384 if n <= 8 else 32768 if n <= 12 else 65536


class SphereQuad:
    """Seeded low-discrepancy point set on the unit sphere, equal weights.

    Points come from a scrambled Sobol sequence mapped through the
    inverse Gaussian CDF and normalized.  The first half of the set is,
    bit for bit, the set of half the size and the same seed, which gives
    the doubling self-test behind the reported noise bounds.

    The points are drawn on their first read, every input having been
    checked at construction: a field whose averages are exact builds a set
    and never pays for it.  The set is drawn into its preallocated array in
    blocks of at most `QUAD_BLOCK` points, each from its own Sobol index
    range; every operation is per point, so the floats are those of one
    full-range draw.
    """

    def __init__(self, n: int, size: int | None = None, seed: int = 0):
        if n < 2:
            raise DomainError("sphere quadrature needs n >= 2")
        check_sobol_dim(n)
        self.n = n
        self.size = (default_quad_size(n) if size is None
                     else integral("sphere quadrature", "size", size))
        if self.size < 8:
            raise DomainError("quadrature size too small")
        if self.size & (self.size - 1):
            raise DomainError(f"quadrature size must be a power of two (Sobol balance), "
                              f"got {self.size}")
        if self.size > QUAD_SIZE_MAX:
            raise DomainError(f"quadrature size must be at most 2^20, 16 times the largest "
                              f"default, got {self.size}")
        self.seed = integral("sphere quadrature", "seed", seed)
        if self.seed < 0:
            raise DomainError(f"sphere quadrature needs a seed >= 0, got {seed}")

    @cached_property
    def points(self) -> np.ndarray:
        points = np.empty((self.size, self.n))
        for start in range(0, self.size, QUAD_BLOCK):
            stop = min(start + QUAD_BLOCK, self.size)
            u = np.clip(sobol(self.n, stop, self.seed, start), 1e-15, 1.0 - 1e-15)
            g = ndtri(u)
            norms = row_norms(g)
            norms[norms == 0.0] = 1.0
            np.divide(g, norms[:, None], out=points[start:stop])
        return points


@lru_cache(maxsize=32)
def sphere_quad(n: int, size: int | None = None, seed: int = 0) -> SphereQuad:
    return SphereQuad(n, size, seed)


def _volume_ladder(n: int, p: float, radii: np.ndarray, inner: int, per_annulus: int):
    """(shells, combine): the node radii of V(r_j) over the radii r_0 > r_1
    > ..., the inner nodes first and then each annulus from the outermost
    in, and the map from their sphere means to V.  V(r_min) = n int_0^1
    rho^(n+1-p) [rho^(p-2) S(rho r_min)] drho by the Gauss-Jacobi rule for
    rho^(n+1-p), exact for the centred kernel up to p < n + 2; then V(r_j)
    = (r_{j+1}/r_j)^n V(r_{j+1}) + n r_j^-n int t^(n-1) S(t) dt over
    [r_{j+1}, r_j] by Gauss-Legendre (Jacobi for rho^0); each rule summed
    by `math.fsum`.  `average_curves` also takes the ladder of half the
    nodes on the two deepest radii: the gap of its deepest quotient to the
    full ladder's is the curve's `quadrature_error`, to which it adds the
    rounding bound of `_quotient_rounding`, read from this ladder applied
    to the shells' means of absolute values (every weight is positive)."""
    rho, w_inner = gauss_jacobi(inner, n + 1.0 - p)
    x, w = gauss_jacobi(per_annulus, 0.0)
    steps = radii[1:] / radii[:-1]  # r_{j+1} / r_j
    tau = steps[:, None] + (1.0 - steps[:, None]) * x  # annulus node t / r_j
    shells = np.concatenate([rho * radii[-1], (radii[:-1, None] * tau).ravel()])
    inner_weights = n * w_inner * rho ** (p - 2.0)
    annulus_weights = n * (1.0 - steps[:, None]) * w * tau ** (n - 1)

    def combine(means):
        annuli = means[inner:].reshape(-1, per_annulus)
        volume = [math.fsum(inner_weights * means[:inner])]
        for j in range(radii.size - 2, -1, -1):
            volume.append(steps[j] ** n * volume[-1] + math.fsum(annulus_weights[j] * annuli[j]))
        return np.array(volume[::-1])

    return shells, combine


@lru_cache(maxsize=32)
def _polar_panels(n: int, p: float):
    """(angles, log weights, slacks), one row per panel of the polar angle
    theta (one value per panel for the slacks): the MEAN_NODES Gauss nodes
    of the fine rule, in increasing order, then the half as many of the
    coarse rule.  The log weight of a node is that of the rule
    times sin^(n-2) theta over the integral of sin^(n-2) on (0, pi), so a
    sum of weights times values is a sphere mean.  Row 0 is (pi/2, pi);
    row 1 + j is the graded panel (pi/2 r^(j+1), pi/2 r^j), r = MEAN_RATIO,
    for j < MEAN_LEVELS; row 1 + MEAN_LEVELS + j is the innermost panel
    (0, pi/2 r^j), j <= MEAN_LEVELS.  Below p = n + 1 a last row holds
    (0, pi/2) by the Gauss-Jacobi rule for theta^(n-p), whose log weights
    divide that power out: the panel of a sphere through the pole.

    A log weight is a sum of at most five parts (the log of the rule's
    weight times the panel's length, or on the last row the logs of pi/2,
    of the weight and -(n-p) log x; (n-2) log sin theta; the
    normalization).  Each part is within 2 eps of its magnitude, plus n + 10
    eps over all of them, and four additions round within 4 eps times the
    sum of the magnitudes.  So the slack of a panel, 6 times the largest
    such sum of its fine nodes plus n + 10, bounds in units of eps the
    rounding of a node's log weight plus the log weight's magnitude, which
    bounds the rounding of its addition to the kernel's exponent
    (`_sphere_means`)."""
    top = 0.5 * math.pi
    grades = top * MEAN_RATIO ** np.arange(MEAN_LEVELS + 1)
    lo = np.concatenate([[top], grades[1:], np.zeros(MEAN_LEVELS + 1)])
    hi = np.concatenate([[math.pi], grades[:-1], grades])
    x, w = (np.concatenate(parts) for parts in zip(gauss_jacobi(MEAN_NODES, 0.0),
                                                     gauss_jacobi(MEAN_NODES // 2, 0.0)))
    angles = lo[:, None] + (hi - lo)[:, None] * x
    logs = np.log((hi - lo)[:, None] * w)
    sizes = np.abs(logs)  # the sum of the parts' magnitudes
    if p < n + 1.0:
        beta = n - p
        x, w = (np.concatenate(parts) for parts in zip(gauss_jacobi(MEAN_NODES, beta),
                                                         gauss_jacobi(MEAN_NODES // 2, beta)))
        angles = np.vstack([angles, top * x])
        logs = np.vstack([logs, math.log(top) + np.log(w) - beta * np.log(x)])
        sizes = np.vstack([sizes, abs(math.log(top)) + np.abs(np.log(w))
                           + beta * np.abs(np.log(x))])
    norm = 0.5 * math.log(math.pi) + math.lgamma((n - 1) / 2.0) - math.lgamma(n / 2.0)
    sines = (n - 2.0) * np.log(np.sin(angles))
    logs += sines - norm
    slacks = 6.0 * (sizes + np.abs(sines))[:, :MEAN_NODES].max(axis=1) + 6.0 * abs(norm) + n + 10.0
    for table in (angles, logs, slacks):
        table.flags.writeable = False
    return angles, logs, slacks


def _check_far(spec: KernelSpec, d: float, r: float = 0.0):
    """Refuse at p <= 2 a squared distance that overflows: that of a kernel
    centre at distance d from x0, or, where the radius r is larger, that of
    the sphere of radius r about x0."""
    if spec.p > 2.0:
        return
    if r > d:
        raise DomainError(f"the sphere of radius {r:.6g} about x0 is refused at p <= 2: its "
                          f"squared distance to a kernel centre overflows")
    raise DomainError(f"the sphere mean of a kernel centre at distance {d:.6g} from x0 "
                      f"is refused at p <= 2: its squared distance overflows")


def _sphere_means(spec: KernelSpec, n: int, weight: float, d: float, radii: np.ndarray):
    """(fine, coarse, absolute, rounding): the means of weight * K(|x - c|)
    over the spheres of the given radii about x0, where |x0 - c| = d > 0, by
    the fine and coarse polar-angle rule, the fine rule's mean of absolute
    values, and a bound, in units of eps, on the rounding of the fine mean.

    On the sphere of radius r the squared distance to c is q = (r - d)^2 +
    4 r d sin^2(theta/2), whose kernel has its kink at theta ~ |r - d| /
    sqrt(r d): the branch points of q^((2-p)/2) are at +-i k, k = 2
    asinh(|r - d| / (2 sqrt(r d))).  So the panels of `_polar_panels` are
    graded toward theta = 0 until the innermost is within 2k (at least
    MEAN_FLOOR), where the integrand is smooth on the panel's scale; a
    sphere through c (r = d) at p != 2 takes the Gauss-Jacobi panel of the
    power theta^(n-p) in one.  Each node's w K(sqrt(q)) is multiplied by
    its weight in log space (`radial.weighted_kernel_of_square`), so a
    pole's power and a tiny sin^(n-2) theta do not meet as inf times 0;
    each panel's values are summed in a row, then the panels of a radius
    in order (`np.add.reduceat`).  The mean over a sphere through c
    diverges at p >= n + 1: refused.  Where q overflows (d or r beyond
    about 1e154) its rows take q' = q / s^2, s = max(r, d), and add (2 - p)
    ln s to their log weights, so no finite q moves; at p <= 2 such a mean,
    which swamps the kernel's own, is refused.

    The rounding bound takes each node's value as exp(a1 + a2) times the
    normalized weight, a1 = (2 - p)/2 ln q and a2 its log weight.  Let c =
    |2 - p|/2 and L the larger |ln q| at the first and last fine node of
    the panel (q grows with theta, so |a1| <= c L).  q rounds within 7 eps
    relative, so a1 within c (7 + 3 L) eps, and its addition to a2 within
    c L eps more; a2 and its own part of that addition within the panel's
    slack (`_polar_panels`); the exp and the normalization within 4 eps
    more.  At p = 2 the value is (w/2) ln q e^a2, and the 7 eps absolute
    of ln q adds 7/2 |w| eps times the sum of the weights e^a2, the rule's
    mass 1: 4 |w| eps covers it.  A row of q' takes L as the larger
    |ln q'| plus 2 ln s + 1, which also covers the 3 eps more that q'
    rounds and the rounding of its shift.  The sums add their depth times
    the absolute mean: `_sum_depth(MEAN_NODES)` in a panel, one per panel
    after."""
    gap = np.abs(radii - d)
    through = (gap == 0.0) & (spec.p != 2.0)
    if through.any() and not spec.p < n + 1.0:
        raise DomainError(f"the sphere mean of K_{fmt_param(spec.p)} over the sphere of radius "
                          f"{radii[through.argmax()]:.6g} through its pole diverges at "
                          f"p >= n + 1 = {n + 1}")
    angles, logs, slacks = _polar_panels(n, spec.p)
    kink = 2.0 * np.arcsinh(gap / (2.0 * np.sqrt(radii * d)))
    levels = np.ceil(np.log(0.5 * math.pi / np.maximum(2.0 * kink, MEAN_FLOOR))
                     / math.log(1.0 / MEAN_RATIO))
    levels = np.where(through, 0, np.clip(levels, 0, MEAN_LEVELS)).astype(int)
    counts = levels + 2
    starts = np.cumsum(counts) - counts
    # the rows of a radius: (pi/2, pi), its graded panels, its innermost
    position = np.arange(counts.sum()) - np.repeat(starts, counts)
    inner = np.where(through, 2 * MEAN_LEVELS + 2, 1 + MEAN_LEVELS + levels)
    rows = np.where(position == np.repeat(counts - 1, counts), np.repeat(inner, counts), position)
    r = np.repeat(radii, counts)[:, None]
    logs = logs[rows]

    def square(r, d, rows):  # q on the given rows, for a radius r and a distance d
        return np.square(np.sin(0.5 * angles[rows])) * (4.0 * d * r) + np.square(r - d)

    with np.errstate(over="ignore"):  # an overflow is read from `far`
        q = square(r, d, rows)
    far = np.isinf(q).any(axis=1)
    if far.any():  # q = s^2 q' overflows, s = max(r, d): (2 - p) ln s joins the log weights
        _check_far(spec, d, float(r[far][0, 0]))
        s = np.maximum(r[far], d)
        q[far] = square(r[far] / s, d / s, rows[far])
        logs[far] += (2.0 - spec.p) * np.log(s)
    ends = np.maximum(q[:, [0, MEAN_NODES - 1]], np.finfo(float).tiny)
    spread = np.abs(np.log(ends)).max(axis=1)  # L per panel
    spread[far] += 2.0 * np.log(np.maximum(r[far, 0], d)) + 1.0
    values = weighted_kernel_of_square(spec, weight, q, logs)
    fine = values[:, :MEAN_NODES]
    c = 0.5 * abs(2.0 - spec.p)
    absolute = np.abs(fine).sum(axis=1)
    panels = np.stack([fine.sum(axis=1), values[:, MEAN_NODES:].sum(axis=1), absolute,
                       (c * (7.0 + 4.0 * spread) + 4.0 + slacks[rows]) * absolute])
    out = np.add.reduceat(panels, starts, axis=1)
    out[3] += (_sum_depth(MEAN_NODES) + counts) * out[2]
    if c == 0.0:
        out[3] += 4.0 * abs(weight)
    return out


def _ball_argmax(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """argmax over |z| <= 1 of <v, z> - <z, a z> / 2 for stacks of positive
    semidefinite (m, m) a and m-vectors v: z = (a + lam I)^-1 v at the least
    lam with |z| <= 1, by Newton steps on 1/|z(lam)| (concave in lam) from
    eps (tr a + |v|), which keeps the solves regular."""
    eps = np.finfo(float).eps
    lam = eps * (np.trace(a, axis1=1, axis2=2) + np.sqrt(np.square(v).sum(axis=1))) + 1e-300
    lam = lam[:, None, None]
    for _ in range(60):
        shifted = a + lam * np.eye(v.shape[1])
        z = np.linalg.solve(shifted, v[:, :, None])
        size = np.sqrt(np.square(z).sum(axis=1, keepdims=True))
        slope = (z * np.linalg.solve(shifted, z)).sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):  # v = 0: z = 0, no step
            step = np.where(size > 1.0, (size - 1.0) * size ** 2 / slope, 0.0)
        if not (step > eps * lam).any():
            break
        lam += step
    return z[:, :, 0] / np.maximum(1.0, size[:, :, 0])


def _kernel_sum_maxima(spec: KernelSpec, weights: np.ndarray, centers: np.ndarray,
                       x0: np.ndarray) -> Callable:
    """radii -> (3, k): the maximum of F = sum_j w_j K(|x - c_j|) on each
    sphere |x - x0| = r, attained to rounding, an upper end and a bound on
    the rounding of both (`ScalarField.maxima`).

    For x = x0 + r w the squared distances q_j = r^2 + d_j^2 + 2 r d_j <y,
    b_j> are affine in y = Q^T w, Q an orthonormal basis (Gram-Schmidt) of
    the a_j = (x0 - c_j) / d_j, d_j = |x0 - c_j|, of the off-centre terms of
    positive weight, and b_j = Q^T a_j.  As w K(sqrt(q)) is concave in q, F
    is concave in y, and below m = n columns every |y| <= 1 comes from a
    unit w: F(y) is a lower end and F(y) + |grad F| - <grad F, y> (the
    Frank-Wolfe gap) an upper end.  Newton steps from the first term's own
    maximum (on the ray of centres, the maximum; y = 0 where a pole lies
    within rounding of it) go to the maximum of F's quadratic model over
    the ball, halved until F rises by a quarter of the model's rise, until
    the gap is within the rounding bound or no halving rises; at m = n the
    lower end is F there projected onto the sphere.  Centred terms add
    their columns w K(r).  Where (r + d_j)^2 overflows, q / S^2 is read, S
    = max(r, d_j), as in `_sphere_means` (`_check_far`).

    Rounding: each q is within delta = (4 n + 16) eps (r + d_j)^2 of an
    exact point's, where dF/dq is at most `lift` times its value; so a term
    is within dF/dq delta lift and (T + m + 10 + |e|) eps relative (T terms,
    e its kernel's exponent; eps w more at p = 2), its part of the gap
    within twice dF/dq (r + d_j)^2 (that eps plus lift - 1), and the sums a
    few eps more."""
    eps, p, n = np.finfo(float).eps, spec.p, x0.size
    columns = [w for w, c in zip(weights, centers) if not (x0 - c).any()]
    terms = [(w, x0 - c) for w, c in zip(weights, centers) if w and (x0 - c).any()]
    if terms:
        w, a = (np.array(part) for part in zip(*terms))
        d = np.array([math.hypot(*offset) for offset in a])
        a /= np.abs(a).max(axis=1, keepdims=True)
        a /= row_norms(a)[:, None]
        basis = np.empty((0, n))
        for v in a:
            v = v - v @ basis.T @ basis
            v = v - v @ basis.T @ basis  # Gram-Schmidt, twice
            if v @ v > (n * eps) ** 2:
                basis = np.vstack([basis, v / math.sqrt(v @ v)])
        b, count = a @ basis.T, len(columns) + len(w) + len(basis)

    def evaluate(radii):
        radii = np.asarray(radii, dtype=float)
        column = np.zeros(radii.size)
        for weight in columns:
            column += weighted_kernel(spec, weight, radii.copy())
        if not terms:
            return np.stack([column, column, (len(columns) + 3) * eps * np.abs(column)])
        with np.errstate(over="ignore"):  # an overflow is read from `far`
            far = np.isinf(np.square(radii[:, None] + d))
        if far.any():
            j = far.any(axis=0).argmax()
            _check_far(spec, float(d[j]), float(radii[far[:, j]][0]))
        big = np.where(far, np.maximum(radii[:, None], d), 1.0)
        r, dist, log_factor = radii[:, None] / big, d / big, (2.0 - p) * np.log(big)
        reach, base, u = np.square(r + dist), np.square(r) + np.square(dist), 2.0 * r * dist
        u, delta = u[:, :, None] * b, (4 * n + 16) * eps * reach

        def at(y):  # (q, terms, F) at the points y, one per radius
            q = np.maximum(base + np.einsum("ktm,km->kt", u, y), 0.0)
            t = weighted_kernel_of_square(spec, w, q.copy(), log_factor)
            return q, t, column + t.sum(axis=1)

        def slopes(y, q, t, f):  # (gradient, minus d2F/dq2, gap, rounding bound) at y
            with np.errstate(divide="ignore", invalid="ignore"):
                dq = (0.5 * w if p == 2.0 else 0.5 * (2.0 - p) * t) / q  # dF/dq
                grad = np.einsum("kt,ktm->km", dq, u)
                gap = np.sqrt(np.square(grad).sum(axis=1)) - (grad * y).sum(axis=1)
                lift = np.where(q > 2.0 * delta, (q / (q - delta)) ** (0.5 * p), np.inf)
                rel = (count + 10 + np.abs(0.5 * (2.0 - p) * np.log(q) + log_factor)) * eps
                each = (rel * (np.abs(t) + 2.0 * dq * reach) + (eps * w if p == 2.0 else 0.0)
                        + dq * (delta * lift + 2.0 * reach * (lift - 1.0)))
            return grad, 0.5 * p * dq / q, gap, each.sum(axis=1) + eps * (
                count * np.abs(column) + 2.0 * (np.abs(f) + np.abs(gap)))

        y = np.tile(b[0], (radii.size, 1))
        q, t, f = at(y)
        near = ~(np.isfinite(f) & (q > 2.0 * delta).all(axis=1))
        if near.any():  # a pole within rounding of the start: start at the ball's centre
            y[near] = 0.0
            q, t, f = at(y)
        done = np.zeros(radii.size, dtype=bool)
        for attempt in range(51):
            grad, curve, gap, bound = slopes(y, q, t, f)
            done |= ~(gap > bound)
            if done.all() or attempt == 50:
                break
            hess = np.einsum("kt,ktm,ktl->kml", curve, u, u)  # minus the Hessian
            step, live = np.zeros_like(y), ~done
            v = grad + np.einsum("kml,kl->km", hess, y)
            step[live] = _ball_argmax(hess[live], v[live]) - y[live]
            rise = ((grad - 0.5 * np.einsum("kml,kl->km", hess, step)) * step).sum(axis=1)
            length, pending = np.ones(radii.size), ~done
            while pending.any() and length.min() > 1e-12:
                trial = y + length[:, None] * step
                tq, tt, tf = at(trial)
                take = pending & (tf >= f + 0.25 * length * rise)
                y[take], q[take], t[take], f[take] = trial[take], tq[take], tt[take], tf[take]
                pending &= ~take
                length[pending] *= 0.5
            done |= pending
        upper = f + gap
        if len(basis) == n:  # the sphere alone: its point nearest the ball's maximum
            size = np.sqrt(np.square(y).sum(axis=1, keepdims=True))
            y = np.where(size > 0.0, y / np.maximum(size, 1e-300), b[0])
            q, t, f = at(y)
            bound = bound + slopes(y, q, t, f)[3]
        return np.stack([f, upper, bound])

    return evaluate


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------


@dataclass
class ScalarField:
    """Evaluable function on a ball, with declared singular structure.

    ``values`` maps an (m, n) array of points to m values; a non-finite
    value (-inf, or NaN where a zero weight meets a pole) marks a hit on
    the singular set.  ``maxima(x0)``, when set, is M's one hook: it
    returns ``radii -> (3, k)``, called once per curve with all its radii,
    whose rows are the spherical maxima about x0 attained to rounding, an
    upper end of each and a bound on the rounding of both.  A closed form
    is a certificate whose two ends are equal and whose rounding is 0
    (`_closed_form`).  M reads the attained end, with the gap to the upper
    end plus the rounding as its error; a field without the hook reads the
    sampled maximum.  ``means(x0)``, when set, needs ``maxima``: it returns
    ``radii -> (4, k)``, the exact sphere means about x0 at the k radii,
    the same by a coarser rule (the half curve, whose gap is the noise
    bound), an upper bound on the means of absolute values and a bound, in
    units of eps, on the rounding of the means.  A field with both reads no
    sphere point; any other field samples S and V.
    """

    n: int
    values: Callable
    name: str = "field"
    singular_points: tuple = ()
    singular_distance: Callable | None = None
    means: Callable | None = None
    maxima: Callable | None = None

    def at(self, x) -> float:
        x = np.asarray(x, dtype=float).reshape(1, -1)
        return float(self.values(x)[0])

    def distance_to_singular(self, x) -> float:
        """Distance to the nearer of `singular_points` and `singular_distance`."""
        x = np.asarray(x, dtype=float).reshape(-1)
        dist = math.inf
        if self.singular_distance is not None:
            dist = float(self.singular_distance(x.reshape(1, -1))[0])
        if self.singular_points:
            pts = np.asarray(self.singular_points, dtype=float)
            dist = min(dist, float(row_norms(pts - x[None, :]).min()))
        return dist


def _clipped(vals: np.ndarray):
    """vals with each non-finite value, a hit on the singular set, set to
    CLIP_FLOOR, and the number of hits (per row of a 2-D array)."""
    bad = ~np.isfinite(vals)
    if bad.any():
        vals = np.where(bad, CLIP_FLOOR, vals)
    return vals, bad.sum(axis=-1)


# ---------------------------------------------------------------------------
# averages
# ---------------------------------------------------------------------------


def _shell_evaluator(field: ScalarField, x0: np.ndarray, points: np.ndarray) -> Callable:
    """radii -> (k, m) field values at x0 + s * points, one row per radius s."""
    return lambda radii: np.stack([field.values(x0[None, :] + s * points) for s in radii])


def _refuse_shell(r: float):
    raise DomainError(f"every sphere sample at radius {r:.6g} is non-finite (float overflow "
                      f"or the singular set)")


def _maxima(radii: np.ndarray, vals: np.ndarray, upper=None) -> tuple:
    """(M, leading-half M) at the k radii from the sampled (k, m) shells
    vals: the maxima of the rows and of their leading halves, whose gap the
    half-set noise bound reads.  Given the certified upper ends `upper`
    (`ScalarField.maxima`), no row maximum may pass one by more than 1e-6
    (1 + |upper|).  A non-finite value, a hit on the singular set, is read
    as -inf, so it never stands for a maximum (a CLIP_FLOOR value could
    exceed every finite one); the values are scanned for one only where a
    row maximum is not finite, and a shell whose samples are all non-finite
    is refused."""
    tops = vals.max(axis=1)
    if not np.isfinite(tops).all():
        vals = np.where(np.isfinite(vals), vals, -np.inf)
        tops = vals.max(axis=1)
        empty = tops == -np.inf
        if empty.any():
            _refuse_shell(radii[empty.argmax()])
    if upper is not None:
        over = tops > upper + 1e-6 * (1.0 + np.abs(upper))
        if over.any():
            i = over.argmax()
            raise NumericalError(f"sampled spherical max {float(tops[i])} exceeds certified "
                                 f"max {float(upper[i])}")
    return tops, vals[:, :vals.shape[1] // 2].max(axis=1)


def _certified(radii: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """(M, leading-half M, M's error) from certified maxima (`ScalarField.
    maxima`): the attained end for both, with its gap to the upper end plus
    the rounding as the error.  A maximum that is not finite is refused."""
    lower, upper, rounding = bounds
    bad = ~np.isfinite(bounds).all(axis=0)
    if bad.any():
        raise DomainError(f"the spherical max at radius {radii[bad.argmax()]:.6g} is not finite")
    return np.stack([lower, lower, upper - lower + rounding])


def _closed_form(curve: Callable) -> Callable:
    """`ScalarField.maxima` of the closed form curve(x0, radii) -> (k,):
    both ends the closed form, rounding 0."""
    return lambda x0: lambda radii: np.array([curve(x0, radii)] * 2 + [np.zeros(len(radii))])


def _sum_depth(size: int) -> int:
    """Additions deep of numpy's pairwise sum of `size` values: size/8 + 2
    up to 128 values (eight running sums), one more for each doubling
    beyond."""
    return size // 8 + 2 if size <= 128 else size.bit_length() + 10


def _shell_rows(field: ScalarField, x0: np.ndarray, quad: SphereQuad, radii: np.ndarray,
                maxima: int, means_from: int = 0):
    """(means, leading-half means, means of absolute values, rounding, hits,
    maxima, depth) of the sphere shells about x0 of the given radii, each
    read once; the maxima are the (3, `maxima`) rows of M, leading-half M
    and M's error at the first `maxima` radii only.  A mean is within eps
    (depth times its mean of absolute values plus its rounding) of the
    exact sum behind it (`_quotient_rounding`).

    A field with certified maxima (`ScalarField.maxima`) reads them in one
    call (`_certified`): M is the attained end, its own half curve, with
    error upper - attained + rounding.  A field without them reads M as
    the sampled maximum (`_maxima`), with error 0.  A field with exact
    means (`ScalarField.means`) reads no sphere point: one call gives its
    means at the radii from index `means_from` on (those before are read
    for M only, and their means are NaN), the coarse rule standing for the
    half means, with their own rounding bound, depth 0 and no hit.
    Otherwise every shell is sampled, in one pass of blocks of at most
    SHELL_BLOCK values, with the depth of numpy's row sums and rounding 0;
    the leading half of the points is the set of half the size, and no
    sampled M shell may pass a certified upper end.  The values are
    scanned and clipped (`_clipped`) only in a block with a non-finite row
    sum, the maxima reading them before the clip; a shell whose row sum
    still overflows, or whose samples are all non-finite, is refused."""
    rows = np.full((4, radii.size), np.nan)
    hits = np.zeros(radii.size, dtype=int)
    if field.means is not None and means_from < radii.size:
        rows[:, means_from:] = field.means(x0)(radii[means_from:])
    bounds, tops = None, np.zeros((3, maxima))
    if field.maxima is not None and maxima:
        bounds = field.maxima(x0)(radii[:maxima])
        tops = _certified(radii[:maxima], bounds)
    if field.means is not None:
        return (*rows, hits, tops, 0)
    size, half = quad.size, quad.size // 2
    rows[3] = 0.0
    evaluate = _shell_evaluator(field, x0, quad.points)
    step = max(1, SHELL_BLOCK // size)
    for lo in range(0, radii.size, step):
        block = radii[lo:lo + step]
        span = slice(lo, lo + block.size)
        vals = evaluate(block)
        top = vals[:max(0, maxima - lo)]
        sums = vals.sum(axis=1)
        if not np.isfinite(sums).all():
            vals, hits[span] = _clipped(vals)
            sums = vals.sum(axis=1)
            refused = ~np.isfinite(sums) | (hits[span] == size)
            if refused.any():
                i = refused.argmax()
                if np.isfinite(sums[i]):
                    _refuse_shell(block[i])
                raise DomainError(f"the sum of the sphere samples at radius "
                                  f"{block[i]:.6g} overflows")
        rows[0, span] = sums / size
        rows[1, span] = vals[:, :half].sum(axis=1) / half
        rows[2, span] = np.abs(vals).sum(axis=1) / size
        if len(top):
            sampled = _maxima(block[:len(top)], top,
                              None if bounds is None else bounds[1, lo:lo + len(top)])
            if bounds is None:
                tops[:2, lo:lo + len(top)] = sampled
    return (*rows, hits, tops, _sum_depth(size))


@dataclass
class AverageCurve:
    kind: str  # "M" | "S" | "V"
    radii: np.ndarray
    values: np.ndarray
    clipped_fraction: float = 0.0
    # the same curve on the leading half of the points (a certified M: the
    # curve itself)
    half_values: np.ndarray | None = None
    # V: the gap of the deepest quotient to the half-order ladder's, plus the
    # bound on its rounding (`_quotient_rounding`); S: that rounding bound; a
    # certified M: the gaps and rounding of the two deepest maxima over
    # |K(r_-2) - K(r_-1)|; 0 else
    quadrature_error: float = 0.0

    def to_csv_rows(self, p: float):
        """(r, value, quotient to the next radius) rows; the last radius has
        no quotient."""
        quots = [*quotients(self.values, self.radii, p), ""]
        return [(float(r), float(v), q) for r, v, q in zip(self.radii, self.values, quots)]


def _quotient_rounding(units: int, k: np.ndarray, magnitudes: np.ndarray,
                       rounding: np.ndarray, q: float) -> float:
    """A bound on the rounding in q = (A_0 - A_1) / (K_0 - K_1), a quotient
    of averages A_i of shell means over the two deepest radii, whose kernel
    values are k: each A_i within eps (`units` times `magnitudes`_i, M_i,
    plus `rounding`_i, R_i) of its exact value.

    For S, A_i is a shell mean, within eps (depth times its mean of
    absolute values plus its rounding) of its exact sum (`_shell_rows`):
    `units` is the depth.  For V, A_i is a `_volume_ladder` sum of products
    of a weight and a shell mean, and M_i and R_i the same ladder of the
    shells' means of absolute values (which bound the absolute terms behind
    A_i whatever their signs, all weights being positive) and rounding.  A
    product with its weight is within (n + 4) eps relative: its node t
    rounds in two operations, which the weight's power t^(n-1) carries n - 1
    times, and the weight, the mean and the product round in a few more;
    so `units` is n + 4 + depth.  With u = units eps, each kernel value
    within eps relative, and the subtraction and division rounding once
    each: |dq| <= (u (M_0 + M_1) + eps (R_0 + R_1) + eps |q| (|K_0| + |K_1|))
    / |K_0 - K_1| + 2 eps |q|."""
    eps = np.finfo(float).eps
    gap = abs(float(k[0] - k[1]))
    return float((units * eps * magnitudes.sum() + eps * rounding.sum()
                  + eps * abs(q) * np.abs(k).sum()) / gap + 2.0 * eps * abs(q))


def _center(field: ScalarField, x0) -> np.ndarray:
    """x0 as a flat float array, checked to be a point of the field's R^n."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != field.n or not np.all(np.isfinite(x0)):
        raise DomainError(f"center must be {field.n} finite coordinates, got {x0.tolist()}")
    return x0


def average_curves(field: ScalarField, kinds: Sequence[str], x0, radii,
                   quad: SphereQuad | None = None, p: float | None = None) -> dict:
    """kind -> AverageCurve, from one `_shell_rows` sweep after checking
    that each radius is positive and finite: M and S share the shell (or
    the exact means) at each radius, and V is the `_volume_ladder` of the
    shells' means (and half means: for exact means, the coarse rule's)."""
    for kind in kinds:
        if kind not in ("M", "S", "V"):
            raise DomainError(f"unknown average kind {kind!r}")
    x0 = _center(field, x0)
    radii = np.asarray(radii, dtype=float)
    for r in radii:
        if not 0.0 < r < math.inf:
            raise DomainError(f"radius must be positive and finite, got {r}")
    quad = quad or sphere_quad(field.n)
    k = radii.size if {"M", "S"} & set(kinds) else 0  # the curve shells lead the sweep
    shells = [radii[:k]]
    if "V" in kinds:
        _check_volume_density(kinds, p, field.n)
        if np.any(np.diff(radii) >= 0.0):
            raise DomainError("a volume average needs strictly decreasing radii")
        ladder, combine = _volume_ladder(field.n, p, radii, JACOBI_NODES, ANNULUS_NODES)
        coarse, combine_coarse = _volume_ladder(field.n, p, radii[-2:], JACOBI_NODES // 2,
                                                ANNULUS_NODES // 2)
        shells += [ladder, coarse]
    means, halves, magnitudes, rounding, hits, maxima, depth = _shell_rows(
        field, x0, quad, np.concatenate(shells), k if "M" in kinds else 0,
        0 if "S" in kinds else k)

    def curve(kind, values, half_values, nhits):
        clipped = int(nhits.sum()) / (nhits.size * quad.size) if nhits.size else 0.0
        return AverageCurve(kind, radii, np.asarray(values), clipped, np.asarray(half_values))

    out = {}
    for kind in kinds:
        if kind == "M":
            out[kind] = AverageCurve(kind, radii, maxima[0], half_values=maxima[1])
            error = maxima[2, -2:].sum()
            if error and p is not None and radii.size > 1:
                k0, k1 = kernel(KernelSpec(p=p), radii[-2:])
                out[kind].quadrature_error = float(error / abs(k0 - k1))
        elif kind == "S":
            out[kind] = curve(kind, means[:k], halves[:k], hits[:k])
            if p is not None and radii.size > 1 and radii[-2] != radii[-1]:
                out[kind].quadrature_error = _quotient_rounding(
                    depth, kernel(KernelSpec(p=p), radii[-2:]), magnitudes[k - 2:k],
                    rounding[k - 2:k], float(quotients(means[k - 2:k], radii[-2:], p)[0]))
        else:
            end = k + ladder.size
            values = combine(means[k:end])
            fine, coarse = quotients(np.stack([values[-2:], combine_coarse(means[end:])]),
                                     radii[-2:], p)
            out[kind] = curve(kind, values, combine(halves[k:end]), hits[k:])
            out[kind].quadrature_error = float(np.abs(fine - coarse).max(initial=0.0))
            if radii.size > 1:
                out[kind].quadrature_error += _quotient_rounding(
                    field.n + 4 + depth, kernel(KernelSpec(p=p), radii[-2:]),
                    combine(magnitudes[k:end])[-2:], combine(rounding[k:end])[-2:],
                    float(fine[0]))
    return out


def spherical_max(field: ScalarField, x0, r: float, quad: SphereQuad | None = None) -> float:
    """Spherical maximum M(u, x0; r): the attained end of the field's
    certified maxima (a closed form where it has one), which no sampled
    shell may pass; else the sampled maximum, which is at most the true
    supremum."""
    return float(average_curves(field, ("M",), x0, [r], quad)["M"].values[0])


# ---------------------------------------------------------------------------
# tangential flow
# ---------------------------------------------------------------------------


def tangent_flow(field: ScalarField, p: float, r: float,
                 quad: SphereQuad | None = None) -> ScalarField:
    """One step of the tangential flow at scale r.

    u_r(x) = r^(p-2) (u(rx) - c) with c = 0 for p > 2, c = M(u, r) for
    p = 2, where the factor is exactly 1, and c = u(0) for p < 2, read
    from the field, which must be finite there.  Where the field has
    certified maxima, the flow's follow the same formula: factor times the
    ends less c, and factor times the rounding.
    """
    KernelSpec(p=p)  # the exponent's check, before any evaluation
    if not 0.0 < r < math.inf:
        raise DomainError(f"flow scale must be positive and finite, got {r}")
    n = field.n
    factor = r ** (p - 2.0)
    if p == 2.0:
        offset = spherical_max(field, np.zeros(n), r, quad)
    elif p < 2.0:
        offset = field.at(np.zeros(n))
        if not math.isfinite(offset):
            raise DomainError("flow with p < 2 needs a finite value at the origin")
    else:
        offset = 0.0

    base_values = field.values

    def values(pts):
        return factor * (base_values(r * np.asarray(pts, dtype=float)) - offset)

    singular = tuple(np.asarray(s, dtype=float) / r for s in field.singular_points)
    sing_dist = None
    if field.singular_distance is not None:
        base_dist = field.singular_distance

        def sing_dist(pts):
            return base_dist(np.asarray(pts, dtype=float) * r) / r

    maxima = None
    if field.maxima is not None:
        base_max = field.maxima

        def maxima(x0):
            evaluate = base_max(x0 * r)
            return lambda radii: factor * (evaluate(radii * r) - [[offset], [offset], [0.0]])

    return ScalarField(
        n=n,
        values=values,
        name=f"flow({field.name},p={fmt_param(p)},r={fmt_param(r)})",
        singular_points=singular,
        singular_distance=sing_dist,
        maxima=maxima,
    )


def flow_invariance_defect(field: ScalarField, p: float,
                           quad: SphereQuad | None = None) -> float:
    """sup |u_r - u| over the spheres of radius 0.5, 1 and 2, for the
    scales r = 0.5 and 2; 0 for exact fixpoints."""
    KernelSpec(p=p)  # the exponent's check, before any evaluation
    quad = quad or sphere_quad(field.n, size=256, seed=3)
    shells = [shell * quad.points for shell in (0.5, 1.0, 2.0)]
    base = [_clipped(field.values(pts))[0] for pts in shells]
    worst = 0.0
    for s in (0.5, 2.0):
        flowed = tangent_flow(field, p, s, quad)
        for pts, a in zip(shells, base):
            b, _ = _clipped(flowed.values(pts))
            worst = max(worst, float(np.abs(a - b).max()))
    return worst


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


@dataclass
class DensityReport:
    p: float
    n: int
    center: np.ndarray
    radii: np.ndarray
    theta: dict          # kind -> estimate
    bracket: dict        # kind -> monotone bracket
    quotients: dict      # kind -> per-scale quotient list
    residuals: dict      # named cross-relation residuals
    harnack_c: float
    noise_bound: float
    clipped_fraction: float
    monotone_defect: float
    monotone_ok: bool
    notes: list = dc_field(default_factory=list)


def default_radii() -> np.ndarray:
    return geometric_radii(1.0, 6)


def _density_radii(radii) -> np.ndarray:
    """Given or default radii, strictly decreasing and at least three."""
    return density_radii(default_radii() if radii is None else radii)


def _check_volume_density(kinds: Sequence[str], p: float | None, n: int) -> None:
    if "V" in kinds and (p is None or not p < n + 2.0):  # the kernel's ball average diverges
        raise DomainError(f"no volume density is defined at p >= n + 2 = {n + 2} "
                          f"or without p, got p = {p}")


def densities(field: ScalarField, x0, p: float, radii=None,
              quad: SphereQuad | None = None,
              kinds: Sequence[str] = ("M", "S", "V")) -> DensityReport:
    """Monotone-quotient density estimates for the requested averages.

    Each estimate is `radial.density_estimate` of the curve's quotients:
    the deepest quotient with the gap to the previous scale as bracket.
    Cross-relations between the spherical and volume densities (and the
    max/spherical comparison) are reported as residuals; quotient
    monotonicity failures are flagged rather than raised, since they
    usually mean the field is not subharmonic for the intended
    constraint or the quadrature is too coarse.

    Each sphere shell is read once: the M and S curves share the shell
    (or the exact means) at each radius, and the noise bound is the
    largest gap between the quotients of a curve and of its half curve,
    over every kind.  For a sampled field the half curve is that of the
    leading half of the points, and the noise bound estimates the
    sampling error.  A field with exact means and maxima (a kernel sum,
    `ScalarField.means`) reads no point, so `quad` (`--quad`, `--seed`)
    changes none of its reports: its S and V half curves are those of the
    coarse rule, whose gap estimates the rule's error.  A certified M (a
    closed form too) is its own half curve.  Each bracket adds its curve's
    `quadrature_error`: for V the ladder's truncation, estimated by the
    half-order ladder, and for V and S the rounding of the deepest
    quotient (for exact means, from each mean's own bound: `_sphere_means`);
    for a certified M its gap and rounding, 0 for a closed form.  So the
    Riesz kernel at theta = 3, p = 2.5, n = 2 reads theta_M = theta_S =
    3.0000000000000004 within brackets that cover the ulp.  Where C(p, n)
    is beyond floats (`harnack_sup_constant`, p -> 1) the note reads inf,
    and `comparison_upper` is left out, as at p = 1.  The kernel is
    computed at the radii once, for the quotients of every curve and half
    curve in one `radial.quotients` call.  The report keeps the curves as
    its `curves` attribute, which is not a field, so the JSON report leaves
    them out.
    """
    KernelSpec(p=p)  # the exponent's check, before any shell is evaluated
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    radii = _density_radii(radii)
    curves = average_curves(field, kinds, x0, radii, quad, p)
    # every curve, then every half curve, in one call: one kernel evaluation
    rows = ([curve.values for curve in curves.values()]
            + [curve.half_values for curve in curves.values()])
    stacked = quotients(np.stack(rows), radii, p) if rows else np.empty((0, radii.size - 1))
    quots = dict(zip(curves, stacked))
    clipped = max((curve.clipped_fraction for curve in curves.values()), default=0.0)
    if clipped > MAX_CLIPPED_FRACTION:
        raise NumericalError(
            f"clipped sample fraction {clipped:.2e} exceeds {MAX_CLIPPED_FRACTION:.0e}"
        )

    # noise bound via the half sample
    noise = float(np.abs(stacked[:len(curves)] - stacked[len(curves):]).max(initial=0.0))

    theta, bracket = {}, {}
    mono_defect = 0.0
    tol_mono = 1e-6 + noise
    for kind in kinds:
        theta[kind], bracket[kind], defect = density_estimate(quots[kind])
        bracket[kind] += curves[kind].quadrature_error
        mono_defect = max(mono_defect, defect)

    residuals = {}
    notes = []
    n = field.n
    if "S" in kinds and "V" in kinds:
        predicted = (n - p + 2.0) / n * theta["V"]  # the factor is exactly 1 at p = 2
        residuals["spherical_vs_volume"] = abs(theta["S"] - predicted) / max(
            abs(theta["S"]), 1e-30
        )
    if "M" in kinds and "S" in kinds:
        if p == 2.0:
            residuals["max_vs_spherical"] = abs(theta["M"] - theta["S"]) / max(
                abs(theta["M"]), 1e-30
            )
        else:
            lo, hi = (theta["M"], theta["S"]) if p > 2.0 else (theta["S"], theta["M"])
            residuals["comparison_lower"] = max(0.0, lo - hi)
            if p > 1.0:
                # at p = 1 the upper comparison fails even for linear fields,
                # and a C(p, n) beyond floats (inf) bounds nothing
                c = harnack_sup_constant(p, n)
                notes.append(f"comparison constant C(p,n) = {c:.6g}")
                if c < math.inf:
                    residuals["comparison_upper"] = max(0.0, hi - c * lo)

    mono_ok = mono_defect <= tol_mono
    if not mono_ok:
        notes.append("not F-subharmonic or quadrature too coarse")
    report = DensityReport(
        p=p,
        n=n,
        center=x0,
        radii=radii,
        theta=theta,
        bracket=bracket,
        quotients=quots,
        residuals=residuals,
        harnack_c=harnack_constant(n),
        noise_bound=noise,
        clipped_fraction=clipped,
        monotone_defect=mono_defect,
        monotone_ok=mono_ok,
        notes=notes,
    )
    report.curves = curves
    return report


# ---------------------------------------------------------------------------
# mass density
# ---------------------------------------------------------------------------


@dataclass
class MassDensityReport:
    p: float
    n: int
    radii: np.ndarray
    ball_masses: np.ndarray
    theta_mass: float
    bracket: float
    spherical_residual: float
    warning: str = ""


def mass_density(field: ScalarField, x0, p: float, radii=None,
                 quad: SphereQuad | None = None) -> MassDensityReport:
    """Mass density of the distributional Laplacian via the flux formula.

    The ball mass is mu(B_r) = |S^(n-1)| r^(n-1) dS/dr with S the
    spherical average, dS/dr a backward difference of relative step
    MASS_FD_STEP; the (n-p)-density divides by alpha(n-p) r^(n-p).
    The spherical residual compares against the universal constant
    linking the spherical and mass densities.
    """
    n = field.n
    if n < 3:
        raise DomainError("mass density needs n >= 3")
    KernelSpec(p=p)  # the exponent's check, before any shell is evaluated
    k = n - p
    if k < 0:
        raise DomainError("mass density needs p <= n")
    radii = _density_radii(radii)
    both = np.concatenate([radii, radii * (1.0 - MASS_FD_STEP)])
    s_curve, s_lo = np.split(average_curves(field, ("S",), x0, both, quad)["S"].values, 2)
    deriv = (s_curve - s_lo) / (radii * MASS_FD_STEP)
    masses = sphere_surface_area(n) * radii ** (n - 1) * deriv

    alpha = unit_ball_volume(k)
    estimates = masses / (alpha * radii**k)
    theta_mass = float(estimates[-1])
    tail = estimates[-3:]
    bracket = float(tail.max() - tail.min())
    warning = ""
    diffs = np.diff(estimates)
    if np.any(diffs[:-1] * diffs[1:] < 0):
        warning = "oscillating finite-difference derivative; bracket widened"
        bracket = float(estimates.max() - estimates.min())

    # spherical density from the same curve for the cross-relation
    theta_s = float(quotients(s_curve, radii, p)[-1])
    const = alpha / (n * abs(p - 2.0) * unit_ball_volume(n)) if p != 2.0 else alpha / (
        n * unit_ball_volume(n)
    )
    predicted = const * theta_mass
    residual = abs(theta_s - predicted) / max(abs(theta_s), 1e-30)

    return MassDensityReport(
        p=p,
        n=n,
        radii=radii,
        ball_masses=masses,
        theta_mass=theta_mass,
        bracket=bracket,
        spherical_residual=residual,
        warning=warning,
    )


# ---------------------------------------------------------------------------
# flow experiments
# ---------------------------------------------------------------------------


@dataclass
class FlowSpec:
    """Exponent and flow-scale schedule of a tangent experiment."""

    p: float
    radii: np.ndarray = None

    def __post_init__(self):
        if self.radii is None:
            self.radii = geometric_radii(1.0, 11)
        self.radii = np.asarray(self.radii, dtype=float)
        if self.radii.size == 0 or not np.all((self.radii > 0.0) & (self.radii < math.inf)):
            raise DomainError(f"flow radii must be positive and finite, got "
                              f"{self.radii.tolist()}")
        if np.any(np.diff(self.radii) >= 0.0):
            raise DomainError("flow radii must be strictly decreasing")


def comparison_grid(spec: FlowSpec, n: int) -> np.ndarray:
    """Eight geometric shells of 256 sphere points each: the annulus
    0.5 <= |x| <= 2 for p >= 2; for p < 2 the shells 0.05 <= |x| <= 1 and
    the origin."""
    quad = sphere_quad(n, size=256, seed=7)
    if spec.p >= 2.0:
        shells = np.geomspace(0.5, 2.0, 8)
    else:
        shells = np.geomspace(0.05, 1.0, 8)
    pts = (shells[:, None, None] * quad.points[None, :, :]).reshape(-1, n)
    if spec.p < 2.0:
        pts = np.vstack([pts, np.zeros(n)])
    return pts


def _grid_distance(u_vals, v_vals, pts, metric: str, beta: float | None, rng) -> float:
    diff = u_vals - v_vals
    if metric == "l1":
        return float(np.abs(diff).mean())
    if metric == "sup":
        return float(np.abs(diff).max())
    if metric == "holder":
        ii, jj, gaps = _grid_pairs(pts, rng, 512)
        return float(np.abs(diff).max() + _pair_quotient(diff, ii, jj, gaps ** beta))
    raise DomainError(f"unknown metric {metric!r}")


def _grid_pairs(pts, rng, pairs: int):
    """(ii, jj, gaps): `pairs` index pairs of grid points drawn from rng,
    leaving out pairs of equal points, and the distances |x_i - x_j|."""
    k = pts.shape[0]
    ii = rng.integers(0, k, size=pairs)
    jj = rng.integers(0, k, size=pairs)
    keep = ii != jj
    ii, jj = ii[keep], jj[keep]
    gaps = row_norms(pts[ii] - pts[jj])
    keep = gaps > 0
    return ii[keep], jj[keep], gaps[keep]


def _pair_quotient(values, ii, jj, scale) -> float:
    """Max over the pairs of |u(x_i) - u(x_j)| / scale, where scale is
    |x_i - x_j|^alpha for a Hoelder quotient of exponent alpha."""
    return float((np.abs(values[ii] - values[jj]) / scale).max())


@dataclass
class ConvergenceRecord:
    metric: str
    radii: np.ndarray
    distances: np.ndarray
    converged: bool
    tolerance: float
    holder_seminorms: np.ndarray | None = None
    holder_bound: float | None = None
    holder_bound_ok: bool | None = None


def tangent_experiment(field: ScalarField, spec: FlowSpec, candidate: ScalarField,
                       metric: str = "sup", tol: float = 1e-3,
                       beta: float | None = None,
                       quad: SphereQuad | None = None) -> ConvergenceRecord:
    """Distances from the flowed field to a candidate tangent.

    Converged means the distance at the deepest scale is below `tol`.
    For p < 2 the grid Hoelder seminorms of the flowed fields (the max
    two-point quotient of exponent 2 - p over 2048 pairs of grid points
    from ``default_rng(11)``) are recorded together with the asymptotic
    bound by the max-density.  The seminorm pairs, their gaps and
    gaps^(2-p) are drawn and computed once per experiment and read at
    every radius; the Hoelder metric draws its 512 pairs per radius from
    the experiment's own stream, ``default_rng(13)``.
    """
    require_tol(tol)
    p = spec.p
    KernelSpec(p=p)  # the exponent's check, before any evaluation
    if candidate.n != field.n:
        raise DomainError(f"candidate lives on R^{candidate.n}, the field on R^{field.n}")
    if metric == "holder":
        if not p < 2.0:
            raise DomainError("the Hoelder metric needs p < 2")
        if beta is None or not 0.0 < beta < 2.0 - p:
            raise DomainError("the Hoelder metric needs 0 < beta < 2 - p")
    pts = comparison_grid(spec, field.n)
    rng = np.random.default_rng(13)
    cand_vals, _ = _clipped(candidate.values(pts))
    distances = []
    seminorms = [] if p < 2.0 else None
    if seminorms is not None:
        ii, jj, gaps = _grid_pairs(pts, np.random.default_rng(11), 2048)
        scale = gaps ** (2.0 - p)
    for r in spec.radii:
        flowed = tangent_flow(field, p, r, quad)
        vals, _ = _clipped(flowed.values(pts))
        distances.append(_grid_distance(vals, cand_vals, pts, metric, beta, rng))
        if seminorms is not None:
            seminorms.append(_pair_quotient(vals, ii, jj, scale))
    distances = np.asarray(distances)

    bound = None
    bound_ok = None
    if seminorms is not None:
        seminorms = np.asarray(seminorms)
        rep = densities(field, np.zeros(field.n), p, kinds=("M",), quad=quad)
        bound = rep.theta["M"] + rep.bracket["M"] + rep.noise_bound + 1e-6
        bound_ok = bool(seminorms[-3:].max() <= bound * (1.0 + 1e-3) + 1e-9)
    return ConvergenceRecord(
        metric=metric,
        radii=spec.radii,
        distances=distances,
        converged=bool(distances[-1] <= tol),
        tolerance=tol,
        holder_seminorms=seminorms,
        holder_bound=bound,
        holder_bound_ok=bound_ok,
    )


def averages_of_tangent_check(tangent: ScalarField, p: float, radii=None,
                              quad: SphereQuad | None = None,
                              kinds: Sequence[str] = ("M", "S", "V")) -> PropertyReport:
    """Averages of a flow-invariant field must be exact radial harmonics,
    up to 1e-6.

    For p != 2 each average equals its density times the kernel; for
    p = 2 the max average is exactly theta * log r while the spherical
    and volume constants live in the universal window [-C theta, 0]
    (volume: >= -(C+1) theta).
    """
    spec = KernelSpec(p=p)
    n = tangent.n
    _check_volume_density(kinds, p, n)
    radii = _density_radii(radii)
    defect = flow_invariance_defect(tangent, p, quad=quad or sphere_quad(n))
    worst = 0.0
    note_parts = [f"flow-invariance defect {defect:.2e}"]
    kvals = np.asarray(kernel(spec, radii), dtype=float)
    count = 0
    if p != 2.0:
        curves = average_curves(tangent, kinds, np.zeros(n), radii, quad, p)
        for kind in kinds:
            curve = curves[kind]
            theta_k = curve.values[0] / kvals[0]
            rel = np.abs(curve.values - theta_k * kvals) / np.maximum(np.abs(kvals), 1e-30)
            worst = max(worst, float(rel.max()))
            count += radii.size
            note_parts.append(f"theta_{kind}={theta_k:.6g}")
    else:
        windows = [kind for kind in ("S", "V") if kind in kinds]
        curves = average_curves(tangent, ("M", *windows), np.zeros(n), radii, quad, p)
        c_const = harnack_constant(n)
        m_curve = curves["M"]
        theta = quotients(m_curve.values, radii, p)[-1]
        worst = max(worst, float(np.abs(m_curve.values - theta * kvals).max()))
        count += radii.size
        note_parts.append(f"theta={theta:.6g}")
        for kind, floor in (("S", -c_const * theta), ("V", -(c_const + 1.0) * theta)):
            if kind not in windows:
                continue
            consts = curves[kind].values - theta * kvals
            # constant across scales, at most 0 and at least the floor
            worst = max(worst, float(consts.max() - consts.min()), float(consts.max()),
                        float(floor - consts.min()))
            count += radii.size
            note_parts.append(f"{kind}-const={consts.mean():.6g} floor={floor:.6g}")
    worst = max(worst, defect)
    return PropertyReport(
        name="averages-of-tangent",
        sample_count=count,
        worst_violation=worst,
        tolerance=1e-6,
        note="; ".join(note_parts),
    )


# ---------------------------------------------------------------------------
# density decay along paths, upper semicontinuity
# ---------------------------------------------------------------------------


@dataclass
class DecayReport:
    path_norms: np.ndarray
    path_thetas: np.ndarray
    center_theta: float
    center_bracket: float
    usc_ok: bool


def density_decay_check(field: ScalarField, x0, path_points, p: float,
                        quad: SphereQuad | None = None, levels: int = 6) -> DecayReport:
    """Volume densities along a path into a singular center.

    Radii at each path point scale with the distance to the singular
    set, so every ball stays inside the smooth region.  The upper
    semicontinuity probe checks limsup theta(path) <= theta(center)
    within brackets.
    """
    x0 = _center(field, x0)
    thetas = []
    norms = []
    for x in path_points:
        x = _center(field, x)
        d = field.distance_to_singular(x)
        if d <= 0.0:
            raise DomainError("path point lies on the singular set")
        rep = densities(field, x, p, radii=geometric_radii(d / 2.0, levels), quad=quad,
                        kinds=("V",))
        thetas.append(rep.theta["V"])
        norms.append(float(np.linalg.norm(x - x0)))

    d0 = min(
        (float(np.linalg.norm(np.asarray(s) - x0)) for s in field.singular_points
         if np.linalg.norm(np.asarray(s) - x0) > 0.0),
        default=1.0,
    )
    rep0 = densities(field, x0, p, radii=geometric_radii(d0 / 2.0, levels), quad=quad,
                     kinds=("V",))
    theta0 = rep0.theta["V"]
    bracket0 = rep0.bracket["V"]
    usc_ok = max(thetas) <= theta0 + bracket0 + 1e-6
    return DecayReport(
        path_norms=np.asarray(norms),
        path_thetas=np.asarray(thetas),
        center_theta=theta0,
        center_bracket=bracket0,
        usc_ok=usc_ok,
    )


# ---------------------------------------------------------------------------
# Hoelder machinery (1 <= p < 2)
# ---------------------------------------------------------------------------


def holder_estimate(field: ScalarField, x0, rho: float, big_r: float, p: float,
                    quad: SphereQuad | None = None) -> float:
    """Hoelder norm on B_rho from the max average at R: a bound to within
    M's gap where M is certified (exact for a closed form), an estimate
    from the sampled maximum otherwise."""
    if not 1.0 <= p < 2.0:
        raise DomainError("Hoelder estimates need 1 <= p < 2")
    alpha = 2.0 - p
    if not (0.0 < 3.0 * rho <= big_r):
        raise DomainError("need 0 < 3 rho <= R")
    x0 = _center(field, x0)
    u0 = field.at(x0)
    if not math.isfinite(u0):
        raise DomainError("field must be finite at the center")
    m_r = spherical_max(field, x0, big_r, quad)
    lead = big_r**alpha / ((big_r - rho) ** alpha - rho**alpha)
    return float(lead * (m_r - u0) / big_r**alpha)


def infinitesimal_holder(field: ScalarField, x0, p: float, radii=None,
                         quad: SphereQuad | None = None) -> float:
    """(M(u, x0, r) - u(x0)) / r^alpha at the deepest radius; decreasing in r.
    A bound to within M's gap where M is certified (exact for a closed
    form), an estimate from the sampled maximum otherwise."""
    if not 1.0 <= p < 2.0:
        raise DomainError("needs 1 <= p < 2")
    alpha = 2.0 - p
    radii = _density_radii(radii)
    x0 = _center(field, x0)
    u0 = field.at(x0)
    r = float(radii[-1])
    return float((spherical_max(field, x0, r, quad) - u0) / r**alpha)


# ---------------------------------------------------------------------------
# built-in example fields
# ---------------------------------------------------------------------------


def _kernel_sum_field(n: int, spec: KernelSpec, weights: np.ndarray, centers: np.ndarray,
                      **meta) -> ScalarField:
    """The field sum_k w_k K(|x - c_k|) with its `means` and `maxima` hooks.

    The means sum, in the terms' order from zeros, each term's exact sphere
    means (`_sphere_means`) at d = |x0 - c| > 0, or its column w K(r) where
    c = x0 (within 3 eps relative: a power or log, and a product); a term
    of weight 0 adds nothing.  Each of the T terms it adds rounds within eps
    times the mean of absolute values of the whole sum, so its rounding
    bound is the terms' bounds plus T times that mean.  A mean, or its
    rounding bound, that is not finite (float overflow) is refused.  The
    maxima are certified (`_kernel_sum_maxima`), on the ray of centres as
    off it: there the certificate's first Newton start is the maximum.
    """
    finite = np.isfinite(centers).all(axis=1)
    if not finite.all():
        raise DomainError(f"kernel center {centers[finite.argmin()].tolist()} is not finite")

    def values(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[0])
        for w, c in zip(weights, centers):
            out += weighted_kernel(spec, w, row_norms(pts - c))
        return out

    def means(x0):
        offsets = [math.hypot(*(x0 - c)) for c in centers]

        def evaluate(radii):
            radii = np.asarray(radii, dtype=float)
            out = np.zeros((4, radii.size))
            terms = 0
            for w, d in zip(weights, offsets):
                if not d:
                    column = weighted_kernel(spec, w, radii.copy())
                    out += [column, column, np.abs(column), 3.0 * np.abs(column)]
                elif w and radii.size:
                    out += _sphere_means(spec, n, w, d, radii)
                else:
                    continue
                terms += 1
            out[3] += terms * out[2]
            bad = ~np.isfinite(out)
            if bad[:3].any():
                i = bad[:3].any(axis=0).argmax()
                raise DomainError(f"the sphere mean at radius {radii[i]:.6g} is not finite "
                                  f"(float overflow)")
            if bad[3].any():
                raise DomainError(f"the rounding bound of the sphere mean at radius "
                                  f"{radii[bad[3].argmax()]:.6g} overflows")
            return out

        return evaluate

    return ScalarField(n=n, values=values, means=means,
                       maxima=partial(_kernel_sum_maxima, spec, weights, centers), **meta)


def riesz_kernel_field(theta: float, p: float, n: int, center=None) -> ScalarField:
    """theta * K_p(|x - c|) in the standard normalization."""
    if not (math.isfinite(theta) and theta >= 0):
        raise DomainError(f"theta must be finite and >= 0, got {theta}")
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float).reshape(-1)
    return _kernel_sum_field(
        n, KernelSpec(p=p), np.array([theta]), c[None, :],
        name=f"riesz(theta={fmt_param(theta)},p={fmt_param(p)})",
        singular_points=(c,),
    )


def log_modulus_coordinate_field(n_complex: int) -> ScalarField:
    """log |z_1| on C^nc, realized on R^(2 nc) with z_k = (x_k, x_{k+nc})."""
    n = 2 * n_complex

    def values(pts):
        pts = np.asarray(pts, dtype=float)
        mod = np.hypot(pts[:, 0], pts[:, n_complex])
        with np.errstate(divide="ignore"):
            return np.log(mod)

    def singular_distance(pts):
        pts = np.asarray(pts, dtype=float)
        return np.hypot(pts[:, 0], pts[:, n_complex])

    return ScalarField(
        n=n,
        values=values,
        name=f"log|z_1| on C^{n_complex}",
        singular_distance=singular_distance,
        maxima=_closed_form(lambda x0, radii: np.array(
            [math.log(math.hypot(x0[0], x0[n_complex]) + r) for r in radii])),
    )


def partial_kernel_field(p: float, m: int, n: int) -> ScalarField:
    """Barred kernel of the first m coordinates: flow-invariant and on the
    min-max boundary off the singular slice."""
    if not 1 <= m < n:
        raise DomainError("need 1 <= m < n")
    spec = KernelSpec(p=p, normalization="barred")

    def values(pts):
        return weighted_kernel(spec, 1.0, row_norms(np.asarray(pts, dtype=float)[:, :m]))

    def singular_distance(pts):
        return row_norms(np.asarray(pts, dtype=float)[:, :m])

    return ScalarField(
        n=n,
        values=values,
        name=f"partial-kernel(p={fmt_param(p)},m={m})",
        singular_distance=singular_distance,
        maxima=_closed_form(lambda x0, radii: kernel(
            spec, float(np.linalg.norm(x0[:m])) + radii)),
    )


def partial_kernel_hessian(p: float, m: int, x) -> np.ndarray:
    """Exact Hessian of the partial kernel at a point off the singular slice.

    The nonzero block is the kernel Hessian within the first m
    coordinates; eigenvalues are -(p-1), 0 (n-m times) and 1 (m-1
    times), all divided by |x_m|^p.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size < m:
        raise DomainError("point has fewer than m coordinates")
    if float(np.linalg.norm(x[:m])) == 0.0:
        raise DomainError("Hessian undefined on the singular slice")
    out = np.zeros((x.size, x.size))
    out[:m, :m] = kernel_hessian(1.0, p, x[:m])
    return out


def newtonian_potential_field(p: float, masses, n: int) -> ScalarField:
    """Sum of weighted kernels theta_i K_p(|x - a_i|) (a discrete-measure
    potential); classically subharmonic for the Laplacian when p <= n."""
    if p > n:
        raise DomainError("potential needs p <= n for subharmonicity")
    spec = KernelSpec(p=p)
    weights = np.asarray([m[0] for m in masses], dtype=float)
    if not np.all(np.isfinite(weights) & (weights >= 0)):
        raise DomainError(f"masses must be finite and >= 0, got {weights.tolist()}")
    centers = np.asarray([np.asarray(m[1], dtype=float) for m in masses])

    singular = tuple(centers[i] for i in range(centers.shape[0]) if weights[i] > 0)
    return _kernel_sum_field(
        n, spec, weights, centers,
        name=f"potential(p={fmt_param(p)},{len(masses)} masses)",
        singular_points=singular,
    )


def max_of_fields(*fields: ScalarField) -> ScalarField:
    """Pointwise maximum; its certified maxima, where every field has them,
    the entrywise maximum of the fields' (3, k) rows."""
    if not fields:
        raise DomainError("need at least one field")
    n = fields[0].n
    if any(f.n != n for f in fields):
        raise DomainError("dimension mismatch")

    def values(pts):
        return np.max(np.stack([f.values(pts) for f in fields]), axis=0)

    maxima = None
    if all(f.maxima is not None for f in fields):

        def maxima(x0):
            parts = [f.maxima(x0) for f in fields]
            return lambda radii: np.max([part(radii) for part in parts], axis=0)

    singular = tuple(s for f in fields for s in f.singular_points)
    dists = [f.singular_distance for f in fields if f.singular_distance is not None]
    sing_dist = None
    if dists:

        def sing_dist(pts):
            return np.min(np.stack([d(pts) for d in dists]), axis=0)

    return ScalarField(
        n=n,
        values=values,
        name="max(" + ",".join(f.name for f in fields) + ")",
        singular_points=singular,
        singular_distance=sing_dist,
        maxima=maxima,
    )


def plus_quadratic_field(base: ScalarField, c: float) -> ScalarField:
    """base + (c/2) |x|^2, the quadratic term from `quadratic_field`."""
    base_values = base.values
    quadratic = quadratic_field(c, base.n).values

    def values(pts):
        return base_values(pts) + quadratic(pts)

    return ScalarField(
        n=base.n,
        values=values,
        name=f"{base.name}+quadratic",
        singular_points=base.singular_points,
        singular_distance=base.singular_distance,
    )


def quadratic_field(a, n: int | None = None) -> ScalarField:
    """Smooth field (1/2) x^T A x (zero density everywhere).

    The values are summed from zeros as the column products (x_i a_ij) x_j
    over the nonzero a_ij in i-major order: on finite points the floats of
    0.5 * np.einsum("mi,ij,mj->m", x, A, x), which adds the same products
    in the same order, its other terms zeros that leave a sum from zeros
    unchanged.  The one exception seen is einsum's own: at n = 2 with one
    or two points it sums a non-diagonal A in another order, and the last
    bit may differ."""
    if np.isscalar(a):
        if n is None:
            raise DomainError("scalar quadratic needs n")
        a = float(a) * np.eye(n)
    a = 0.5 * (np.asarray(a, dtype=float) + np.asarray(a, dtype=float).T)
    n = a.shape[0]
    terms = [(i, j, a[i, j]) for i, j in zip(*np.nonzero(a))]  # i-major

    def values(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[0])
        for i, j, aij in terms:
            out += pts[:, i] * aij * pts[:, j]
        return 0.5 * out

    return ScalarField(
        n=n,
        values=values,
        name="quadratic",
    )


def zero_field(n: int) -> ScalarField:
    return ScalarField(
        n=n,
        values=lambda pts: np.zeros(np.asarray(pts).shape[0]),
        name="zero",
        maxima=_closed_form(lambda x0, radii: np.zeros(len(radii))),
    )
