"""Numpy ports of the three scipy routines the runtime used to import:
the scrambled Sobol sequence of `scipy.stats.qmc.Sobol`, and the Cephes
`ndtri` and `Gamma` behind `scipy.special`; and the Gauss-Jacobi rule
of the volume averages, held to `scipy.special.roots_jacobi` by the tests.

Each port repeats scipy's arithmetic operation for operation, so its
floats equal scipy's bit for bit (the test suite keeps scipy as the
oracle); importing scipy.stats alone costs about a second per command.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

SOBOL_BITS = 30

# Joe-Kuo direction numbers of dimensions 2..16 (those of scipy's
# `_sobol_direction_numbers.npz`): the primitive polynomial, with its
# leading and trailing ones, and the initial direction numbers m_1..m_deg.
# Dimension 1 has all direction numbers 1.
_SOBOL_POLY = (3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59, 61, 67, 91, 97)
_SOBOL_VINIT = (
    (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13), (1, 1, 5, 5, 17),
    (1, 1, 5, 5, 5), (1, 1, 7, 11, 19), (1, 1, 5, 1, 1), (1, 1, 1, 3, 11),
    (1, 3, 5, 5, 31), (1, 3, 3, 9, 7, 49), (1, 1, 1, 15, 21, 21), (1, 3, 1, 13, 27, 49),
)
SOBOL_MAX_DIM = len(_SOBOL_POLY) + 1


def _direction_numbers(d: int) -> np.ndarray:
    """(d, SOBOL_BITS) direction numbers, column j scaled by 2^(bits-1-j)."""
    v = np.ones((d, SOBOL_BITS), dtype=np.int64)
    for row, (poly, vinit) in enumerate(zip(_SOBOL_POLY[: d - 1], _SOBOL_VINIT), start=1):
        deg = poly.bit_length() - 1
        v[row, :deg] = vinit
        for j in range(deg, SOBOL_BITS):
            new = v[row, j - deg]
            for k in range(deg):
                if (poly >> (deg - 1 - k)) & 1:
                    new ^= v[row, j - k - 1] << (k + 1)
            v[row, j] = new
    return v << np.arange(SOBOL_BITS - 1, -1, -1)


def sobol(d: int, size: int, seed: int) -> np.ndarray:
    """The first `size` points of `qmc.Sobol(d, scramble=True, seed=seed)`:
    LMS + digital-shift scrambling from `default_rng(seed)`, Gray-code order."""
    if not 1 <= d <= SOBOL_MAX_DIM:
        raise DomainError(f"Sobol direction numbers are tabulated for 1 <= d <= {SOBOL_MAX_DIM}, "
                          f"got d = {d}")
    rng = np.random.default_rng(seed)
    bits = SOBOL_BITS
    weights = 1 << np.arange(bits, dtype=np.uint32)
    shift = rng.integers(0, 2, (d, bits), dtype=np.uint32) @ weights
    ltm = np.tril(rng.integers(0, 2, (d, bits, bits), dtype=np.uint32).astype(np.int64))
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    # left matrix scramble: bit (bits-1-r) of a scrambled number is the
    # parity of row r of the matrix against the number's bits, where
    # column c weighs 2^(bits-1-c)
    v = _direction_numbers(d)
    v_bits = (v[:, :, None] >> np.arange(bits - 1, -1, -1)) & 1  # (d, j, c)
    parity = np.einsum("drc,djc->djr", ltm, v_bits) & 1
    sv = (parity << np.arange(bits - 1, -1, -1)).sum(axis=2).astype(np.uint32)
    # point i >= 1 flips the direction number at the lowest zero bit of i - 1
    i = np.arange(size - 1, dtype=np.int64)
    lowest_zero = np.log2((~i) & (i + 1)).astype(np.intp)
    steps = np.concatenate([shift[None, :], sv[:, lowest_zero].T])
    return np.bitwise_xor.accumulate(steps, axis=0) * (1.0 / 2**bits)


# Cephes ndtri: rational approximations of the inverse normal CDF.
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
             1.39312609387279679503E1, -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
             -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
             4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
             1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
             1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
             2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242
# the logarithms are taken with the C library's log, as Cephes does; np.log
# differs from it in the last bit on a few inputs per thousand
_log = np.frompyfunc(math.log, 1, 1)


def _polevl(x, coefs):
    """Horner's rule; on an array, in place on one buffer."""
    out = np.full_like(x, coefs[0]) if isinstance(x, np.ndarray) else coefs[0]
    for c in coefs[1:]:
        out *= x
        out += c
    return out


def _p1evl(x, coefs):
    """_polevl with an implied leading coefficient 1."""
    return _polevl(x, (1.0, *coefs))


def ndtri(u) -> np.ndarray:
    """Inverse of the standard normal CDF on 0 < u < 1, elementwise."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    central = y > _EXP_M2
    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))) * _SQRT_2PI
    tail = ~central
    x = np.sqrt(-2.0 * _log(y[tail]).astype(float))
    x0 = x - _log(x).astype(float) / x
    z = 1.0 / x
    x1 = np.empty_like(x)
    near = x < 8.0  # y > exp(-32)
    x1[near] = z[near] * _polevl(z[near], _NDTRI_P1) / _p1evl(z[near], _NDTRI_Q1)
    x1[~near] = z[~near] * _polevl(z[~near], _NDTRI_P2) / _p1evl(z[~near], _NDTRI_Q2)
    out[tail] = np.where(upper[tail], x0 - x1, x1 - x0)
    return out


# Cephes Gamma on [2, 3): a ratio of polynomials of degree 6 and 7.
_GAMMA_P = (1.60119522476751861407E-4, 1.19135147006586384913E-3, 1.04213797561761569935E-2,
            4.76367800457137231464E-2, 2.07448227648435975150E-1, 4.94214826801497100753E-1,
            9.99999999999999996796E-1)
_GAMMA_Q = (-2.31581873324120129819E-5, 5.39605580493303397842E-4, -4.45641913851797240494E-3,
            1.18139785222060435552E-2, 3.58236398605498653373E-2, -2.34591795718243348568E-1,
            7.14304917030273074085E-2, 1.00000000000000000320E0)
GAMMA_MAX_ARG = 33.0


def gamma(x: float) -> float:
    """Euler's Gamma on 0 < x < 33 (Cephes: recur into [2, 3), then the
    rational approximation)."""
    if not 0.0 < x < GAMMA_MAX_ARG:
        raise DomainError(f"gamma is ported for 0 < x < {GAMMA_MAX_ARG:g}, got {x}")
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 2.0:
        if x < 1e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)


@lru_cache(maxsize=32)
def gauss_jacobi(count: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the count-point Gauss rule for the weight
    rho^beta on (0, 1), beta > -1: the eigenvalues of the Jacobi matrix of
    P^(0, beta) mapped to (0, 1) (Golub-Welsch), and the Christoffel
    weights 1 / sum_k q_k(node)^2 over its orthonormal polynomials q_k,
    scaled to the exact sum 1 / (beta + 1)."""
    if not -1.0 < beta < math.inf:
        raise DomainError(f"a Gauss-Jacobi rule needs a finite weight exponent > -1, got {beta}")
    k = np.arange(1, count, dtype=float)
    s = 2.0 * k + beta
    diag = 0.5 + 0.5 * np.concatenate([[beta / (beta + 2.0)], beta * beta / (s * (s + 2.0))])
    off = np.sqrt(k * k * (k + beta) ** 2 / (s * s * (s + 1.0) * (s - 1.0)))
    # eigenvalues only: the eigenvectors' LAPACK path raised a density
    # command's peak RSS by about 0.45 MB
    nodes = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    q = [np.zeros(count), np.ones(count)]  # q_-1 and q_0 at the nodes, then the recurrence
    for j in range(count - 1):
        q.append(((nodes - diag[j]) * q[-1] - (off[j - 1] if j else 0.0) * q[-2]) / off[j])
    weights = 1.0 / np.sum(np.square(q), axis=0)
    weights *= (1.0 / (beta + 1.0)) / weights.sum()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights
