"""Main terms for divisor sums in progressions, via residues at s=1.

The count of n <= X with n = a (mod q), weighted by the k-fold divisor
function, grows like X/q times a polynomial in log X.  That polynomial is
the residue at s=1 of

    X^(s-1)/s  *  zeta(s)^k  *  (local Euler corrections at primes p | q),

and this module extracts it with power series in u = s-1 cut to k terms,
all that a pole of order k reads.  Polynomials in log X are float64 arrays
of coefficients, increasing degree; eval_logpoly evaluates one, or a table.
density_polys builds the class-mass polynomial P(q, delta) of every row
(q, delta | q) of a divisor lattice at once, the mass X*P of the n <= X with
gcd(n, q) = delta, from the local Euler series of the lattice's columns
(built for it, or once for a whole engine run and passed in).  The density
tables of a list of moduli come from one lattice (density_tables), which
m_poly fills for the divisors of q and each check sweep for its moduli.  Three
closely related polynomial families come out of the same residue
(read-only arrays, since caches hand them to every caller):

  ap_main_term(q, a, k)   density polynomial for the class a mod q;
  m_poly(q, k)            its transform over the divisor lattice of q,
                          recovered by the recursion through f(d, d);
  f_star(q, k)            the quadratic mean sum_{d|q} phi(d) M(d)^2 / d^2.

The local factor at v_p(delta) = v_p(q) is taken in its negative-binomial
tail form, which has no cancellation.  Series products are sums in one
fixed order by elementwise ufuncs, with no BLAS call, log p comes from
math.log, and powers are formed by products, so the coefficients are the
same bytes on any BLAS kernel and SIMD level.  Coefficients are double
precision; exactness claims live in the tests.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .arith import DivisorLattice, divisor_lattice, divisors, factorize, prime_power_columns
from .errors import DomainError

# Laurent coefficients of zeta about s=1:  zeta(s) = 1/u + sum_n c_n u^n
# with c_n = (-1)^n g_n / n! and g_n the constants below (25+ digits each, from
# a high-precision Euler-Maclaurin evaluation): g_0..g_6, all that k <= 8 reads.
_STIELTJES = (
    0.5772156649015328606065121,
    -0.0728158454836767248605864,
    -0.0096903631928723184845304,
    0.0020538344203033458661600,
    0.0023253700654673000574682,
    0.0007933238173010627017533,
    -0.0002387693454301996098724,
)
_SERIES_PAIRS = 1 << 12  # pairs per pass of _local_series: a few MB of temporaries at k = 8


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of power series in u along the first axis, truncated to the
    length of a; b is at least as long, and the other axes broadcast.  Each
    coefficient is summed in one fixed order by elementwise ufuncs, with no
    BLAS, so its bytes are the same on any kernel and SIMD level."""
    n = len(a)
    out = a[0] * b[:n]
    for i in range(1, n):
        out[i:] += a[i] * b[: n - i]
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, read-only: cached arrays are handed to every caller."""
    a.flags.writeable = False
    return a


def zeta_power_series(k: int) -> np.ndarray:
    """First k Taylor coefficients of (u zeta(1+u))^k about u=0.

    The pole of zeta(s)^k is u^-k times this series, whose constant term is
    1; k terms need the expansion constants through index k-2.
    """
    if not 1 <= k <= 8:
        raise DomainError(f"fold parameter must lie in 1..8, got {k}")
    base = np.array(
        [1.0] + [(-1.0) ** j * _STIELTJES[j] / math.factorial(j) for j in range(k - 1)]
    )
    out = base
    for _ in range(k - 1):
        out = _mul(out, base)
    return out


def _local_series(columns, k: int) -> np.ndarray:
    """The local factors of the arith.Columns `columns`, as
    local_correction_series defines them: a (k, C + 1) array for C columns,
    whose last column is the series 1.  Built _SERIES_PAIRS pairs at a time
    and elementwise per column, so a column's bytes do not depend on which
    other pairs are built with it.

    With x = p^-s = p^-1 exp(-u log p), the factor at beta < alpha is
    d_k(p^beta) (1 - x)^k x^beta, and at beta = alpha the negative-binomial
    tail
        1 - (1 - x)^k sum_{j<alpha} d_k(p^j) x^j
            = x^alpha sum_{i<k} C(alpha+k-1, alpha+i) x^i (1 - x)^(k-1-i),
    a sum of positive terms at s = 1, however small x^alpha is.
    """
    out = np.eye(k, columns.beta.size + 1, columns.beta.size)
    ends = np.append(columns.first, columns.beta.size)
    for lo in range(0, columns.p.size, _SERIES_PAIRS):
        p, alpha = columns.p[lo : lo + _SERIES_PAIRS], columns.alpha[lo : lo + _SERIES_PAIRS]
        at = slice(ends[lo], ends[lo + p.size])
        pair, beta = columns.pair[at] - lo, columns.beta[at]
        top = max(int(alpha.max()), k)
        # x^j = p^-j exp(-j u log p) for j = 0..top: its u^i coefficient is
        # p^-j (-j log p)^i / i!, each power formed by products
        x = np.empty((k, top + 1, p.size))
        x[0, 0] = 1.0
        x[0, 1:] = 1.0 / p
        x[0] = np.multiply.accumulate(x[0])
        t = -np.arange(top + 1)[:, None] * np.array([math.log(v) for v in p.tolist()])
        for i in range(1, k):
            x[i] = x[i - 1] * t / i
        # y[:, m] = (1 - x)^m for m = 0..k, and comb[a, r] = C(a + k - 1, r)
        y = np.zeros((k, k + 1, p.size))
        y[0] = 1.0
        y[:, 1] -= x[:, 1]
        for m in range(2, k + 1):
            y[:, m] = _mul(y[:, m - 1], y[:, 1])
        comb = np.array([[math.comb(a + k - 1, r) for r in range(k)] for a in range(top + 1)])
        # the tail's sum over i < k, then every factor as a series times x^beta
        terms = _mul(x[:, :k], y[:, k - 1 :: -1]) * comb[alpha].T[::-1]
        tail = terms[:, 0]
        for i in range(1, k):
            tail = tail + terms[:, i]
        left = y[:, k, pair] * comb[beta, k - 1]
        pinned = beta == alpha[pair]
        left[:, pinned] = tail[:, pair[pinned]]
        out[:, at] = _mul(left, x[:, beta, pair])
    return out


@lru_cache(maxsize=None)
def local_correction_series(p: int, alpha: int, beta: int, k: int) -> np.ndarray:
    """Euler factor at p for the series restricted to v_p(n) pinned by (alpha, beta).

    With alpha = v_p(q) and beta = v_p(gcd), the restricted local factor is
        (1 - p^-s)^k * d_k(p^beta) p^(-beta*s)          if beta < alpha,
        1 - (1 - p^-s)^k * sum_{j<alpha} d_k(p^j) p^-js  if beta = alpha,
    as its first k Taylor coefficients about s=1 (read-only, since the
    cache hands the same array to every caller), with d_k(p^j) =
    C(j + k - 1, k - 1).  Value at s=1 is positive.  One column of the
    builder that correction_table runs over a whole lattice.
    """
    if alpha < 1 or beta < 0 or beta > alpha:
        raise DomainError(f"need 0 <= beta <= alpha with alpha >= 1, got ({alpha}, {beta})")
    series = _local_series(prime_power_columns(np.array([p]), np.array([alpha])), k)
    return _frozen(series[:, beta])


def correction_table(lattice: DivisorLattice, k: int, local=None) -> np.ndarray:
    """The correction series of every row (q, delta) of a divisor lattice.

    coeffs[r] holds the first k Taylor coefficients about s=1 of the product
    over p^alpha || q of local_correction_series(p, alpha, v_p(delta), k).
    local is _local_series of the lattice's columns, built here unless the
    caller holds it (an engine run builds it once for all its blocks).  One
    pass per prime rank of q multiplies each row by the series of its column
    there, or by 1 where q has fewer primes.  Built (k, rows), returned
    transposed.
    """
    if local is None:
        local = _local_series(lattice.columns, k)
    one = local.shape[1] - 1  # the column of the series 1
    coeffs = local.take(np.full(len(lattice.delta), one), axis=1)
    for r, (row, column, _) in enumerate(lattice.links):
        at = np.full(len(lattice.delta), one)
        at[row] = column
        series = local.take(at, axis=1)
        coeffs = series if r == 0 else _mul(coeffs, series)
    return coeffs.T


def _local_correction_value(p: int, alpha: int, beta: int, k: int, s: float) -> float:
    """The local factor evaluated directly at a real point s > 1."""
    euler = (1.0 - p**-s) ** k
    if beta < alpha:
        return euler * math.comb(beta + k - 1, k - 1) * p ** (-beta * s)
    return 1.0 - euler * sum(math.comb(j + k - 1, k - 1) * p ** (-j * s) for j in range(alpha))


def correction_value_at(q: int, delta: int, k: int, s: float) -> float:
    """Direct evaluation of the correction product at real s > 1.

    Independent of the series expansion; used to cross-check it against
    brute-force Dirichlet partial sums.
    """
    if delta < 1 or q % delta != 0:
        raise DomainError(f"{delta} does not divide {q}")
    if s <= 1.0:
        raise DomainError("direct evaluation needs s > 1")
    out = 1.0
    for p, alpha in factorize(q):
        beta = 0
        d = delta
        while d % p == 0:
            d //= p
            beta += 1
        out *= _local_correction_value(p, alpha, beta, k, s)
    return out


def eval_logpoly(poly: np.ndarray, x: float) -> np.ndarray | float:
    """Horner evaluation at log x along the last axis of a coefficient array
    (increasing degree): one polynomial, or a (rows, k) table row by row.
    Needs finite x >= 1; at x = 1 it gives the constant term."""
    if not (math.isfinite(x) and x >= 1):
        raise DomainError(f"evaluation point must be finite and >= 1, got {x}")
    t = math.log(x)
    acc = 0.0
    for c in poly.T[::-1]:
        acc = acc * t + c
    return acc


@lru_cache(maxsize=None)
def _pole_series(k: int) -> np.ndarray:
    """g = (u zeta(1+u))^k / (1+u), k terms, read-only."""
    return _frozen(_mul(zeta_power_series(k), np.resize([1.0, -1.0], k)))


def density_polys(lattice: DivisorLattice, k: int, local=None) -> np.ndarray:
    """Residue at s=1 of X^(s-1)/s * zeta(s)^k * C(s), C = correction(q, delta),
    for every row (q, delta) of a divisor lattice: a (rows, k) array of log X
    coefficients, increasing degree.  Row r is the class-mass polynomial
    P(q, delta): the n <= X with gcd(n, q) = delta carry X*P(log X), X*P/phi
    in each of their phi = phi(q/delta) classes, of density f = q/phi * P.

    With g = (u zeta(1+u))^k / (1+u), the residue is the u^(k-1) coefficient
    of X^u C g; so with h = C g, the (log X)^j coefficient is h[k-1-j] / j!.
    local, k terms, passes to correction_table.
    """
    g = _pole_series(k)  # checks k before any table is built
    h = _mul(correction_table(lattice, k, local).T, g[:, None])
    return (h[::-1] / np.array([math.factorial(j) for j in range(k)])[:, None]).T


_TABLES: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def density_tables(moduli, k: int) -> None:
    """Cache the density tables at k of the moduli that lack one, from one
    divisor_lattice and one density_polys, as read-only views of its rows."""
    todo = [q for q in moduli if (q, k) not in _TABLES]
    if not todo:
        return
    lattice = divisor_lattice(todo)
    polys, start = density_polys(lattice, k), lattice.start.tolist()
    order = np.lexsort((lattice.delta, np.arange(len(todo)).repeat(np.diff(start))))
    rows = [_frozen(a[order]) for a in (lattice.delta, lattice.phi, polys)]
    for q, a, b in zip(todo, start, start[1:]):
        _TABLES[q, k] = tuple(r[a:b] for r in rows)


def _residue_polys(q: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The density table of q, read-only: the divisors delta of q ascending,
    phi(q/delta) and the rows P(q, delta); density_tables([q], k) on a miss."""
    if (q, k) not in _TABLES:
        density_tables([q], k)
    return _TABLES[q, k]


def ap_main_term(q: int, a: int, k: int) -> np.ndarray:
    """Density polynomial f(q, a): the class a mod q holds X*f/q of the
    total divisor-function mass up to X, asymptotically.

    f = q/phi(q/delta) * P(q, delta) at delta = gcd(q, a); k coefficients.
    """
    if not 1 <= k <= 8:
        raise DomainError(f"fold parameter must lie in 1..8, got {k}")
    if q < 1 or not 1 <= a <= q:
        raise DomainError(f"need 1 <= a <= q, got a={a}, q={q}")
    delta, phi, polys = _residue_polys(q, k)
    i = np.searchsorted(delta, math.gcd(q, a))
    return _frozen(q / int(phi[i]) * polys[i])


@lru_cache(maxsize=None)
def m_poly(q: int, k: int) -> np.ndarray:
    """Reduced-fraction main-term polynomial M(q), k coefficients in log X.

    Defined through the divisor-lattice recursion
        M(q) = (q/phi(q)) * ( f(q, q) - sum_{d|q, d<q} phi(d) M(d) / d ),
    base M(1) = f(1, 1); the transform f(q, a) = sum_{d|q} c_d(a) M(d) / d
    is verified in the test suite.  density_polys checks k.
    """
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    density_tables(ds := divisors(q), k)  # every table the recursion reads
    acc = ap_main_term(q, q, k)
    # phi(d) for the divisors d of q ascending: phi(q/delta) read backwards
    _, phi, _ = _residue_polys(q, k)
    for d, phi_d in zip(ds[:-1], phi[:0:-1].tolist()):
        acc = acc - (phi_d / d) * m_poly(d, k)
    return _frozen((q / int(phi[0])) * acc)


def f_star(q: int, k: int) -> np.ndarray:
    """Quadratic mean sum_{d|q} phi(d) M(d)^2 / d^2, 2k-1 coefficients."""
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    delta, phi, _ = _residue_polys(q, k)
    m = np.zeros((2 * k - 1, len(delta)))
    m[:k] = np.array([m_poly(d, k) for d in delta.tolist()]).T
    acc = np.zeros(2 * k - 1)
    for d, phi_d, square in zip(delta.tolist(), phi[::-1].tolist(), _mul(m, m).T):
        acc += (phi_d / d**2) * square
    return _frozen(acc)
