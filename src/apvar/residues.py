"""Main terms for divisor sums in progressions, via residues at s=1.

The count of n <= X with n = a (mod q), weighted by the k-fold divisor
function, grows like X/q times a polynomial in log X.  That polynomial is
the residue at s=1 of

    X^(s-1)/s  *  zeta(s)^k  *  (local Euler corrections at primes p | q),

and this module extracts it with truncated power series (k terms) in
u = s-1.  Polynomials in log X are float64 coefficient arrays, increasing
degree; eval_logpoly evaluates one, or a whole table row by row.
density_polys builds the residue polynomial of every row (q, delta | q) of
a divisor lattice at once, for the variance engine.  Three closely related
polynomial families come out of the same residue (read-only arrays, since
caches hand them to every caller):

  ap_main_term(q, a, k)   density polynomial for the class a mod q;
  m_poly(q, k)            its transform over the divisor lattice of q,
                          recovered by the recursion through f(d, d);
  f_star(q, k)            the quadratic mean sum_{d|q} phi(d) M(d)^2 / d^2.

Coefficients are double precision; exactness claims live in the tests.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .arith import DivisorLattice, d_k_of, divisor_lattice, divisors, euler_phi, factorize
from .errors import DomainError

# Laurent coefficients of zeta about s=1:  zeta(s) = 1/u + sum_n c_n u^n
# with c_n = (-1)^n g_n / n! and g_n the constants below (25+ digits each,
# from a high-precision Euler-Maclaurin evaluation).
_STIELTJES = (
    0.5772156649015328606065121,
    -0.0728158454836767248605864,
    -0.0096903631928723184845304,
    0.0020538344203033458661600,
    0.0023253700654673000574682,
    0.0007933238173010627017533,
    -0.0002387693454301996098724,
    -0.0005272895670577510460741,
    -0.0003521233538030395096021,
    -0.0000343947744180880481779,
    0.0002053328149090647946837,
    0.0002701844395439035266729,
    0.0001672729121051401933535,
    -0.0000274638066037601588600,
    -0.0002092092620592999458371,
    -0.0002834686553202414466429,
)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two power series in u, truncated to the length of a."""
    return np.convolve(a, b)[: len(a)]


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, read-only: cached arrays are handed to every caller."""
    a.flags.writeable = False
    return a


def zeta_power_series(k: int, n: int) -> np.ndarray:
    """First n Taylor coefficients of (u zeta(1+u))^k about u=0.

    The pole of zeta(s)^k is u^-k times this series, whose constant term is
    1; n terms need the expansion constants through index n-2.
    """
    if not 1 <= k <= 8:
        raise DomainError(f"fold parameter must lie in 1..8, got {k}")
    if not 1 <= n <= len(_STIELTJES) + 1:
        raise DomainError(
            f"{n} terms need expansion constants beyond index {len(_STIELTJES) - 1}"
        )
    base = np.array(
        [1.0] + [(-1.0) ** j * _STIELTJES[j] / math.factorial(j) for j in range(n - 1)]
    )
    out = base
    for _ in range(k - 1):
        out = _mul(out, base)
    return out


@lru_cache(maxsize=None)
def local_correction_series(
    p: int, alpha: int, beta: int, k: int, n: int
) -> np.ndarray:
    """Euler factor at p for the series restricted to v_p(n) pinned by (alpha, beta).

    With alpha = v_p(q) and beta = v_p(gcd), the restricted local factor is
        (1 - p^-s)^k * d_k(p^beta) p^(-beta*s)          if beta < alpha,
        1 - (1 - p^-s)^k * sum_{j<alpha} d_k(p^j) p^-js  if beta = alpha,
    as its first n Taylor coefficients about s=1 (read-only, since the
    cache hands the same array to every caller).  Value at s=1 is positive.
    """
    if alpha < 1 or beta < 0 or beta > alpha:
        raise DomainError(f"need 0 <= beta <= alpha with alpha >= 1, got ({alpha}, {beta})")
    terms = np.arange(n)
    fact = np.array([math.factorial(i) for i in range(n)], dtype=float)

    def p_pow(j: int) -> np.ndarray:
        """p^(-j s) = p^-j exp(-j u log p)."""
        return p**-j * (-j * math.log(p)) ** terms / fact

    one_minus = -p_pow(1)
    one_minus[0] += 1.0
    euler = one_minus
    for _ in range(k - 1):
        euler = _mul(euler, one_minus)
    if beta < alpha:
        out = d_k_of(p**beta, k) * _mul(euler, p_pow(beta))
    else:
        out = -_mul(euler, sum(d_k_of(p**j, k) * p_pow(j) for j in range(alpha)))
        out[0] += 1.0
    return _frozen(out)


def _mul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-by-row truncated products of two stacks of power series in u."""
    n = a.shape[1]
    out = np.zeros_like(a)
    for i in range(n):
        out[:, i:] += a[:, i : i + 1] * b[:, : n - i]
    return out


def correction_table(lattice: DivisorLattice, k: int, n: int) -> np.ndarray:
    """The correction series of every row (q, delta) of a divisor lattice.

    coeffs[r] holds the first n Taylor coefficients about s=1 of the product
    over p^alpha || q of local_correction_series(p, alpha, v_p(delta), k, n).
    Each local series is multiplied into all rows that share it at once,
    one prime rank of q per pass.
    """
    coeffs = np.zeros((len(lattice.delta), n))
    coeffs[:, 0] = 1.0
    for r in range(lattice.ranks):
        row, p, alpha, beta, _ = lattice.entries(r)
        _, p_index = np.unique(p, return_inverse=True)
        _, first, which = np.unique(
            (p_index * 64 + alpha) * 64 + beta, return_index=True, return_inverse=True
        )
        local = np.array(
            [
                local_correction_series(int(p[j]), int(alpha[j]), int(beta[j]), k, n)
                for j in first
            ]
        ).reshape(len(first), n)
        coeffs[row] = _mul_rows(coeffs[row], local[which])
    return coeffs


def constrained_dirichlet_correction(q: int, delta: int, k: int, n: int) -> np.ndarray:
    """Product of local factors over p | q so that the Dirichlet series of
    d_k over {n : gcd(n, q) = delta} equals zeta(s)^k times this series
    (first n Taylor coefficients about s=1)."""
    if delta < 1 or q % delta != 0:
        raise DomainError(f"{delta} does not divide {q}")
    lattice = divisor_lattice([q])
    return correction_table(lattice, k, n)[np.searchsorted(lattice.delta, delta)]


def _local_correction_value(p: int, alpha: int, beta: int, k: int, s: float) -> float:
    """The local factor evaluated directly at a real point s > 1."""
    euler = (1.0 - p**-s) ** k
    if beta < alpha:
        return euler * d_k_of(p**beta, k) * p ** (-beta * s)
    return 1.0 - euler * sum(d_k_of(p**j, k) * p ** (-j * s) for j in range(alpha))


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
    for pp in factorize(q):
        beta = 0
        d = delta
        while d % pp.p == 0:
            d //= pp.p
            beta += 1
        out *= _local_correction_value(pp.p, pp.a, beta, k, s)
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


def logpoly_json(poly: np.ndarray, *, k: int, q: int, a: int | None = None) -> dict:
    """JSON-ready mapping with coefficients in increasing degree."""
    out = {"k": k, "q": q}
    if a is not None:
        out["a"] = a
    out["coeffs"] = poly.tolist()
    return out


def density_polys(lattice: DivisorLattice, k: int) -> np.ndarray:
    """Residue at s=1 of X^(s-1)/s * zeta(s)^k * C(s), C = correction(q, delta),
    for every row (q, delta) of a divisor lattice: a (rows, k) array of log X
    coefficients, increasing degree.  Row r times q/phi(q/delta) is the
    density polynomial f(q, delta).

    With g = (u zeta(1+u))^k / (1+u), the residue is the u^(k-1) coefficient
    of X^u C g; so with h = C g, the (log X)^j coefficient is h[k-1-j] / j!.
    """
    coeffs = correction_table(lattice, k, k)
    g = _mul(zeta_power_series(k, k), (-1.0) ** np.arange(k))
    h = _mul_rows(coeffs, np.broadcast_to(g, coeffs.shape))
    return h[:, ::-1] / np.array([math.factorial(j) for j in range(k)], dtype=float)


@lru_cache(maxsize=None)
def _residue_polys(q: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(delta, polys): the divisors of q ascending and their density_polys rows."""
    lattice = divisor_lattice([q])
    return _frozen(lattice.delta), _frozen(density_polys(lattice, k))


def ap_main_term(q: int, a: int, k: int) -> np.ndarray:
    """Density polynomial f(q, a): the class a mod q holds X*f/q of the
    total divisor-function mass up to X, asymptotically.

    Depends on a only through gcd(q, a).  k coefficients in log X.
    """
    if not 1 <= k <= 8:
        raise DomainError(f"fold parameter must lie in 1..8, got {k}")
    if q < 1 or not 1 <= a <= q:
        raise DomainError(f"need 1 <= a <= q, got a={a}, q={q}")
    delta, polys = _residue_polys(q, k)
    g = math.gcd(q, a)
    return _frozen(q / euler_phi(q // g) * polys[np.searchsorted(delta, g)])


@lru_cache(maxsize=None)
def m_poly(q: int, k: int) -> np.ndarray:
    """Reduced-fraction main-term polynomial M(q), k coefficients in log X.

    Defined through the divisor-lattice recursion
        M(q) = (q/phi(q)) * ( f(q, q) - sum_{d|q, d<q} phi(d) M(d) / d ),
    base M(1) = f(1, 1); the transform f(q, a) = sum_{d|q} c_d(a) M(d) / d
    is verified in the test suite.  ap_main_term checks k.
    """
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    acc = ap_main_term(q, q, k)
    for d in divisors(q)[:-1]:
        acc = acc - (euler_phi(d) / d) * m_poly(d, k)
    return _frozen((q / euler_phi(q)) * acc)


def f_star(q: int, k: int) -> np.ndarray:
    """Quadratic mean sum_{d|q} phi(d) M(d)^2 / d^2, 2k-1 coefficients."""
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    acc = np.zeros(2 * k - 1)
    for d in divisors(q):
        m = m_poly(d, k)
        acc += (euler_phi(d) / d**2) * np.convolve(m, m)
    return _frozen(acc)
