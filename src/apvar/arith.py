"""Exact elementary number theory.

Factorization (by trial division by the primes up to FACTOR_BOUND: one
integer at a time in `factorize`, a whole block of moduli at once in
`divisor_lattice`, each exponent one division per power), the classical
multiplicative functions (Mobius, Euler phi and its sieve, one pass per
prime, the k-fold divisor function), the primes up to n, Ramanujan sums,
divisor enumeration, the gcd classes of a modulus, and the divisor lattice
of a set of moduli: its rows (q, delta | q) and, one prime rank at a time,
each row's column and link to the row of delta p.  One function lays out
the columns (p, alpha, beta) of prime powers, for a lattice's own or for
every one up to n.  Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError

# factorize and divisor_lattice divide out the primes up to FACTOR_BOUND; a
# cofactor that is still (FACTOR_BOUND + 1)^2 or more would need larger primes.
FACTOR_BOUND = 1 << 20
_UNFACTORED = f"which trial division by the primes up to {FACTOR_BOUND} cannot factor"
# Cofactors times primes in one trial-division pass: 512 KB of int64.
_TRIAL_CELLS = 1 << 16


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor n into prime powers (p, a), a >= 1, with strictly increasing
    primes, by trial division; factorize(1) is the empty list.  A cofactor
    that divisor_lattice refuses is a ResourceError here too."""
    if n < 1:
        raise DomainError(f"cannot factorize {n}")
    out, m, p, top = [], n, 2, min(math.isqrt(n), FACTOR_BOUND)
    steps = itertools.chain((1, 2), itertools.cycle((2, 4)))  # 2, 3, then 6j +- 1
    while p <= top:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            out.append((p, a))
            top = min(math.isqrt(m), FACTOR_BOUND)
        p += next(steps)
    if m >= (FACTOR_BOUND + 1) ** 2:  # every prime up to FACTOR_BOUND is divided out
        raise ResourceError(f"{n} leaves the cofactor {m}, {_UNFACTORED}")
    if m > 1:
        out.append((m, 1))
    return out


def mobius(n: int) -> int:
    """Mobius function: 0 unless n is squarefree, else (-1)^(#prime factors)."""
    fac = factorize(n)
    return 0 if any(a > 1 for _, a in fac) else (-1) ** len(fac)


def euler_phi(n: int) -> int:
    """Euler totient, multiplicative with phi(p^a) = p^a - p^(a-1)."""
    return math.prod(p ** (a - 1) * (p - 1) for p, a in factorize(n))


def totients(n: int) -> np.ndarray:
    """phi(m) for m = 0..n as an int64 array (phi(0) = 0), by one sieve:
    each prime p <= n (primes_up_to) takes one strided pass over its
    multiples, phi[m] -= phi[m] // p, which is exact in any order."""
    if n < 0:
        raise DomainError(f"totient sieve needs n >= 0, got {n}")
    phi = np.arange(n + 1, dtype=np.int64)
    for p in primes_up_to(n).tolist():
        phi[p::p] -= phi[p::p] // p
    return phi


def primes_up_to(n: int) -> np.ndarray:
    """The primes p <= n, ascending, by the sieve of Eratosthenes."""
    composite = np.zeros(n + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, math.isqrt(n) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    return np.flatnonzero(~composite)


def d_k_of(n: int, k: int) -> int:
    """Number of ordered k-tuples of positive integers with product n.

    Multiplicative, with value C(a+k-1, k-1) on p^a.
    """
    if k < 1:
        raise DomainError(f"fold parameter must be >= 1, got {k}")
    return math.prod(math.comb(a + k - 1, k - 1) for _, a in factorize(n))


def d_k_max(x: int, k: int) -> int:
    """The largest d_k(n) over 1 <= n <= x (1 when x < 1).  Moving the exponents
    of n onto the first primes in non-increasing order keeps d_k(n) without
    raising n, so only such n are searched (Ramanujan, "Highly composite numbers", 1915)."""
    primes = [2]  # the first primes, up to the first whose product passes x
    while math.prod(primes) <= x:
        primes.append(next(p for p in itertools.count(primes[-1]) if all(p % q for q in primes)))

    def best(n, i, most):  # max d_k(m / n), m = n p_i^a p_(i+1)^b ... <= x, most >= a >= b ...
        top = 1
        for a in range(1, most + 1):
            if (n := n * primes[i]) > x:  # always at the last prime: n holds all before it
                break
            top = max(top, math.comb(a + k - 1, k - 1) * best(n, i + 1, a))
        return top

    return best(1, 0, x.bit_length() - 1)


def divisors(q: int) -> list[int]:
    """All divisors of q in increasing order."""
    if q < 1:
        raise DomainError(f"divisors undefined for {q}")
    out = [1]
    for p, a in factorize(q):
        out = [d * p**e for d in out for e in range(a + 1)]
    out.sort()
    return out


def gcd_index(divisors) -> np.ndarray:
    """idx with divisors[idx[a - 1]] = gcd(a, q) for a = 1..q, where
    `divisors` lists the divisors of q in any order, so q is the largest.

    The index is filled by divisor slices in ascending order of divisor, so
    the last divisor to reach a is the largest one dividing it.
    """
    idx = np.empty(int(max(divisors)), dtype=np.intp)
    for d, i in sorted(zip(divisors, range(len(divisors)))):
        idx[d - 1 :: d] = i
    return idx


def ramanujan_sum(q: int, n: int) -> int:
    """Sum of e(an/q) over residues a coprime to q; always an integer.

    Evaluated by the divisor formula sum_{d | (q,n)} mu(q/d) * d; the
    exponential sum itself serves only as a test oracle.
    """
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    g = math.gcd(q, n)
    return sum(mobius(q // d) * d for d in divisors(g))


@dataclass(frozen=True)
class Columns:
    """Columns of distinct prime powers p^alpha, alpha + 1 for each in turn,
    one per beta = 0..alpha.  Per pair: p, alpha and its first column; per
    column: its pair, beta, power = p^beta and totient = phi(p^(alpha - beta))."""

    p: np.ndarray
    alpha: np.ndarray
    first: np.ndarray
    pair: np.ndarray
    beta: np.ndarray
    power: np.ndarray
    totient: np.ndarray


def prime_power_columns(p: np.ndarray, alpha: np.ndarray) -> Columns:
    """The Columns of distinct pairs (p, alpha), in the given order."""
    width = alpha + 1
    first = width.cumsum() - width
    pair = np.arange(p.size).repeat(width)
    beta = np.arange(pair.size) - first[pair]
    power = p[pair] ** beta  # p^beta, exact while p^alpha fits int64
    rest = power[(first + alpha)[pair] - beta]  # p^(alpha - beta)
    totient = rest - rest // p[pair]  # phi(p^m) = p^m - p^(m - 1), and 1 at m = 0
    return Columns(p, alpha, first, pair, beta, power, totient)


def columns_up_to(n: int) -> Columns:
    """The columns of every prime power p^alpha <= n: for each prime p <= n
    in turn, alpha = 1, 2, ... while p^alpha <= n."""
    p = primes_up_to(n)
    most, power, live = np.zeros_like(p), p.copy(), p.size
    while live:
        most[:live] += 1
        live = int(np.count_nonzero(power[:live] <= n // p[:live]))  # a prefix
        power[:live] *= p[:live]
    alpha = np.arange(most.sum()) - (most.cumsum() - most).repeat(most) + 1
    return prime_power_columns(p.repeat(most), alpha)


@dataclass(frozen=True)
class DivisorLattice:
    """The pairs (q, delta | q) over a list of moduli, one row each.

    The rows of the i-th modulus q are start[i]:start[i+1], in mixed-radix
    order and not sorted: with stride the product of alpha + 1 over the
    smaller primes of q, row start[i] + t has v_p(delta) = (t // stride) %
    (alpha + 1).  phi[r] = phi(q/delta) counts the residues a mod q with
    gcd(a, q) = delta.  columns holds every p^alpha || q: the lattice's own,
    or an engine run's columns_up_to its largest modulus.

    links[r] = (row, column, up) holds every row of a modulus with more
    than r primes, at its prime of rank r (the (r+1)-th smallest): column
    is (p, alpha, v_p(delta)) there, and up = row + stride is the row of
    delta * p, or -1 where v_p(delta) = alpha.  Each level runs by modulus.
    """

    start: np.ndarray
    delta: np.ndarray
    phi: np.ndarray
    columns: Columns
    links: tuple[tuple[np.ndarray, ...], ...]


def _prime_powers(moduli: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(owner, p, alpha), one row per p^alpha || moduli[owner], by owner and
    then p ascending: trial division of every modulus at once.

    Each pass tests the live cofactors against a run of primes as one
    (cofactors x primes) remainder table.  Each hit's exponent takes one
    division pass per power of p, over the hits that p still divides.  A
    cofactor leaves once it is below (t + 1)^2, with every prime up to t
    divided out of it, so it is 1 or the largest prime of its modulus.
    Primes are sieved in stages, only as far as the live cofactors need, up
    to FACTOR_BOUND: a cofactor of (2^20 + 1)^2 or more is a ResourceError.
    """
    cofactor = moduli.copy()
    live = np.flatnonzero(cofactor >= 4)
    tried = 1  # every prime up to it is divided out of every cofactor
    found = []
    while live.size:
        if tried >= FACTOR_BOUND:
            n, m = int(moduli[live[0]]), int(cofactor[live[0]])
            raise ResourceError(f"modulus {n} leaves the cofactor {m}, {_UNFACTORED}")
        top = min(math.isqrt(int(cofactor[live].max())), FACTOR_BOUND, max(1024, 16 * tried))
        primes = primes_up_to(top)
        primes = primes[primes > tried]
        while primes.size and live.size:
            run, primes = np.split(primes, [max(1, _TRIAL_CELLS // live.size)])
            i, j = np.nonzero(cofactor[live, None] % run == 0)
            owner, p = live[i], run[j]
            rest, alpha, rows = cofactor[owner], np.zeros_like(p), np.arange(p.size)
            while rows.size:
                rest[rows] //= p[rows]
                alpha[rows] += 1
                rows = rows[rest[rows] % p[rows] == 0]
            np.floor_divide.at(cofactor, owner, p**alpha)
            found.append((owner, p, alpha))
            live = live[cofactor[live] >= (int(run[-1]) + 1) ** 2]
        tried = top
        live = live[cofactor[live] >= (tried + 1) ** 2]
    big = np.flatnonzero(cofactor > 1)
    found.append((big, cofactor[big], np.ones_like(big)))
    owner, p, alpha = (np.concatenate(col) for col in zip(*found))
    order = np.argsort(owner, kind="stable")
    return owner[order], p[order], alpha[order]


def divisor_lattice(moduli, columns: Columns | None = None) -> DivisorLattice:
    """The divisor lattice of the given moduli, factored all at once by
    _prime_powers: ResourceError for a modulus that leaves a cofactor of
    (2^20 + 1)^2 or more once the primes up to FACTOR_BOUND are divided out.
    Its columns are those given, columns_up_to(n) with n >= every p^alpha
    that divides a modulus (else DomainError), or its own distinct pairs.

    One pass per prime rank fills delta, phi and that rank's links with the
    divisors of each modulus in mixed-radix order, by one gather of p^beta
    and phi(p^(alpha - beta)) from the columns: with stride the product of
    alpha + 1 over the smaller primes of q, the divisor at position t has
    v_p(delta) = (t // stride) % (alpha + 1), so delta * p sits stride rows
    further on.  The rows stay in that order, with no sort.
    """
    try:
        moduli = np.asarray(moduli, dtype=np.int64)
    except OverflowError as exc:  # a Python int past int64
        raise DomainError("moduli must lie in 1..2^63-1") from exc
    if moduli.size and moduli.min() < 1:
        raise DomainError("moduli must lie in 1..2^63-1")
    owner, p, alpha = _prime_powers(moduli)
    rank = np.arange(owner.size) - np.searchsorted(owner, owner)
    sizes = np.ones(moduli.size, dtype=np.int64)
    np.multiply.at(sizes, owner, alpha + 1)
    start = np.zeros(moduli.size + 1, dtype=np.int64)
    start[1:] = np.cumsum(sizes)
    if columns is None:
        # p < (FACTOR_BOUND + 1)^2 < 2^41 and alpha < 63, so the key is exact
        pairs, pair = np.unique(p * 64 + alpha, return_inverse=True)
        columns = prime_power_columns(pairs // 64, pairs % 64)
    else:  # columns_up_to lists alpha = 1, 2, ... in turn for each p
        pair = np.searchsorted(columns.p, p) + alpha - 1
        listed = (pair < len(columns.p)).all()
        if not listed or (columns.p[pair] != p).any() or (columns.alpha[pair] != alpha).any():
            raise DomainError("the columns lack a prime power that divides a modulus")
    delta = np.ones(start[-1], dtype=np.int64)
    phi = np.ones_like(delta)
    stride = np.ones_like(alpha)
    links = []
    for r in range(int(rank.max(initial=-1)) + 1):
        sel = np.flatnonzero(rank == r)
        if r:
            stride[sel] = stride[sel - 1] * (alpha[sel - 1] + 1)
        size = sizes[owner[sel]]
        position = np.arange(size.sum()) - (size.cumsum() - size).repeat(size)
        at = position + start[owner[sel]].repeat(size)
        step = stride[sel].repeat(size)
        factor = sel.repeat(size)
        alpha_r = alpha[factor]
        beta = position // step % (alpha_r + 1)
        column = columns.first[pair[factor]] + beta
        delta[at] *= columns.power[column]
        phi[at] *= columns.totient[column]
        links.append((at, column, np.where(beta < alpha_r, at + step, -1)))
    return DivisorLattice(start, delta, phi, columns, tuple(links))
