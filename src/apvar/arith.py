"""Exact elementary number theory.

Factorization against a smallest-prime-factor table, the classical
multiplicative functions (Mobius, Euler phi, the k-fold divisor function),
Ramanujan sums, and divisor enumeration.  Everything here is exact integer
arithmetic; Python ints never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError

_SPF_LIMIT_MAX = 2**31 - 1  # spf stored as int32


@dataclass(frozen=True)
class PrimePower:
    """A prime p raised to an exponent a >= 1."""

    p: int
    a: int


class FactorTable:
    """Smallest-prime-factor table for 2 <= n <= limit.

    Immutable after construction; safe to share across threads.
    """

    __slots__ = ("limit", "spf")

    def __init__(self, limit: int, spf: np.ndarray):
        self.limit = limit
        self.spf = spf

    def factorize(self, n: int) -> list[PrimePower]:
        return factorize(n, self)


def build_factor_table(limit: int) -> FactorTable:
    """Sieve smallest prime factors for all n up to limit."""
    if limit < 2:
        raise DomainError(f"factor table limit must be >= 2, got {limit}")
    if limit > _SPF_LIMIT_MAX:
        raise ResourceError(f"factor table limit {limit} exceeds int32 range")
    try:
        spf = np.zeros(limit + 1, dtype=np.int32)
    except MemoryError as exc:
        raise ResourceError(
            f"factor table needs ~{4 * (limit + 1)} bytes"
        ) from exc
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    remaining = np.nonzero(spf[2:] == 0)[0] + 2
    spf[remaining] = remaining
    return FactorTable(limit, spf)


def _factorize_trial(n: int) -> list[PrimePower]:
    """Trial-division fallback for arguments without a table."""
    out = []
    m = n
    for p in (2, 3):
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            out.append(PrimePower(p, a))
    p = 5
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            out.append(PrimePower(p, a))
        p += 2 if p % 6 == 5 else 4
    if m > 1:
        out.append(PrimePower(m, 1))
    return out


def factorize(n: int, table: FactorTable | None = None) -> list[PrimePower]:
    """Factor n into prime powers with strictly increasing primes.

    factorize(1) is the empty list.  With a table, n must not exceed
    table.limit; without one, plain trial division is used.
    """
    if n < 1:
        raise DomainError(f"cannot factorize {n}")
    if n == 1:
        return []
    if table is None:
        return _factorize_trial(n)
    if n > table.limit:
        raise DomainError(f"{n} exceeds factor table limit {table.limit}")
    spf = table.spf
    out = []
    m = n
    while m > 1:
        p = int(spf[m])
        a = 0
        while m % p == 0:
            m //= p
            a += 1
        out.append(PrimePower(p, a))
    return out


def mobius(n: int, table: FactorTable | None = None) -> int:
    """Mobius function: 0 unless n is squarefree, else (-1)^(#prime factors)."""
    fac = factorize(n, table)
    if any(pp.a > 1 for pp in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(n: int, table: FactorTable | None = None) -> int:
    """Euler totient, multiplicative with phi(p^a) = p^a - p^(a-1)."""
    out = 1
    for pp in factorize(n, table):
        out *= pp.p ** (pp.a - 1) * (pp.p - 1)
    return out


def d_k_of(n: int, k: int, table: FactorTable | None = None) -> int:
    """Number of ordered k-tuples of positive integers with product n.

    Multiplicative, with value C(a+k-1, k-1) on p^a.
    """
    if k < 1:
        raise DomainError(f"fold parameter must be >= 1, got {k}")
    out = 1
    for pp in factorize(n, table):
        out *= math.comb(pp.a + k - 1, k - 1)
    return out


def divisors(q: int) -> list[int]:
    """All divisors of q in increasing order."""
    if q < 1:
        raise DomainError(f"divisors undefined for {q}")
    out = [1]
    for pp in factorize(q):
        out = [d * pp.p**e for d in out for e in range(pp.a + 1)]
    out.sort()
    return out


def ramanujan_sum(q: int, n: int) -> int:
    """Sum of e(an/q) over residues a coprime to q; always an integer.

    Evaluated by the divisor formula sum_{d | (q,n)} mu(q/d) * d; the
    exponential sum itself serves only as a test oracle.
    """
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    g = math.gcd(q, n)
    return sum(mobius(q // d) * d for d in divisors(g))
