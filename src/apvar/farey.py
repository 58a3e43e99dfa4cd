"""Exact Farey dissection of the unit interval.

The Farey sequence of order gamma is generated by the next-term recurrence
(O(1) per fraction), and the dissection assigns each fraction the arc
between the mediants with its two neighbours.  The arcs around 0/1 and 1/1
are the same arc up to periodicity; it is kept once, attached to 0/1, with
a negative left endpoint, so the covered period is
[left endpoint of 0/1's arc, same + 1).

All comparisons are exact: generation and verification run on plain
integer pairs (cross-multiplication only), and the public containers carry
fractions.Fraction endpoints.  Mediants of Farey neighbours are already in
lowest terms, so the reduced public values coincide with the raw mediant
numerator/denominator pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import DomainError

# Cross-multiplied containment products are bounded by ~4*gamma^3, so
# int64 arithmetic is exact up to this order.
MAX_VERIFY_ORDER = 10**4


@dataclass(frozen=True)
class FareyArc:
    """Arc (left, right) around a reduced fraction center."""

    center: Fraction
    left: Fraction
    right: Fraction


@dataclass(frozen=True)
class ContainmentReport:
    """Outcome of the exact arc checks at one order.

    Containment violations are centers whose arc misses one of the two
    radius inclusions; tiling violations are adjacent-arc defects (an arc
    of nonpositive length, a gap between neighbours, or a period total
    different from 1).
    """

    gamma: int
    arcs_checked: int
    violations: tuple[tuple[int, int], ...]  # (a, q) centers that failed
    tiling_violations: tuple[tuple[int, int], ...] = ()
    period_ok: bool = True

    @property
    def ok(self) -> bool:
        return not self.violations and not self.tiling_violations and self.period_ok


def _farey_pairs(gamma: int) -> Iterator[tuple[int, int]]:
    """Reduced fractions of F_gamma in [0, 1] as (num, den), ascending."""
    a, q = 0, 1
    b, r = 1, gamma
    yield a, q
    while b <= r:  # stops after 1/1
        yield b, r
        step = (gamma + q) // r
        a, q, b, r = b, r, step * b - a, step * r - q


def farey_sequence(gamma: int) -> list[Fraction]:
    """All reduced a/q with q <= gamma in [0, 1], increasing."""
    if gamma < 1:
        raise DomainError(f"order must be >= 1, got {gamma}")
    return [Fraction(a, q) for a, q in _farey_pairs(gamma)]


def _arc_triples(gamma: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """(center, left, right) integer pairs per arc, ascending centers.

    Endpoints are the raw mediant pairs; the first arc is the wrap-around
    one at 0/1 whose left endpoint is the 1/1 mediant shifted down by a
    period.
    """
    centers = list(_farey_pairs(gamma))
    mediants = [
        (centers[i][0] + centers[i + 1][0], centers[i][1] + centers[i + 1][1])
        for i in range(len(centers) - 1)
    ]
    last = mediants[-1]  # mediant of the two fractions ending at 1/1
    yield centers[0], (last[0] - last[1], last[1]), mediants[0]
    for i in range(1, len(centers) - 1):  # 1/1 is merged into the wrap arc
        yield centers[i], mediants[i - 1], mediants[i]


def dissection(gamma: int) -> list[FareyArc]:
    """Mediant arcs covering one full period, wrap-around arc first."""
    if gamma < 2:
        raise DomainError(f"dissection needs order >= 2, got {gamma}")
    return [
        FareyArc(
            center=Fraction(c[0], c[1]),
            left=Fraction(l[0], l[1]),
            right=Fraction(r[0], r[1]),
        )
        for c, l, r in _arc_triples(gamma)
    ]


def verify_containment(gamma: int) -> ContainmentReport:
    """Check, exactly, that every arc contains the radius-1/(2q*gamma)
    neighbourhood of its center and sits inside the radius-1/(q*gamma) one,
    that every arc has positive length, and that the arc lengths total
    exactly 1 (endpoints are shared by construction, so lengths telescope).

    Integer cross-multiplication only; int64 stays exact through
    MAX_VERIFY_ORDER.
    """
    if gamma < 2:
        raise DomainError(f"containment check needs order >= 2, got {gamma}")
    if gamma > MAX_VERIFY_ORDER:
        raise DomainError(
            f"containment check is exact only up to order {MAX_VERIFY_ORDER}"
        )
    nums = []
    dens = []
    for a, q in _farey_pairs(gamma):
        nums.append(a)
        dens.append(q)
    a = np.array(nums, dtype=np.int64)
    q = np.array(dens, dtype=np.int64)
    mn = a[:-1] + a[1:]
    md = q[:-1] + q[1:]
    # arc i: center i, endpoints mediant[i-1], mediant[i]; the arc around
    # 0/1 takes the final mediant shifted down a period as its left end
    ca, cq = a[:-1], q[:-1]
    ln = np.concatenate(([mn[-1] - md[-1]], mn[:-1]))
    ld = np.concatenate(([md[-1]], md[:-1]))
    rn, rd = mn, md
    g2 = 2 * cq * gamma
    inner = (ln * g2 <= ld * (2 * ca * gamma - 1)) & (
        rn * g2 >= rd * (2 * ca * gamma + 1)
    )
    g1 = cq * gamma
    outer = (ln * g1 >= ld * (ca * gamma - 1)) & (rn * g1 <= rd * (ca * gamma + 1))
    contained = inner & outer
    positive = ln * rd < rn * ld
    bad = [(int(ca[i]), int(cq[i])) for i in np.nonzero(~contained)[0]]
    bad_tiling = [(int(ca[i]), int(cq[i])) for i in np.nonzero(~positive)[0]]
    period_ok = bool(
        int(rn[-1]) * int(ld[0]) - int(ln[0]) * int(rd[-1]) == int(rd[-1]) * int(ld[0])
    )
    return ContainmentReport(
        gamma=gamma,
        arcs_checked=len(ca),
        violations=tuple(bad),
        tiling_violations=tuple(bad_tiling),
        period_ok=period_ok,
    )


def denominator_counts(gamma: int) -> list[int]:
    """counts[q] = number of F_gamma fractions with denominator q.

    counts[1] is 2 (0/1 and 1/1); for q >= 2 the count equals phi(q), which
    makes the length identity len(F_g) = 1 + sum_{q<=g} phi(q) checkable
    for every g <= gamma from a single enumeration.
    """
    if gamma < 1:
        raise DomainError(f"order must be >= 1, got {gamma}")
    counts = [0] * (gamma + 1)
    for _, q in _farey_pairs(gamma):
        counts[q] += 1
    return counts
