"""Exact Farey dissection of the unit interval.

F_gamma is built on int64 arrays (a, q): the numerators coprime to each
denominator q <= gamma, put in order by one argsort on the float64 values
a/q.  A numerator is coprime to q when no prime of q (arith._prime_powers)
divides it: about 2.2 remainders a candidate at order 1000.  Neighbours
a/q < b/r differ by 1/(q*r) >= 1/gamma^2, which MAX_ORDER keeps far above
one ulp.  Every generated run is then certified exactly: it starts at 0/1
and ends at 1/1, all q lie in 1..gamma, and each neighbour pair has
b*q - a*r == 1 and q + r > gamma, which characterises F_gamma (Hardy-Wright,
An Introduction to the Theory of Numbers, ch. III).  The unit interval is
generated in slices of about SLICE fractions, carrying the last fractions
of one slice into the next; every check looks only at neighbours, so peak
memory is one slice's plus O(gamma): about 3 MiB of traced arrays for
verify_containment(3000), over 2.7 million fractions.

failing_orders checks every order g <= gamma in one pass over the slices
of F_gamma: O(gamma^2) fractions, not the ~0.1 gamma^3 arcs of all the F_g.
F_g needs no certificate of its own, as a subsequence of the certified
F_gamma.

Each fraction but 1/1 gets the arc between its mediants with its two
neighbours.  The arcs around 0/1 and 1/1 are the same arc up to
periodicity; it is kept once, attached to 0/1, its left end the mediant
with the periodic predecessor -1/gamma.  Mediants of Farey neighbours are
in lowest terms, so the raw mediant pairs are the reduced endpoints.
Fraction objects are built only by dissection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .arith import _prime_powers
from .errors import CertificateError, DomainError

# Cross-multiplied containment products are bounded by ~4*gamma^3, far
# inside int64 at this order; the cap bounds the run time.
MAX_VERIFY_ORDER = 10**4

# Float64 values in [0, 1] are at most eps apart, so sorting on a/q orders
# the neighbours correctly while 1/gamma^2 >= 2^8 * eps: gamma <= 2^22.
MAX_ORDER = math.isqrt(int(1 / (2**8 * np.finfo(np.float64).eps)))

SLICE = 1 << 15  # fractions per slice of the unit interval: ~2 MB of arrays


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


def _check_order(gamma: int, least: int, most: int = MAX_ORDER) -> None:
    if gamma < least:
        raise DomainError(f"order must be >= {least}, got {gamma}")
    if gamma > most:
        raise DomainError(f"order must be <= {most}, got {gamma}")


def _certify(a, q, gamma: int, *, opens: bool = True, closes: bool = True) -> None:
    """Raise CertificateError unless (a, q) are consecutive fractions of
    F_gamma, starting at 0/1 if the run opens the sequence and ending at 1/1
    if it closes it."""
    faults = (
        ("denominator outside 1..gamma", (q < 1) | (q > gamma)),
        ("neighbours with b*q - a*r != 1", a[1:] * q[:-1] - a[:-1] * q[1:] != 1),
        ("neighbours with q + r <= gamma", q[:-1] + q[1:] <= gamma),
    )
    for what, mask in faults:
        if mask.any():
            i = int(np.argmax(mask))
            raise CertificateError(f"F_{gamma}: {what} at {a[i]}/{q[i]}")
    if opens and (a[0], q[0]) != (0, 1):
        raise CertificateError(f"F_{gamma}: starts at {a[0]}/{q[0]}, not 0/1")
    if closes and (a[-1], q[-1]) != (1, 1):
        raise CertificateError(f"F_{gamma}: ends at {a[-1]}/{q[-1]}, not 1/1")


def _sorted_slices(gamma: int) -> Iterator[tuple[np.ndarray, np.ndarray, bool]]:
    """F_gamma as uncertified (a, q) int64 slices in increasing order, each
    with whether it is the last: the j-th of n slices holds the a/q in
    [(j-1)/n, j/n), the last one 1/1 as well; empty slices are skipped.
    With q in order of omega(q), its number of distinct primes, the q with an
    i-th prime own one suffix of each slice, tested by a % p_i(q) != 0."""
    n = 1 + gamma * gamma // (3 * SLICE)  # F_gamma has ~0.3 gamma^2 fractions
    owner, p, _ = _prime_powers(np.arange(1, gamma + 1, dtype=np.int64))
    first = np.searchsorted(owner, np.arange(gamma + 1))  # row of q's least prime, at q - 1
    omega = np.diff(first)  # omega(q), at q - 1
    by_omega = np.argsort(omega, kind="stable")
    qs = by_omega + 1
    ranks = np.searchsorted(omega[by_omega], np.arange(1, omega.max() + 1))
    # per rank i: where the q with an i-th prime start in qs, and those p_i(q)
    tests = [(s, p[first[by_omega[s:]] + i].astype(np.int32)) for i, s in enumerate(ranks)]
    start = np.zeros_like(qs)  # least numerator of the slice, per q
    for j in range(1, n + 1):
        stop = -(-j * qs // n) if j < n else qs + 1
        counts = stop - start
        edge = np.cumsum(counts) - counts  # where each q's candidates begin
        q = np.repeat(qs, counts)
        a = np.arange(q.size, dtype=np.int32)  # a <= gamma: int32 takes remainders faster
        a += np.repeat(start - edge, counts)
        keep = np.ones(q.size, dtype=bool)
        for s, primes in tests:
            keep[edge[s] :] &= a[edge[s] :] % np.repeat(primes, counts[s:]) != 0
        a, q = a[keep].astype(np.int64), q[keep]
        start = stop
        if a.size:
            order = np.argsort(a / q)  # distinct keys: any sort gives one order
            yield a[order], q[order], j == n


def _slices(gamma: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """F_gamma as certified (a, q) int64 slices, in increasing order; each
    is certified together with the last fraction before it."""
    carry_a = carry_q = np.empty(0, dtype=np.int64)
    for a, q, closes in _sorted_slices(gamma):
        _certify(
            np.concatenate((carry_a, a)),
            np.concatenate((carry_q, q)),
            gamma,
            opens=not carry_a.size,
            closes=closes,
        )
        yield a, q
        carry_a, carry_q = a[-1:].copy(), q[-1:].copy()


def _windows(gamma: int, slices: Iterable) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Windows f_{s-1}..f_t of F_gamma holding the neighbours of the arcs
    centred at f_s..f_{t-1}: the first opens with the periodic predecessor
    -1/gamma of 0/1, each later one with the last two fractions before it."""
    carry_a = np.array([-1], dtype=np.int64)
    carry_q = np.array([gamma], dtype=np.int64)
    for a, q in slices:
        a, q = np.concatenate((carry_a, a)), np.concatenate((carry_q, q))
        if a.size > 2:  # else it centres no arc and is all carried
            yield a, q
        carry_a, carry_q = a[-2:].copy(), q[-2:].copy()


def _arcs(a, q) -> tuple[np.ndarray, ...]:
    """(center num, center den, left num, left den, right num, right den) of
    the arcs centred at the inner fractions of a window."""
    mn, md = a[:-1] + a[1:], q[:-1] + q[1:]
    return a[1:-1], q[1:-1], mn[:-1], md[:-1], mn[1:], md[1:]


def arc_slices(gamma: int) -> Iterator[tuple[np.ndarray, ...]]:
    """The mediant arcs of one full period, wrap-around arc first, as int64
    arrays (a, q, left_num, left_den, right_num, right_den) per slice."""
    _check_order(gamma, 2)
    return (_arcs(a, q) for a, q in _windows(gamma, _slices(gamma)))


def dissection(gamma: int) -> list[FareyArc]:
    """Mediant arcs covering one full period, wrap-around arc first."""
    return [
        FareyArc(Fraction(a, q), Fraction(ln, ld), Fraction(rn, rd))
        for arrays in arc_slices(gamma)
        for a, q, ln, ld, rn, rd in zip(*(x.tolist() for x in arrays))
    ]


def _centers(ca, cq, mask) -> list[tuple[int, int]]:
    return list(zip(ca[mask].tolist(), cq[mask].tolist()))


def _clears(gap, den, g):
    """Whether an arc end at gap/(den*q) past its centre a/q (den > 0)
    clears the radius 1/(2qg); once true, true at every higher order g."""
    return 2 * gap * g >= den


def _overshoots(gap, den, g):
    """Whether that end lies beyond the radius 1/(qg); once true, true at
    every higher order g."""
    return gap * g > den


def _check_window(gamma: int, a, q) -> tuple:
    """Arc count, containment and positive-length failures, and the outer
    endpoints of the arcs of one window of F_gamma."""
    ca, cq, ln, ld, rn, rd = _arcs(a, q)
    fine = np.ones(ca.size, dtype=bool)
    for gap, den in ((ca * ld - ln * cq, ld), (rn * cq - ca * rd, rd)):
        fine &= _clears(gap, den, gamma) & ~_overshoots(gap, den, gamma)
    return (
        ca.size,
        _centers(ca, cq, ~fine),
        _centers(ca, cq, ln * rd >= rn * ld),
        (int(ln[0]), int(ld[0])),
        (int(rn[-1]), int(rd[-1])),
    )


def _verify(gamma: int, windows: Iterable) -> ContainmentReport:
    """The containment, positive-length and period checks over the arcs of
    the windows of F_gamma."""
    arcs, bad, bad_tiling, ends = 0, [], [], []
    for a, q in windows:
        count, missed, empty, left, right = _check_window(gamma, a, q)
        arcs += count
        bad += missed
        bad_tiling += empty
        ends += [left, right]
    # neighbouring arcs share endpoints, so the lengths telescope
    (ln0, ld0), (rn1, rd1) = ends[0], ends[-1]
    return ContainmentReport(
        gamma=gamma,
        arcs_checked=arcs,
        violations=tuple(bad),
        tiling_violations=tuple(bad_tiling),
        period_ok=rn1 * ld0 - ln0 * rd1 == rd1 * ld0,
    )


def verify_containment(gamma: int) -> ContainmentReport:
    """Check, exactly, that every arc contains the radius-1/(2q*gamma)
    neighbourhood of its center and sits inside the radius-1/(q*gamma) one,
    that every arc has positive length, and that the arc lengths total
    exactly 1.  Integer cross-multiplication only, slice by slice."""
    _check_order(gamma, 2, MAX_VERIFY_ORDER)
    return _verify(gamma, _windows(gamma, _slices(gamma)))


def _first(test, gap, den, lo, hi) -> np.ndarray:
    """Per pair, the least order g in lo..hi at which test(gap, den, g)
    holds, else hi + 1, for a test that holds at every order after it first
    does: both ends, then bisection where it first holds strictly inside."""
    at = np.where(test(gap, den, lo), lo, hi + 1)
    inside = np.flatnonzero((at > hi) & test(gap, den, hi))
    gap, den, lo, hi = gap[inside], den[inside], lo[inside], hi[inside]
    while np.any(hi - lo > 1):  # test fails at lo and holds at hi
        mid = (lo + hi) // 2
        holds = test(gap, den, mid)
        lo, hi = np.where(holds, lo, mid), np.where(holds, mid, hi)
    at[inside] = hi
    return at


def _mark(marks, start, stop) -> None:
    """Count the orders start..stop-1 of each pair as failing."""
    run = start < stop
    np.add.at(marks, start[run], 1)
    np.add.at(marks, stop[run], -1)


def failing_orders(gamma: int) -> list[int]:
    """The orders g in 2..gamma at which a check of verify_containment(g)
    fails, from one pass over F_gamma.

    a/q < b/r are neighbours in F_g exactly when bq - ar = 1 and
    max(q, r) <= g < q + r.  So the neighbour pairs of every order are the
    fractions b/r of F_gamma with r >= 2, each with its two Farey parents
    c/s < b/r < d/t, s + t = r: its F_gamma neighbours taken down mod r
    (the left one's denominator is b^-1 mod r).  The pair of b/r and c/s
    is adjacent at the orders r..min(gamma, r + s - 1), and d/t likewise.
    The two arcs that meet at its mediant check it at the same gap, and
    both checks change at most once over those orders (_clears and
    _overshoots), so the failing orders of each pair follow from its two
    end orders.  A zero or negative arc length already fails _clears.  The
    wrap arc's left end -1/(g+1) and the period identity are checked per
    order.
    """
    _check_order(gamma, 2, MAX_VERIFY_ORDER)
    marks = np.zeros(gamma + 2, dtype=np.int64)  # +1 / -1 where failing runs start / stop
    last = np.zeros((2, gamma + 1), dtype=np.int64)  # right end of F_g's last arc
    last[1] = 1  # 0/1 where none is found, which fails the period identity
    for a, q in _windows(gamma, _slices(gamma)):
        keep = q[1:-1] > 1
        b, r, c, s, d, t = (x[keep] for x in (a[1:-1], q[1:-1], a[:-2], q[:-2], a[2:], q[2:]))
        c, s = c - s // r * b, s % r
        d, t = d - t // r * b, t % r
        left, right = b * s - c * r, d * r - b * t
        wrong = (left != 1) | (right != 1) | (s + t != r)
        if wrong.any():
            i = int(np.argmax(wrong))
            raise CertificateError(f"F_{gamma}: no Farey parents for {b[i]}/{r[i]}")
        for gap, p in ((left, s), (right, t)):
            den, hi = r + p, np.minimum(gamma, r + p - 1)
            _mark(marks, r, _first(_clears, gap, den, r, hi))
            _mark(marks, _first(_overshoots, gap, den, r, hi), hi + 1)
        top = t == 1  # (r-1)/r, the last fraction before 1/1 in F_r
        last[:, r[top]] = b[top] + d[top], r[top] + t[top]
    g = np.arange(2, gamma + 1)
    ln, ld = -1, g + 1  # mediant of -1/g and 0/1
    rn, rd = last[:, 2:]
    bad = np.cumsum(marks)[2:-1] > 0
    bad |= ~_clears(-ln, ld, g) | _overshoots(-ln, ld, g)
    bad |= rn * ld - ln * rd != rd * ld  # the arc lengths telescope to 1
    return g[bad].tolist()


def denominator_counts(gamma: int) -> list[int]:
    """counts[q] = number of F_gamma fractions with denominator q.

    counts[1] is 2 (0/1 and 1/1); for q >= 2 the count equals phi(q), which
    makes the length identity len(F_g) = 1 + sum_{q<=g} phi(q) checkable
    for every g <= gamma from a single enumeration.
    """
    _check_order(gamma, 1)
    counts = sum(np.bincount(q, minlength=gamma + 1) for _, q in _slices(gamma))
    return counts.tolist()
