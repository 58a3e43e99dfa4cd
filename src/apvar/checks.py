"""The verification checks shared by `apvar verify` and the acceptance suite.

Each function runs one check over a fixed case set and returns one JSON row
(`check`, `lhs`, `rhs`, `rel_diff`, `pass`) that also names its worst case.
Library functions are called through their modules, so that wrappers set on
those modules at run time (such as a tracer's) see the calls made here.
"""

from __future__ import annotations

import numpy as np

from . import arith, farey, stats
from .errors import DomainError, ResourceError

IDENTITY_TOL = stats.IDENTITY_TOL
DIRICHLET_TOL = 1e-3


def _check_row(name: str, lhs: float, rhs: float, tol: float, **where) -> dict:
    denom = max(abs(lhs), abs(rhs))
    rel = abs(lhs - rhs) / denom if denom else 0.0
    return {
        "check": name,
        "lhs": lhs,
        "rhs": rhs,
        "rel_diff": rel,
        "pass": bool(rel <= tol),
        **where,
    }


def _count_row(name: str, bad: list, **where) -> dict:
    """lhs counts the failed cases, which must be none; `where` names the first."""
    n = float(len(bad))
    return {"check": name, "lhs": n, "rhs": 0.0, "rel_diff": n, "pass": not bad} | where


def _worst(rows, name: str) -> dict:
    """The first row with the largest rel_diff, renamed; it keeps its location."""
    return {**max(rows, key=lambda r: r["rel_diff"]), "check": name}


def parseval(table, x: int) -> dict:
    """Plancherel identity for the class errors at cutoff x, worst q <= 50."""
    rows = (
        _check_row("", *stats.parseval_check(table, q, x), IDENTITY_TOL, q=q)
        for q in range(1, 51)
    )
    return _worst(rows, "parseval worst (q<=50)")


def variance_expansion(table, x: int, Q: int, *, budget: int) -> dict:
    """V(x, Q) computed directly, modulus by modulus, against its three-term
    expansion from the all-moduli engine."""
    direct, expanded = stats.variance_expansion_check(table, x, Q, budget=budget)
    return _check_row(f"variance expansion Q={Q}", direct, expanded, IDENTITY_TOL)


def density_square_sum(x: int, k: int) -> dict:
    """sum_a f(q, a)^2 against q f*(q) at x, worst q <= 60."""
    rows = (
        _check_row(
            "", *stats.density_square_sum_check(q, float(x), k), IDENTITY_TOL, q=q
        )
        for q in range(1, 61)
    )
    return _worst(rows, "density square sum worst (q<=60)")


def ramanujan_orthogonality() -> dict:
    """sum_a c_d1(a) c_d2(a) = q phi(d1) [d1 = d2] exactly for d1, d2 | q <= 100.

    c_d(a) depends on a only through gcd(a, q) for d | q, so each Ramanujan
    sum is evaluated once per pair of divisors of q, and the exact int64
    columns c_d(a), a = 1..q, are gathered through the gcd index of q.
    """
    bad = []
    for q in range(1, 101):
        ds = arith.divisors(q)
        pairs = np.array([[arith.ramanujan_sum(d, g) for g in ds] for d in ds], dtype=np.int64)
        cols = pairs[:, arith.gcd_index(ds)]
        want = np.diag([q * arith.euler_phi(d) for d in ds])
        bad += [(q, ds[i], ds[j]) for i, j in np.argwhere(cols @ cols.T != want).tolist()]
    q, d1, d2 = bad[0] if bad else (None, None, None)
    return _count_row("ramanujan orthogonality q<=100", bad, q=q, d1=d1, d2=d2)


def farey_sweep_arcs(gamma: int) -> int:
    """Arcs that farey_containment(gamma) checks: the sum over the orders
    g = 2..gamma of |F_g| - 1 = sum_{q<=g} phi(q), from one totient sieve."""
    per_order = arith.totients(gamma)[1:].cumsum()
    return int(per_order[1:].sum())


def farey_order(gamma: int, *, budget: int) -> int:
    """The Farey check's top order, which must lie in 2..MAX_VERIFY_ORDER and
    whose sweep over every order 2..gamma must fit in the work budget."""
    if not 2 <= gamma <= farey.MAX_VERIFY_ORDER:
        raise DomainError(
            f"farey check needs 2 <= gamma <= {farey.MAX_VERIFY_ORDER}, got {gamma}"
        )
    arcs = farey_sweep_arcs(gamma)
    if arcs > budget:
        raise ResourceError(
            f"farey check of orders 2..{gamma} touches {arcs} arcs, budget {budget}"
        )
    return gamma


def farey_containment(gamma: int) -> dict:
    """Exact containment and tiling of the Farey arcs at orders 2..gamma,
    all from one F_gamma."""
    reports = farey.verify_orders(gamma)
    arcs = sum(rep.arcs_checked for rep in reports)
    bad = [rep.gamma for rep in reports if not rep.ok]
    return _count_row(
        f"farey containment+tiling gamma<={gamma} ({arcs} arcs)",
        bad,
        gamma=bad[0] if bad else None,
    )


def farey_histogram() -> dict:
    """F_1000 has 2 fractions of denominator 1 and phi(q) of each q >= 2."""
    counts = farey.denominator_counts(1000)
    want = arith.totients(1000).tolist()
    want[1] = 2
    bad = [q for q in range(1, 1001) if counts[q] != want[q]]
    return _check_row(
        "farey length histogram gamma<=1000",
        0.0 if bad else 1.0,
        1.0,
        0.0,
        q=bad[0] if bad else None,
    )


def growth_grid(top: int) -> list[int]:
    """The growth check's grid x = 2^14..2^18 up to top; a slope needs two
    points, so top must be at least 2^15."""
    grid = [2**j for j in range(14, 19) if 2**j <= top]
    if len(grid) < 2:
        raise DomainError(f"growth check needs x >= 2^15, got {top}")
    return grid


def growth(table, grid: list[int]) -> dict:
    """Slope of log V(x, x^0.75) against log(xQ) along grid (from growth_grid)
    over the table, in [0.85, 1.2]; `rows` holds the (x, Q, V, V/(xQ)) points."""
    study = stats.growth_study(table, grid, ("power", 0.75))
    return {
        "check": "growth slope log V vs log(xQ)",
        "lhs": study.slope,
        "rhs": 1.0,
        "rel_diff": abs(study.slope - 1.0),
        "pass": bool(0.85 <= study.slope <= 1.2),
        "rows": [list(row) for row in study.rows],
    }


def dirichlet(table, x: int) -> dict:
    """Partial sums of d_k(n)/n^2 over n <= x, gcd(n, q) = delta, plus their
    predicted tail, against the full series; worst of q <= 30, delta | q.
    The raw_* keys describe the same comparison without the tail."""
    rows, raw = [], []
    for q in range(1, 31):
        for delta, partial, tail, full in stats.dirichlet_sums(table, q, x):
            rows.append(_check_row("", partial + tail, full, DIRICHLET_TOL, q=q, delta=delta))
            raw.append(_check_row("", partial, full, DIRICHLET_TOL, q=q, delta=delta))
    worst_raw = _worst(raw, "")
    return {
        **_worst(rows, f"dirichlet with tail worst (q<=30, N={x})"),
        "failing": sum(not r["pass"] for r in rows),
        "cases": len(rows),
        "raw_rel_diff": worst_raw["rel_diff"],
        "raw_q": worst_raw["q"],
        "raw_delta": worst_raw["delta"],
        "raw_failing": sum(not r["pass"] for r in raw),
    }
