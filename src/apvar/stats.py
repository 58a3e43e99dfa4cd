"""Error terms, variance over progressions, and the identity checks.

For a sieved table this module forms the per-class error
E(q, a) = A(x; q, a) - x f(q, a)/q, the variance V_x(q) = sum_a E^2 and its
average V(x, Q) = sum_{q<=Q} V_x(q), and the deviation of the exponential
sum from its predicted main term.  Two families of cross-checks are wired
in: a Plancherel identity relating the class errors to the exponential-sum
deviations, and the expansion of the variance into congruence, cross and
main-term pieces.  Exact integer aggregates are converted to floats at the
last step; long float reductions go through math.fsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import DivisorLattice, divisor_lattice, euler_phi
from .errors import DomainError, ResourceError
from .residues import (
    ap_main_term,
    correction_value_at,
    density_polys,
    eval_logpoly,
    f_star,
    m_poly,
)
from .sieve import (
    DkTable,
    ResidueClassSums,
    ap_sums,
    congruence_sums,
    exp_sum,
    multiple_sums,
    sieve_dk,
)

DEFAULT_WORK_BUDGET = 4 * 10**9
_TABLE_BLOCK = 1024  # moduli per lattice block: bounds each pass's temporaries to a few MB


@dataclass(frozen=True)
class ErrorVector:
    """e[a] = A(x; q, a) - x f(q, a)/q for a in 1..q (index 0 unused)."""

    q: int
    x: int
    k: int
    e: np.ndarray


@dataclass(frozen=True)
class DeltaValue:
    """Deviation of S_X(a/q) from X M(q/(q,a)) / (q/(q,a))."""

    value: complex
    a: int
    q: int
    X: int


@dataclass(frozen=True)
class VarianceReport:
    """Per-modulus variances, their total, and the three expansion terms.

    congruence_term is the exact integer sum over q of sum_a A(x;q,a)^2;
    cross_term and main_term carry the -2x and x^2 pieces of the expanded
    square.
    """

    x: int
    Q: int
    k: int
    per_q: tuple[float, ...]
    total: float
    congruence_term: int
    cross_term: float
    main_term: float


def _density_table(moduli, x: float, k: int):
    """(start, delta, cw) for every pair (q, delta | q), q in moduli: cw is the
    density_polys row evaluated at x, so f(q, delta) = q/phi(q/delta) * cw.
    The rows of the i-th modulus are start[i]:start[i+1], delta ascending."""
    lattice = divisor_lattice(moduli)
    return lattice.start, lattice.delta, eval_logpoly(density_polys(lattice, k), x)


def _density_values(q: int, delta: np.ndarray, cw: np.ndarray) -> np.ndarray:
    """f(q, a) for a = 1..q from the rows of q in a _density_table.

    The gcd index is filled by divisor slices, ascending, so the last
    divisor to reach a is gcd(a, q); its class has phi(q/delta) members.
    """
    idx = np.empty(q, dtype=np.intp)
    for i, d in enumerate(delta.tolist()):
        idx[d - 1 :: d] = i
    phi = np.bincount(idx, minlength=len(delta))
    return (q / phi * cw)[idx]


def error_vector(table: DkTable, q: int, x: int, k: int | None = None) -> ErrorVector:
    """Exact class sums minus evaluated main terms."""
    k = table.k if k is None else k
    if k != table.k:
        raise DomainError(f"table holds k={table.k}, requested {k}")
    counts = ap_sums(table, q, x).sums[1:]
    _, delta, cw = _density_table([q], float(x), k)
    f_vals = _density_values(q, delta, cw)
    e = np.zeros(q + 1, dtype=np.float64)
    e[1:] = counts.astype(np.float64) - (x / q) * f_vals
    return ErrorVector(q=q, x=x, k=k, e=e)


def delta_value(cls: ResidueClassSums, a: int, k: int | None = None) -> DeltaValue:
    """S_X(a/q) minus X M(q/(q,a)) / (q/(q,a)) at X = cls.X."""
    k = cls.k if k is None else k
    q = cls.q
    r = a % q
    g = math.gcd(q, r) if r else q
    qr = q // g
    s = exp_sum(cls, a)
    main = cls.X * eval_logpoly(m_poly(qr, k), float(cls.X)) / qr
    return DeltaValue(value=s.value - main, a=r, q=q, X=cls.X)


def _moduli_table(Q: int, k: int) -> list[tuple[int, DivisorLattice, np.ndarray]]:
    """The divisor lattices of the moduli 1..Q, in blocks of _TABLE_BLOCK
    starting at lo, with the density polynomials of their rows.  None of it
    depends on x, so one table serves every x and every Q up to this one."""
    blocks = []
    for lo in range(1, Q + 1, _TABLE_BLOCK):
        lattice = divisor_lattice(range(lo, min(lo + _TABLE_BLOCK, Q + 1)))
        blocks.append((lo, lattice, density_polys(lattice, k)))
    return blocks


def _variance_terms(table: DkTable, x: int, Q: int, congruence, moduli) -> dict:
    """Per-q arrays for q = 1..Q from congruence_sums(table, x, Q) and a
    _moduli_table over at least 1..Q.

    With G(q, delta) the mass of the n <= x with gcd(n, q) = delta, and
    F = x f(q, delta)/q the main term of each of its phi(q/delta) classes,
        V_q = sum_a (A - F)^2 = within + between,
        within  = sum_a A^2 - sum_delta G^2 / phi  (spread inside gcd classes),
        between = sum_delta phi (G/phi - F)^2,
    two sums of squares, so nothing cancels.  sum_a A^2 is the congruence
    sum; G is the Mobius transform over the divisors of q/delta of the
    strided sums S(e) = sum_{e | n <= x} d_k(n), taken one prime of q at a
    time.  The integer part of `within` is exact (int64 while
    (sum d_k)^2 < 2^63 bounds every term, Python ints past it); only
    sum_delta (G^2 mod phi)/phi is a float.  `cross` and `main` are the -2x
    and x^2 pieces of the expanded square.
    """
    values = table.values[: x + 1]
    if congruence.dtype == object:
        values = values.astype(object)
    strided = multiple_sums(values, Q)
    parts = []
    for lo, lattice, polys in moduli:
        if lo > Q:
            break
        lattice = lattice.prefix(min(len(lattice.start) - 1, Q + 1 - lo))
        q = np.arange(lo, lo + len(lattice.start) - 1)
        cw = eval_logpoly(polys[: lattice.start[-1]], x)
        parts.append(_block_terms(congruence[q], strided, x, q, lattice, cw))
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


def _block_terms(congruence, strided, x: int, q, lattice: DivisorLattice, cw) -> dict:
    """_variance_terms for one block of consecutive moduli q."""
    mass = strided[lattice.delta]
    for r in range(lattice.ranks):
        row, _, _, _, up = lattice.entries(r)
        mass[row[up >= 0]] -= mass[up[up >= 0]]
    square = mass * mass
    phi = lattice.phi.astype(mass.dtype)
    seg = lattice.start[:-1]
    within = (congruence - np.add.reduceat(square // phi, seg)).astype(np.float64)
    within -= np.add.reduceat((square % phi).astype(np.float64) / lattice.phi, seg)
    phi = lattice.phi.astype(np.float64)
    q_row = np.repeat(q.astype(np.float64), np.diff(lattice.start))
    main = (x / q_row) * (q_row / phi * cw)
    g = mass.astype(np.float64)
    return {
        # within >= 0 exactly; the float remainder sum can pass it by rounding
        "within": np.maximum(within, 0.0),
        "between": np.add.reduceat(phi * (g / phi - main) ** 2, seg),
        "cross": np.add.reduceat(-2.0 * main * g, seg),
        "main": np.add.reduceat(phi * main * main, seg),
    }


def _checked_fold(table: DkTable, x: int, Q: int, k: int | None) -> int:
    """The fold k (default: the table's), once (x, Q, k) fit the table."""
    k = table.k if k is None else k
    if k != table.k:
        raise DomainError(f"table holds k={table.k}, requested {k}")
    if not 1 <= Q <= x:
        raise DomainError(f"need 1 <= Q <= x, got Q={Q}, x={x}")
    if x > table.x:
        raise DomainError(f"cutoff {x} beyond table limit {table.x}")
    return k


def _variance(table: DkTable, x: int, Q: int, k: int, congruence, moduli) -> VarianceReport:
    terms = _variance_terms(table, x, Q, congruence, moduli)
    per_q = tuple((terms["within"] + terms["between"]).tolist())
    return VarianceReport(
        x=x,
        Q=Q,
        k=k,
        per_q=per_q,
        total=math.fsum(per_q),
        congruence_term=sum(congruence[1 : Q + 1].tolist()),
        cross_term=math.fsum(terms["cross"].tolist()),
        main_term=math.fsum(terms["main"].tolist()),
    )


def variance_total(
    table: DkTable,
    x: int,
    Q: int,
    k: int | None = None,
    *,
    threads: int = 1,
) -> VarianceReport:
    """V(x, Q) plus the three expansion terms, for every q <= Q at once.

    One FFT autocorrelation gives every congruence term, one set of strided
    sums every gcd-class mass, and one table of density polynomials every
    density; see _variance_terms.  `threads` is accepted for existing
    callers and has no effect.
    """
    k = _checked_fold(table, x, Q, k)
    # The FFT runs before the tables are built, so they reuse its memory.
    congruence = congruence_sums(table, x, Q)
    return _variance(table, x, Q, k, congruence, _moduli_table(Q, k))


def parseval_check(
    table: DkTable, q: int, x: int, k: int | None = None
) -> tuple[float, float]:
    """Both sides of sum_a E^2 = (1/q) sum_a |Delta(a/q)|^2.

    The left side runs through class sums and the density polynomials; the
    right side through exponential sums and the reduced-modulus
    polynomials.  Agreement is an exact identity up to rounding.
    """
    ev = error_vector(table, q, x, k)
    lhs = math.fsum(float(t) for t in ev.e[1:] * ev.e[1:])
    cls = ap_sums(table, q, x)
    rhs = (
        math.fsum(abs(delta_value(cls, a, k).value) ** 2 for a in range(1, q + 1)) / q
    )
    return lhs, rhs


def variance_expansion_check(
    table: DkTable,
    x: int,
    Q: int,
    k: int | None = None,
    *,
    budget: int = DEFAULT_WORK_BUDGET,
) -> tuple[float, float]:
    """V(x, Q) computed directly, as sum_q sum_a E(q, a)^2 over the class sums
    of each modulus (O(xQ) work), against its three-term expansion from
    variance_total, which shares neither the class sums nor the squares."""
    if x * Q > budget:
        raise ResourceError(
            f"expansion check needs ~{x * Q} element operations, budget {budget}"
        )
    report = variance_total(table, x, Q, k)
    start, delta, cw = _density_table(range(1, Q + 1), float(x), report.k)
    direct = []
    for i, q in enumerate(range(1, Q + 1)):
        rows = slice(start[i], start[i + 1])
        f_vals = _density_values(q, delta[rows], cw[rows])
        e = ap_sums(table, q, x).sums[1:].astype(np.float64) - (x / q) * f_vals
        direct.append(float(np.sum(e * e)))
    expanded = float(report.congruence_term) + report.cross_term + report.main_term
    return math.fsum(direct), expanded


def density_square_sum_check(q: int, x: float, k: int) -> tuple[float, float]:
    """sum_a f(q, a)^2 at x versus q times the quadratic-mean polynomial."""
    lhs = math.fsum(
        eval_logpoly(ap_main_term(q, a, k), x) ** 2 for a in range(1, q + 1)
    )
    rhs = q * eval_logpoly(f_star(q, k), x)
    return lhs, rhs


def dirichlet_partial_sum_check(
    table: DkTable, q: int, delta: int, *, s: float = 2.0
) -> tuple[float, float]:
    """Partial sum of d_k(n)/n^s over n <= table.x with gcd(n, q) = delta,
    against zeta(s)^k times the correction product evaluated directly at s.

    `rhs` is the value of the full series, so `lhs` falls short of it by
    the positive tail over n > table.x.  That tail shrinks like
    q (log x)^(k-1) / x; a fixed-tolerance comparison of the pair must
    account for it, as `dirichlet_tail` does.
    """
    if s != 2.0:
        raise DomainError("only s=2 is supported (zeta value known in closed form)")
    n = np.arange(table.x + 1, dtype=np.int64)
    mask = np.gcd(n, q) == delta
    mask[0] = False
    terms = table.values[mask].astype(np.float64) / n[mask].astype(np.float64) ** s
    lhs = math.fsum(terms.tolist())
    zeta_s = math.pi**2 / 6.0
    rhs = zeta_s**table.k * correction_value_at(q, delta, table.k, s)
    return lhs, rhs


def dirichlet_tail(table: DkTable, q: int, delta: int) -> float:
    """Predicted tail sum_{n>N, gcd(n,q)=delta} d_k(n)/n^2 beyond N = table.x.

    Abel summation over the constrained count A(t) = sum_{n<=t} d_k(n) gives
    tail = -A(N)/N^2 + 2 int_N^oo A(t) t^-3 dt.  A(N) is exact from the class
    sums; inside the integral A(t) is replaced by its main term t P(log t),
    P = (phi(q/delta)/q) f(q, delta) = sum_j r_j (log t)^j, and
        2 int_N^oo (log t)^j t^-2 dt = (2/N) sum_{i<=j} (j!/i!) (log N)^i.
    """
    N = table.x
    sums = ap_sums(table, q, N).sums
    count = sum(int(sums[a]) for a in range(1, q + 1) if math.gcd(a, q) == delta)
    poly = (euler_phi(q // delta) / q) * ap_main_term(q, delta, table.k)
    L = math.log(N)
    integral = sum(
        r * sum(math.factorial(j) / math.factorial(i) * L**i for i in range(j + 1))
        for j, r in enumerate(poly.tolist())
    )
    return -count / N**2 + 2.0 * integral / N


def regression_slope(xs, ys) -> float:
    """Least-squares slope of ys against xs."""
    n = len(xs)
    if n < 2 or n != len(ys):
        raise DomainError("regression needs two or more paired points")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((t - mx) ** 2 for t in xs)
    sxy = math.fsum((t - mx) * (u - my) for t, u in zip(xs, ys))
    return sxy / sxx


def deviation_decay_slope(
    table: DkTable, q: int, a: int, cutoffs, k: int | None = None
) -> tuple[list[float], float]:
    """|Delta_X(a/q)| at each cutoff plus the slope of log|Delta| vs log X."""
    mags = [
        abs(delta_value(ap_sums(table, q, X), a, k).value) for X in cutoffs
    ]
    slope = regression_slope(
        [math.log(X) for X in cutoffs], [math.log(m) for m in mags]
    )
    return mags, slope


@dataclass(frozen=True)
class GrowthStudy:
    """Measured variance growth along a grid, with the fitted slope of
    log V against log(xQ)."""

    k: int
    rows: tuple[tuple[int, int, float, float], ...]  # (x, Q, V, V/(xQ))
    slope: float


def growth_study(
    k: int,
    x_grid,
    q_rule,
    *,
    threads: int = 1,
    sieve=None,
) -> GrowthStudy:
    """Compute V(x, Q) along x_grid with Q = q_rule(x).

    q_rule is either a callable x -> Q, a ("power", c) pair for Q = x^c, or
    a ("ratio", r) pair for Q = x/r.  One table is sieved at max(x_grid),
    and one table of density polynomials built for the largest Q, and both
    are shared across the grid.
    """
    xs = sorted(set(int(t) for t in x_grid))
    if not xs:
        raise DomainError("x grid is empty")
    if callable(q_rule):
        rule = q_rule
    else:
        kind, value = q_rule
        if kind == "power":
            rule = lambda t: int(round(t**value))
        elif kind == "ratio":
            rule = lambda t: int(round(t / value))
        else:
            raise DomainError(f"unknown Q rule {kind!r}")
    table = sieve if sieve is not None else sieve_dk(xs[-1], k, threads=threads)
    qs = [max(1, min(rule(x), x)) for x in xs]
    for x, Q in zip(xs, qs):
        _checked_fold(table, x, Q, k)
    # Every FFT runs before the shared table is built, so it reuses their memory.
    congruences = [congruence_sums(table, x, Q) for x, Q in zip(xs, qs)]
    moduli = _moduli_table(max(qs), k)
    rows = []
    for x, Q, congruence in zip(xs, qs, congruences):
        total = _variance(table, x, Q, k, congruence, moduli).total
        rows.append((x, Q, total, total / (x * Q)))
    if len(rows) < 2:
        slope = math.nan  # a slope needs at least two grid points
    else:
        slope = regression_slope(
            [math.log(x * Q) for x, Q, _, _ in rows],
            [math.log(v) for _, _, v, _ in rows],
        )
    return GrowthStudy(k=k, rows=tuple(rows), slope=slope)
