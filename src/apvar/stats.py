"""Error terms, variance over progressions, and the identity checks.

For a sieved table this module forms the per-class error
E(q, a) = A(x; q, a) - x f(q, a)/q, the variance V_x(q) = sum_a E^2 and its
average V(x, Q) = sum_{q<=Q} V_x(q), and the deviation of the exponential
sum from its predicted main term.  Two families of cross-checks are wired
in: a Plancherel identity relating the class errors to the exponential-sum
deviations, and the expansion of the variance into congruence, cross and
main-term pieces.  The engine walks the moduli in lattice blocks, all read
against one run table: the columns of every prime power up to Q and their
local series, built once per walk.  Exact integer aggregates are converted
to floats at the last step; long float reductions go through math.fsum.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .arith import DivisorLattice, columns_up_to, divisor_lattice, gcd_index
from .errors import CertificateError, DomainError, ResourceError
from .residues import (
    _local_series,
    _residue_polys,
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
)

DEFAULT_WORK_BUDGET = 4 * 10**9
IDENTITY_TOL = 1e-9  # the relative gate of the identity checks
_EPS = float(np.finfo(np.float64).eps)
_TABLE_BLOCK = 1024  # moduli per lattice block: the held block and its temporaries stay a few MB


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

    per_q is V_x(q), q = 1..Q, as a read-only float64 array (compare it by
    np.array_equal).  congruence_term is the exact integer sum over q of
    sum_a A(x;q,a)^2; cross_term and main_term carry the -2x and x^2 pieces
    of the expanded square.  Their sum cancels down to the total, so a float
    error of eps in each term can move it by `cancellation` =
    eps (sum_q |congruence| + |cross| + |main|) / V(x, Q) of itself.
    """

    x: int
    Q: int
    k: int
    per_q: np.ndarray
    total: float
    congruence_term: int
    cross_term: float
    main_term: float
    cancellation: float


def _class_errors(cls: ResidueClassSums, delta, phi, cw) -> np.ndarray:
    """E(q, a) = A(X; q, a) - X f(q, a)/q for a = 1..q at X = cls.X, from the
    density table of q with its class-mass polynomials at X as cw: each of
    the phi classes with gcd(a, q) = delta has main term X f/q = X cw/phi."""
    return cls.sums[1:].astype(np.float64) - (cls.X * cw / phi)[gcd_index(delta)]


def delta_value(cls: ResidueClassSums, a: int) -> DeltaValue:
    """S_X(a/q) minus X M(q/(q,a)) / (q/(q,a)) at X = cls.X."""
    q = cls.q
    r = a % q
    g = math.gcd(q, r) if r else q
    qr = q // g
    s = exp_sum(cls, a)
    main = cls.X * eval_logpoly(m_poly(qr, cls.k), float(cls.X)) / qr
    return DeltaValue(value=s.value - main, a=r, q=q, X=cls.X)


def _moduli_blocks(tops, k: int) -> Iterator[tuple[np.ndarray, DivisorLattice, np.ndarray]]:
    """The moduli 1..max(tops) as int64 arrays q of at most _TABLE_BLOCK
    consecutive moduli, cut after each top, with their divisor lattices and
    the class-mass polynomials of their rows, built one block at a time as
    the caller asks for it.  The run table (the columns of every prime power
    up to max(tops) and their local series, k terms then the series 1) is
    built at the first block and read by every block.  None of it depends
    on x."""
    columns = columns_up_to(max(tops))
    local = _local_series(columns, k, k)
    lo = 1
    for top in sorted(set(tops)):
        while lo <= top:
            q = np.arange(lo, min(lo + _TABLE_BLOCK, top + 1))
            lattice = divisor_lattice(q, columns)
            yield q, lattice, density_polys(lattice, k, local)
            lo += q.size


def _variances(table: DkTable, points) -> list[VarianceReport]:
    """The VarianceReport of every point (x, Q), from one walk over the
    lattice blocks of 1..max Q, cut after each Q: every point takes the
    whole blocks up to its Q, each before the next block is built.  Every
    point is checked before any FFT runs, and every FFT runs before the
    first block is built, so the blocks reuse their memory.

    With G(q, delta) the mass of the n <= x with gcd(n, q) = delta, and
    F = x f(q, delta)/q the main term of each of its phi(q/delta) classes,
        V_q = sum_a (A - F)^2 = within + between,
        within  = sum_a A^2 - sum_delta G^2 / phi  (spread inside gcd classes),
        between = sum_delta phi (G/phi - F)^2,
    two sums of squares, so nothing cancels.  sum_a A^2 is the congruence
    sum; G is the Mobius transform over the divisors of q/delta of the
    strided sums S(e) = sum_{e | n <= x} d_k(n), taken one prime of q at a
    time.  The integer part of `within` is exact, in the dtype congruence_sums
    chose; only sum_delta (G^2 mod phi)/phi is a float.  `cross` and `main`
    are the -2x and x^2 pieces of the expanded square.
    """
    for x, Q in points:
        if not 1 <= Q <= x <= table.x:
            raise DomainError(f"need 1 <= Q <= x <= {table.x}, got Q={Q}, x={x}")
    points = [(x, Q, congruence_sums(table, x, Q)) for x, Q in points]
    strided = [
        multiple_sums(table.values[: x + 1].astype(congruence.dtype, copy=False), Q)
        for x, Q, congruence in points
    ]
    # per point, V_q and the cross and main terms at q - 1, filled by blocks
    terms = [(np.empty(Q), np.empty(Q), np.empty(Q)) for _, Q, _ in points]
    for q, lattice, polys in _moduli_blocks([Q for _, Q, _ in points], table.k):
        for (x, Q, congruence), sums, (per_q, cross, main) in zip(points, strided, terms):
            if q[0] <= Q:
                within, between, cross[q - 1], main[q - 1] = _block_terms(
                    congruence[q], sums, x, q, lattice, eval_logpoly(polys, x)
                )
                per_q[q - 1] = within + between
    reports = []
    for (x, Q, congruence), (per_q, cross, main) in zip(points, terms):
        per_q.flags.writeable = False
        total = math.fsum(per_q)
        congruence_term = congruence[1 : Q + 1].sum(dtype=object)
        main_term = math.fsum(main)
        # every congruence and main term is >= 0, so these are the sums of |.|
        spread = float(congruence_term) + math.fsum(np.abs(cross)) + main_term
        reports.append(
            VarianceReport(
                x=x,
                Q=Q,
                k=table.k,
                per_q=per_q,
                total=total,
                congruence_term=congruence_term,
                cross_term=math.fsum(cross),
                main_term=main_term,
                cancellation=_EPS * spread / total if total else math.inf,
            )
        )
    return reports


def _block_terms(congruence, strided, x: int, q, lattice: DivisorLattice, cw) -> tuple:
    """(within, between, cross, main), the per-q terms of _variances for one
    block of consecutive moduli q, with cw the class-mass polynomials of its
    rows at x, each over lattice.phi classes."""
    mass = strided[lattice.delta]
    for row, _, up in lattice.links:
        mass[row[up >= 0]] -= mass[up[up >= 0]]
    square = mass * mass
    phi = lattice.phi.astype(mass.dtype)
    seg = lattice.start[:-1]
    within = (congruence - np.add.reduceat(square // phi, seg)).astype(np.float64)
    within -= np.add.reduceat((square % phi).astype(np.float64) / lattice.phi, seg)
    phi = lattice.phi.astype(np.float64)
    q_row = np.repeat(q.astype(np.float64), np.diff(lattice.start))
    # x/q times the density q/phi * cw, rounded as the per-modulus reference of
    # the tests rounds it: where V_q is 0 (k = 1, q | x) both are rounding noise
    main = (x / q_row) * (q_row / phi * cw)
    g = mass.astype(np.float64)
    return (
        # within >= 0 exactly; the float remainder sum can pass it by rounding
        np.maximum(within, 0.0),
        np.add.reduceat(phi * (g / phi - main) ** 2, seg),
        np.add.reduceat(-2.0 * main * g, seg),
        np.add.reduceat(phi * main * main, seg),
    )


def variance_total(
    table: DkTable,
    x: int,
    Q: int,
    *,
    threads: int = 1,
) -> VarianceReport:
    """V(x, Q) plus the three expansion terms, for every q <= Q at once.

    One FFT autocorrelation gives every congruence term, one set of strided
    sums every gcd-class mass, and one table of class-mass polynomials every
    main term; see _variances.  `threads` is accepted for existing
    callers and has no effect.
    """
    (report,) = _variances(table, [(x, Q)])
    return report


def _exp_sums(cls: ResidueClassSums) -> np.ndarray:
    """S_X(a/q) for a = 1..q from one length-q DFT of the class sums.

    The DFT of the sums by residue b = 0..q-1 holds S(-b/q) at index b, so
    a = 1..q reads it backwards.
    """
    return np.fft.fft(np.roll(cls.sums[1:], 1))[::-1]


def parseval_check(table: DkTable, q: int, x: int) -> tuple[float, float]:
    """Both sides of sum_a E^2 = (1/q) sum_a |Delta(a/q)|^2.

    The left side runs through class sums and the density table of q; the
    right side through the exponential sums of every a (one DFT) less
    x M(q/g)/(q/g), g = gcd(a, q), from the same class sums.  Agreement is
    an exact identity up to rounding.
    """
    cls = ap_sums(table, q, x)
    delta, phi, polys = _residue_polys(q, table.k)
    e = _class_errors(cls, delta, phi, eval_logpoly(polys, float(x)))
    lhs = math.fsum(float(t) for t in e * e)
    divs = delta.tolist()  # ascending, as Python ints for the m_poly cache
    main = np.array(
        [x * eval_logpoly(m_poly(q // g, table.k), float(x)) / (q // g) for g in divs]
    )
    d = _exp_sums(cls) - main[gcd_index(divs)]
    rhs = math.fsum((d.real * d.real + d.imag * d.imag).tolist()) / q
    return lhs, rhs


def expansion_budget(x: int, Q: int, budget: int) -> None:
    """ResourceError unless the ~x*Q element operations of the direct side
    of variance_expansion_check fit in budget."""
    if x * Q > budget:
        raise ResourceError(
            f"expansion check needs ~{x * Q} element operations, budget {budget}"
        )


def variance_expansion_check(
    table: DkTable,
    x: int,
    Q: int,
    *,
    budget: int = DEFAULT_WORK_BUDGET,
) -> tuple[float, float]:
    """V(x, Q) computed directly, as sum_q sum_a E(q, a)^2 over the class sums
    of each modulus (O(xQ) work), against its three-term expansion from the
    all-moduli engine (variance_total), which shares neither the class sums
    nor the squares.  The direct side reads its densities from a walk of
    its own over the lattice blocks of 1..Q.

    The expansion cancels: CertificateError when its `cancellation` could
    reach IDENTITY_TOL, the gate the two sides are compared at.
    """
    if not 1 <= Q <= x <= table.x:
        raise DomainError(f"need 1 <= Q <= x <= {table.x}, got Q={Q}, x={x}")
    expansion_budget(x, Q, budget)
    report = variance_total(table, x, Q)
    if report.cancellation >= IDENTITY_TOL:
        raise CertificateError(
            f"expansion terms cancel: rounding may reach {report.cancellation:.2e} "
            f"of V(x, Q), gate {IDENTITY_TOL:g}"
        )
    direct = []
    for q, lattice, polys in _moduli_blocks([Q], table.k):
        cw = eval_logpoly(polys, float(x))
        for m, a, b in zip(q.tolist(), lattice.start[:-1], lattice.start[1:]):
            cls = ap_sums(table, m, x)
            e = _class_errors(cls, lattice.delta[a:b], lattice.phi[a:b], cw[a:b])
            direct.append(float(np.sum(e * e)))
    expanded = float(report.congruence_term) + report.cross_term + report.main_term
    return math.fsum(direct), expanded


def density_square_sum_check(q: int, x: float, k: int) -> tuple[float, float]:
    """sum_a f(q, a)^2 at x, as sum phi f^2 over the gcd classes of q, versus
    q times the quadratic-mean polynomial."""
    _, phi, polys = _residue_polys(q, k)
    f = q * eval_logpoly(polys, x) / phi
    lhs = math.fsum((phi * f * f).tolist())
    rhs = q * eval_logpoly(f_star(q, k), x)
    return lhs, rhs


def dirichlet_sums(table: DkTable, q: int, N: int) -> list[tuple[int, float, float, float]]:
    """(delta, partial, tail, full) for every delta | q, ascending.

    `partial` sums d_k(n)/n^2 over n <= N with gcd(n, q) = delta, and
    `full` is the whole series, zeta(2)^k = (pi^2/6)^k times the correction
    product evaluated directly at s = 2.  `partial` falls short of it by the
    positive tail over n > N, which shrinks like q (log N)^(k-1) / N, so a
    fixed-tolerance comparison must add `tail`, its prediction.

    Abel summation over the constrained count A(t) = sum_{n<=t} d_k(n) gives
    tail = -A(N)/N^2 + 2 int_N^oo A(t) t^-3 dt.  A(N) is exact from the class
    sums; inside the integral A(t) is replaced by its main term t P(log t),
    P = sum_j r_j (log t)^j the class-mass polynomial of (q, delta), and
        2 int_N^oo (log t)^j t^-2 dt = (2/N) sum_{i<=j} (j!/i!) (log N)^i.
    One pass of class sums serves every delta.
    """
    if not 1 <= N <= table.x:
        raise DomainError(f"cutoff must lie in 1..{table.x}, got {N}")
    k = table.k
    delta, _, polys = _residue_polys(q, k)
    classes = gcd_index(delta)
    sums = ap_sums(table, q, N).sums[1:]
    n = np.arange(1, N + 1, dtype=np.float64)
    terms = table.values[1 : N + 1].astype(np.float64) / n**2.0
    of_n = np.resize(classes, N)
    L = math.log(N)
    out = []
    for c, d in enumerate(delta.tolist()):
        partial = math.fsum(terms[of_n == c].tolist())
        count = sum(sums[classes == c].tolist())
        integral = sum(
            r * sum(math.factorial(j) / math.factorial(i) * L**i for i in range(j + 1))
            for j, r in enumerate(polys[c].tolist())
        )
        tail = -count / N**2 + 2.0 * integral / N
        full = (math.pi**2 / 6.0) ** k * correction_value_at(q, d, k, 2.0)
        out.append((d, partial, tail, full))
    return out


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


def deviation_decay_slope(table: DkTable, q: int, a: int, cutoffs) -> tuple[list[float], float]:
    """|Delta_X(a/q)| at each cutoff plus the slope of log|Delta| vs log X."""
    mags = [abs(delta_value(ap_sums(table, q, X), a).value) for X in cutoffs]
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


def growth_study(table: DkTable, points) -> GrowthStudy:
    """Compute V(x, Q) at every point (x, Q), in the given order, with
    1 <= Q <= x <= table.x.  The lattice blocks of 1..max Q, cut after each
    Q, are built once, each shared across the points while it is held.
    """
    rows = [(r.x, r.Q, r.total, r.total / (r.x * r.Q)) for r in _variances(table, points)]
    if len(rows) < 2:
        slope = math.nan  # a slope needs at least two grid points
    else:
        slope = regression_slope(
            [math.log(x * Q) for x, Q, _, _ in rows],
            [math.log(v) for _, _, v, _ in rows],
        )
    return GrowthStudy(k=table.k, rows=tuple(rows), slope=slope)
