"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (test outcomes mirror the
printed lines; add -s to see the details inline).
"""

import math
import os
import time

import numpy as np

from apvar import (
    ap_main_term,
    ap_sums,
    checks,
    deviation_decay_slope,
    divisors,
    eval_logpoly,
    growth_study,
    m_poly,
    ramanujan_sum,
    sieve,
    sieve_dk,
    square_sum,
    total_sum,
)
from apvar.cli import main as cli_main
from apvar.stats import DEFAULT_WORK_BUDGET

MAX_THREADS = max(2, os.cpu_count() or 2)


def report(number, ok, detail):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_sieve_matches_naive_convolution():
    """Sieved tables equal naive divisor-convolution values, n<=1e4, k<=6."""
    n = 10**4
    start = time.perf_counter()
    naive = [0] + [1] * n
    ok = True
    for k in range(1, 7):
        if k > 1:
            out = [0] * (n + 1)
            for d in range(1, n + 1):
                vd = naive[d]
                for m in range(d, n + 1, d):
                    out[m] += vd
            naive = out
        table = sieve_dk(n, k)
        ok = ok and table.values[1:].tolist() == naive[1:]
    elapsed = time.perf_counter() - start
    report(1, ok and elapsed < 1.0, f"exact match k=1..6, {elapsed:.2f}s (< 1 s)")
    assert ok
    assert elapsed < 1.0


def test_criterion_02_hyperbola_checkpoint():
    """total_sum(100, 2) = 482 and square_sum(10, 2) = 83, exactly."""
    hyperbola = sum(100 // d for d in range(1, 101))
    divisor_counts = [
        sum(1 for d in range(1, n + 1) if n % d == 0) for n in range(1, 11)
    ]
    total = total_sum(sieve_dk(100, 2))
    square = square_sum(sieve_dk(10, 2))
    ok = total == hyperbola == 482 and square == sum(v * v for v in divisor_counts) == 83
    report(2, ok, f"total={total} (oracle {hyperbola}), square={square}")
    assert ok


def test_criterion_03_parseval_identity(table_k2_1e4, table_k3_1e4):
    """Class-error energy equals deviation energy / q, q<=50, x=1e4, k=2,3."""
    start = time.perf_counter()
    rows = {t.k: checks.parseval(t, 10**4) for t in (table_k2_1e4, table_k3_1e4)}
    elapsed = time.perf_counter() - start
    k, worst = max(rows.items(), key=lambda item: item[1]["rel_diff"])
    passed = all(row["pass"] for row in rows.values())
    ok = passed and elapsed < 30.0
    report(
        3,
        ok,
        f"worst rel diff {worst['rel_diff']:.2e} at k={k} q={worst['q']} "
        f"(<= 1e-9), {elapsed:.1f}s (< 30 s)",
    )
    assert passed
    assert elapsed < 30.0


def test_criterion_04_variance_expansion(table_k2_1e4, table_k3_1e4):
    """Direct variance equals its three-term expansion at desk scale."""
    start = time.perf_counter()
    row1 = checks.variance_expansion(table_k2_1e4, 10**3, 50, budget=DEFAULT_WORK_BUDGET)
    row2 = checks.variance_expansion(table_k3_1e4, 10**4, 100, budget=DEFAULT_WORK_BUDGET)
    rel1, rel2 = row1["rel_diff"], row2["rel_diff"]
    elapsed = time.perf_counter() - start
    ok = rel1 < 1e-9 and rel2 < 1e-9 and elapsed < 60.0
    report(
        4,
        ok,
        f"rel diffs {rel1:.2e}, {rel2:.2e} (< 1e-9), {elapsed:.1f}s (< 60 s)",
    )
    assert row1["pass"] and row2["pass"]
    assert rel1 < 1e-9 and rel2 < 1e-9
    assert elapsed < 60.0


def test_criterion_05_main_term_reconstruction():
    """Residue-route density equals its divisor-lattice transform,
    coefficientwise, q<=60, a<=q, k<=5."""
    start = time.perf_counter()
    csum_cache = {}

    def c(d, a):
        key = (d, a % d)
        if key not in csum_cache:
            csum_cache[key] = ramanujan_sum(d, a)
        return csum_cache[key]

    worst = 0.0
    for k in range(1, 6):
        for q in range(1, 61):
            ms = {d: m_poly(d, k) for d in divisors(q)}
            for a in range(1, q + 1):
                acc = [0.0] * k
                for d, m in ms.items():
                    w = c(d, a) / d
                    for i, coeff in enumerate(m):
                        acc[i] += w * coeff
                f = ap_main_term(q, a, k)
                worst = max(
                    worst, max(abs(u - v) for u, v in zip(f, acc))
                )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    report(5, ok, f"worst coeff diff {worst:.2e} (< 1e-10), {elapsed:.1f}s (< 10 s)")
    assert worst < 1e-10
    assert elapsed < 10.0


def test_criterion_06_dirichlet_series_correction():
    """Partial sums at s=2, n<=1e5, plus their predicted tail, against
    zeta(2)^k times the directly evaluated correction product: relative
    tolerance 1e-3 for all q<=30, delta|q, k<=4.

    The partial sum alone stops short of the full series by the positive
    tail beyond n=1e5, which shrinks like q (log n)^(k-1)/n and exceeds 1e-3
    in the classes where delta carries all of q.  The tail comes from Abel
    summation (`stats.dirichlet_sums`): the exact constrained count at the cutoff
    plus the residue polynomial that criterion 05 verifies.  The corrected
    residual is then of size n^-1/2, far inside the tolerance, so a
    correction product off by 1e-3 in any single class fails.  The report
    shows the worst raw deficit beside the worst corrected residual.
    """
    start = time.perf_counter()
    rows = {k: checks.dirichlet(sieve_dk(10**5, k), 10**5) for k in (1, 2, 3, 4)}
    elapsed = time.perf_counter() - start
    failing = sum(row["failing"] for row in rows.values())
    cases = sum(row["cases"] for row in rows.values())
    kr, raw = max(rows.items(), key=lambda item: item[1]["raw_rel_diff"])
    kw, worst = max(rows.items(), key=lambda item: item[1]["rel_diff"])
    ok = not failing and elapsed < 60.0
    detail = (
        f"worst raw deficit {raw['raw_rel_diff']:.2e} at (k,q,delta)="
        f"{(kr, raw['raw_q'], raw['raw_delta'])}, worst tail-corrected residual "
        f"{worst['rel_diff']:.2e} at (k,q,delta)={(kw, worst['q'], worst['delta'])}"
    )
    report(
        6,
        ok,
        f"{failing} of {cases} cases exceed 1e-3; {detail}; "
        f"{elapsed:.1f}s (< 60 s)",
    )
    assert cases == 444
    assert elapsed < 60.0
    assert not failing, f"{failing} of {cases} cases exceed 1e-3: {detail}"


def test_criterion_07_main_term_convergence(table_k2_1e6, table_k3_1e6, table_k4_1e6):
    """A(x;q,a) / (x f(q,a)/q) near 1 at x=1e6 and improving from x=1e4."""
    start = time.perf_counter()
    sieve_time = time.perf_counter()
    fresh = sieve_dk(10**6, 4)
    sieve_time = time.perf_counter() - sieve_time
    assert np.array_equal(fresh.values, table_k4_1e6.values)

    worst_gap = 0.0
    improved = 0
    pairs = 0
    for table in (table_k2_1e6, table_k3_1e6, table_k4_1e6):
        k = table.k
        for q in range(1, 13):
            at_large = ap_sums(table, q, 10**6).sums
            at_small = ap_sums(table, q, 10**4).sums
            for a in range(1, q + 1):
                f = ap_main_term(q, a, k)
                r_large = int(at_large[a]) / (10**6 * eval_logpoly(f, 1e6) / q)
                r_small = int(at_small[a]) / (10**4 * eval_logpoly(f, 1e4) / q)
                worst_gap = max(worst_gap, abs(r_large - 1))
                improved += abs(r_large - 1) < abs(r_small - 1)
                pairs += 1
    elapsed = time.perf_counter() - start
    frac = improved / pairs
    ok = worst_gap <= 0.05 and frac >= 0.9 and sieve_time < 10.0 and elapsed < 300.0
    report(
        7,
        ok,
        f"worst |R-1| {worst_gap:.3f} (<= 0.05), improved {improved}/{pairs} "
        f"(>= 90%), sieve {sieve_time:.1f}s (< 10 s), total {elapsed:.1f}s",
    )
    assert worst_gap <= 0.05
    assert frac >= 0.9
    assert sieve_time < 10.0
    assert elapsed < 300.0


def test_criterion_08_deviation_decay(table_k2_1e6, table_k3_1e6):
    """log|Delta_X| slopes stay below 1 - 1/(2(k-1)) + 0.15."""
    cutoffs = (10**4, 10**5, 10**6)
    worst_margin = -math.inf
    detail = None
    for table, k in ((table_k2_1e6, 2), (table_k3_1e6, 3)):
        bound = 1 - 1 / (2 * (k - 1)) + 0.15
        for q in range(1, 7):
            for a in range(1, q + 1):
                if math.gcd(a, q) != 1:
                    continue
                _, slope = deviation_decay_slope(table, q, a, cutoffs)
                if slope - bound > worst_margin:
                    worst_margin = slope - bound
                    detail = (k, q, a, slope, bound)
    ok = worst_margin <= 0.0
    k, q, a, slope, bound = detail
    report(
        8,
        ok,
        f"max slope-vs-bound margin {worst_margin:+.3f} "
        f"(slope {slope:.3f} vs bound {bound:.3f} at k={k} q={q} a={a})",
    )
    assert ok


def test_criterion_09_farey_suite():
    """Exact tiling and both inclusions for gamma<=300; lengths for gamma<=1e3."""
    start = time.perf_counter()
    tiling = checks.farey_containment(300)
    lengths = checks.farey_histogram()
    elapsed = time.perf_counter() - start
    ok = tiling["pass"] and lengths["pass"] and elapsed < 5.0
    report(
        9,
        ok,
        f"{tiling['lhs']:.0f} orders violate (first: {tiling['gamma']}), "
        f"lengths ok={lengths['pass']} (first bad q: {lengths['q']}), "
        f"{elapsed:.1f}s (< 5 s)",
    )
    assert tiling["pass"]
    assert lengths["pass"]
    assert elapsed < 5.0


def test_criterion_10_ramanujan_orthogonality():
    """sum_a c_d(a) c_d'(a) = q phi(d) [d=d'], exactly, q<=100."""
    start = time.perf_counter()
    row = checks.ramanujan_orthogonality()
    elapsed = time.perf_counter() - start
    ok = row["pass"]
    ok_time = elapsed < 1.0
    report(
        10,
        ok and ok_time,
        f"{row['lhs']:.0f} mismatches for q<=100 (first (q,d1,d2): "
        f"{(row['q'], row['d1'], row['d2'])}), {elapsed:.2f}s (< 1 s)",
    )
    assert ok
    assert ok_time


def test_criterion_11_growth_study():
    """Slope of log V against log(xQ) for k=2, Q=x^(3/4), x=2^14..2^18."""
    start = time.perf_counter()
    row = checks.growth(sieve_dk(2**18, 2), checks.growth_grid(2**18))
    elapsed = time.perf_counter() - start
    ok = row["pass"] and elapsed < 180.0
    rows = ", ".join(f"(x=2^{int(math.log2(x))}, V/xQ={r:.2f})" for x, _, _, r in row["rows"])
    report(
        11,
        ok,
        f"slope {row['lhs']:.4f} in [0.85, 1.2]; {rows}; {elapsed:.0f}s (< 3 min)",
    )
    assert row["pass"]
    assert elapsed < 180.0


def test_criterion_12_determinism(capsys, monkeypatch):
    """Thread count never changes results: sieve tables bit for bit,
    growth rows exactly, CLI reports byte for byte."""
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", 4096)  # 4096-value segments
    sieve_1 = sieve_dk(40000, 3, threads=1)
    sieve_n = sieve_dk(40000, 3, threads=MAX_THREADS)
    tables_equal = np.array_equal(sieve_1.values, sieve_n.values)

    grid = [(x, round(x**0.75)) for x in (2**14, 2**15)]
    g_1 = growth_study(sieve_dk(2**15, 2, threads=1), grid)
    g_n = growth_study(sieve_dk(2**15, 2, threads=MAX_THREADS), grid)
    growth_equal = g_1.rows == g_n.rows and g_1.slope == g_n.slope

    outputs = []
    for threads in ("1", str(MAX_THREADS)):
        code = cli_main(
            ["verify", "--suite", "identities", "--x", "3000", "--k", "2",
             "--threads", threads]
        )
        outputs.append(capsys.readouterr().out)
        assert code == 0
    cli_equal = outputs[0] == outputs[1]

    ok = tables_equal and growth_equal and cli_equal
    report(
        12,
        ok,
        f"sieve bitwise={tables_equal}, growth exact={growth_equal}, "
        f"cli bytes={cli_equal} "
        f"(1 vs {MAX_THREADS} threads)",
    )
    assert ok
