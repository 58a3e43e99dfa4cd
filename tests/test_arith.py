import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apvar import (
    DomainError,
    ResourceError,
    d_k_of,
    divisors,
    euler_phi,
    factorize,
    mobius,
    ramanujan_sum,
    sieve_dk,
)
from apvar import arith, checks
from apvar.arith import columns_up_to, divisor_lattice, gcd_index, primes_up_to, totients
from apvar.farey import MAX_VERIFY_ORDER


def trial_division(n):
    """Independent factorization oracle."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append((p, a))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def lattice_oracle(moduli):
    """Every DivisorLattice array, built one modulus at a time from factorize:
    rows by modulus then in mixed-radix order of the divisors, the distinct
    (p, alpha) ascending, and at each rank r the links (row, column, up) of
    every row of a modulus with more than r primes, in that order, where
    column counts alpha + 1 columns for each pair before (p, alpha) plus
    beta = v_p(delta)."""
    pairs = sorted({pa for q in moduli for pa in factorize(q)})
    first = dict(zip(pairs, np.cumsum([0] + [a + 1 for _, a in pairs]).tolist()))
    start, delta, phi, links = [0], [], [], []
    for q in moduli:
        fac = factorize(q)
        radix = [a + 1 for _, a in fac]
        # the exponents of the divisor at each mixed-radix position t
        digits = [
            [t // math.prod(radix[:j]) % n for j, n in enumerate(radix)]
            for t in range(math.prod(radix))
        ]
        divs = [math.prod(p**b for (p, _), b in zip(fac, v)) for v in digits]
        for r, (p, a) in enumerate(fac):
            if r == len(links):
                links.append([])
            for t, (d, v) in enumerate(zip(divs, digits)):
                up = start[-1] + divs.index(d * p) if v[r] < a else -1
                links[r].append((start[-1] + t, first[p, a] + v[r], up))
        delta += divs
        phi += [euler_phi(q // d) for d in divs]
        start.append(start[-1] + len(divs))
    columns = (start, delta, phi, *np.array(pairs, dtype=np.int64).reshape(-1, 2).T)
    out = {
        name: np.array(col, dtype=np.int64)
        for name, col in zip(("start", "delta", "phi", "p", "alpha"), columns)
    }
    out["links"] = [tuple(np.array(col, dtype=np.int64) for col in zip(*level)) for level in links]
    return out


def lattice_columns(lat):
    """(p, alpha, beta) of every column of a DivisorLattice."""
    p, alpha = lat.columns.p, lat.columns.alpha
    width = alpha + 1
    beta = np.arange(width.sum()) - (width.cumsum() - width).repeat(width)
    return p.repeat(width), alpha.repeat(width), beta


def assert_links_equal(got, want):
    assert len(got) == len(want)
    for r, (level, wanted) in enumerate(zip(got, want)):
        assert len(level) == len(wanted) == 3
        for name, col, w in zip(("row", "column", "up"), level, wanted):
            assert np.array_equal(col, w), (r, name)


def ramanujan_exponential(q, n):
    """Direct complex exponential sum oracle for c_q(n)."""
    total = sum(
        cmath.exp(2j * math.pi * a * n / q)
        for a in range(1, q + 1)
        if math.gcd(a, q) == 1
    )
    assert abs(total.imag) < 1e-9
    return total


class TestFactorTable:
    """The smallest-prime-factor oracle of the tests, against the definition."""

    def test_small_table_matches_definition(self, spf_builder):
        assert spf_builder(10)[2:].tolist() == [2, 3, 2, 5, 2, 7, 2, 3, 2]

    def test_smallest_limit(self, spf_builder):
        assert spf_builder(2)[2] == 2

    def test_limit_below_two_rejected(self, spf_builder):
        with pytest.raises(ValueError):
            spf_builder(1)

    def test_invariants_hold(self, spf_builder):
        spf = spf_builder(5000)
        for n in range(2, 5001):
            p = int(spf[n])
            assert n % p == 0
            assert spf[p] == p  # p is prime
            assert p * p <= n or p == n

    def test_large_table_spot_check(self, spf_table_1e7):
        n = 9999991
        assert trial_division(n) == [(n, 1)]  # oracle: n is prime
        assert spf_table_1e7[n] == n


class TestFactorize:
    def test_one_gives_empty_product(self):
        assert factorize(1) == []

    def test_twelve(self):
        assert factorize(12) == [(2, 2), (3, 1)]

    def test_large_prime(self, spf_table_1e7):
        assert spf_table_1e7[9999991] == 9999991
        assert factorize(9999991) == [(9999991, 1)]

    def test_out_of_range_rejected(self):
        for n in (0, -12):
            with pytest.raises(DomainError):
                factorize(n)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_product_reconstructs_and_matches_oracle(self, n):
        fac = factorize(n)
        assert math.prod(p**a for p, a in fac) == n
        assert fac == trial_division(n)

    def test_primes_strictly_increase(self, spf_table_1e7):
        for n in (2, 360, 9699690, 2**20):
            fac = factorize(n)
            assert all(p < q for (p, _), (q, _) in zip(fac, fac[1:]))
            assert fac[0][0] == spf_table_1e7[n]


class TestMultiplicativeFunctions:
    def test_conventions_at_one(self):
        assert mobius(1) == 1
        assert euler_phi(1) == 1

    def test_twelve(self):
        assert mobius(12) == 0
        assert euler_phi(12) == 4

    def test_thirty(self):
        assert mobius(30) == -1
        assert euler_phi(30) == 8

    def test_mobius_zero_iff_not_squarefree(self):
        for n in range(1, 500):
            squarefree = all(a == 1 for _, a in trial_division(n))
            assert (mobius(n) != 0) == squarefree
            assert mobius(n) in (-1, 0, 1)

    def test_phi_counts_coprime_residues(self):
        for n in range(1, 200):
            assert euler_phi(n) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


class TestDk:
    def test_value_at_one(self):
        for k in range(1, 9):
            assert d_k_of(1, k) == 1

    def test_two_fold_counts_divisors(self):
        assert d_k_of(6, 2) == 4

    def test_three_fold_by_triple_enumeration(self):
        n = 12
        count = sum(
            1
            for u1 in divisors(n)
            for u2 in divisors(n // u1)
            if (n // u1) % u2 == 0
        )
        assert count == 18
        assert d_k_of(n, 3) == count

    def test_k_zero_rejected(self):
        with pytest.raises(DomainError):
            d_k_of(6, 0)

    def test_dirichlet_recursion(self):
        # d_k = d_{k-1} convolved with 1, for n <= 1e4 sampled and k <= 6
        for n in range(1, 300):
            for k in range(2, 7):
                assert d_k_of(n, k) == sum(d_k_of(d, k - 1) for d in divisors(n))
        for n in (1024, 2310, 9973, 9999, 10000):
            for k in range(2, 7):
                assert d_k_of(n, k) == sum(d_k_of(d, k - 1) for d in divisors(n))


class TestDkMax:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_equals_the_sieved_maximum(self, k):
        # every x up to 2000, then past 7! = 5040, 2^16, 10^5 and 9! = 362880
        running = np.maximum.accumulate(sieve_dk(362880, k).values)
        for x in (*range(1, 2001), 5040, 65535, 65536, 10**5, 362879, 362880):
            assert arith.d_k_max(x, k) == running[x], x

    def test_the_readme_figures(self):
        assert arith.d_k_max(10**7, 3) == 22680
        assert arith.d_k_max(10**7, 8) == 1304709120


class TestDivisors:
    def test_one(self):
        assert divisors(1) == [1]

    def test_twelve(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_count_matches_d2(self):
        assert len(divisors(60)) == d_k_of(60, 2) == 12

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            divisors(0)

    def test_sorted_and_complete(self):
        for q in range(1, 200):
            ds = divisors(q)
            assert ds == sorted(ds)
            assert ds == [d for d in range(1, q + 1) if q % d == 0]


class TestTotients:
    def test_matches_euler_phi(self):
        assert totients(0).tolist() == [0]
        for n in (2000, MAX_VERIFY_ORDER):
            assert totients(n).tolist() == [0] + [euler_phi(m) for m in range(1, n + 1)], n


class TestGcdIndex:
    def test_matches_gcd_classes(self):
        rng = np.random.default_rng(0)
        for q in range(1, 501):
            ds = divisors(q)
            want = np.gcd(np.arange(1, q + 1), q)
            assert np.array_equal(np.array(ds)[gcd_index(ds)], want), q
            # divisors in any order: shuffled, and as the lattice lists them
            shuffled = rng.permutation(ds)
            assert np.array_equal(shuffled[gcd_index(shuffled)], want), q
            lattice = divisor_lattice([q]).delta
            assert np.array_equal(lattice[gcd_index(lattice)], want), q


class TestDivisorLattice:
    def test_rows_and_entries_match_divisors(self):
        moduli = [1, 2, 12, 97, 360, 1024, 30030, *range(400, 460)]
        lat = divisor_lattice(moduli)
        for i, q in enumerate(moduli):
            # the rows of q, in mixed-radix order, sorted by delta
            rows = np.arange(lat.start[i], lat.start[i + 1])
            rows = rows[np.argsort(lat.delta[rows])]
            assert lat.delta[rows].tolist() == divisors(q)
            assert lat.phi[rows].tolist() == [euler_phi(q // d) for d in divisors(q)]
        # every distinct prime power of the moduli once, ascending
        pairs = sorted({pa for q in moduli for pa in factorize(q)})
        assert list(zip(lat.columns.p.tolist(), lat.columns.alpha.tolist())) == pairs
        col_p, col_alpha, col_beta = lattice_columns(lat)
        seen = 0
        for r, level in enumerate(lat.links):
            for row, column, up in zip(*level):
                p, alpha, beta = col_p[column], col_alpha[column], col_beta[column]
                i = int(np.searchsorted(lat.start, row, side="right")) - 1
                q, d = moduli[i], int(lat.delta[row])
                assert factorize(q)[r][0] == p and q % p**alpha == 0
                assert (q // p**alpha) % p != 0
                assert d % p**beta == 0 and (d // p**beta) % p != 0
                assert (up >= 0) == (beta < alpha)
                if up >= 0:
                    assert lat.delta[up] == d * p and lat.start[i] <= up < lat.start[i + 1]
                seen += 1
        assert seen == sum(len(factorize(q)) * len(divisors(q)) for q in moduli)

    def test_out_of_range_rejected(self):
        for moduli in ([0, 5], [2**63], [-1], [2**64 + 5]):
            with pytest.raises(DomainError):
                divisor_lattice(moduli)

    @pytest.mark.parametrize(
        "modulus", (2**13, 4099 * 3), ids=("power past the table", "prime past the table")
    )
    def test_columns_missing_a_prime_power_rejected(self, modulus):
        with pytest.raises(DomainError, match="columns lack"):
            divisor_lattice([modulus], columns_up_to(2**12))

    @pytest.mark.parametrize(
        "moduli",
        (range(1, 2**12 + 1), [1], [97, 64, 1], [2**60], [30030 * 1024], [10**12 + 39]),
        ids=("1..2^12", "one", "97,64,1", "2^60", "30030*2^10", "10^12+39"),
    )
    def test_arrays_match_the_one_modulus_oracle(self, moduli):
        lat = divisor_lattice(moduli)
        want = lattice_oracle(list(moduli))
        assert_links_equal(lat.links, want.pop("links"))
        for name, col in want.items():
            got = getattr(lat.columns if name in ("p", "alpha") else lat, name)
            assert np.array_equal(got, col), name

    @pytest.mark.parametrize(
        "q",
        (
            1048573**2,  # the largest prime below 2^20, squared: the last stage finds it
            1048573 * 1048583,  # 1048583 > 2^20 is the prime left over
            2**22 * (2**40 - 87),  # a prime cofactor just below 2^40
        ),
    )
    def test_cofactors_below_two_to_the_forty_factor(self, q):
        lat = divisor_lattice([q])
        assert sorted(lat.delta.tolist()) == divisors(q)
        assert lat.columns.p.tolist() == [p for p, _ in factorize(q)]

    @pytest.mark.parametrize(
        "q", (2**61 - 1, 1048583 * 1048589, 3 * (2**61 - 1), 1099513724941)
    )
    def test_cofactor_past_the_trial_division_bound_is_resource_error(self, q):
        # no prime up to 2^20 divides what is left, and it is (2^20 + 1)^2 or
        # more: 1099513724941 is the least prime past that bound
        with pytest.raises(ResourceError):
            divisor_lattice([6, q])


def prime_power_rows(moduli):
    """The (owner, p, alpha) lists of arith._prime_powers, from factorize one
    modulus at a time."""
    rows = [(i, p, a) for i, q in enumerate(moduli) for p, a in factorize(int(q))]
    return np.array(rows, dtype=np.int64).reshape(-1, 3).T.tolist()


class TestPrimePowers:
    @pytest.mark.parametrize(
        "moduli",
        (
            *([2**a] for a in range(1, 63)),
            *([3**a] for a in range(1, 40)),
            [10**12 + 39],
            [2**40 + 15],
            [2**62, 3**39, 2**31 * 3**19, 7**22, 1, 6, 2**47 - 1, 5**27],
            *(range(lo, lo + 1024) for lo in range(1, 2**16, 1024)),
        ),
    )
    def test_rows_match_factorize(self, moduli):
        # every exponent int64 holds
        got = arith._prime_powers(np.array(moduli, dtype=np.int64))
        assert [col.tolist() for col in got] == prime_power_rows(moduli)


class TestPrimesUpTo:
    def test_matches_trial_division(self):
        for n in range(0, 300):
            want = [p for p in range(2, n + 1) if trial_division(p) == [(p, 1)]]
            assert primes_up_to(n).tolist() == want

    def test_prime_counts(self):
        assert [primes_up_to(10**e).size for e in range(1, 7)] == [4, 25, 168, 1229, 9592, 78498]


class TestColumnsUpTo:
    @pytest.mark.parametrize("n", (1, 2, 3, 4, 8, 9, 100, 1024, 1025, 2**12))
    def test_every_prime_power_once_in_order(self, n):
        want = sorted(
            (p, a) for p in range(2, n + 1) if trial_division(p) == [(p, 1)]
            for a in range(1, n.bit_length()) if p**a <= n
        )
        columns = columns_up_to(n)
        assert list(zip(columns.p.tolist(), columns.alpha.tolist())) == want
        # a lattice's own columns are the same layout, pair by pair
        lat = divisor_lattice([p**a for p, a in want])
        for name in ("p", "alpha", "first", "pair", "beta", "power", "totient"):
            assert np.array_equal(getattr(lat.columns, name), getattr(columns, name)), name


class TestRamanujanSum:
    def test_modulus_one(self):
        for n in range(1, 10):
            assert ramanujan_sum(1, n) == 1

    def test_totient_when_q_divides_n(self):
        assert ramanujan_sum(5, 10) == euler_phi(5) == 4

    def test_specific_value_against_exponential(self):
        assert ramanujan_sum(6, 4) == -1
        assert abs(ramanujan_exponential(6, 4).real - (-1)) < 1e-9

    def test_zero_modulus_rejected(self):
        with pytest.raises(DomainError):
            ramanujan_sum(0, 1)

    def test_matches_exponential_sum_exhaustively(self):
        for q in range(1, 101):
            for n in range(1, 101):
                direct = ramanujan_exponential(q, n).real
                got = ramanujan_sum(q, n)
                assert abs(direct - got) < 1e-9
                assert got == round(direct)

    def test_orthogonality_exact(self):
        # sum_a c_d(a) c_d'(a) over a complete residue system mod q
        for q in range(1, 101):
            ds = divisors(q)
            cols = {d: [ramanujan_sum(d, a) for a in range(1, q + 1)] for d in ds}
            for d1 in ds:
                for d2 in ds:
                    got = sum(u * v for u, v in zip(cols[d1], cols[d2]))
                    want = q * euler_phi(d1) if d1 == d2 else 0
                    assert got == want

    def test_orthogonality_check_uses_library_sums(self, monkeypatch):
        # the check evaluates c_d at gcd(a, q): one wrong value at
        # (d, gcd) = (12, 4) must fail it, first at q = 12
        right = arith.ramanujan_sum

        def wrong_at_12_4(q, n):
            return right(q, n) + ((q, n) == (12, 4))

        monkeypatch.setattr(arith, "ramanujan_sum", wrong_at_12_4)
        row = checks.ramanujan_orthogonality()
        assert not row["pass"] and row["q"] == 12

    def test_divisor_indicator_transform(self):
        # sum_{d|q} c_d(a) = q if q | a else 0
        for q in range(1, 101):
            ds = divisors(q)
            for a in range(1, q + 1):
                got = sum(ramanujan_sum(d, a) for d in ds)
                assert got == (q if a % q == 0 else 0)
