import math

import numpy as np
import pytest

from apvar import (
    DomainError,
    ap_main_term,
    checks,
    correction_value_at,
    d_k_of,
    divisors,
    euler_phi,
    eval_logpoly,
    f_star,
    factorize,
    local_correction_series,
    m_poly,
    ramanujan_sum,
    residues,
    zeta_power_series,
)
from apvar.arith import columns_up_to, divisor_lattice, gcd_index
from apvar.residues import _STIELTJES, _local_series, _mul, _residue_polys, correction_table

GAMMA0 = 0.5772156649015328606065121
GAMMA1 = -0.0728158454836767248605864


def zeta_euler_maclaurin(s, terms=400, bernoulli_terms=4):
    """Independent high-accuracy zeta oracle for real s > 1."""
    import mpmath as mp

    with mp.workdps(40):
        s = mp.mpf(s)
        n = terms
        total = mp.fsum(mp.mpf(j) ** (-s) for j in range(1, n))
        total += mp.mpf(n) ** (1 - s) / (s - 1) + mp.mpf(n) ** (-s) / 2
        term = s / mp.mpf(n) ** (s + 1)
        total += mp.bernoulli(2) / 2 * term
        rising = s
        for r in range(2, bernoulli_terms + 1):
            rising *= (s + 2 * r - 3) * (s + 2 * r - 2)
            total += (
                mp.bernoulli(2 * r)
                / mp.factorial(2 * r)
                * rising
                / mp.mpf(n) ** (s + 2 * r - 1)
            )
        return float(total)


def stieltjes_oracle(n):
    """Independent high-precision expansion constants (Euler-Maclaurin route
    inside mpmath, 40 digits)."""
    import mpmath as mp

    with mp.workdps(40):
        return float(mp.stieltjes(n))


class TestStieltjesTable:
    def test_leading_constant_bracket(self):
        g = _STIELTJES
        assert 0.577215 < g[0] < 0.577216

    def test_all_constants_against_oracle(self):
        g = _STIELTJES
        assert len(g) == 7  # g_0..g_6: k = 8 reads them all
        for n, value in enumerate(g):
            assert value == pytest.approx(stieltjes_oracle(n), abs=1e-18, rel=1e-15)

    def test_truncated_series_reproduces_zeta_at_1p5(self):
        g = _STIELTJES
        u = 0.5
        series = 1 / u + sum(
            (-1) ** n * g[n] * u**n / math.factorial(n) for n in range(7)
        )
        assert abs(series - zeta_euler_maclaurin(1.5)) < 1e-8


class TestZetaPowerSeries:
    def test_simple_pole_residue(self):
        assert list(zeta_power_series(1)) == [1.0]

    def test_first_expansion_coefficients(self):
        # (1 + g0 u - g1 u^2)^3 = 1 + 3 g0 u + (3 g0^2 - 3 g1) u^2 + ...
        s = zeta_power_series(3)
        assert len(s) == 3 and s[0] == 1.0
        assert s[1] == pytest.approx(3 * GAMMA0, abs=1e-15)
        assert s[2] == pytest.approx(3 * GAMMA0**2 - 3 * GAMMA1, abs=1e-15)

    def test_square_has_doubled_residue_coefficient(self):
        s = zeta_power_series(2)
        assert len(s) == 2 and s[0] == 1.0
        assert s[1] == pytest.approx(2 * GAMMA0, abs=1e-14)

    def test_principal_coefficient_always_one(self):
        for k in range(1, 9):
            assert zeta_power_series(k)[0] == pytest.approx(1.0, abs=1e-13)

    def test_powers_agree_with_base_powering(self):
        # u zeta(1+u) = 1 + sum_j (-1)^j g_j u^(j+1) / j!, g_j from the oracle
        base = [(-1) ** j * stieltjes_oracle(j) / math.factorial(j) for j in range(7)]
        base = powered = np.array([1.0, *base])
        for k in range(1, 9):
            assert zeta_power_series(k) == pytest.approx(powered[:k], abs=1e-12)
            powered = _mul(powered, base)

    def test_order_beyond_table_rejected(self):
        # the table holds the constants of a pole of order k <= 8
        assert len(zeta_power_series(8)) == 8
        for k in (0, 9):
            with pytest.raises(DomainError):
                zeta_power_series(k)


class TestLocalCorrection:
    def test_pinned_exponent_value(self):
        s = local_correction_series(2, 1, 0, 2)
        assert s[0] == pytest.approx(0.25, abs=1e-15)
        with pytest.raises(ValueError):
            s[0] = 0.0  # the cache hands this array to every caller

    def test_free_exponent_complement(self):
        s = local_correction_series(2, 1, 1, 2)
        assert s[0] == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize("p", (2, 3, 7, 97))
    @pytest.mark.parametrize("k", (1, 2, 4))
    def test_alpha_one_cases_partition_unity(self, p, k):
        pinned = local_correction_series(p, 1, 0, k)
        free = local_correction_series(p, 1, 1, k)
        assert pinned + free == pytest.approx([1.0] + [0.0] * (k - 1), abs=1e-14)

    def test_beta_above_alpha_rejected(self):
        with pytest.raises(DomainError):
            local_correction_series(2, 1, 2, 2)

    def test_series_agrees_with_direct_value_near_expansion_point(self):
        # evaluate the k = 8 terms at u = 0.02 (s = 1.02), close enough to the
        # expansion point that the dropped tail is far below the tolerance
        u, k = 0.02, 8
        for p, alpha, beta in ((2, 2, 1), (3, 1, 0), (5, 2, 2)):
            s = local_correction_series(p, alpha, beta, k)
            series_value = sum(s[j] * u**j for j in range(k))
            direct = correction_value_at(p**alpha, p**beta, k, 1.0 + u)
            assert series_value == pytest.approx(direct, rel=1e-12)


class TestConstrainedCorrection:
    def test_trivial_modulus_is_one(self):
        (s,) = correction_table(divisor_lattice([1]), 3)
        assert list(s) == [1.0, 0.0, 0.0]

    def test_value_at_s1_for_q2(self):
        s = correction_table(divisor_lattice([2]), 2)[0]  # delta = 1
        assert s[0] == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("k", (3, 8))
    def test_rows_are_products_of_their_local_series(self, k):
        # one table over many moduli, each row against its own local factors,
        # k terms of each
        moduli = [*range(1, 2049), 2**60, 720720, 10**12 + 39, 2**40 + 15]
        lattice = divisor_lattice(moduli)
        table = correction_table(lattice, k)
        assert table.shape == (16242, k)
        for i, q in enumerate(moduli):
            fac = factorize(q)
            for row in range(lattice.start[i], lattice.start[i + 1]):
                d, want = int(lattice.delta[row]), np.eye(1, k)[0]
                for p, alpha in fac:
                    beta = 0
                    while d % p ** (beta + 1) == 0:
                        beta += 1
                    want = _mul(want, local_correction_series(p, alpha, beta, k))
                assert np.array_equal(table[row], want), (q, d)

    @pytest.mark.parametrize("k", (2, 3, 8))
    def test_rows_read_the_same_bytes_from_a_run_table(self, k):
        # an engine run builds the local series of every p^alpha <= 2^12 once;
        # a lattice read against them gives each row the bytes of its own lattice
        columns = columns_up_to(2**12)
        local = _local_series(columns, k)
        blocks = [range(lo, lo + 1024) for lo in range(1, 2**12, 1024)]
        for moduli in (*blocks, [720720], [2**11], [30030 * 1024]):
            run, lone = divisor_lattice(moduli, columns), divisor_lattice(moduli)
            assert np.array_equal(run.delta, lone.delta) and np.array_equal(run.phi, lone.phi)
            got = correction_table(run, k, local)
            assert np.array_equal(got, correction_table(lone, k)), moduli[0]

    def test_product_over_primes_matches_direct_value(self):
        assert correction_value_at(30, 6, 3, 2.0) == pytest.approx(
            correction_value_at(2, 2, 3, 2.0)
            * correction_value_at(3, 3, 3, 2.0)
            * correction_value_at(5, 1, 3, 2.0),
            rel=1e-14,
        )


def residue_oracle(q, delta, k):
    """Coefficients of ap_main_term(q, delta, k) at 40 digits, independent of
    the module: mpmath's Stieltjes constants give u zeta(1+u), and mp.taylor
    expands the Euler-product correction evaluated directly."""
    import mpmath as mp

    local = []  # (p, alpha, v_p(delta)) for each p^alpha || q, from one factorisation
    for p, alpha in factorize(q):
        beta = 0
        while delta % p ** (beta + 1) == 0:
            beta += 1
        local.append((p, alpha, beta))
    phi = math.prod(p ** (alpha - beta - 1) * (p - 1) for p, alpha, beta in local if beta < alpha)

    def correction(u):
        out = mp.mpf(1)
        for p, alpha, beta in local:
            euler = (1 - mp.power(p, -1 - u)) ** k
            if beta < alpha:
                out *= euler * d_k_of(p**beta, k) * mp.power(p, -beta * (1 + u))
            else:
                out *= 1 - euler * mp.fsum(
                    d_k_of(p**j, k) * mp.power(p, -j * (1 + u)) for j in range(alpha)
                )
        return out

    def times(a, b):
        return [mp.fsum(a[i] * b[j - i] for i in range(j + 1)) for j in range(k)]

    with mp.workdps(40):
        # u zeta(1+u) = 1 + sum_m (-1)^m gamma_m / m! u^(m+1)
        z = [mp.mpf(1)] + [(-1) ** m * mp.stieltjes(m) / mp.factorial(m) for m in range(k - 1)]
        h = times(mp.taylor(correction, 0, k - 1), [(-1) ** j for j in range(k)])
        for _ in range(k):
            h = times(h, z)
        scale = mp.mpf(q) / phi
        return [float(scale * h[k - 1 - j] / mp.factorial(j)) for j in range(k)]


def test_main_terms_match_mpmath_residue_oracle():
    worst, where, cases = 0.0, None, 0
    for k in range(1, 9):
        for q in (1, 2, 12, 30, 64, 97, 120, 128, 210, 243, 1024, 4096, 6561, 8192):
            for delta in divisors(q):
                want = residue_oracle(q, delta, k)
                got = ap_main_term(q, delta, k)
                assert len(got) == k
                err = max(abs(a - b) for a, b in zip(got, want)) / max(map(abs, want))
                cases += 1
                if err > worst:
                    worst, where = err, (k, q, delta)
    assert cases == 952
    assert worst <= 1e-11, f"worst relative error {worst:.2e} at (k, q, delta) = {where}"


def test_main_terms_match_the_oracle_up_to_two_to_the_eighteen():
    # the pinned factor beta = alpha is about p^(-alpha): at 3^11, 5^7 and the
    # prime 262139 the form 1 - (1 - x)^k sum_{j<alpha} cancels past 1e-11
    worst, where, cases = 0.0, None, 0
    for k in range(1, 9):
        for q in (5**7, 3**11, 262139, 2**18):
            for delta in divisors(q):
                want = residue_oracle(q, delta, k)
                got = ap_main_term(q, delta, k)
                err = max(abs(a - b) for a, b in zip(got, want)) / max(map(abs, want))
                cases += 1
                if err > worst:
                    worst, where = err, (k, q, delta)
    assert cases == 8 * (8 + 12 + 2 + 19)
    assert worst <= 1e-11, f"worst relative error {worst:.2e} at (k, q, delta) = {where}"


def test_prime_past_two_to_the_forty_matches_the_oracle():
    # 2^40 + 15 is prime and below (2^20 + 1)^2, so trial division certifies it
    q = 2**40 + 15
    worst, where = 0.0, None
    for k in range(1, 9):
        for delta in (1, q):
            want = residue_oracle(q, delta, k)
            got = ap_main_term(q, delta, k)
            err = max(abs(a - b) for a, b in zip(got, want)) / max(map(abs, want))
            if err > worst:
                worst, where = err, (k, delta)
    assert worst <= 1e-11, f"worst relative error {worst:.2e} at (k, delta) = {where}"


class TestApMainTerm:
    def test_full_modulus_one_k2(self):
        f = ap_main_term(1, 1, 2)
        assert f[1] == pytest.approx(1.0, abs=1e-14)
        assert f[0] == pytest.approx(2 * GAMMA0 - 1, abs=1e-14)

    def test_density_is_constant_one_for_k1(self):
        for q in (1, 2, 5, 12):
            for a in range(1, q + 1):
                f = ap_main_term(q, a, 1)
                assert f.tolist() == pytest.approx([1.0], abs=1e-12)

    def test_odd_class_mod_two_k2(self):
        f = ap_main_term(2, 1, 2)
        assert f[1] == pytest.approx(0.5, abs=1e-14)
        assert f[0] == pytest.approx(GAMMA0 + math.log(2) - 0.5, abs=1e-14)

    def test_degree_bound(self):
        for k in range(1, 6):
            for q in (1, 4, 30):
                assert ap_main_term(q, q, k).shape == (k,)

    def test_out_of_range_class_rejected(self):
        with pytest.raises(DomainError):
            ap_main_term(5, 6, 2)
        with pytest.raises(DomainError):
            ap_main_term(5, 0, 2)

    def test_hyperbola_ratio_tends_to_one(self, table_k2_1e6):
        # oracle: sum_{n<=X} d(n) = sum_{d<=X} floor(X/d), and the ratio
        # against X * f(X) approaches 1
        f = ap_main_term(1, 1, 2)
        prev_gap = None
        for x in (10**4, 10**6):
            hyper = sum(x // d for d in range(1, x + 1))
            gap = abs(hyper / (x * eval_logpoly(f, float(x))) - 1)
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap
        assert prev_gap < 1e-3

    def test_brute_force_class_sums_mod_two(self, table_k2_1e6):
        # direct AP count oracle at x = 1e6 for q=2, a=1
        from apvar import ap_sums

        counts = ap_sums(table_k2_1e6, 2, 10**6)
        f = ap_main_term(2, 1, 2)
        predicted = 10**6 * eval_logpoly(f, 1e6) / 2
        assert int(counts.sums[1]) == pytest.approx(predicted, rel=2e-3)


class TestDensityTable:
    """_residue_polys(q, k) = (delta, phi, polys), the one density table of q."""

    def test_phi_counts_each_gcd_class(self):
        for q in range(1, 361):
            delta, phi, _ = _residue_polys(q, 2)
            assert delta.tolist() == divisors(q), q
            assert phi.tolist() == [euler_phi(q // d) for d in delta.tolist()], q
            assert phi.tolist() == np.bincount(gcd_index(delta)).tolist(), q

    def test_class_mass_times_q_over_phi_is_the_density(self):
        # a class with gcd delta holds X P / phi: f(q, a) = q/phi * P
        delta, phi, polys = _residue_polys(360, 4)
        for a in (1, 7, 12, 90, 360):
            i = divisors(360).index(math.gcd(360, a))
            assert ap_main_term(360, a, 4).tolist() == (360 / phi[i] * polys[i]).tolist()


    @staticmethod
    def one_modulus_table(q, k):
        lattice = divisor_lattice([q])
        polys, order = residues.density_polys(lattice, k), np.argsort(lattice.delta)
        return tuple(a[order] for a in (lattice.delta, lattice.phi, polys))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_many_moduli_from_one_lattice_equal_one_modulus_tables(self, monkeypatch, k):
        # q <= 300, then the divisors of 2^60 and 720720 over a filled cache
        monkeypatch.setattr(residues, "_TABLES", {})
        for moduli in (range(1, 301), divisors(2**60), divisors(720720)):
            residues.density_tables(moduli, k)
            for q in moduli:
                for got, want in zip(_residue_polys(q, k), self.one_modulus_table(q, k)):
                    assert (got.dtype, got.shape) == (want.dtype, want.shape), q
                    assert got.tobytes() == want.tobytes(), q

    @pytest.mark.parametrize(
        "run",
        (
            lambda t: checks.parseval(t, 10**4),
            lambda t: checks.density_square_sum(10**4, t.k),
            lambda t: checks.dirichlet(t, 10**4),
            lambda t: m_poly(720720, 8),
        ),
        ids=("parseval", "density_square_sum", "dirichlet", "m_poly"),
    )
    def test_a_cold_sweep_builds_one_lattice(self, monkeypatch, table_k3_1e4, run):
        built = []

        def counting(moduli, *args):
            built.append(list(moduli))
            return divisor_lattice(moduli, *args)

        monkeypatch.setattr(residues, "_TABLES", {})
        monkeypatch.setattr(residues, "divisor_lattice", counting)
        m_poly.cache_clear()
        run(table_k3_1e4)
        assert len(built) == 1


class TestMPoly:
    def test_base_case_equals_density(self):
        assert m_poly(1, 2).tolist() == ap_main_term(1, 1, 2).tolist()

    def test_mod_two_k2(self):
        m = m_poly(2, 2)
        assert m[1] == pytest.approx(1.0, abs=1e-13)
        assert m[0] == pytest.approx(2 * GAMMA0 - 1 - 2 * math.log(2), abs=1e-13)

    def test_k1_is_indicator_of_modulus_one(self):
        assert m_poly(1, 1).tolist() == pytest.approx([1.0], abs=1e-14)

    def test_divisor_transform_reconstructs_density(self):
        # f(q, a) = sum_{d|q} c_d(a) M(d) / d, coefficientwise
        for k in (1, 2, 3, 4, 5):
            for q in range(1, 61):
                polys = {d: m_poly(d, k) for d in divisors(q)}
                for a in range(1, q + 1):
                    acc = np.zeros(k)
                    for d, m in polys.items():
                        acc = acc + (ramanujan_sum(d, a) / d) * m
                    f = ap_main_term(q, a, k)
                    for u, v in zip(f, acc):
                        assert abs(u - v) < 1e-10

    def test_class_sums_partition_total(self):
        # sum_a f(q, a) = q * f(1, 1), coefficientwise
        for k in (2, 3, 4):
            base = ap_main_term(1, 1, k)
            for q in (2, 3, 12, 40):
                acc = np.zeros(k)
                for a in range(1, q + 1):
                    acc = acc + ap_main_term(q, a, k)
                for u, v in zip(acc, q * base):
                    assert abs(u - v) < 1e-10


class TestFStar:
    def test_single_divisor(self):
        m = m_poly(1, 2)
        expected = np.convolve(m, m)
        assert f_star(1, 2).tolist() == pytest.approx(expected.tolist(), abs=1e-14)

    def test_mod_two_combination(self):
        m1, m2 = m_poly(1, 2), m_poly(2, 2)
        expected = np.convolve(m1, m1) + 0.25 * np.convolve(m2, m2)
        assert f_star(2, 2).tolist() == pytest.approx(expected.tolist(), abs=1e-13)
        assert f_star(2, 2).shape == (3,)

    def test_degree_bound(self):
        for k in (1, 2, 3):
            assert f_star(12, k).shape == (2 * k - 1,)

    def test_parseval_of_densities(self):
        # sum_a f(q,a)^2 evaluated at 1e3 equals q * f*(q) there
        for k in (2, 3):
            for q in (2, 9, 60):
                lhs = math.fsum(
                    eval_logpoly(ap_main_term(q, a, k), 1e3) ** 2
                    for a in range(1, q + 1)
                )
                rhs = q * eval_logpoly(f_star(q, k), 1e3)
                assert lhs == pytest.approx(rhs, rel=1e-9)


class TestEvalLogpoly:
    def test_constant(self):
        assert eval_logpoly(np.array([1.0]), 7.5) == 1.0

    def test_linear_at_hundred(self):
        poly = np.array([0.1544313, 1.0])
        assert eval_logpoly(poly, 100.0) == pytest.approx(4.7596015, abs=1e-6)

    def test_degree_zero_at_e(self):
        assert eval_logpoly(np.array([3.25]), math.e) == 3.25

    def test_table_equals_row_by_row(self):
        # one call over a (rows, k) table is the 1-D evaluation of each row
        _, _, polys = _residue_polys(360, 5)
        got = eval_logpoly(polys, 1e6)
        assert got.shape == (len(divisors(360)),)
        assert got.tolist() == [eval_logpoly(row, 1e6) for row in polys]

    def test_at_one_gives_constant_term(self):
        poly = np.array([0.75, -2.0, 3.0])
        assert eval_logpoly(poly, 1.0) == 0.75

    def test_below_one_or_non_finite_rejected(self):
        for x in (0.5, 0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                eval_logpoly(np.array([1.0]), x)


class TestCachedArraysAreReadOnly:
    """m_poly, ap_main_term and _residue_polys come from lru_caches, so an
    in-place write would corrupt every later main term."""

    @pytest.mark.parametrize(
        "get",
        (
            lambda: m_poly(12, 3),
            lambda: ap_main_term(12, 4, 3),
            lambda: _residue_polys(12, 3)[2],
            lambda: _residue_polys(12, 3)[1],
            lambda: _residue_polys(12, 3)[0],
        ),
        ids=("m_poly", "ap_main_term", "residue_polys", "residue_phi", "residue_deltas"),
    )
    def test_write_raises_and_later_calls_keep_values(self, get):
        before = get().tolist()
        with pytest.raises(ValueError):
            get()[0] += 1
        with pytest.raises(ValueError):
            get()[...] = 0
        assert get().tolist() == before


class TestDirichletSeriesOracle:
    def test_partial_sums_converge_to_corrected_zeta_power(self):
        # brute force: sum d_k(n)/n^2 over n <= 1e5 with gcd(n, 30) = 6
        n_max = 10**5
        for k in (2, 3):
            partial = 0.0
            for n in range(6, n_max + 1, 6):
                if math.gcd(n, 30) == 6:
                    partial += d_k_of(n, k) / n**2
            target = zeta_euler_maclaurin(2.0) ** k * correction_value_at(30, 6, k, 2.0)
            assert partial == pytest.approx(target, rel=1e-3)
